"""Rational grids and per-variable degree bounds for the parameter families.

A polynomial of degree < g in each variable that vanishes on a tensor grid
of g distinct points per variable is zero.  The `colored` and `oneparam`
verdicts come from exact coefficient expansion in `constructions`; the
bounds here decide their `certified` flag, size the default grid that
orders a FAIL's witness search and set the CLI's refusal of undersized
grids.  No verdict comes from `grid_verify` (exhaustive evaluation of an
`IdentityJob`) any more; only the tests call it.
"""
import itertools
from collections import namedtuple
from fractions import Fraction


class GridConfigError(ValueError):
    """Grid too small (or malformed) to certify the claimed degree bound."""


# variables: [(name, degree_bound), ...]; grids: name -> list of distinct
# Rat, len >= bound+1; evaluator: assignment dict -> (lhs Mat, rhs Mat)
IdentityJob = namedtuple("IdentityJob", "description variables grids evaluator")


class GridResult(namedtuple(
        "GridResult", "description verdict certified witness certificate")):
    """certificate: variable name -> (grid size, degree bound)."""
    __slots__ = ()

    def __bool__(self):
        return self.verdict


def default_grid(size, nonzero=False):
    """Small-integer grid: {0..size-1}, or {1..size} when 0 is excluded."""
    start = 1 if nonzero else 0
    return [Fraction(i) for i in range(start, start + size)]


def grid_verify(job):
    names = []
    for name, bound in job.variables:
        grid = job.grids.get(name)
        if grid is None:
            raise GridConfigError("no grid for variable %r" % name)
        if len(set(grid)) != len(grid):
            raise GridConfigError("grid for %r has repeated points" % name)
        if len(grid) < bound + 1:
            raise GridConfigError(
                "grid for %r has %d points; degree bound %d needs %d"
                % (name, len(grid), bound, bound + 1))
        names.append(name)
    certificate = {name: (len(job.grids[name]), bound)
                   for name, bound in job.variables}
    for values in itertools.product(*(job.grids[n] for n in names)):
        assign = dict(zip(names, values))
        lhs, rhs = job.evaluator(assign)
        if lhs != rhs:
            return GridResult(job.description, False, False, assign, certificate)
    return GridResult(job.description, True, True, None, certificate)


# Conservative per-variable degree bounds, re-derived here:
#  - rA-braid: R^A entries are linear in each of alpha, beta, gamma; each
#    side of the braid equation is a product of three lifts, so degree <= 3.
#  - colored: R(u,v) entries are linear in u, v, p, q; triple products give
#    degree <= 3 per variable (u and p actually appear in at most two and
#    three factors; 3 is a safe common bound).
#  - oneparam: S(ti/tj) entries are linear in ti/tj and in q.  Clearing the
#    denominators t2*t3^2 from the triple products leaves polynomials of
#    degree <= 2 per ti per factor, <= 6 per side; q appears in three
#    factors, degree <= 3 <= 6.
# The colored and oneparam verdicts come from exact coefficient expansion in
# constructions, not from the grid; their bounds here only decide the
# `certified` flag and the CLI's refusal of undersized grids.
#  - wxz38: W, X, Z entries are linear in lambda resp. mu; the commutator
#    conditions are triple products, degree <= 3.
# The Jordan identity needs no grid: structures decides it exactly by
# polarisation on basis multisets.
_BOUNDS = {
    "rA-braid": {"alpha": 3, "beta": 3, "gamma": 3},
    "colored": {"u": 3, "v": 3, "w": 3, "p": 3, "q": 3},
    "oneparam": {"t1": 6, "t2": 6, "t3": 6, "q": 6},
    "wxz38": {"lambda": 3, "mu": 3},
}


def degree_bounds(tag):
    """Bound table for a known construction tag."""
    try:
        return dict(_BOUNDS[tag])
    except KeyError:
        raise ValueError("unknown construction tag %r" % (tag,)) from None
