"""Rational grids and grid results for the parameter families.

A polynomial of degree < g in each variable that vanishes on a tensor grid
of g distinct points per variable is zero.  The degree bound of each family
lives beside it in `constructions`, whose verifiers decide by exact
coefficient expansion and build the `GridResult`.  No verdict comes from
`grid_verify` (exhaustive evaluation of an `IdentityJob`) any more; only
the tests call it.
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

