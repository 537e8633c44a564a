"""Grid-based polynomial identity testing: guards and certification logic."""
from fractions import Fraction

import pytest

from ybforge.exactla import mat_from_rows
from ybforge.paramgrid import (GridConfigError, IdentityJob, default_grid,
                               grid_verify)


def test_default_grid():
    assert default_grid(4) == [0, 1, 2, 3]
    assert default_grid(4, nonzero=True) == [1, 2, 3, 4]
    assert default_grid(1) == [0]
    assert all(isinstance(x, Fraction) for x in default_grid(3))


def _const_job(grids, bound=1):
    def ev(assign):
        m = mat_from_rows([[assign["u"]]])
        return m, m
    return IdentityJob("u = u", [("u", bound)], grids, ev)


def test_grid_verify_guards():
    with pytest.raises(GridConfigError):
        grid_verify(_const_job({}, bound=1))
    with pytest.raises(GridConfigError):
        grid_verify(_const_job({"u": [0, 1, 1]}, bound=1))
    with pytest.raises(GridConfigError):
        grid_verify(_const_job({"u": [0]}, bound=1))


def test_grid_verify_true_is_certified():
    res = grid_verify(_const_job({"u": [0, 1]}, bound=1))
    assert res.verdict and res.certified and res.witness is None
    assert res.certificate == {"u": (2, 1)}
    assert bool(res)


def test_grid_verify_finds_witness():
    # f(u) = u(u-1)(u-2) vanishes on {0,1,2}; an honest cubic bound forces a
    # 4th point, which exposes it
    def ev(assign):
        u = assign["u"]
        lhs = mat_from_rows([[u * (u - 1) * (u - 2)]])
        return lhs, mat_from_rows([[Fraction(0)]])

    job = IdentityJob("cubic vs 0", [("u", 3)], {"u": default_grid(4)}, ev)
    res = grid_verify(job)
    assert not res.verdict and not res.certified
    assert res.witness == {"u": 3}
    assert not bool(res)
    # an understated bound of 2 would accept a 3-point grid and miss it;
    # the refusal to certify is what the bound+1 rule protects
    small = IdentityJob("cubic vs 0", [("u", 2)], {"u": default_grid(3)}, ev)
    assert grid_verify(small).verdict


def test_grid_verify_multi_variable():
    def ev(assign):
        u, v = assign["u"], assign["v"]
        return (mat_from_rows([[(u + v) ** 2]]),
                mat_from_rows([[u * u + 2 * u * v + v * v]]))

    job = IdentityJob("binomial", [("u", 2), ("v", 2)],
                      {"u": default_grid(3), "v": default_grid(3)}, ev)
    res = grid_verify(job)
    assert res.verdict and res.certified
    assert res.certificate == {"u": (3, 2), "v": (3, 2)}
