"""One Jordan path: a structure keeps its associator table and its dual, and
the restricted braid family is the pattern3 W vectors of `structures`.

`structures._kept` keeps the `Fraction` views, the associator table and a
coalgebra's dual algebra on the structure, so every check of one structure
reads one table and computes each basis associator at most once: at most
2 n^3 products, plus at most 2 n for the unit check.  The table holds the
structure's store, not the structure, so a structure that has been checked
is still freed by reference counting alone.  `constructions.
_restricted_family` is compared with the loop `jordan_r_restricted` ran
before (`_dense.restricted_family`).  Inputs are the registry structures,
perfbench's `cosym2.json`, and seeded random algebras of dimension at most
4.
"""
import gc
import json
import os
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense as dense
from test_associators import ASSOCIATIVE, algebras, rebased
from ybforge import cli, structures
from ybforge.constructions import (_adjoin_unit, _restricted_family,
                                   jordan_r_restricted)
from ybforge.structures import (AlgebraSpec, CoalgebraSpec,
                                check_algebra_props, coalgebra_props, dualize,
                                jordan_co_check, jordan_w_check)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

SEEDED = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)
MODES = ("pattern3", "symmetrized", "full")


@pytest.fixture
def products(monkeypatch):
    """A list that grows by one for each call of structures._mul."""
    calls = []
    mul = structures._mul

    def counting(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(structures, "_mul", counting)
    return calls


def _bound(S):
    """2 n^3 associator products, and 2 n for the unit check of an algebra
    that declares a unit."""
    return 2 * S.n ** 3 + (2 * S.n if getattr(S, "unit", None) is not None else 0)


@pytest.fixture
def cosym2(tmp_path):
    path = tmp_path / "cosym2.json"
    path.write_text(json.dumps(workloads.INPUTS["cosym2.json"]), "ascii")
    return str(path)


# source, mode, n, unital, exit status, _mul calls
CLI_COUNTS = [
    ("sym2jordan", "symmetrized", 3, True, 0, 60),
    ("sym2jordan", "full", 3, True, 1, 60),
    ("sym2jordan", "pattern3", 3, True, 0, 60),
    ("theorem22", "pattern3", 2, False, 0, 16),
    ("theorem22(2)", "pattern3", 2, False, 1, 6),
    ("cosym2.json", "pattern3", 3, False, 0, 54),
    ("cosym2.json", "symmetrized", 3, False, 0, 54),
    ("cosym2.json", "full", 3, False, 1, 10),
]


@pytest.mark.parametrize("source, mode, n, unital, status, count", CLI_COUNTS)
def test_algebra_check_computes_each_associator_once(
        products, capsys, cosym2, source, mode, n, unital, status, count):
    source = cosym2 if source == "cosym2.json" else source
    assert cli.main(["algebra-check", source, "--jordan-mode", mode]) == status
    capsys.readouterr()
    assert len(products) == count
    assert count <= 2 * n ** 3 + (2 * n if unital else 0)


def test_every_check_of_a_structure_reads_one_table(products):
    @SEEDED
    @given(algebras())
    def check(A):
        products.clear()
        comm = check_algebra_props(A).commutative
        if comm:
            for mode in MODES:
                jordan_w_check(A, mode)
        assert len(products) <= _bound(A)
        C = dualize(A)
        products.clear()
        assert coalgebra_props(C).cocommutative == comm
        if comm:
            for mode in MODES:
                jordan_co_check(C, mode)
        assert len(products) <= _bound(C)

    check()


def _every_check(S):
    """Every check of this module on S, its views read too."""
    if isinstance(S, CoalgebraSpec):
        assert S.d is S.d
        if coalgebra_props(S).cocommutative:
            for mode in MODES:
                jordan_co_check(S, mode)
        return
    assert S.c is S.c
    props = check_algebra_props(S)
    if props.commutative:
        for mode in MODES:
            jordan_w_check(S, mode)
    if props.jordan:
        jordan_r_restricted(S, 1, 2, 1)


def test_a_checked_structure_is_freed_without_the_cycle_collector():
    @SEEDED
    @given(algebras())
    def check(drawn):
        table, unit = drawn.c, drawn.unit
        gc.disable()
        try:
            A = AlgebraSpec(drawn.basis, table, unit)
            C = CoalgebraSpec(drawn.basis, dualize(A).d)
            _every_check(A)
            _every_check(C)
            refs = weakref.ref(A), weakref.ref(C)
            del A, C
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    check()


@st.composite
def jordan_algebras(draw):
    """(ab + ba)/2 on an associative algebra of ASSOCIATIVE in a random
    basis, with or without its unit."""
    c, unit = draw(st.sampled_from(ASSOCIATIVE))(draw(st.integers(1, 4)))
    n = len(c)
    c = [[[Fraction(c[i][j][k] + c[j][i][k], 2) for k in range(n)]
          for j in range(n)] for i in range(n)]
    low = [[draw(st.integers(-2, 2)) if b < a else int(a == b)
            for b in range(n)] for a in range(n)]
    J = rebased(c, unit, low)
    if draw(st.booleans()):
        J = AlgebraSpec(J.basis, J.c)
    return J


def test_restricted_family_is_the_loop_it_replaced():
    seen = set()

    @SEEDED
    @given(jordan_algebras())
    def check(J):
        props = check_algebra_props(J)
        assert props.jordan
        jp, offset = (J, 0) if props.unital else (_adjoin_unit(J), 1)
        got = _restricted_family(J, offset)
        want = dense.restricted_family(jp, offset)
        assert len(got) == len(want) == 2 * J.n ** 2 * (J.n + 1) * (J.n + 2) // 6
        for vec, dense_vec in zip(got, want):
            assert [Fraction(vec.get(i, 0), jp.den)
                    for i in range(jp.n ** 3)] == dense_vec
        seen.add(props.unital)

    check()
    assert seen == {True, False}

