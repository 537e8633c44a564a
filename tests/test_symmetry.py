"""Symmetry-reduced braid and QYBE checks against the symmetry-free scan.

`braid_check`, `braid_witness`, `qybe_check` and `qybe_witness` push the
e_0 slab (the columns e_0(x)e_j(x)e_k), and only when it agrees one column
per orbit of the verified permutations g with (g(x)g) R = R (g(x)g).  Seeded
hypothesis operators with n <= 4 compare their verdicts and witnesses with
the dense products of `_dense`:
- a random sparse operator, a diagonal one or tau times a diagonal one
  (the last two satisfy the QYBE and the braid equation), symmetrised over
  a random permutation group and relabelled by a random permutation: the
  search must find the planted group, and every permutation it keeps must
  commute with R, checked entry by entry from r.mat;
- operators that are tau (braid) or the identity (QYBE) on every pair that
  holds e_0 and random elsewhere: the slab agrees, so a FAIL lies only in
  later columns;
- a planted operator with one entry changed, which keeps exactly the
  planted permutations that fix that entry;
- the same operators with the search's node budget cut short.
Two exact cases: rA(2,3,2) over the 3x3 matrix algebra (|G| = 6, 81 late
representatives, 162 of 729 columns pushed per braid word) and over Q^6
(the symmetric group S_6, with five orbits on V(x)3).
Costs: a witness past the slab pushes each column at most once per word,
and the search runs only when a check reads past the slab.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from _dense import dense_witness, dense_word
from ybforge import ybcore
from ybforge.constructions import r_algebra
from ybforge.exactla import Mat
from ybforge.structures import AlgebraSpec
from ybforge.ybcore import (LinOp2, _late_columns, _symmetry, braid_check,
                            braid_qybe_equiv, braid_witness, qybe_check,
                            qybe_witness, with_twist)

SEEDED = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)
VALUES = st.sampled_from([1, 1, -1, 2, -2, 3])


def closure(gens, n):
    """The permutation group generated by gens, as a set of tuples."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        h = stack.pop()
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return group


def moved(g, idx):
    return tuple(g[a] for a in idx)


def operator(n, entries):
    """The LinOp2 with numerator x at (p, q, i, j) for each entry: column
    e_i(x)e_j, row e_p(x)e_q."""
    num = [0] * n ** 4
    for (p, q, i, j), x in entries.items():
        num[(p * n + q) * n * n + i * n + j] = x
    return LinOp2(n, Mat(n * n, n * n, num))


def commutes_densely(r, g):
    """(g(x)g) R = R (g(x)g), from every entry of r.mat, zeros included."""
    n = r.n
    return all(r.mat.entry(p * n + q, i * n + j)
               == r.mat.entry(g[p] * n + g[q], g[i] * n + g[j])
               for p, q, i, j in itertools.product(range(n), repeat=4))


@st.composite
def planted(draw):
    """(r, group): r commutes with every g(x)g of the permutation group."""
    n = draw(st.integers(1, 4))
    perms = st.permutations(range(n)).map(tuple)
    group = closure(draw(st.lists(perms, min_size=1, max_size=2)), n)
    kind = draw(st.sampled_from(["random", "diagonal", "twisted"]))
    pairs = list(itertools.product(range(n), repeat=2))
    if kind == "random":
        idx = st.tuples(*[st.integers(0, n - 1)] * 4)
        raw = draw(st.dictionaries(idx, VALUES, min_size=1, max_size=8))
    else:
        diag = {(i, j): draw(VALUES) for i, j in pairs}
        raw = {((j, i) if kind == "twisted" else (i, j)) + (i, j): x
               for (i, j), x in diag.items()}
    entries = {}
    for idx, x in raw.items():
        for g in group:
            entries[moved(g, idx)] = entries.get(moved(g, idx), 0) + x
    # relabel the basis by pi, which conjugates the group
    pi = draw(perms)
    inv = [0] * n
    for a, b in enumerate(pi):
        inv[b] = a
    entries = {moved(pi, idx): x for idx, x in entries.items()}
    group = {tuple(pi[g[inv[a]]] for a in range(n)) for g in group}
    return n, entries, group


@st.composite
def late_failures(draw):
    """(r, flavour): tau (braid) or the identity (QYBE) on the pairs that
    hold e_0, and a random operator symmetrised over a group fixing 0 on the
    other pairs.  The e_0 slab of the flavour's identity agrees."""
    n = draw(st.integers(3, 4))
    flavour = draw(st.sampled_from(["braid", "qybe"]))
    perms = st.permutations(range(1, n)).map(lambda p: (0,) + tuple(p))
    group = closure(draw(st.lists(perms, min_size=1, max_size=2)), n)
    idx = st.tuples(*[st.integers(1, n - 1)] * 4)
    raw = draw(st.dictionaries(idx, VALUES, min_size=1, max_size=8))
    entries = {}
    for idx, x in raw.items():
        for g in group:
            entries[moved(g, idx)] = entries.get(moved(g, idx), 0) + x
    for a in range(n):
        pairs = {(0, a), (a, 0)}
        for i, j in pairs:
            entries[((j, i) if flavour == "braid" else (i, j)) + (i, j)] = 1
    return n, entries, flavour


def assert_matches_dense(r):
    """Verdicts and witnesses of both identities equal the dense ones; the
    braid and QYBE (lhs, rhs) dense pairs are returned."""
    braid = (dense_word((r, 12), (r, 23), (r, 12)),
             dense_word((r, 23), (r, 12), (r, 23)))
    qybe = (dense_word((r, 12), (r, 13), (r, 23)),
            dense_word((r, 23), (r, 13), (r, 12)))
    assert braid_check(r) == (braid[0] == braid[1])
    assert braid_witness(r) == dense_witness(r.n, *braid)
    assert qybe_check(r) == (qybe[0] == qybe[1])
    assert qybe_witness(r) == dense_witness(r.n, *qybe)
    for g in r._perms or ():
        assert commutes_densely(r, g)
    return braid, qybe


def test_planted_groups():
    seen = set()

    @SEEDED
    @given(planted(), st.data())
    def check(case, data):
        n, entries, group = case
        r = operator(n, entries)
        assert_matches_dense(r)
        assert group <= closure(_symmetry(r), n)
        # one entry changed: the planted permutations that move it are lost
        idx = data.draw(st.tuples(*[st.integers(0, n - 1)] * 4))
        tampered = dict(entries)
        tampered[idx] = tampered.get(idx, 0) + 1
        t = operator(n, tampered)
        assert_matches_dense(t)
        found = closure(_symmetry(t), n)
        for g in group:
            assert (g in found) == (moved(g, idx) == idx)
        seen.add((len(group) > 1, braid_check(r), qybe_check(r),
                  len(found) < len(group)))

    check()
    # nontrivial groups on PASS verdicts of both identities, and tampering
    # that breaks a group
    assert {(True, True, False), (True, False, True)} <= {s[:3] for s in seen}
    assert any(s[0] and s[3] for s in seen)


def test_failures_outside_the_slab():
    seen = set()

    @SEEDED
    @given(late_failures())
    def check(case):
        n, entries, flavour = case
        r = operator(n, entries)
        braid, qybe = assert_matches_dense(r)
        lhs, rhs = braid if flavour == "braid" else qybe
        slab = range(n * n)
        assert all(lhs.entry(row, c) == rhs.entry(row, c)
                   for row in range(n ** 3) for c in slab)
        seen.add((lhs == rhs, len(closure(_symmetry(r), n)) > 1))

    check()
    assert (False, True) in seen


def test_an_exhausted_budget_keeps_the_verdicts():
    seen = set()

    @SEEDED
    @given(planted(), st.sampled_from([0, 1, 2, 3, 5]))
    def check(case, budget):
        n, entries, group = case
        full = closure(_symmetry(operator(n, entries)), n)
        r = operator(n, entries)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ybcore, "_SEARCH_NODES", budget)
            assert_matches_dense(r)
        cut = closure(_symmetry(r), n)
        assert cut <= full
        seen.add(len(cut) < len(full))

    check()
    assert seen == {True, False}


def matrix_algebra(k):
    """M_k(Q) with basis E_ab row-major: E_ab E_pq = [b = p] E_aq."""
    names = [(a, b) for a in range(k) for b in range(k)]
    c = [[[int(b == p and (a, q) == e) for e in names] for p, q in names]
         for a, b in names]
    return AlgebraSpec(["E%d%d" % ab for ab in names], c,
                       unit=[int(a == b) for a, b in names])


def counted_pushes(monkeypatch):
    """The list that collects every vector `_push` yields from now on."""
    pushed = []
    push = ybcore._push

    def counted(word, starts):
        for out in push(word, starts):
            pushed.append(out)
            yield out

    monkeypatch.setattr(ybcore, "_push", counted)
    return pushed


def test_ra_over_the_3x3_matrices(monkeypatch):
    r = r_algebra(matrix_algebra(3), 2, 3, 2)
    assert len(closure(_symmetry(r), 9)) == 6
    assert len(_late_columns(r)) == 81
    pushed = counted_pushes(monkeypatch)
    assert braid_witness(r) is None
    assert len(pushed) == 2 * 162


def test_ra_over_q6():
    q6 = AlgebraSpec(["e%d" % i for i in range(6)],
                     [[[int(i == j == k) for k in range(6)] for j in range(6)]
                      for i in range(6)], unit=[1] * 6)
    r = r_algebra(q6, 2, 3, 2)
    group = closure(_symmetry(r), 6)
    assert len(group) == 720
    orbits = {min(moved(g, c) for g in group)
              for c in itertools.product(range(6), repeat=3)}
    assert len(orbits) == 5
    assert list(_late_columns(r)) == []
    assert braid_check(r) and braid_witness(r) is None


def counted_searches(monkeypatch):
    """The list that collects n for every `_automorphisms` call from now
    on."""
    searches = []
    search = ybcore._automorphisms

    def counted(n, entries):
        searches.append(n)
        return search(n, entries)

    monkeypatch.setattr(ybcore, "_automorphisms", counted)
    return searches


def test_twisted_operators_take_the_permutations(monkeypatch):
    r = r_algebra(matrix_algebra(2), 2, 3, 2)
    searches = counted_searches(monkeypatch)
    assert braid_qybe_equiv(r)
    assert searches == [4]
    assert len(closure(r._perms, 4)) == 2
    for left in (False, True):
        assert with_twist(r, left)._perms == r._perms
    # a permutation that does not commute with the twisted operator is
    # dropped by the check on its entries
    r._perms = r._perms + [(1, 0, 2, 3)]
    assert with_twist(r)._perms == r._perms[:-1]


def test_a_witness_past_the_slab_pushes_each_column_once(monkeypatch):
    pushed = counted_pushes(monkeypatch)
    seen = set()

    @SEEDED
    @given(late_failures())
    def check(case):
        n, entries, flavour = case
        r = operator(n, entries)
        braid, qybe = assert_matches_dense(r)
        for witness, (lhs, rhs) in ((braid_witness, braid),
                                    (qybe_witness, qybe)):
            del pushed[:]
            assert witness(r) == dense_witness(n, lhs, rhs)
            assert len(pushed) <= 2 * n ** 3
        seen.add(len(closure(_symmetry(r), n)) > 1)

    check()
    assert True in seen
    # the identity on every pair that holds e_0, symmetric under swapping
    # e_1 and e_2 elsewhere: the QYBE holds on the slab and fails past it
    entries = {(i, j, i, j): 1 for i in range(3) for j in range(3)
               if 0 in (i, j)}
    entries.update({(1, 2, 2, 1): 1, (2, 1, 1, 2): 1,
                    (1, 1, 1, 2): 2, (2, 2, 2, 1): 2})
    r = operator(3, entries)
    qybe = (dense_word((r, 12), (r, 13), (r, 23)),
            dense_word((r, 23), (r, 13), (r, 12)))
    del pushed[:]
    assert qybe_witness(r) == dense_witness(3, *qybe) == ((1, 2, 1), (1, 1, 1))
    assert closure(r._perms, 3) == {(0, 1, 2), (0, 2, 1)}
    assert len(pushed) == 2 * 27


@pytest.mark.parametrize("params, searches", [((3, 1, 2), 0), ((2, 3, 2), 1)])
def test_the_column_sequence_stays_lazy(monkeypatch, params, searches):
    """rA(3,1,2) over M_3 fails both identities in the slab, so no check
    searches; rA(2,3,2) passes the braid equation, which searches once, and
    the operator keeps the result."""
    found = counted_searches(monkeypatch)
    r = r_algebra(matrix_algebra(3), *params)
    for check in (braid_check, braid_witness, qybe_check, qybe_witness):
        check(r)
    assert len(found) == searches
