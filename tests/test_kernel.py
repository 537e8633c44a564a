"""The slot-action kernel `ybcore._push` against the dense lifts of `_dense`.

Random sparse operators with n <= 4 and small integer or rational entries
come from a seeded hypothesis strategy; the entries -1, 0 and 1 dominate, so
that sums cancel often.  Each word's kernel output, column by column, must
equal the dense product of its lifts on slot pairs 12, 13 and 23, with zero
entries absent.  Pencil words (factors that are sums of monomial * operator)
go through the kernel with each factor packed into one operator at
x = 2^width, wide enough that the output unpacks into the coefficient of
every monomial; those must equal the dense coefficient expansion, with zero
monomials absent.  `yb_forms`, which packs as tightly as its coefficient
bound allows, is compared with the dense expansion: its verdict (no form
remains) and its forms, which must be the reduced row basis of the dense
expansion's difference (Laurent monomials, pieces that cancel, and a
coefficient at the packing bound); `_braid_kills` is compared with the
dense braid difference on random sparse vectors, and the verdicts and
witnesses with dense products.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _dense import (dense_lift, dense_witness, dense_word, identity2, mat_add,
                    mat_apply, mat_identity, mat_sub, mat_zeros, twist)
from ybforge.exactla import (Mat, common_den, kron, mat_from_rows,
                             row_space_basis)
from ybforge.ybcore import (LinOp2, _braid_kills, _push, _slot_view, _word,
                            braid_check, braid_witness, qybe_check,
                            qybe_witness, yb_forms, yb_vanishes)

SEEDED = settings(derandomize=True, max_examples=30, deadline=None,
                  database=None)
POS = (12, 13, 23)
ENTRY = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 1, -1]),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def operators(draw, n):
    rows = [[Fraction(draw(ENTRY)) for _ in range(n * n)] for _ in range(n * n)]
    return LinOp2(n, mat_from_rows(rows))


@st.composite
def plain_words(draw):
    n = draw(st.sampled_from((1, 2, 3, 4)))
    ops = [draw(operators(n)) for _ in range(draw(st.integers(1, 3)))]
    return n, [(draw(st.sampled_from(ops)), draw(st.sampled_from(POS)))
               for _ in range(draw(st.integers(1, 4)))]


def kernel_columns(word, n):
    return list(_push(word, range(n ** 3)))


def assert_column(vec, mat, c, den):
    """vec is the numerators of column c of a word whose dense matrix is mat
    and whose numerators are over den."""
    assert 0 not in vec.values()
    for row in range(mat.rows):
        assert Fraction(vec.get(row, 0), den) == mat.entry(row, c)


@SEEDED
@given(plain_words())
def test_plain_word_matches_dense_product(case):
    n, factors = case
    den = 1
    for op, _pos in factors:
        den *= op.mat.den
    dense = dense_word(*factors)
    for c, out in enumerate(kernel_columns(_word(*factors), n)):
        assert_column(out, dense, c, den)


def test_words_that_cancel_to_zero():
    # N e_1(x)e_1 = e_0(x)e_0 and N^2 = 0, so every column of N12 N12 is zero
    # after a nonzero middle vector
    num = [0] * 16
    num[0 * 4 + 3] = 1
    nil = LinOp2(2, Mat(4, 4, num))
    assert kernel_columns(_word((nil, 12), (nil, 12)), 2) == [{}] * 8
    assert kernel_columns(_word((nil, 12)), 2)[6] == {0: 1}
    # columns (0,0) and (0,1) of D both map to e_0(x)e_0 with opposite signs,
    # so D cancels on their sum, in the middle of a longer word
    num = [0] * 16
    num[0 * 4 + 0], num[0 * 4 + 1] = 1, -1
    diff = LinOp2(2, Mat(4, 4, num))
    ident = identity2(2)
    word = _word((ident, 13), (diff, 12), (ident, 23))
    assert list(_push(word, [{0: 3, 2: 3}, {0: 3, 2: 0}, {}])) == [
        {}, {0: 3}, {}]
    dense = dense_word((ident, 13), (diff, 12), (ident, 23))
    for c, out in enumerate(kernel_columns(word, 2)):
        assert_column(out, dense, c, 1)


def test_slot_views_match_dense_lifts():
    for n in (1, 2, 3, 4):
        num = [(7 * i) % 5 - 2 for i in range(n ** 4)]
        op = LinOp2(n, Mat(n * n, n * n, num))
        for pos in POS:
            lifted = dense_lift(op, pos)
            view = _slot_view(op, pos)
            for c, (rest, column) in enumerate(view):
                got = {offset + rest: m for offset, m in column}
                want = {row: lifted.entry(row, c) for row in range(n ** 3)
                        if lifted.entry(row, c)}
                assert got == want
    with pytest.raises(ValueError):
        _slot_view(op, 21)


# --- pencil words ----------------------------------------------------------

@st.composite
def pencil_words(draw):
    """A word of two or three factors, each a pencil of up to three pieces
    over one denominator, with monomials in two variables packed as
    x^a y^b -> a + 16 b.  Pieces often repeat an operator with the opposite
    sign under another monomial, so that terms of one monomial cancel."""
    n = draw(st.sampled_from((1, 2, 3)))
    ops = [draw(operators(n)) for _ in range(2)]
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        monos = draw(st.lists(st.sampled_from([0, 1, 16, 17]), min_size=1,
                              max_size=3, unique=True))
        pieces = []
        for mono in monos:
            op = draw(st.sampled_from(ops))
            if draw(st.booleans()):
                op = LinOp2(n, Mat(n * n, n * n, [-x for x in op.mat.num],
                                   op.mat.den))
            pieces.append((mono, op))
        factors.append((pieces, draw(st.sampled_from(POS))))
    return n, factors


def on_one_denominator(pieces):
    den = 1
    for _m, op in pieces:
        den *= op.mat.den
    return den, [(m, LinOp2(op.n, Mat(op.mat.rows, op.mat.cols,
                                      [x * (den // op.mat.den) for x in op.mat.num],
                                      den, _reduced=True))) for m, op in pieces]


def packed_word(factors):
    """(word, width): the kernel's word for the pencil factors (pieces, pos),
    written left to right, with each factor packed into one operator at
    x = 2^width.  Every coefficient of the word is at most the product of
    the factors' largest column l1 norms of sum |piece|, so width leaves
    room for balanced digits."""
    bound, word = 1, []
    for pieces, _pos in factors:
        nn = pieces[0][1].mat.cols
        norms = [sum(map(abs, e))
                 for e in zip(*(op.mat.num for _m, op in pieces))]
        bound *= max(sum(norms[c::nn]) for c in range(nn))
    width = bound.bit_length() + 1
    for pieces, pos in reversed(factors):
        op = pieces[0][1]
        num = [sum(x << width * m for (m, _op), x in zip(pieces, entry))
               for entry in zip(*(op.mat.num for _m, op in pieces))]
        packed = LinOp2(op.n, Mat(op.mat.rows, op.mat.cols, num, op.mat.den,
                                  _reduced=True))
        word.append(_slot_view(packed, pos))
    return word, width


def unpacked_columns(word, width, n):
    """{monomial: numerators} of each column of a packed word, unpacked
    digit by digit into balanced coefficients."""
    half, digits = 1 << (width - 1), (1 << width) - 1
    for vec in kernel_columns(word, n):
        assert 0 not in vec.values()
        out = {}
        for row, x in vec.items():
            mono = 0
            while x:
                coef = x & digits
                if coef >= half:
                    coef -= 1 << width
                if coef:
                    out.setdefault(mono, {})[row] = coef
                x, mono = (x - coef) >> width, mono + 1
        yield out


def dense_expansion(factors):
    """{monomial: dense coefficient matrix}, written left to right."""
    groups = {}
    for choice in itertools.product(*(pieces for pieces, _pos in factors)):
        mono = sum(m for m, _op in choice)
        prod = dense_word(*((op, pos) for (_m, op), (_p, pos)
                            in zip(choice, factors)))
        groups[mono] = (mat_add(groups[mono], prod) if mono in groups
                        else prod)
    return groups


@SEEDED
@given(pencil_words())
def test_pencil_word_matches_dense_expansion(case):
    n, factors = case
    den, shared = 1, []
    for pieces, pos in factors:
        d, pieces = on_one_denominator(pieces)
        den *= d
        shared.append((pieces, pos))
    groups = dense_expansion(shared)
    for c, out in enumerate(unpacked_columns(*packed_word(shared), n)):
        want = {}
        for mono, mat in groups.items():
            col = {row: mat.entry(row, c) * den for row in range(n ** 3)
                   if mat.entry(row, c)}
            if col:
                want[mono] = col
        assert out == want


def test_pencil_pieces_that_cancel_each_other():
    # (1 + x) A12 times (1 - x) I13: the x terms of the word cancel, so its
    # expansion holds only the monomials 1 and x^2
    a = LinOp2(2, Mat(4, 4, [(3 * i) % 4 - 1 for i in range(16)]))
    minus = LinOp2(2, Mat(4, 4, [-x for x in identity2(2).mat.num]))
    word, width = packed_word([([(0, a), (1, a)], 12),
                               ([(0, identity2(2)), (1, minus)], 13)])
    columns = list(unpacked_columns(word, width, 2))
    assert any(columns)
    for out in columns:
        assert set(out) <= {0, 2}
        assert out.get(2, {}) == {o: -x for o, x in out.get(0, {}).items()}
    # the same cancellation inside both words of [R, S, T]: R = (1 + x) A,
    # S = (1 - x) I and T = I give (1 - x^2) [A, I, I] = 0
    r = [((1,), a), ((0,), a)]
    s = [((0,), identity2(2)), ((1,), minus)]
    t = [((0,), identity2(2))]
    assert yb_forms(r, s, t) == []
    # with T = A instead, (1 - x^2) [A, I, A] vanishes iff [A, I, A] does
    assert (not yb_forms(r, s, [((0,), a)])) == yb_vanishes(a, identity2(2), a)


def test_expansion_refuses_repeated_monomials():
    # and pieces over two denominators
    ident = identity2(2)
    thrice = LinOp2(2, Mat(4, 4, [3 * x for x in ident.mat.num], 3,
                           _reduced=True))
    for r in ([((1,), ident), ((1,), ident)], [((0,), ident), ((1,), thrice)]):
        with pytest.raises(ValueError):
            yb_forms(r, [((0,), ident)], [((0,), ident)])


def test_expansion_keeps_monomials_apart():
    # With P = a(x)1 and Q = c(x)1, [P, Q, I] = (ac - ca)(x)1(x)1, so
    # R = x P + y Q, S = x Q + P and T = I give (x^2 - y)(ac - ca)(x)1(x)1:
    # the x and xy terms vanish, and x^2 and y must stay two monomials
    # however the exponents are packed.
    def simple(m):
        return LinOp2(2, kron(mat_from_rows(m), mat_identity(2)))

    p, q = simple([[0, 1], [0, 0]]), simple([[0, 0], [1, 0]])
    ident = identity2(2)
    assert yb_forms([((1, 0), p), ((0, 1), q)], [((1, 0), q), ((0, 0), p)],
                    [((0, 0), ident)]) == [{(2, 0): 1, (0, 1): -1}]
    assert yb_forms([((1, 0), p), ((0, 1), p)], [((1, 0), p), ((0, 0), p)],
                    [((0, 0), ident)]) == []


def diag(*d):
    """The diagonal operator on V(x)V, dim V = 2, with diagonal d."""
    return LinOp2(2, Mat(4, 4, [d[i // 4] if i // 4 == i % 4 else 0
                                for i in range(16)]))


def test_expansion_at_the_coefficient_bound():
    # R = x^-2 tau, S = diag(3 x^-1, 0, 1 - x^-1, 0) over e_00, e_01, e_10,
    # e_11 and T = y^-1 I.  R12 S13 T23 takes e_ijk to s_ik e_jik times
    # x^-2 y^-1, and T23 S13 R12 to s_jk e_jik, so [R, S, T] is x^-3 y^-1
    # (4 - x) up to sign where {i, j} = {0, 1} and k = 0, and zero elsewhere.
    # The coefficient bound C = 1 * 3 * 1 is reached by the first word, and
    # 4 - x vanishes at x = 4 = 2^bit_length(C): the verdict needs the
    # packing width bit_length(2C).
    tau, ident = twist(2), identity2(2)
    s_low, s_one = diag(3, 0, -1, 0), diag(0, 0, 1, 0)
    s = [(0, s_low), (1, s_one)]
    left = dense_expansion([([(0, tau)], 12), (s, 13), ([(0, ident)], 23)])
    right = dense_expansion([([(0, ident)], 23), (s, 13), ([(0, tau)], 12)])
    assert max(abs(x) for mat in left.values() for x in mat.num) == 3
    assert not expansions_agree(left, right)
    r, t = [((-2, 0), tau)], [((0, -1), ident)]
    assert yb_forms(r, [((-1, 0), s_low), ((0, 0), s_one)], t)
    # with s_10 = 3 x^-1 = s_00 the two words agree
    assert yb_forms(r, [((-1, 0), diag(3, 0, 3, 0))], t) == []


def expansions_agree(left, right):
    for mono in set(left) | set(right):
        a, b = left.get(mono), right.get(mono)
        if a is None or b is None:
            if any((a or b).num):
                return False
        elif a != b:
            return False
    return True


def test_expanded_verdict_matches_dense():
    seen = set()

    @SEEDED
    @given(pencil_words())
    def check(case):
        n, factors = case
        r, s, t = ([on_one_denominator(p)[1] for p, _pos in factors]
                   + [[(0, identity2(n))]])[:3]
        left = dense_expansion([(r, 12), (s, 13), (t, 23)])
        right = dense_expansion([(t, 23), (s, 13), (r, 12)])
        expect = expansions_agree(left, right)
        r, s, t = ([((m % 16, m // 16), op) for m, op in p] for p in (r, s, t))
        assert (yb_forms(r, s, t) == []) == expect
        seen.add(expect)

    check()
    assert seen == {True, False}


# --- coefficient forms ------------------------------------------------------

LAURENT = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]


@st.composite
def pencil_triples(draw):
    """R, S and T, each a pencil of up to three pieces over one denominator,
    n <= 3, with Laurent monomials in two variables.  As in `pencil_words`,
    pieces often repeat an operator with the opposite sign."""
    n = draw(st.sampled_from((1, 2, 3)))
    ops = [draw(operators(n)) for _ in range(2)]
    ops += [LinOp2(n, Mat(n * n, n * n, [-x for x in op.mat.num], op.mat.den))
            for op in ops]
    return tuple(
        on_one_denominator([(mono, draw(st.sampled_from(ops))) for mono in
                            draw(st.lists(st.sampled_from(LAURENT), min_size=1,
                                          max_size=3, unique=True))])[1]
        for _ in range(3))


def dense_forms(r, s, t):
    """The reduced basis of the coefficient forms of [R,S,T], in the layout
    of `yb_forms`, from the dense expansions of its two words.  x^a y^b
    enters `dense_expansion` as a + 64 b, which adds as the exponents do."""
    def coded(pieces):
        return [(a + 64 * b, op) for (a, b), op in pieces]

    def exponents(code):
        b = (code + 32) // 64
        return code - 64 * b, b

    left = dense_expansion([(coded(r), 12), (coded(s), 13), (coded(t), 23)])
    right = dense_expansion([(coded(t), 23), (coded(s), 13), (coded(r), 12)])
    monos = sorted(left.keys() | right.keys(), key=exponents, reverse=True)
    n3 = next(iter(left.values())).rows
    zero = mat_zeros(n3, n3)
    diffs = [mat_sub(left.get(m, zero), right.get(m, zero)) for m in monos]
    vecs = {tuple(Fraction(d.num[e], d.den) for d in diffs)
            for e in range(n3 * n3)}
    return [{exponents(m): x for m, x in zip(monos, common_den(row)[0]) if x}
            for row in row_space_basis(list(vecs))]


def test_forms_are_the_reduced_dense_expansion():
    seen = set()

    # the pencils of `test_expansion_at_the_coefficient_bound`, and
    # R = diag(1, 0, 0, x), S = tau and T = I, whose forms 1 and x come from
    # the columns e_001 and e_011: [R, S, T] e_ijk = (r_kj - r_ij) e_kji
    @SEEDED
    @example(([((0, 0), diag(1, 0, 0, 0)), ((1, 0), diag(0, 0, 0, 1))],
              [((0, 0), twist(2))], [((0, 0), identity2(2))]))
    @example(([((-2, 0), twist(2))],
              [((-1, 0), diag(3, 0, -1, 0)), ((0, 0), diag(0, 0, 1, 0))],
              [((0, -1), identity2(2))]))
    @given(pencil_triples())
    def check(pencils):
        forms = yb_forms(*pencils)
        assert forms == dense_forms(*pencils)
        seen.add(len(forms))

    check()
    assert {0, 1} < seen


# --- braid kills, verdicts and witnesses ------------------------------------

@st.composite
def operator_and_vectors(draw):
    n = draw(st.sampled_from((1, 2, 3, 4)))
    r = draw(operators(n))
    vecs = []
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.lists(st.integers(0, n ** 3 - 1), max_size=6))
        vecs.append({i: draw(st.integers(-3, 3)) for i in idx})
    return r, vecs


def test_braid_kills_matches_dense():
    seen = set()

    @SEEDED
    @given(operator_and_vectors())
    def check(case):
        r, vecs = case
        diff = mat_sub(dense_word((r, 12), (r, 23), (r, 12)),
                       dense_word((r, 23), (r, 12), (r, 23)))
        n3 = r.n ** 3
        expect = all(not any(mat_apply(diff, [Fraction(v.get(i, 0))
                                              for i in range(n3)]))
                     for v in vecs)
        assert _braid_kills(r, vecs) == expect
        # the vectors that the dense difference kills pass together
        killed = [v for v in vecs
                  if not any(mat_apply(diff, [Fraction(v.get(i, 0))
                                              for i in range(n3)]))]
        assert _braid_kills(r, killed)
        seen.add(expect)

    check()
    assert seen == {True, False}


@st.composite
def operator_triples(draw):
    n = draw(st.sampled_from((1, 2, 3, 4)))
    return tuple(draw(operators(n)) for _ in range(3))


@settings(SEEDED, max_examples=15)
@given(operator_triples())
def test_verdicts_and_witnesses_match_dense(ops):
    r, s, t = ops
    n = r.n
    lhs = dense_word((r, 12), (r, 23), (r, 12))
    rhs = dense_word((r, 23), (r, 12), (r, 23))
    assert braid_check(r) == (lhs == rhs)
    assert braid_witness(r) == dense_witness(n, lhs, rhs)
    lhs = dense_word((r, 12), (r, 13), (r, 23))
    rhs = dense_word((r, 23), (r, 13), (r, 12))
    assert qybe_check(r) == (lhs == rhs)
    assert qybe_witness(r) == dense_witness(n, lhs, rhs)
    lhs = dense_word((r, 12), (s, 13), (t, 23))
    rhs = dense_word((t, 23), (s, 13), (r, 12))
    assert yb_vanishes(r, s, t) == (lhs == rhs)
