"""Named example structures for the CLI, the library and the tests."""
from fractions import Fraction

from .exactla import to_rat
from .structures import (AlgebraSpec, SuperLieSpec, theorem21_instance,
                         theorem22_instance)


def build_dual2():
    """Q[X]/(X^2): basis (1, x), x^2 = 0."""
    c = [[[1, 0], [0, 1]],
         [[0, 1], [0, 0]]]
    return AlgebraSpec(["1", "x"], c, unit=[1, 0])


def build_split2(m=1):
    """Q[X]/(X^2 - m): basis (1, x), x^2 = m."""
    c = [[[1, 0], [0, 1]],
         [[0, 1], [m, 0]]]
    return AlgebraSpec(["1", "x"], c, unit=[1, 0])


def build_mat2():
    """2x2 matrices over Q, basis (E11, E12, E21, E22): E_ab E_pq = [b = p] E_aq."""
    names = [(0, 0), (0, 1), (1, 0), (1, 1)]
    c = [[[int(b == p and (a, q) == e) for e in names] for p, q in names]
         for a, b in names]
    return AlgebraSpec(["E11", "E12", "E21", "E22"], c, unit=[1, 0, 0, 1])


def build_t21(s=-1, t=-1):
    """The dim-2 family a^2 = b, b^2 = a, ab = ba = s a + t b (no unit declared)."""
    return theorem21_instance(s, t)


def build_sym2jordan():
    """Symmetric 2x2 matrices under a.b = (ab+ba)/2, basis (E11, E22, E12+E21)."""
    h = Fraction(1, 2)
    c = [[[1, 0, 0], [0, 0, 0], [0, 0, h]],
         [[0, 0, 0], [0, 1, 0], [0, 0, h]],
         [[0, 0, h], [0, 0, h], [1, 1, 0]]]
    return AlgebraSpec(["E11", "E22", "S"], c, unit=[1, 1, 0])


def build_heis3():
    """Heisenberg Lie algebra: [x,y] = z central, all even."""
    b = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][2], b[1][0][2] = 1, -1
    return SuperLieSpec(["x", "y", "z"], [0, 0, 0], b)


def build_gl11():
    """gl(1|1): E11, E22 even, E12, E21 odd, supercommutator brackets."""
    names = [(1, 1), (2, 2), (1, 2), (2, 1)]
    grading = [0, 0, 1, 1]
    idx = {nm: i for i, nm in enumerate(names)}
    n = 4
    b = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, (p, q) in enumerate(names):
        for j, (r, s) in enumerate(names):
            sign = -1 if grading[i] and grading[j] else 1
            if q == r:
                b[i][j][idx[p, s]] += 1
            if s == p:
                b[i][j][idx[r, q]] -= sign
    return SuperLieSpec(["E11", "E22", "E12", "E21"], grading, b)


def build_theorem22(beta=-1):
    return theorem22_instance(beta)


# name -> (builder, parameter names in flag order)
REGISTRY = {
    "dual2": (build_dual2, ()),
    "split2": (build_split2, ("m",)),
    "mat2": (build_mat2, ()),
    "t21": (build_t21, ("s", "t")),
    "sym2jordan": (build_sym2jordan, ()),
    "heis3": (build_heis3, ()),
    "gl11": (build_gl11, ()),
    "theorem22": (build_theorem22, ("beta",)),
}

# default central elements for the graded structures
DEFAULT_Z = {
    "heis3": [Fraction(0), Fraction(0), Fraction(1)],
    "gl11": [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
}


def names():
    return sorted(REGISTRY)


def build(name, *args):
    """Build a registry structure; args are positional rational parameters,
    also accepted inline as "name(arg,...)"; "name()" passes none, and an
    empty argument in a non-empty list is a ValueError."""
    if "(" in name and name.endswith(")"):
        base, _, rest = name.partition("(")
        inline = rest[:-1].split(",") if rest[:-1].strip() else []
        if not all(tok.strip() for tok in inline):
            raise ValueError("empty argument in %r" % name)
        return build(base.strip(), *inline)
    if name not in REGISTRY:
        raise KeyError("unknown example %r (have: %s)" % (name, ", ".join(names())))
    builder, params = REGISTRY[name]
    if len(args) > len(params):
        raise ValueError("%s takes at most %d parameters" % (name, len(params)))
    return builder(*map(to_rat, args))
