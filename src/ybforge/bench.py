"""Benchmark the compiled int64 kernels against the pure big-integer kernels.

Two workloads: raw square matrix products with small integer entries (the
dense shape left in the restricted braid check and the coalgebra checks),
and a full braid verification for the operator R_{1,1,1} over 2x2 matrices.
The braid check acts on tensor slots and never reaches the kernels, so its
two columns time the same code path.  Deterministic inputs, best wall-clock
time over a few repetitions.
"""
import random
import time

from . import _kernels
from .constructions import r_algebra
from .exactla import Mat, mat_mul
from .registry import build_mat2
from .ybcore import braid_check


def _rand_mat(rng, n, lo=-9, hi=9):
    return Mat(n, n, [rng.randint(lo, hi) for _ in range(n * n)], 1)


def _time(fn, reps):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def run(size=64, reps=5, chain=20, out=print):
    rng = random.Random(20240814)
    mats = [_rand_mat(rng, size) for _ in range(chain + 1)]

    def matmul_chain():
        acc = mats[0]
        for m in mats[1:]:
            acc = mat_mul(acc, m)
        return acc

    mat2 = build_mat2()

    def braid_mat2():
        return braid_check(r_algebra(mat2, 1, 1, 1))

    workloads = [
        ("matmul chain %dx%d (x%d)" % (size, size, chain), matmul_chain),
        ("braid check, 2x2-matrix algebra", braid_mat2),
    ]
    rows = []
    for name, fn in workloads:
        with _kernels.force_pure():
            t_pure = _time(fn, reps)
        if _kernels.has_fast():
            t_fast = _time(fn, reps)
            rows.append((name, t_fast, t_pure, t_pure / t_fast))
        else:
            rows.append((name, None, t_pure, None))
    out("backend: %s" % _kernels.ACTIVE_BACKEND)
    out("%-40s %10s %10s %8s" % ("workload", "fast (s)", "pure (s)", "speedup"))
    for name, tf, tp, sp in rows:
        out("%-40s %10s %10.4f %8s"
            % (name, "%.4f" % tf if tf is not None else "n/a", tp,
               "%.1fx" % sp if sp is not None else "n/a"))
    return rows
