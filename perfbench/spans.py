"""Timing hooks around ybforge functions, and the span arithmetic behind the
per-layer metrics.

HOOKS names each hooked function by module and attribute.  `Tracer.install`
wraps every function that exists and rebinds the wrapper in every loaded
`ybforge` module that holds the original object, because modules import
helpers by name (`ybcore`, `constructions` and `structures` each hold their
own `mat_mul`).  A function the program no longer has is reported as absent
instead of failing the run: the roadmap plans to remove `_kernels`, the dense
`lift(., 13)` path and `paramgrid._BOUNDS`.

Spans are (id, parent id, name, check id, start, end) tuples kept in memory;
the worker writes them out when its pass ends.  `self_times` turns a span
list into self time per name: a span's duration minus the part of its
interval that its child spans cover.
"""
import dataclasses
import itertools
import sys
import time
from fractions import Fraction

# (metric prefix, module, attribute, kind).  "span" records a span per call;
# "count" only counts calls, for functions too hot to time one by one.
HOOKS = [
    ("kernels.matmul", "ybforge._kernels", "matmul_pure", "span"),
    ("kernels.matmul_fast", "ybforge._kernels", "matmul_fast", "span"),
    ("kernels.kron", "ybforge._kernels", "kron_pure", "span"),
    ("exactla.mat_mul", "ybforge.exactla", "mat_mul", "span"),
    ("exactla.kron", "ybforge.exactla", "kron", "span"),
    ("exactla.mat_from_columns", "ybforge.exactla", "mat_from_columns", "span"),
    ("exactla.row_space_basis", "ybforge.exactla", "row_space_basis", "span"),
    ("exactla.project_onto", "ybforge.exactla", "project_onto", "span"),
    ("exactla.mat_inverse", "ybforge.exactla", "mat_inverse", "span"),
    ("exactla.first_mismatch", "ybforge.exactla", "first_mismatch", "span"),
    ("ybcore.lift", "ybforge.ybcore", "lift", "span"),
    ("ybcore.braid_check", "ybforge.ybcore", "braid_check", "span"),
    ("ybcore.qybe_check", "ybforge.ybcore", "qybe_check", "span"),
    ("ybcore.witness", "ybforge.ybcore", "braid_witness", "span"),
    ("ybcore.witness", "ybforge.ybcore", "qybe_witness", "span"),
    ("ybcore.braid_qybe_equiv", "ybforge.ybcore", "braid_qybe_equiv", "span"),
    ("ybcore.wxz_check", "ybforge.ybcore", "wxz_check", "span"),
    ("ybcore.restricted_braid_check", "ybforge.ybcore",
     "restricted_braid_check", "span"),
    ("paramgrid.grid_verify", "ybforge.paramgrid", "grid_verify", "span"),
    ("constructions.oneparam_verify", "ybforge.constructions",
     "oneparam_verify", "span"),
    ("constructions.colored_qybe_verify", "ybforge.constructions",
     "colored_qybe_verify", "span"),
    ("constructions.jordan_r_restricted", "ybforge.constructions",
     "jordan_r_restricted", "span"),
    ("constructions.operator_build", "ybforge.constructions", "r_algebra", "span"),
    ("constructions.operator_build", "ybforge.constructions", "s_oneparam", "span"),
    ("constructions.operator_build", "ybforge.constructions", "r_colored", "span"),
    ("constructions.operator_build", "ybforge.constructions", "wxz_thm38", "span"),
    ("constructions.operator_build", "ybforge.constructions", "phi_super", "span"),
    ("constructions.operator_build", "ybforge.constructions",
     "r_super_colored", "span"),
    ("structures.check_algebra_props", "ybforge.structures",
     "check_algebra_props", "span"),
    ("structures.jordan_w_check", "ybforge.structures", "jordan_w_check", "span"),
    ("structures.w_subspace_basis", "ybforge.structures",
     "w_subspace_basis", "span"),
    ("structures.jordan_co_check", "ybforge.structures", "jordan_co_check", "span"),
    ("structures.mul_vec", "ybforge.structures", "mul_vec", "count"),
    ("cli.main", "ybforge.cli", "main", "span"),
]

# Grid verifiers that return a GridResult without going through grid_verify,
# mapped to the index of their grid argument.  The points their result
# implies (the full grid on PASS, the points up to the witness on FAIL) count
# towards paramgrid.points_evaluated.
_IMPLIED_GRID_ARG = {"oneparam_verify": 2, "colored_qybe_verify": 1}


def self_times(spans):
    """Self time and call count per span name.

    `spans` holds (id, parent, name, check, start, end) tuples.  A span's
    self time is its duration minus the length of the union of its direct
    children's intervals, clipped to its own interval.
    """
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    total, calls = {}, {}
    for sid, _parent, name, _check, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        total[name] = total.get(name, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    return total, calls


def _witness_index(result, grid):
    """1-based position of a GridResult's witness in product order."""
    names = list(result.certificate)
    grid = [Fraction(g) for g in grid]
    index = 0
    for name in names:
        index = index * len(grid) + grid.index(Fraction(result.witness[name]))
    return index + 1


class Tracer:
    """Installs the hooks and collects spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = []
        self.check = None
        self._stack = []
        self._ids = itertools.count(1)

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, hooks=HOOKS):
        """Wrap each hook that exists; return the prefixes with no function."""
        present = set()
        for prefix, module_name, attr, kind in hooks:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                continue
            present.add(prefix)
            wrapper = self._wrap(prefix, attr, kind, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "ybforge" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.absent = sorted({h[0] for h in hooks} - present)
        return self.absent

    def _wrap(self, prefix, attr, kind, fn):
        if kind == "count":
            def counted(*args, **kwargs):
                self.count(prefix + ".calls")
                return fn(*args, **kwargs)
            return counted

        before, after = self._extras(prefix, attr)

        def timed(*args, **kwargs):
            state = None
            if before is not None:
                args, state = before(args)
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, prefix, self.check, start, end))
            if after is not None:
                after(args, result, state)
            return result
        return timed

    def _extras(self, prefix, attr):
        """(before, after) callbacks: per-call counters measured where the
        work happens.  `before` may replace the arguments."""
        if prefix == "kernels.matmul":
            def matmul_shape(args, _result, _state):
                if len(args) == 5:
                    a, _b, ra, ca, cb = args
                    self.count("kernels.matmul.madds", ra * ca * cb)
                    self.count("kernels.matmul.a_entries", len(a))
                    self.count("kernels.matmul.a_nonzero", len(a) - a.count(0))
            return None, matmul_shape
        if prefix == "exactla.mat_mul":
            def num_bits(_args, result, _state):
                num = getattr(result, "num", None)
                if num:
                    bits = max(max(num), -min(num)).bit_length()
                    if bits > self.counters.get("exactla.max_num_bits", 0):
                        self.counters["exactla.max_num_bits"] = bits
            return None, num_bits
        if prefix == "exactla.mat_from_columns":
            def columns(args, _result, _state):
                if args:
                    self.count("exactla.mat_from_columns.cols", len(args[0]))
            return None, columns
        if prefix == "ybcore.lift":
            def lift13(args, _result, _state):
                if len(args) > 1 and args[1] == 13:
                    self.count("ybcore.lift13.calls")
            return None, lift13
        if prefix == "paramgrid.grid_verify":
            return self._count_evaluations, self._grid_verify_done
        if attr in _IMPLIED_GRID_ARG:
            return self._snapshot_evaluations, self._implied_points(
                _IMPLIED_GRID_ARG[attr])
        return None, None

    def _count_evaluations(self, args):
        job = args[0] if args else None
        inner = getattr(job, "evaluator", None)
        if inner is None or not dataclasses.is_dataclass(job):
            return args, None

        def evaluator(assign):
            self.count("paramgrid.grid_evaluations")
            return inner(assign)
        return (dataclasses.replace(job, evaluator=evaluator),) + args[1:], None

    def _grid_verify_done(self, _args, result, _state):
        self._add_grid_result(result, None)

    def _snapshot_evaluations(self, args):
        return args, self.counters.get("paramgrid.grid_evaluations", 0)

    def _implied_points(self, grid_arg):
        def implied(args, result, evaluations_before):
            # A verifier that already went through grid_verify is counted
            # there; count the points its result implies only otherwise.
            if self.counters.get("paramgrid.grid_evaluations", 0) != evaluations_before:
                return
            certificate = getattr(result, "certificate", None)
            if not certificate or len(args) <= grid_arg:
                return
            if result.verdict:
                points = 1
                for size, _bound in certificate.values():
                    points *= size
            else:
                try:
                    points = _witness_index(result, args[grid_arg])
                except (KeyError, TypeError, ValueError):
                    points = None   # witness not on the grid argument
            self._add_grid_result(result, points)
        return implied

    def _add_grid_result(self, result, implied_points):
        if implied_points is not None:
            self.count("paramgrid.implied_points", implied_points)
        minimum = 1
        for _size, bound in getattr(result, "certificate", {}).values():
            minimum *= bound + 1
        self.count("paramgrid.points_min", minimum)
