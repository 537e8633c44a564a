"""Per-layer metrics: how each is derived from the spans and counters of one
traced pass.

A metric lists the hook prefixes it needs (see spans.HOOKS).  When the
program no longer has one of those functions, the metric is absent from the
result instead of failing the run.
"""
import statistics

from spans import self_times


class PassTrace:
    """Spans and counters of one traced pass, summed over its processes."""

    def __init__(self):
        self.spans = []       # one span list per process
        self.self_s = {}
        self.calls = {}
        self.counters = {}
        self.import_s = []
        self.process_overhead_s = None   # set by the run from untraced passes
        self.absent = set()

    def add_process(self, trace, import_s):
        self.spans.append(trace["spans"])
        total, calls = self_times(trace["spans"])
        for name, value in total.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in calls.items():
            self.calls[name] = self.calls.get(name, 0) + value
        for key, value in trace["counters"].items():
            if key == "exactla.max_num_bits":
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value
        self.absent.update(trace["absent"])
        self.import_s.append(import_s)

    def s(self, prefix):
        return self.self_s.get(prefix, 0.0)

    def n(self, prefix):
        return self.calls.get(prefix, 0)

    def c(self, key):
        return self.counters.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _points(t):
    return t.c("paramgrid.grid_evaluations") + t.c("paramgrid.implied_points")


def _self_s(prefix):
    return (prefix + ".self_s", "s", "lower", [prefix], lambda t: t.s(prefix))


def _calls(prefix):
    return (prefix + ".calls", "count", "lower", [prefix], lambda t: t.n(prefix))


# (name, unit, better, hook prefixes needed, value from a PassTrace)
METRICS = [
    _calls("kernels.matmul"),
    _self_s("kernels.matmul"),
    ("kernels.matmul.madds", "count", "lower", ["kernels.matmul"],
     lambda t: t.c("kernels.matmul.madds")),
    ("kernels.matmul.a_nonzero_share", "share", "higher", ["kernels.matmul"],
     lambda t: _ratio(t.c("kernels.matmul.a_nonzero"), t.c("kernels.matmul.a_entries"))),
    _calls("kernels.kron"),
    _self_s("kernels.kron"),
    _calls("exactla.mat_mul"),
    _self_s("exactla.mat_mul"),
    ("exactla.max_num_bits", "bits", "lower", ["exactla.mat_mul"],
     lambda t: t.c("exactla.max_num_bits")),
    _self_s("exactla.kron"),
    _self_s("exactla.mat_from_columns"),
    ("exactla.mat_from_columns.cols", "count", "lower", ["exactla.mat_from_columns"],
     lambda t: t.c("exactla.mat_from_columns.cols")),
    _self_s("exactla.row_space_basis"),
    _self_s("exactla.project_onto"),
    _self_s("exactla.mat_inverse"),
    _self_s("exactla.first_mismatch"),
    _calls("ybcore.lift"),
    ("ybcore.lift13.calls", "count", "lower", ["ybcore.lift"],
     lambda t: t.c("ybcore.lift13.calls")),
    _self_s("ybcore.lift"),
    _self_s("ybcore.braid_check"),
    _self_s("ybcore.qybe_check"),
    _self_s("ybcore.witness"),
    _self_s("ybcore.braid_qybe_equiv"),
    _self_s("ybcore.wxz_check"),
    _self_s("ybcore.restricted_braid_check"),
    _self_s("paramgrid.grid_verify"),
    ("paramgrid.points_evaluated", "count", "lower", ["paramgrid.grid_verify"],
     _points),
    ("paramgrid.points_over_min", "ratio", "lower", ["paramgrid.grid_verify"],
     lambda t: _ratio(_points(t), t.c("paramgrid.points_min"))),
    _self_s("constructions.oneparam_verify"),
    _self_s("constructions.colored_qybe_verify"),
    _self_s("constructions.jordan_r_restricted"),
    _self_s("constructions.operator_build"),
    _calls("structures.check_algebra_props"),
    _self_s("structures.check_algebra_props"),
    _self_s("structures.jordan_w_check"),
    _calls("structures.w_subspace_basis"),
    _self_s("structures.w_subspace_basis"),
    _self_s("structures.jordan_co_check"),
    ("structures.mul_vec.calls", "count", "lower", ["structures.mul_vec"],
     lambda t: t.c("structures.mul_vec.calls")),
    _self_s("cli.main"),
    ("cli.import_s", "s", "lower", [],
     lambda t: statistics.median(t.import_s)),
    ("cli.process_overhead_s", "s", "lower", [],
     lambda t: t.process_overhead_s),
]


def layer_values(trace):
    """{metric name: value} for one traced pass, without absent metrics."""
    values = {}
    for name, _unit, _better, needs, value in METRICS:
        if not any(prefix in trace.absent for prefix in needs):
            values[name] = value(trace)
    return values
