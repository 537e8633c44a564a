"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""
import json
import os
import sys
import types
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import outcomes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_covered_child_intervals():
    tree = [
        # id, parent, name, check, start, end
        (1, None, "cli.main", "c1", 0.0, 10.0),
        (2, 1, "ybcore.braid_check", "c1", 1.0, 4.0),
        (3, 2, "exactla.mat_mul", "c1", 2.0, 3.0),
        (4, 1, "exactla.mat_mul", "c1", 5.0, 6.5),
        (5, None, "cli.main", "c2", 20.0, 21.0),
    ]
    total, calls = spans.self_times(tree)
    assert total["cli.main"] == pytest.approx((10.0 - 3.0 - 1.5) + 1.0)
    assert total["ybcore.braid_check"] == pytest.approx(2.0)
    assert total["exactla.mat_mul"] == pytest.approx(2.5)
    assert calls == {"cli.main": 2, "ybcore.braid_check": 1, "exactla.mat_mul": 2}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    tree = [
        (1, None, "a", None, 0.0, 10.0),
        (2, 1, "b", None, 1.0, 4.0),
        (3, 1, "b", None, 3.0, 5.0),      # overlaps span 2 by one second
        (4, 1, "b", None, 9.0, 12.0),     # runs past its parent's end
    ]
    total, _calls = spans.self_times(tree)
    assert total["a"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_witness_index_follows_product_order():
    result = types.SimpleNamespace(
        certificate={"u": (4, 3), "v": (4, 3), "w": (4, 3)},
        witness={"u": Fraction(0), "v": Fraction(1), "w": Fraction(2)})
    assert spans._witness_index(result, [0, 1, 2, 3]) == 0 * 16 + 1 * 4 + 2 + 1


# --- hooks -------------------------------------------------------------------

@pytest.fixture
def fake_module():
    mod = types.ModuleType("ybforge.fake_for_test")
    mod.work = lambda x: x + 1
    holder = types.ModuleType("ybforge.fake_holder")
    holder.work = mod.work                  # imported by name elsewhere
    sys.modules[mod.__name__] = mod
    sys.modules[holder.__name__] = holder
    yield mod, holder
    del sys.modules[mod.__name__], sys.modules[holder.__name__]


def test_absent_hook_is_reported_not_fatal(fake_module):
    mod, holder = fake_module
    tracer = spans.Tracer()
    absent = tracer.install([
        ("fake.work", mod.__name__, "work", "span"),
        ("fake.removed", mod.__name__, "removed", "span"),
        ("fake.module_gone", "ybforge.no_such_module", "f", "span"),
    ])
    assert absent == ["fake.module_gone", "fake.removed"]
    assert mod.work(1) == 2 and holder.work(2) == 3
    assert [s[2] for s in tracer.spans] == ["fake.work", "fake.work"]


def test_absent_hook_drops_only_the_metrics_that_need_it():
    trace = layers.PassTrace()
    trace.add_process({"spans": [(1, None, "exactla.mat_mul", "c", 0.0, 1.0)],
                       "counters": {}, "absent": ["kernels.matmul"]}, 0.1)
    trace.process_overhead_s = 0.2
    values = layers.layer_values(trace)
    assert "kernels.matmul.self_s" not in values
    assert "kernels.matmul.madds" not in values
    assert values["exactla.mat_mul.self_s"] == pytest.approx(1.0)
    assert values["kernels.kron.calls"] == 0
    assert values["cli.process_overhead_s"] == 0.2


# --- error accounting --------------------------------------------------------

def _outcome_meeting(check):
    """A fabricated outcome that meets the check's expectation."""
    expect = check["expect"]
    doc = {"checks": [{"name": name, "verdict": v, "certified": c,
                       "witness": [[0, 0, 0]] if w == outcomes.PRESENT else w}
                      for name, (v, c, w) in expect.get("checks", {}).items()]}
    return {"id": check["id"], "exit": expect["exit"], "stdout": json.dumps(doc),
            "stderr": "", "traceback": False, "seconds": 0.5}


def _result_for(bench, passes):
    return bench.result([0.2], [(False, p) for p in passes])


def test_deliberately_wrong_expectation_counts_in_error_rate():
    bench = run.Run(ROOT, "dense-identities", 1, 1, False)
    found = [_outcome_meeting(c) for c in bench.checks]
    result, record = _result_for(bench, [{"wall": 9.0, "outcomes": found,
                                          "peak_rss_kib": 2048}])
    total = len(bench.checks)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, total, 0)

    bench.expect["mat3-verify-braid-fail"]["checks"]["braid"][2] = [[9, 9, 9], [0, 0, 0]]
    result, record = _result_for(bench, [{"wall": 9.0, "outcomes": found,
                                          "peak_rss_kib": 2048}])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, total, 1)
    assert record["error_rate"]["share"] == pytest.approx(1 / total)
    assert "witness" in record["errors"]["mat3-verify-braid-fail"]


def test_traceback_on_bad_input_is_a_failed_operation_not_a_wrong_answer():
    expect = {"x": {"exit": 2}}
    found = [{"id": "x", "exit": 1, "stdout": "", "stderr": "Traceback ...",
              "traceback": True}]
    assert outcomes.tally(expect, found)[:3] == (1, 1, 0)


def test_traceback_where_a_verdict_is_expected_is_a_wrong_answer():
    bench = run.Run(ROOT, "dense-identities", 1, 1, False)
    found = [_outcome_meeting(c) for c in bench.checks]
    crashed = next(o for o in found if bench.expect[o["id"]]["exit"] == 0)
    crashed.update(exit=1, stdout="", stderr="Traceback ...", traceback=True)
    result, record = _result_for(bench, [{"wall": 9.0, "outcomes": found,
                                          "peak_rss_kib": 2048}])
    assert (result["correct"], result["failed"]) == (False, 1)
    assert record["error_rate"]["wrong_answers"] == 1
    assert "traceback" in record["errors"][crashed["id"]]


def test_process_overhead_comes_from_untraced_passes():
    bench = run.Run(ROOT, "dense-identities", 1, 1, False)
    plain = [{"wall": 10.0, "outcomes": [{"seconds": 4.0}, {"seconds": 5.5}]},
             {"wall": 9.0, "outcomes": [{"seconds": 4.0}, {"seconds": 4.4}]}]
    assert bench.process_overhead(plain, []) == pytest.approx(0.55)
    bench.workload = "cli-session"
    plain = [{"outcomes": [{"id": "a", "seconds": 0.20}, {"id": "b", "seconds": 0.30}]}]
    traced = [{"outcomes": [{"id": "a", "main_s": 0.05}, {"id": "b", "main_s": 0.12}]},
              {"outcomes": [{"id": "a", "main_s": 0.07}, {"id": "b", "main_s": 0.14}]}]
    assert bench.process_overhead(plain, traced) == pytest.approx((0.14 + 0.17) / 2)


def test_grid_fail_needs_a_witness_but_not_its_value():
    expect = {"exit": 1, "checks": {"oneparam-ybe": [False, False, outcomes.PRESENT]}}
    report = {"checks": [{"name": "oneparam-ybe", "verdict": False,
                          "certified": False, "witness": {"t1": "1"}}]}
    found = {"exit": 1, "stdout": json.dumps(report), "traceback": False}
    assert outcomes.mismatch(expect, found) is None
    report["checks"][0]["witness"] = None
    found["stdout"] = json.dumps(report)
    assert "no witness" in outcomes.mismatch(expect, found)


# --- plans and the benchmark contract -----------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_seed_changes_values_not_the_mix(workload):
    def mix(checks):
        return sorted((c["id"], c["expect"]["exit"]) for c in checks)
    first, again, other = (workloads.plan(workload, s) for s in (1, 1, 2))
    assert first == again
    assert mix(first) == mix(other)
    assert len({c["id"] for c in first}) == len(first)


def test_cli_session_has_enough_invocations_for_p90():
    checks = workloads.plan("cli-session", 7)
    assert len(checks) >= 100
    assert sum(c["expect"]["exit"] == 2 for c in checks) == 12


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in layers.METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.PLANS)
    units = {m[0]: m[1] for m in layers.METRICS}
    units.update(run.END_TO_END)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
