"""The ybforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and drives `ybforge` from `src/`.
Workloads and their frozen expected outcomes are in workloads.py.  A run:

1. writes the generated input structures to a working directory under
   `.perfbench/` in the checkout;
2. runs cold passes over the workload's check list, each in a fresh
   process, while another pass is expected to end within S seconds (at
   least one pass).  With --trace 1 untraced and traced passes alternate,
   and only per-layer metrics are reported; end-to-end metrics always come
   from untraced runs;
3. measures set-up three times before every pass and after the last: a
   fresh interpreter that imports `ybforge.cli` and builds every registry
   structure (`setup_s`, the median).  Spreading the probes over the run
   keeps a slow spell of the machine from setting them all;
4. checks every outcome against its expectation, writes a run record to
   `.perfbench/runs/`, and prints one JSON result as the last stdout line.

Exit status is 0 with a result, and non-zero without one when the
benchmark itself cannot run (no `src/ybforge` in the checkout, a pass that
times out or a worker that dies).
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import outcomes  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3          # before every pass, and after the last one
PROBE = ("import ybforge.cli\n"
         "from ybforge import registry\n"
         "for name in registry.names():\n"
         "    registry.build(name)\n"
         "import ybforge\n"
         "print(getattr(ybforge, 'ACTIVE_BACKEND', None))\n")
PROCESS_TIMEOUT = 150.0   # one pass or invocation; a run must end within 180 s
RUN_LIMIT = 165.0         # start no pass that would end after this

# invocation_p50_s is written to the run record only: in dense-identities and
# structure-axioms the median check is a 10-70 ms one, and its run-to-run
# spread (0.29 of its median over ten seeds) exceeds any allowed bound.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("pass_s", "s"), ("fail_s", "s"),
              ("invocation_p90_s", "s"), ("peak_rss_mib", "MiB")]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _timed_process(argv, cwd, env, stdout_path, stderr_path):
    """Run a process to completion; return (seconds, exit status, peak RSS KiB).

    The wall time spans spawn to reaping, and the peak RSS is the child's own,
    from wait4.  A process still running after PROCESS_TIMEOUT is killed.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError("%s timed out after %.0f s" % (argv[:4], PROCESS_TIMEOUT))
    return seconds, proc.returncode, usage.ru_maxrss


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", "work-%d" % os.getpid())
        self.checks = workloads.plan(workload, seed)
        self.expect = {c["id"]: c["expect"] for c in self.checks}
        env = {k: v for k, v in os.environ.items() if not k.startswith("YBFORGE_")}
        env["PYTHONPATH"] = self.src
        self.env = env
        self.backend = None

    # -- processes ---------------------------------------------------------

    def _process(self, argv):
        out = os.path.join(self.work, "proc.out")
        err = os.path.join(self.work, "proc.err")
        seconds, status, rss = _timed_process(argv, self.work, self.env, out, err)
        return seconds, status, rss, _read(out), _read(err)

    def setup_probe(self):
        seconds, status, _rss, out, err = self._process([sys.executable, "-c", PROBE])
        if status != 0:
            raise BenchError("set-up probe failed:\n" + err[-2000:])
        self.backend = out.strip()
        return seconds

    def _worker(self, checks, traced):
        spec = os.path.join(self.work, "spec.json")
        result = os.path.join(self.work, "result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"src": self.src, "cwd": self.work, "trace": traced,
                       "checks": [{"id": c["id"], "argv": c["argv"]} for c in checks]},
                      fh)
        if os.path.exists(result):
            os.remove(result)
        seconds, status, _rss, _out, err = self._process(
            [sys.executable, os.path.join(HERE, "worker.py"), spec, result])
        if status != 0 or not os.path.exists(result):
            raise BenchError("worker exited %s:\n%s" % (status, err[-2000:]))
        with open(result, encoding="utf-8") as fh:
            return seconds, json.load(fh)

    def _clear_operators(self):
        for name in os.listdir(self.work):
            if name.startswith("op-"):
                os.remove(os.path.join(self.work, name))

    # -- passes ------------------------------------------------------------

    def in_process_pass(self, traced):
        """dense-identities / structure-axioms: one worker runs every check."""
        self._clear_operators()
        wall, result = self._worker(self.checks, traced)
        found = {"wall": wall, "outcomes": result["outcomes"],
                 "peak_rss_kib": result["peak_rss_kib"]}
        if traced:
            trace = layers.PassTrace()
            trace.add_process(result["trace"], result["import_s"])
            found["trace"] = trace
        return found

    def cli_pass(self, traced):
        """cli-session: one process per invocation, closed loop, one client."""
        self._clear_operators()
        found_outcomes, peak = [], 0
        trace = layers.PassTrace() if traced else None
        start = time.perf_counter()
        for check in self.checks:
            if traced:
                seconds, result = self._worker([check], True)
                outcome = result["outcomes"][0]
                outcome["main_s"] = outcome["seconds"]
                trace.add_process(result["trace"], result["import_s"])
                rss = result["peak_rss_kib"]
            else:
                seconds, status, rss, out, err = self._process(
                    [sys.executable, "-m", "ybforge.cli"] + check["argv"])
                outcome = {"exit": status, "stdout": out, "stderr": err,
                           "traceback": "Traceback (most recent call last)" in err}
            outcome.update(id=check["id"], seconds=seconds)
            found_outcomes.append(outcome)
            peak = max(peak, rss)
        found = {"wall": time.perf_counter() - start, "outcomes": found_outcomes,
                 "peak_rss_kib": peak}
        if traced:
            found["trace"] = trace
        return found

    def one_pass(self, traced):
        if self.workload == "cli-session":
            return self.cli_pass(traced)
        return self.in_process_pass(traced)

    # -- the run -----------------------------------------------------------

    def execute(self):
        run_start = time.perf_counter()
        os.makedirs(self.work)
        workloads.write_inputs(self.work)
        setup = []

        # Start another pass while it is expected to end within the measuring
        # time, judged by the last pass of its kind.  A traced run alternates
        # untraced and traced passes and has at least one of each.
        kinds = [False, True] if self.trace else [False]
        passes = []
        measure_start = time.perf_counter()
        while True:
            setup.extend(self.setup_probe() for _ in range(SETUP_PROBES))
            traced = kinds[len(passes) % len(kinds)]
            passes.append((traced, self.one_pass(traced)))
            now = time.perf_counter()
            if len(passes) < len(kinds):
                continue
            estimate = passes[-len(kinds)][1]["wall"]
            if (now - measure_start + estimate > self.seconds
                    or now - run_start + estimate > RUN_LIMIT):
                break
        setup.extend(self.setup_probe() for _ in range(SETUP_PROBES))
        return setup, passes

    def process_overhead(self, plain, traced):
        """Median seconds a process spends outside `cli.main`.

        In-process workloads: an untraced pass's wall time minus the time of
        its checks.  cli-session: each untraced invocation's wall time minus
        the `cli.main` time of the same argv in the traced passes (that time
        includes the hooks' cost, so the figure errs low).
        """
        if self.workload != "cli-session":
            return statistics.median(
                p["wall"] - sum(o["seconds"] for o in p["outcomes"]) for p in plain)
        main_s = {}
        for p in traced:
            for o in p["outcomes"]:
                main_s.setdefault(o["id"], []).append(o["main_s"])
        return statistics.median(o["seconds"] - statistics.median(main_s[o["id"]])
                                 for p in plain for o in p["outcomes"])

    def result(self, setup, passes):
        plain = [p for t, p in passes if not t]
        traced = [p for t, p in passes if t]
        all_outcomes = [o for _t, p in passes for o in p["outcomes"]]
        attempted, failed, wrong, reasons = outcomes.tally(self.expect, all_outcomes)

        samples = [o["seconds"] for p in plain for o in p["outcomes"]]
        # each check's median over the passes, so that a slow spell during one
        # pass moves pass_s and fail_s no more than it moves wall_s
        check_s = {c["id"]: statistics.median(
            o["seconds"] for p in plain for o in p["outcomes"] if o["id"] == c["id"])
            for c in self.checks}
        end_to_end = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall"] for p in plain),
            "pass_s": sum(check_s[c["id"]] for c in self.checks
                          if c["expect"]["exit"] == 0),
            "fail_s": sum(check_s[c["id"]] for c in self.checks
                          if c["expect"]["exit"] == 1),
            "invocation_p90_s": _percentile(samples, 90),
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
        }
        units = dict(END_TO_END)
        overhead = fast_products = None
        if self.trace:
            # traced wall time over untraced, minus one; it swings by about
            # 0.1 either way between runs, so it goes to the record only
            overhead = ((statistics.median(p["wall"] for p in traced)
                         - end_to_end["wall_s"]) / end_to_end["wall_s"])
            process_overhead = self.process_overhead(plain, traced)
            per_pass = []
            for p in traced:
                p["trace"].process_overhead_s = process_overhead
                per_pass.append(layers.layer_values(p["trace"]))
            units = {m[0]: m[1] for m in layers.METRICS}
            metrics = {name: statistics.median(v[name] for v in per_pass)
                       for name in per_pass[0]}
            absent = sorted(set().union(*(p["trace"].absent for p in traced)))
            # products on the compiled path, for the record only: with the
            # pure backend the hook is absent and there is nothing to count
            if "kernels.matmul_fast" not in absent:
                fast_products = sum(p["trace"].n("kernels.matmul_fast")
                                    for p in traced)
        else:
            metrics, absent = end_to_end, []

        record = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "backend": self.backend,
            "python": platform.python_version(), "commit": _commit(self.root),
            "nproc": os.cpu_count(),
            "samples": {"setup_probes": len(setup), "passes": len(plain),
                        "traced_passes": len(traced),
                        "checks_per_pass": len(self.checks),
                        "invocations": len(samples)},
            "invocation_p50_s": _percentile(samples, 50),
            "trace.overhead_share": overhead,
            "kernels.fast_path_products": fast_products,
            "error_rate": {"failed": failed, "attempted": attempted,
                           "share": failed / attempted, "wrong_answers": wrong},
            "pass_walls": [[t, p["wall"]] for t, p in passes],
            "check_seconds": check_s,
            "errors": reasons, "absent_hooks": absent,
            "end_to_end": end_to_end, "metrics": metrics,
        }
        return {
            "correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }, record

    def write_record(self, record, passes):
        """The run record, and for a traced run its spans, one list per process."""
        runs = os.path.join(self.root, ".perfbench", "runs")
        os.makedirs(runs, exist_ok=True)
        stem = os.path.join(runs, "%s-seed%d-trace%d-%d" % (
            self.workload, self.seed, self.trace, os.getpid()))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        spans = [process for traced, p in passes if traced
                 for process in p["trace"].spans]
        if spans:
            with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
        return stem + ".json"


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "ybforge", "cli.py")):
        sys.stderr.write("perfbench: no src/ybforge/cli.py under %s\n" % root)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    try:
        setup, passes = run.execute()
        result, record = run.result(setup, passes)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    path = run.write_record(record, passes)
    err = record["error_rate"]
    sys.stderr.write("perfbench: %s seed %d: %d passes, %d/%d failed, record %s\n"
                     % (args.workload, args.seed, record["samples"]["passes"],
                        err["failed"], err["attempted"], os.path.relpath(path, root)))
    for cid, reason in sorted(record["errors"].items()):
        sys.stderr.write("  failed %s: %s\n" % (cid, reason))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
