"""One cold pass: run a list of ybforge command lines in a fresh interpreter.

    python3 worker.py SPEC RESULT

SPEC is a JSON file {"src", "cwd", "trace", "checks": [{"id", "argv"}]}.
Each check goes through the public entry point `ybforge.cli.main(argv)` with
stdout and stderr captured; an uncaught exception is recorded as a
traceback with exit status 1, as the interpreter would report it.  RESULT
receives the outcomes, the import time, the peak RSS and, when tracing, the
spans and counters, written once the pass ends.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_check(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
            status = code if isinstance(code, int) else (0 if code is None else 1)
        except Exception:   # the program crashed: record it as the CLI would
            traceback.print_exc()
            status, crashed = 1, True
    seconds = time.perf_counter() - start
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "traceback": crashed, "seconds": seconds}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import_start = time.perf_counter()
    import ybforge.cli as cli
    import_end = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("ybforge imported from %s, not %s" % (cli.__file__, src))
    import ybforge

    tracer = None
    absent = []
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        absent = tracer.install()
        # With no compiled backend no product can take the fast path: its
        # count is absent, not a 0 that measures nothing.
        has_fast = getattr(sys.modules.get("ybforge._kernels"), "has_fast", None)
        if has_fast is None or not has_fast():
            absent = sorted(set(absent) | {"kernels.matmul_fast"})

    os.chdir(spec["cwd"])
    outcomes = []
    for check in spec["checks"]:
        if tracer is not None:
            tracer.check = check["id"]
        outcome = _run_check(sys.modules["ybforge.cli"], check["argv"])
        outcome["id"] = check["id"]
        outcomes.append(outcome)

    result = {
        "import_s": import_end - import_start,
        "backend": getattr(ybforge, "ACTIVE_BACKEND", None),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["trace"] = {"spans": tracer.spans, "counters": tracer.counters,
                           "absent": absent}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
