"""Compare one CLI outcome with its frozen expectation, and count errors.

An expectation is a dict with
  "exit":   the expected exit status;
  "checks": for reports, {check name: [verdict, certified, witness]} where
            witness PRESENT only asks that some witness is there (grid FAILs,
            whose points the roadmap will legitimately change);
  "stdout": for commands whose payload is not a report: "version",
            "names", or ["structure", kind, dim].

An outcome is a dict with "exit", "stdout", "stderr" and "traceback" (True
when the program ended in an uncaught exception).  Notes and counts are
never compared: roadmap items plan to change them.
"""
import json
import re

PRESENT = "present"

_VERSION = re.compile(r"^\d+\.\d+(\.\d+)?\S*$")


def _report(text):
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "checks" in doc else None


def _plain(value):
    """Tuples to lists, as the JSON report carries them."""
    return json.loads(json.dumps(value))


def mismatch(expect, outcome):
    """None when the outcome meets the expectation, else a short reason."""
    if outcome.get("traceback"):
        return "traceback (exit %s)" % outcome.get("exit")
    if outcome.get("exit") != expect["exit"]:
        return "exit %s, expected %s" % (outcome.get("exit"), expect["exit"])
    if "checks" in expect:
        doc = _report(outcome.get("stdout", ""))
        if doc is None:
            return "no JSON report"
        got = {c.get("name"): c for c in doc["checks"]}
        if sorted(got) != sorted(expect["checks"]):
            return "checks %s, expected %s" % (sorted(got), sorted(expect["checks"]))
        for name, (verdict, certified, witness) in expect["checks"].items():
            check = got[name]
            if check.get("verdict") is not verdict:
                return "%s verdict %s" % (name, check.get("verdict"))
            if check.get("certified") != certified:
                return "%s certified %s" % (name, check.get("certified"))
            seen = check.get("witness")
            if witness == PRESENT:
                if seen is None:
                    return "%s has no witness" % name
            elif seen != _plain(witness):
                return "%s witness %s, expected %s" % (name, seen, witness)
    stdout = expect.get("stdout")
    if stdout == "version":
        if not _VERSION.match(outcome.get("stdout", "").strip()):
            return "no version on stdout"
    elif stdout == "names":
        try:
            names = json.loads(outcome.get("stdout", ""))["names"]
        except (ValueError, KeyError, TypeError):
            return "no name list on stdout"
        if not isinstance(names, list) or "dual2" not in names:
            return "name list without dual2"
    elif stdout is not None:
        _tag, kind, dim = stdout
        try:
            doc = json.loads(outcome.get("stdout", ""))
        except ValueError:
            return "no structure JSON on stdout"
        if not isinstance(doc, dict) or (doc.get("kind"), doc.get("dim")) != (kind, dim):
            return "structure JSON is not a %s of dim %d" % (kind, dim)
    return None


def tally(checks, outcomes):
    """Count attempted and failed checks.

    `checks` maps check id to its expectation; `outcomes` is a list of
    outcome dicts with an "id".  Returns (attempted, failed, wrong, reasons):
    failed counts every outcome that misses its expectation; wrong counts
    the subset that is a wrong answer.  Every miss is a wrong answer except
    a traceback on bad input (expected exit 2): the program rejected the
    input, only not with the documented exit status.  A traceback where a
    verdict or payload was expected is a wrong answer.
    """
    attempted = failed = wrong = 0
    reasons = {}
    for outcome in outcomes:
        attempted += 1
        reason = mismatch(checks[outcome["id"]], outcome)
        if reason is None:
            continue
        failed += 1
        expect = checks[outcome["id"]]
        if not (outcome.get("traceback") and expect["exit"] == 2):
            wrong += 1
        reasons.setdefault(outcome["id"], reason)
    return attempted, failed, wrong, reasons
