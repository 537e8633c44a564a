"""Every per-layer metric that perfbench declares can still be measured.

perfbench's tracer wraps the functions named in `spans.HOOKS`, looked up in
the modules that `import ybforge.cli` loads, and `layers.layer_values`
leaves out any metric whose hook prefix resolves to no function.  A change
that deletes or renames a hooked function therefore drops metrics from a
traced run without failing anything; this test fails instead.  It only
reads HOOKS and METRICS.
"""
import os
import sys

import pytest

import ybforge.cli  # noqa: F401  loads the modules the tracer looks in

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import spans
finally:
    sys.path.remove(PERFBENCH)


# the hook prefixes that resolve to a function, as Tracer.install finds them
PRESENT = {prefix for prefix, module, attr, _kind in spans.HOOKS
           if callable(getattr(sys.modules.get(module), attr, None))}


@pytest.mark.parametrize("metric", [m[0] for m in layers.METRICS])
def test_every_declared_metric_has_its_hooks(metric):
    needs = next(m[3] for m in layers.METRICS if m[0] == metric)
    missing = [prefix for prefix in needs if prefix not in PRESENT]
    assert not missing, "%s needs hooks with no function: %s" % (metric, missing)
