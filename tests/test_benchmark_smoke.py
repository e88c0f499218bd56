"""The benchmark's workloads still run against the package, untraced and traced.

``perfbench`` is not collected by this suite, yet it calls the package's
public API by name and its tracer wraps named functions and methods; a
renamed function, a changed signature or a method that is no longer a plain
function in its class makes every benchmark run exit before it measures
anything.  This imports the benchmark's own files, unchanged, and makes one
small pass of each workload both ways.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_untraced_and_traced(name, tmp_path):
    workload = WORKLOADS[name](7, str(tmp_path))
    workload.setup()
    plain = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass(1)
        traced = workload.run_pass()
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert plain.failed == 0, plain.problems
    assert traced.failed == 0, traced.problems
    assert (traced.digest, traced.counts) == (plain.digest, plain.counts)
    metrics = tracer.layer_metrics(tracer.pass_summary(1))
    assert set(metrics) == {metric for metric, _ in metric_names()}
    if name == "word-stream":
        # one traced emit_json call per moments report: the emitter does not
        # recurse through its public (traced) name
        assert metrics["serialization.emit_json.calls"] == 2
        assert metrics["serialization.emit_json.bytes"] == plain.counts["report_bytes"] - 2
