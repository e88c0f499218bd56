"""Self-test of the benchmark's tracer, on tiny inputs.

    python3 -m pytest perfbench -q

Each wrapped name's traced call count must equal the count cProfile sees
for the original function in an untraced run of the same input: a wrapper
missing from one namespace that binds the name shows up as a shortfall.
Self times over a pass must add up to the pass's root span.  The
calibration sampler must tick inside a pass and leave its ticks out of the
clock that passes are timed with.
"""

import cProfile
import json
import os
import pstats
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import worker  # noqa: E402

worker.import_checkout_ncprob()

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DeepDilation, VerifyAll, WordStream  # noqa: E402


class TinyAlgebraSuite(VerifyAll):
    """One small suite through ``run_suite``, which reaches suites by a dict."""

    def run_pass(self):
        from ncprob import serialization, suites

        report = suites.run_suite("algebra", self.config)
        serialization.emit_json(report)


def tiny_workloads(tmp_path):
    return [
        DeepDilation(3, str(tmp_path), horizon=2, product_horizon=2),
        WordStream(3, str(tmp_path), words=20),
        TinyAlgebraSuite(3, str(tmp_path)),
    ]


def profiled_calls(workload, originals) -> dict[str, int]:
    profile = cProfile.Profile()
    profile.runcall(workload.run_pass)
    stats = pstats.Stats(profile).stats
    out = {}
    for name, fn in originals.items():
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[name] = entry[1] if entry else 0
    return out


def traced_pass(workload, extra=None):
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_pass(0)
        workload.run_pass()
        if extra is not None:
            extra()
        tr.end_pass()
    finally:
        tr.uninstall()
    return tr, tr.pass_summary(0)


def test_traced_calls_match_cprofile(tmp_path):
    for workload in tiny_workloads(tmp_path):
        workload.setup()
        workload.run_pass()  # let lazy set-up finish before counting
        tr, summary = traced_pass(workload)
        traced = dict(zip(tracing.SPAN_NAMES, summary["calls"]))
        profiled = profiled_calls(workload, tr.originals)
        assert traced == profiled, workload.name
        assert sum(traced.values()) > 0


def test_a_missed_binding_is_caught(tmp_path):
    from ncprob import hilbert_module

    workload = DeepDilation(3, str(tmp_path), horizon=2, product_horizon=2)
    workload.setup()
    untraced_reference = hilbert_module.compose_blocks
    block = np.eye(2, dtype=complex).reshape(1, 1, 2, 2)
    tr, summary = traced_pass(workload, lambda: untraced_reference(block, block))
    traced = dict(zip(tracing.SPAN_NAMES, summary["calls"]))
    profile = cProfile.Profile()
    profile.runcall(lambda: (workload.run_pass(), untraced_reference(block, block)))
    code = tr.originals["hilbert_module.compose_blocks"].__code__
    entry = pstats.Stats(profile).stats[(code.co_filename, code.co_firstlineno, code.co_name)]
    assert entry[1] == traced["hilbert_module.compose_blocks"] + 1


def test_self_times_add_up_to_the_root_span(tmp_path):
    workload = WordStream(5, str(tmp_path), words=20)
    workload.setup()
    _, summary = traced_pass(workload)
    assert sum(summary["self_s"]) == pytest.approx(summary["root_s"], rel=1e-9, abs=1e-9)
    assert min(summary["self_s"]) >= -1e-9


def test_uninstall_restores_every_binding():
    from ncprob import dilation, hilbert_module, suites

    before = (hilbert_module.apply_blocks, dilation.apply_blocks, suites.apply_blocks,
              dict(suites._SUITE_FUNCTIONS), dilation.DiscreteProductSystem.__dict__["build"])
    tr = tracing.Tracer()
    tr.install()
    assert dilation.apply_blocks is not before[1]
    assert suites._SUITE_FUNCTIONS["algebra"] is not before[3]["algebra"]
    tr.uninstall()
    after = (hilbert_module.apply_blocks, dilation.apply_blocks, suites.apply_blocks,
             dict(suites._SUITE_FUNCTIONS), dilation.DiscreteProductSystem.__dict__["build"])
    assert after == before


def test_benchmark_json_names_every_reported_metric():
    path = os.path.join(worker.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_sampler_ticks_inside_a_pass_and_leaves_them_out_of_its_clock():
    sampler = calibrate.Sampler()
    sampler.start()
    c0, t0 = sampler.clock(), calibrate.time.perf_counter()
    while calibrate.time.perf_counter() - t0 < 3 * calibrate.INTERVAL_S:
        sum(range(1000))
    wall = calibrate.time.perf_counter() - t0
    net = sampler.clock() - c0
    speed = sampler.stop()
    in_pass = len(sampler.ticks) - 2 * sampler.EDGE
    assert in_pass >= 2
    assert 0 < net < wall
    assert wall - net == pytest.approx(sum(sampler.ticks[sampler.EDGE:-sampler.EDGE]), rel=0.2)
    assert speed == pytest.approx(calibrate.speed(sampler.ticks))
    # the timer is off and the previous handler is back
    assert calibrate.signal.getitimer(calibrate.signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.signal.getsignal(calibrate.signal.SIGALRM) == calibrate.signal.SIG_DFL
