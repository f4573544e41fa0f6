"""The traced benchmark patches library functions by name; a refactor that
renames or moves one must fail here rather than at bench time."""

import importlib.util
import math
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    spans = _load("spans")
    for name, owner, attr in spans.TARGETS:
        # the tracer reads owner.__dict__[attr], so the name must live there
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_traced_hyperprior_roundtrip(tmp_path):
    # one latent of the traced benchmark, in-process: the tracer reads each
    # symbol's interval from the tables rc_encode is given
    spans, workloads = _load("spans"), _load("workloads")
    wl = workloads.WORKLOADS["hyperprior-roundtrip"]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.SETUP):
        pair, _ = workloads.setup(wl, tmp_path)
    latent, hyper = workloads.make_inputs(wl, 1, 0)
    with tracer.installed():
        with tracer.span(spans.OP):
            check = workloads.run_op(wl, pair, latent, hyper)
        with tracer.span(spans.CHECK):
            assert check()
    counts = tracer.counts[spans.OP]
    assert counts["ideal_bits"] > 0 and counts["payload_bytes"] > 0
    assert counts["encoded"] == latent.size
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["gmm.tables"] > 0 and metrics["rc.symbols"] == 2 * latent.size
    assert math.isfinite(metrics["rc.overhead_pct"])


def test_traced_ar_roundtrip_sees_every_position(tmp_path):
    # the decoder builds each step's tables and runs the stack for it
    # through names the tracer patches: a move that hid them would read less
    spans, workloads = _load("spans"), _load("workloads")
    wl = workloads.WORKLOADS["ar-roundtrip"]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.SETUP):
        pair, _ = workloads.setup(wl, tmp_path)
    latent, hyper = workloads.make_inputs(wl, 1, 0)
    with tracer.installed():
        with tracer.span(spans.OP):
            check = workloads.run_op(wl, pair, latent, hyper)
        with tracer.span(spans.CHECK):
            assert check()
    metrics = spans.layer_metrics(tracer, 1)
    positions = latent.shape[1] * latent.shape[2]
    assert latent.size == positions == 64
    # the encoder's one field plus one table build and stack run per decode
    # step; a step is one anti-diagonal x + (R+1)y of the 8x8 latent, R = 1
    steps = (8 - 1) + 2 * (8 - 1) + 1
    assert metrics["gmm.tables"] == metrics["intops.stack_calls"] == steps + 1 == 23
    assert metrics["rc.symbols"] == 2 * latent.size  # encoded and decoded
