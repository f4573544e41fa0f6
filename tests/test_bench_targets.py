"""The traced benchmark patches library functions by name; a refactor that
renames or moves one must fail here rather than at bench time."""

import importlib.util
import math
import pathlib
import sys

import numpy as np

from detq import harness, intops

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


def _traced_latent(name, tmp_path):
    """One latent of the traced benchmark's workload `name`, in-process:
    the tracer, the stack pair and the latent."""
    spans, workloads = _load("spans"), _load("workloads")
    wl = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.SETUP):
        pair, _ = workloads.setup(wl, tmp_path)
    latent, hyper = workloads.make_inputs(wl, 1, 0)
    with tracer.installed():
        with tracer.span(spans.OP):
            check = workloads.run_op(wl, pair, latent, hyper)
        with tracer.span(spans.CHECK):
            assert check()
    return spans, tracer, pair, latent


def test_traced_hyperprior_roundtrip(tmp_path):
    # the tracer reads each symbol's interval from the tables rc_encode is given
    spans, tracer, _, latent = _traced_latent("hyperprior-roundtrip", tmp_path)
    counts = tracer.counts[spans.OP]
    assert counts["ideal_bits"] > 0 and counts["payload_bytes"] > 0
    assert counts["encoded"] == latent.size
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["gmm.tables"] > 0 and metrics["rc.symbols"] == 2 * latent.size
    assert math.isfinite(metrics["rc.overhead_pct"])


def test_traced_ar_roundtrip_sees_every_position(tmp_path):
    # the decoder builds each step's tables and runs the stack for it
    # through names the tracer patches: a move that hid them would read less
    spans, tracer, _, latent = _traced_latent("ar-roundtrip", tmp_path)
    metrics = spans.layer_metrics(tracer, 1)
    positions = latent.shape[1] * latent.shape[2]
    assert latent.size == positions == 64
    # the encoder's one field plus one table build and stack run per decode
    # step; a step is one anti-diagonal x + (R+1)y of the 8x8 latent, R = 1
    steps = (8 - 1) + 2 * (8 - 1) + 1
    assert metrics["gmm.tables"] == metrics["intops.stack_calls"] == steps + 1 == 23
    assert metrics["rc.symbols"] == 2 * latent.size  # encoded and decoded


def _macs(layer, positions):
    m, k, _, n = layer.w_q.shape
    return positions * m * k * k * n


def test_traced_ar_roundtrip_sees_every_layer_step(tmp_path):
    # each layer step runs the kernel's own steps, qconv_forward, requantize
    # and leaky_relu_int, where the tracer patches them
    spans, tracer, pair, latent = _traced_latent("ar-roundtrip", tmp_path)
    metrics = spans.layer_metrics(tracer, 1)
    stack = pair.quant_stack
    chains = (stack.hyperdecoder, stack.context, stack.gather)
    assert [len(c) for c in chains] == [2, 1, 7]
    _, h, w = latent.shape
    # the encoder runs all 10 layers on the whole 8x8 latent and the decoder
    # the hyperdecoder once, then per step the context layer on the step's
    # band and gather on the step's positions
    macs = sum(_macs(lyr, h * w) for chain in chains for lyr in chain)
    macs += sum(_macs(lyr, h * w) for lyr in stack.hyperdecoder)
    r = intops.context_reach(stack)
    ys, xs, t = harness._coding_order(h, w, r)
    steps = np.unique(t)
    for step in steps:
        at = (ys[t == step], xs[t == step])
        band, _ = intops._band(latent, at, r)
        macs += sum(_macs(lyr, band.shape[1] * band.shape[2]) for lyr in stack.context)
        macs += sum(_macs(lyr, len(at[0])) for lyr in stack.gather)
    assert len(steps) == 22
    calls = 10 + 2 + 22 * 8
    assert metrics["intops.conv_calls"] == metrics["tensors.im2col_calls"] == calls == 188
    assert metrics["intops.macs"] == macs == 126810
    assert metrics["intops.requantize_s"] > 0 and metrics["intops.activation_s"] > 0


def test_traced_wide_setup_sees_every_layer(tmp_path):
    # quantize.* reads one quantize_layer call per layer and its channels:
    # quantizing a stack must still go through that name once per layer
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.SETUP):
        workloads.setup(workloads.WORKLOADS["wide-encode"], tmp_path)
    metrics = spans.layer_metrics(tracer, 1)
    # two hyperdecoder layers, one context layer and seven gather layers:
    # nine 192 wide and the head 9 x 32 wide
    assert metrics["quantize.layers"] == 10
    assert metrics["quantize.channels"] == 9 * 192 + 9 * 32 == 2016
