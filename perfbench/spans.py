"""Span tracing from outside the library.

The tracer replaces public detq functions with timing wrappers at the names
their callers look them up under (``harness`` imports several of them by
name, so patching only the defining module would miss those calls), and
restores them on exit.  Spans stay in memory: name, start, end, parent span
and the id of the latent being processed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

from detq import harness, intops, manifest, rc

# (span name, namespace the caller looks the function up in, attribute)
TARGETS = (
    ("quantize.quantize_layer", harness, "quantize_layer"),
    ("manifest.save", manifest, "save_quantized_model"),
    ("manifest.load", manifest, "load_quantized_model"),
    ("tensors.im2col", intops, "im2col"),
    ("intops.qconv_forward", intops, "qconv_forward"),
    ("intops.requantize", intops, "requantize"),
    ("intops.leaky_relu_int", intops, "leaky_relu_int"),
    ("intops.linear_softmax_field", intops, "linear_softmax_field"),
    ("gmm.build_cdf_table", harness, "build_cdf_table"),
    ("rc.rc_encode", harness, "rc_encode"),
    ("rc.rc_encode", rc, "rc_encode"),
    ("rc.rc_decode", harness, "rc_decode"),
    ("rc.rc_decode", rc, "rc_decode"),
    ("rc.decode", rc.RangeDecoder, "decode"),
    ("harness.roundtrip_experiment", harness, "roundtrip_experiment"),
    ("harness.run_backend", harness, "run_backend"),
    ("harness.field_tables", harness, "field_tables"),
)

SETUP, OP, CHECK = "bench.setup", "bench.op", "bench.check"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, latent id]
        self._open = []
        self.latent = None
        # counts read from arguments and results, keyed by root span name
        self.counts = {}

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.latent]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def _count(self, key, value, reduce=None):
        root = self.spans[self._open[0]][0] if self._open else None
        bucket = self.counts.setdefault(root, {})
        old = bucket.get(key, 0)
        bucket[key] = reduce(old, value) if reduce else old + value

    def _on_result(self, name, args, out):
        if name == "intops.qconv_forward":
            # shapes of the call read outside the program: x (m, h, w), w_q (m, k, k, n)
            x, layer = args[0], args[1]
            m, k, _, n = layer.w_q.shape
            positions = x.shape[1] * x.shape[2]
            self._count("macs", positions * m * k * k * n)
            self._count("products_bytes_max", positions * m * k * k * n * 8, max)
        elif name == "intops.linear_softmax_field":
            self._count("positions", math.prod(args[0].shape[1:]))
        elif name == "rc.rc_encode":
            # Σ -log2 p of the coded intervals (tables total 2^16)
            ideal = 0.0
            for s, t in zip(args[0], args[1]):
                lo, hi = t.interval(int(s))
                ideal -= math.log2((hi - lo) / 65536)
            self._count("ideal_bits", ideal)
            self._count("payload_bytes", len(out.payload))
            self._count("encoded", out.count)
        elif name == "quantize.quantize_layer":
            self._count("channels", out.out_channels)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._on_result(name, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved, wrappers = [], {}
        try:
            for name, owner, attr in TARGETS:
                orig = owner.__dict__[attr]
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, orig)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrappers[name])
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self):
        """Per span: duration minus the part its child spans cover (ns)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


LAYERS = ("intops", "tensors", "gmm", "rc", "harness")


def layer_metrics(tracer: Tracer, latents: int) -> dict:
    """Per-layer metrics: set-up figures for the one traced set-up,
    everything else per traced latent."""
    self_ns = {SETUP: {}, OP: {}, CHECK: {}}
    calls = {SETUP: {}, OP: {}, CHECK: {}}
    roots = []
    for (name, _, _, parent, _), ns in zip(tracer.spans, tracer.self_times()):
        roots.append(name if parent < 0 else roots[parent])
        self_ns[roots[-1]][name] = self_ns[roots[-1]].get(name, 0) + ns
        calls[roots[-1]][name] = calls[roots[-1]].get(name, 0) + 1

    def sec(root, *prefixes):
        ns = self_ns[root].items()
        return sum(v for n, v in ns if n.startswith(prefixes)) / 1e9

    def n_calls(root, name):
        return calls[root].get(name, 0)

    op_s = sec(OP, "")
    counts = tracer.counts.get(OP, {})
    tables = n_calls(OP, "gmm.build_cdf_table")
    decoded = n_calls(OP, "rc.decode")
    check_decoded = n_calls(CHECK, "rc.decode")
    payload = counts.get("payload_bytes", 0)
    ideal = counts.get("ideal_bits", 0.0)
    per_latent = {
        "intops.self_s": sec(OP, "intops."),
        "intops.conv_s": sec(OP, "intops.qconv_forward"),
        "intops.conv_calls": n_calls(OP, "intops.qconv_forward"),
        "intops.requantize_s": sec(OP, "intops.requantize"),
        "intops.activation_s": sec(OP, "intops.leaky_relu_int"),
        "intops.softmax_s": sec(OP, "intops.linear_softmax_field"),
        "intops.stack_calls": n_calls(OP, "intops.linear_softmax_field"),
        "intops.macs": counts.get("macs", 0),
        "tensors.im2col_s": sec(OP, "tensors.im2col"),
        "tensors.im2col_calls": n_calls(OP, "tensors.im2col"),
        "gmm.tables": tables,
        "gmm.table_s": sec(OP, "gmm."),
        "rc.encode_s": sec(OP, "rc.rc_encode"),
        # wide-encode decodes only in its correctness check
        "rc.decode_s": sec(OP, "rc.rc_decode", "rc.decode")
        + sec(CHECK, "rc.rc_decode", "rc.decode"),
        "rc.symbols": counts.get("encoded", 0) + decoded + check_decoded,
        "rc.payload_bytes": payload,
        "harness.self_s": sec(OP, "harness."),
    }
    m = {k: v / latents for k, v in per_latent.items()}
    m.update(
        {
            "intops.products_mb_max": counts.get("products_bytes_max", 0) / 2**20,
            # symbols whose priors were used / element priors the stack computed
            "intops.useful_ratio": (
                (counts.get("encoded", 0) + decoded) / counts["positions"]
                if counts.get("positions")
                else 0.0
            ),
            "gmm.table_us": 1e6 * sec(OP, "gmm.") / tables if tables else 0.0,
            "rc.overhead_pct": 100.0 * (8 * payload / ideal - 1.0) if ideal else 0.0,
            "quantize.s": sec(SETUP, "quantize."),
            "quantize.layers": n_calls(SETUP, "quantize.quantize_layer"),
            "quantize.channels": tracer.counts.get(SETUP, {}).get("channels", 0),
            "manifest.save_s": sec(SETUP, "manifest.save"),
            "manifest.load_s": sec(SETUP, "manifest.load"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = 100.0 * sec(OP, layer + ".") / op_s if op_s else 0.0
    return m
