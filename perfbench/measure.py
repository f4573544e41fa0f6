"""One benchmark run of one workload: set-up, timed loop, checks, report."""

from __future__ import annotations

import json
import pathlib
import resource
import statistics
import tempfile
import time
import traceback

import numpy as np

import spans
import workloads

# timed latents a run makes at least, after its untimed warm-up latent
MIN_LATENTS = 3

# Typical duration of calibration_s() on a 2-vCPU Intel Xeon (family 6,
# model 143) KVM guest; it reads about 40% less on an idle host.
CAL_NOMINAL_S = 0.004
_CDF = np.arange(18, dtype=np.int64)
_ACT = np.arange(6 * 8 * 8, dtype=np.int64).reshape(6, 8, 8) - 150
_WEIGHTS = np.arange(54 * 6, dtype=np.int64).reshape(54, 6) % 7 - 3


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of tiny-array numpy calls.

    On a shared machine the speed of this code drifts by up to 2x for
    minutes at a time, as neighbours load the host.  The kernel mimics the
    small-array work of the desk-width workloads, in about equal time
    shares: cumulative sums and searches over 18-entry arrays (CDF tables)
    and a padded 3x3 convolution of a 6x8x8 tensor with rescaling (the
    integer stack).  Timed next to every sample, it tracks the machine's
    current speed: over ten 30 s runs it cut the run-to-run spread of
    latency medians from 0.26-0.39 to about 0.02 on those workloads, and
    left the memory-bound wide-encode latency spread at about 0.09.
    """
    t0 = time.perf_counter()
    for j in range(150):
        c = np.cumsum(_CDF * (j + 1)) >> 3
        np.searchsorted(c, j)
        np.abs(c - j).max()
    for j in range(6):
        xp = np.pad(_ACT, ((0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
        acc = (win.transpose(1, 2, 0, 3, 4).reshape(64, 54, 1) * _WEIGHTS).sum(axis=1)
        r = (np.abs(acc) + 128) >> 8
        np.clip(np.where(acc < 0, -r, r), -32767, 32767)
    return time.perf_counter() - t0


class Clock:
    """Times samples as measured and scaled to nominal machine speed: a
    sample's time times CAL_NOMINAL_S over the mean of the calibration
    runs just before and just after it."""

    def __init__(self):
        self.cal = [calibration_s()]

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.cal.append(calibration_s())
        return out, raw, raw * 2 * CAL_NOMINAL_S / (self.cal[-2] + self.cal[-1])


def sample(wl, seed, seconds, setup_reps, out_dir, tracer=None):
    """Timed set-ups, then latents 0, 1, ... for `seconds` seconds.

    Latent 0 warms up and is not timed.  With a tracer, one more
    set-up and every latent also run under tracing, right after their
    untraced run, so traced and untraced times come from the same stretch of
    machine time.  Returns the samples -- times in seconds, "raw" as
    measured and "nominal" at nominal machine speed -- and the StackPair and
    in-memory quantized stack of the last set-up.
    """
    clock = Clock()
    out = {k: [] for k in ("setup_raw", "setup_nominal", "raw", "nominal", "traced")}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = pathlib.Path(tmp)
        for _ in range(setup_reps):
            (pair, quant), raw, nominal = clock.time(workloads.setup, wl, workdir)
            out["setup_raw"].append(raw)
            out["setup_nominal"].append(nominal)
        if tracer:
            with tracer.installed(), tracer.span(spans.SETUP):
                pair, quant = workloads.setup(wl, workdir)
            out["manifest_bytes"] = sum(p.stat().st_size for p in workdir.iterdir())

    failed, i = 0, 0
    t_end = time.perf_counter() + seconds
    while i <= MIN_LATENTS or time.perf_counter() < t_end:
        latent, hyper = workloads.make_inputs(wl, seed, i)
        try:
            check, raw, nominal = clock.time(workloads.run_op, wl, pair, latent, hyper)
            if tracer:
                tracer.latent = i
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span(spans.OP):
                        check = workloads.run_op(wl, pair, latent, hyper)
                    traced = time.perf_counter() - t0
                    with tracer.span(spans.CHECK):
                        ok = check()
            else:
                ok = check()
            failed += not ok
            if i:
                out["raw"].append(raw)
                out["nominal"].append(nominal)
                if tracer:
                    out["traced"].append(traced)
        except Exception:
            traceback.print_exc()
            failed += 1
        i += 1
    out.update(latents=i, failed=failed, calibration_s=clock.cal)
    return out, pair, quant


def _ms_p50(seconds):
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def run(wl, seed, seconds, trace, out_dir, units, threads):
    """Returns the report lines and the result object; writes the details."""
    out_dir.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    runs, pair, quant = sample(wl, seed, seconds, 1 if trace else wl.setup_reps, out_dir, tracer)
    failed, attempted = runs["failed"], runs["latents"] + 2
    try:
        digest, bits, symbols, check_failed = workloads.digest_pass(wl, seed, pair, quant)
        failed += check_failed
    except Exception:
        traceback.print_exc()
        digest, bits, symbols = None, 0, 1
        failed += 2

    raw, n = runs["raw"], len(runs["raw"])
    lines = [
        f"workload {wl.name}  seed {seed}  op {wl.op}  "
        f"BLAS/OpenMP threads {threads}  trace {trace}"
    ]
    detail = {"workload": wl.name, "seed": seed, "threads": threads, "digest": digest}
    if trace:
        p50, t50 = _ms_p50(raw), _ms_p50(runs["traced"])
        metrics = spans.layer_metrics(tracer, runs["latents"])
        metrics["manifest.bytes"] = runs["manifest_bytes"]
        metrics["trace.overhead_ms"] = t50 - p50
        metrics["trace.overhead_pct"] = 100.0 * (t50 - p50) / p50 if p50 else 0.0
        lines.append(
            f"as measured: untraced p50 {p50:.3f} ms, traced p50 {t50:.3f} ms, "
            f"n={n} latents; per-layer values are per traced latent "
            f"({runs['latents']}, warm-up included) except quantize.* and "
            "manifest.* (one set-up); intops.macs and intops.products_mb_max "
            "are computed from layer shapes"
        )
        lines += [f"{k:24s} {v:16.6f} {units[k]}" for k, v in metrics.items()]
        detail["span_fields"] = ["name", "start_ns", "end_ns", "parent", "latent"]
        detail["spans"] = tracer.spans
    else:
        nominal, setup = runs["nominal"], runs["setup_nominal"]
        metrics = {
            "latent_ms_p50": _ms_p50(nominal),
            "sym_per_s": n * wl.symbols / sum(nominal) if n else 0.0,
            "bits_per_symbol": bits / symbols,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        samples = {
            "latent_ms_p50": f"n={n} latents; as measured {_ms_p50(raw):.3f}",
            "sym_per_s": f"n={n} latents, {n * wl.symbols} symbols; "
            f"as measured {n * wl.symbols / sum(raw) if n else 0.0:.3f}",
            "bits_per_symbol": f"n={wl.digest_latents} latents, {symbols} symbols",
            "peak_rss_mb": "n=1 process",
            "setup_s": f"n={len(setup)} set-ups; "
            f"as measured {statistics.median(runs['setup_raw']):.6f}",
        }
        lines.append(
            "times at nominal machine speed (see measure.Clock); calibration median "
            f"{statistics.median(runs['calibration_s']) * 1e3:.3f} ms, "
            f"nominal {CAL_NOMINAL_S * 1e3:.3f} ms"
        )
        lines += [
            f"{k:16s} {v:14.6f} {units[k]:11s} {samples[k]}" for k, v in metrics.items()
        ]
        if n >= 20:
            # the highest percentile with at least ten samples beyond it
            q = int(100 * (1 - 10 / n))
            tail = statistics.quantiles(nominal, n=100, method="inclusive")[q - 1] * 1e3
            lines.append(f"latent_ms_p{q:<5d} {tail:14.6f} ms          n={n} latents")
            detail[f"latent_ms_p{q}"] = tail
        detail.update({k: v for k, v in runs.items() if isinstance(v, list)})
    lines.append(f"fail_rate {failed}/{attempted}  output sha256 {digest}")
    detail["metrics"] = metrics
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"{wl.name}-seed{seed}-trace{trace}.json"
    (out_dir / name).write_text(json.dumps(detail))
    return lines, result
