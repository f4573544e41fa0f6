"""Command-line workflows over the quantizer, coder, and interop harness.

Exit codes: 0 success, 1 verification or roundtrip failure, 2 input or
format error.  No command draws random numbers: identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .harness import (
    ORDERS,
    BackendVariant,
    boundary_failure_demo,
    calibrate_shifts,
    make_stack_pair,
    roundtrip_experiment,
)
from .manifest import (
    ManifestError,
    load_float_model,
    load_quantized_model,
    model_dtype,
    save_quantized_model,
)
from .quantize import WeightRangeError, shifted_bound
from .tensors import ShapeError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load_data(path):
    """Load latent/hyper pairs from an .npz: latent_0, hyper_0, latent_1, ...

    Latents are symbols, so each entry must be a finite whole number.
    """
    try:
        with np.load(path) as z:
            pairs = []
            i = 0
            while f"latent_{i}" in z:
                if f"hyper_{i}" not in z:
                    raise ManifestError(f"hyper_{i} missing from {path}")
                latent = z[f"latent_{i}"]
                v = latent
                if v.dtype.kind == "f":
                    # compared in float64 at least: 2^63 overflows float16
                    v = v.astype(np.promote_types(v.dtype, np.float64))
                if latent.dtype.kind not in "iuf" or not np.all(
                    np.isfinite(v) & (v == np.trunc(v)) & (np.abs(v) < 2.0**63)
                ):
                    raise ManifestError(f"latent_{i} must hold finite integers within int64")
                pairs.append((latent.astype(np.int64), z[f"hyper_{i}"]))
                i += 1
    except (OSError, ValueError, KeyError) as e:
        raise ManifestError(f"cannot read data file {path}: {e}") from e
    if not pairs:
        raise ManifestError(f"no latent_0/hyper_0 arrays in {path}")
    return pairs


def _check_out(path):
    """Refuse, before any work, an output path that cannot be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ManifestError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise ManifestError(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise ManifestError(f"cannot write {path}: directory {parent} is not writable")


@contextlib.contextmanager
def _writing(path):
    """A write to path that fails anyway is an input error too."""
    try:
        yield
    except OSError as e:
        raise ManifestError(f"cannot write {path}: {e}") from e


def cmd_quantize(args) -> int:
    _check_out(args.out)
    stack = load_float_model(args.model)
    try:
        qstack = stack.quantize()
    except WeightRangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    with _writing(args.out):
        save_quantized_model(args.out, qstack)
    for name, chain in qstack.chains():
        for i, lyr in enumerate(chain):
            ks = ",".join(str(int(v)) for v in lyr.spec.k)
            print(f"{name}[{i}] p_in={lyr.spec.p_in} p_out={lyr.spec.p_out} k=[{ks}]")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _check_out(args.out)
    stack = load_float_model(args.model)
    pairs = _load_data(args.data)
    grid = tuple(int(v) for v in args.grid.split(","))
    report = calibrate_shifts(stack, pairs, grid=grid, passes=args.passes)

    def bits(v):
        # JSON has no infinity: a junction no grid point quantizes scores null
        return v if math.isfinite(v) else None

    doc = {
        "final_objective_bits": bits(report.final_objective),
        "passes": report.passes,
        "layers": [{**c, "objective": bits(c["objective"])} for c in report.layers],
        "trace": [
            {**t, "junction": list(t["junction"]), "objective": bits(t["objective"])}
            for t in report.trace
        ],
    }
    with _writing(args.out), open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    print(f"final objective: {report.final_objective:.3f} bits -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        if model_dtype(args.model) == "float32":
            stack = load_float_model(args.model).quantize()
        else:
            stack = load_quantized_model(args.model)
    except WeightRangeError as e:
        # QConvLayer enforces the static overflow bound when a layer is built
        print(f"FAIL overflow bound: {e}")
        print("verify: FAIL")
        return EXIT_FAIL
    for name, chain in stack.chains():
        for i, lyr in enumerate(chain):
            worst = shifted_bound(lyr.w_q, lyr.b_q, lyr.spec).max()
            bits = 31 - math.log2(worst) if worst else math.inf
            print(f"{name}[{i}] headroom {bits:.2f} bits")
    print("verify: PASS")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    fstack = load_float_model(args.model)
    pairs = _load_data(args.data)
    stacks = make_stack_pair(fstack)
    all_ok = True
    for i, (latent, hyper) in enumerate(pairs):
        report = roundtrip_experiment(
            stacks,
            latent,
            hyper,
            BackendVariant("enc", args.enc_variant, args.mode),
            BackendVariant("dec", args.dec_variant, args.mode),
        )
        print(f"case {i}:")
        print(report.to_text(), end="")
        all_ok = all_ok and report.decoded_equal
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_demo_failure(args) -> int:
    f = boundary_failure_demo(prior_mode="float")
    i = boundary_failure_demo(prior_mode="int")
    print("float priors, 1-ulp perturbed decoder:")
    print(f.to_text(), end="")
    print("integer priors, same perturbation:")
    print(i.to_text(), end="")
    ok = (not f.decoded_equal) and i.decoded_equal
    print("demo:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detq",
        description="deterministic integer entropy-model toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a float model manifest")
    q.add_argument("model")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_quantize)

    c = sub.add_parser("calibrate", help="search per-layer shift exponents")
    c.add_argument("model")
    c.add_argument("data", help=".npz with latent_i / hyper_i arrays")
    c.add_argument("--out", required=True)
    c.add_argument("--grid", default="6,7,8,9,10,11,12")
    c.add_argument("--passes", type=int, default=2)
    c.set_defaults(fn=cmd_calibrate)

    v = sub.add_parser("verify", help="static overflow bound and per-layer headroom")
    v.add_argument("model")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("roundtrip", help="cross-device encode/decode experiment")
    r.add_argument("model", help="float model manifest")
    r.add_argument("data", help=".npz with latent_i / hyper_i arrays")
    r.add_argument("--enc-variant", choices=ORDERS, default="seq")
    r.add_argument("--dec-variant", choices=ORDERS, default="seq")
    r.add_argument("--mode", choices=("float", "int"), default="int")
    r.set_defaults(fn=cmd_roundtrip)

    d = sub.add_parser("demo-failure", help="deterministic decode-failure demo")
    d.set_defaults(fn=cmd_demo_failure)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ManifestError, WeightRangeError, ShapeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
