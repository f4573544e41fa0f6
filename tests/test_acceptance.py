"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Tolerances are pinned here and nowhere else:
  1. overflow:    0 violations over 1000 layers, runtime < 60 s
  2. determinism: 0 mismatching bytes over 100 stacks x 3 orders
  3. roundtrip:   0 symbol errors over 100 latents x 9 variant pairs
  4. failure demo: float decode fails, integer decode succeeds, exactly
  5. fidelity:    integer cross-entropy excess <= 2%, median relative
                  error of means/scales <= 1%, over 20 calibrated stacks
  6. formulas:    exact equality with arbitrary-precision oracles, 10^4 inputs
  7. coder:       exact roundtrip on 10^3 cases; <= 2% over the entropy
                  bound at n = 10^4
  8. softmax:     positive, total 2^15, oracle-exact on 10^4 inputs
"""

import math
import time

import numpy as np

from detq.gmm import CDF_TOTAL
from detq.harness import (
    BackendVariant,
    boundary_failure_demo,
    calibrate_shifts,
    float_cross_entropy_bits,
    int_cross_entropy_bits,
    make_stack_pair,
    roundtrip_experiment,
    run_backend,
)
from detq.intops import linear_softmax_field, run_entropy_stack
from detq.quantize import (
    adjust_shift_for_bias,
    derive_weight_shift,
    quantize_layer,
    quantize_value,
)
from detq.rc import rc_decode, rc_encode
from detq.tensors import ConvLayerF

from models import random_latent, random_stack
from oracles import (
    adjust_shift_for_bias_oracle,
    derive_weight_shift_oracle,
    oracle_priors,
    quantize_value_oracle,
    softmax_oracle,
)
from test_rc import random_table, repeat


def _verdict(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_overflow_freedom():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 257))
        kk = int(rng.choice([1, 3, 5]))
        n_i = int(rng.choice([9, 16]))
        n = int(rng.integers(1, 4))
        fan_in = m * kk * kk
        w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(m, kk, kk, n))
        b = rng.normal(0.0, 0.5, size=n)
        lyr = quantize_layer(
            ConvLayerF(weights=w, bias=b), n_i=n_i, p_in=8, p_out=8
        )
        x_max = (1 << (n_i - 1)) - 1
        # adversarial sign-matched extreme input, per output channel
        acc = np.abs(lyr.w_q, dtype=np.int64).sum(axis=(0, 1, 2)) * x_max + np.abs(lyr.b_q)
        violations += int(np.count_nonzero(acc > (1 << 31) - 1))
    elapsed = time.monotonic() - start
    _verdict(1, "overflow freedom", violations == 0 and elapsed < 60.0)


def test_criterion_2_order_invariance():
    # the production priors against the same stack with every convolution
    # summed per tap in each of three distinct orders
    rng = np.random.default_rng(102)
    mismatches = 0
    for _ in range(100):
        pair = make_stack_pair(random_stack(rng))
        latent = random_latent(rng, (1, 4, 4))
        hyper = rng.normal(size=(2, 4, 4))
        got = run_backend(pair, latent, hyper, BackendVariant("seq", "seq")).tobytes()
        outs = [
            oracle_priors(pair, latent, hyper, order).tobytes()
            for order in ("seq", "rev", "tree")
        ]
        if not (got == outs[0] == outs[1] == outs[2]):
            mismatches += 1
    _verdict(2, "order-invariant integer priors", mismatches == 0)


def test_criterion_3_roundtrip_exactness():
    rng = np.random.default_rng(103)
    errors = 0
    for trial in range(100):
        if trial % 10 == 0:
            pair = make_stack_pair(random_stack(rng))
        latent = random_latent(rng, (1, 4, 4))
        hyper = rng.normal(size=(2, 4, 4))
        for eo in ("seq", "rev", "tree"):
            for do in ("seq", "rev", "tree"):
                rep = roundtrip_experiment(
                    pair,
                    latent,
                    hyper,
                    BackendVariant("e", eo, "int"),
                    BackendVariant("d", do, "int"),
                )
                if not rep.decoded_equal:
                    errors += 1
    _verdict(3, "integer roundtrip exactness", errors == 0)


def test_criterion_4_failure_reproduction():
    f = boundary_failure_demo(prior_mode="float")
    i = boundary_failure_demo(prior_mode="int")
    _verdict(4, "float fails / integer succeeds", (not f.decoded_equal) and i.decoded_equal)


def test_criterion_5_quantization_fidelity():
    rng = np.random.default_rng(105)
    int_bits = 0.0
    float_bits = 0.0
    rel_errors = []
    for _ in range(20):
        fs = random_stack(rng)
        cal = [(random_latent(rng, (1, 4, 4)), rng.normal(size=(2, 4, 4)))]
        calibrate_shifts(fs, cal, grid=(7, 8, 9, 10, 11), passes=2)
        pair = make_stack_pair(fs)
        latent = random_latent(rng, (1, 6, 6))
        hyper = rng.normal(size=(2, 6, 6))
        params = run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))
        priors = run_entropy_stack(latent, hyper, fs)
        int_bits += int_cross_entropy_bits(latent, params)
        float_bits += float_cross_entropy_bits(latent, priors)
        unit = math.ldexp(1.0, -params.scale_exp)
        for emitted, ref in (
            (params.means, priors.means),
            (params.scales, priors.scales),
        ):
            err = np.abs(emitted * unit - ref) / np.maximum(np.abs(ref), 1e-12)
            rel_errors.extend(err.ravel())
    excess = int_bits / float_bits - 1.0
    median_rel = float(np.median(rel_errors))
    print(f"  cross-entropy excess {excess:.4%}, median rel error {median_rel:.4%}")
    _verdict(5, "quantization fidelity", excess <= 0.02 and median_rel <= 0.01)


def test_criterion_6_formula_oracles():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(10_000):
        x = float(rng.uniform(-300, 300))
        p = int(rng.integers(0, 16))
        b = int(rng.integers(2, 17))
        ok &= quantize_value(x, p, b) == quantize_value_oracle(x, p, b)
        ws = rng.normal(0, rng.uniform(0.01, 3.0), size=int(rng.integers(1, 12)))
        ok &= derive_weight_shift(ws, 16) == derive_weight_shift_oracle(ws, 32, 16)
        k = int(rng.integers(0, 20))
        bias = float(rng.uniform(-50, 50))
        ok &= adjust_shift_for_bias(k, bias, p) == adjust_shift_for_bias_oracle(k, bias, p)
        if not ok:
            break
    _verdict(6, "formula oracles exact", ok)


def test_criterion_7_range_coder():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(1000):
        t = random_table(rng, int(rng.integers(1, 30)), v_min=int(rng.integers(-10, 1)))
        n = int(rng.integers(0, 40))
        syms = [int(rng.integers(t.v_min, t.v_max + 1)) for _ in range(n)]
        s = rc_encode(syms, repeat(t, n), shape=(1, 1, n))
        if rc_decode(s, repeat(t, n)) != syms:
            ok = False
            break
    t = random_table(rng, 16)
    p = np.diff(t.cf[0]) / CDF_TOTAL
    syms = rng.choice(16, size=10_000, p=p)
    s = rc_encode(list(syms), repeat(t, 10_000), shape=(1, 1, 10_000))
    bits = 8 * len(s.payload)
    bound = float(np.sum(-np.log2(p[syms])))
    within = bits <= 1.02 * bound + 64
    print(f"  code length {bits} bits vs entropy bound {bound:.1f}")
    _verdict(7, "range coder lossless and tight", ok and within)


def test_criterion_8_linearized_softmax():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(10_000):
        p = int(rng.integers(4, 13))
        z = [int(v) for v in rng.integers(-(1 << 14), 1 << 14, size=3)]
        got = linear_softmax_field(z, p)
        ok &= bool(np.all(got > 0))
        ok &= int(got.sum()) == (1 << 15)
        ok &= tuple(int(v) for v in got) == softmax_oracle(z, p)
        if not ok:
            break
    _verdict(8, "linearized softmax", ok)
