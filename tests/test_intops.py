import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from detq.intops import (
    LEAKY_NUM,
    LEAKY_SHIFT,
    StepDecoder,
    leaky_relu_int,
    linear_softmax_field,
    qconv_forward,
    requantize,
    run_entropy_stack,
)
from detq.quantize import LayerQuantSpec, QConvLayer, accumulator_bound, quantize_layer
from detq.tensors import ConvLayerF, ShapeError
from detq.harness import (
    ORDERS,
    BackendVariant,
    InteropReport,
    StackPair,
    make_stack_pair,
    roundtrip_experiment,
    run_backend,
)

from models import random_latent, random_stack, shift_stack
import oracles
from oracles import oracle_priors, qconv, qconv_oracle, round_shift_oracle, softmax_oracle

ACC_MAX = (1 << 31) - 1


def qlayer(w, b=None, mask=False, n_i=16, p_in=8, p_out=8):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[3])
    lyr = ConvLayerF(weights=w, bias=np.asarray(b, dtype=np.float64), mask=mask)
    return quantize_layer(lyr, n_i=n_i, p_in=p_in, p_out=p_out)


# --- rounding shift / leaky ---------------------------------------------
# requantize's rounding shift: scale by 2^-s with half-away rounding
# (s > 0), or shift left (s <= 0)


def _shift_spec(k, p_in):
    return LayerQuantSpec(n_i=16, p_in=p_in, p_out=8, k=k)


def _round_shift(v, s):
    """requantize of a one-position accumulator, a channel per entry of v
    shifted by the same entry of s; its clamp at 2^31 - 1 cuts no result
    that fits in 32 bits."""
    acc = np.reshape(v, (1, -1)).astype(np.float64)
    requantize(acc, _shift_spec(np.reshape(s, -1) + 8, p_in=0), ACC_MAX)
    return acc.ravel()


def test_round_shift_examples():
    got = _round_shift([0, 1024, 384, -384], 8)
    # (384+128)>>8 rounds up at half; -384 rounds half away from zero
    assert got.tolist() == [0, 4, 2, -2]


@given(st.integers(-ACC_MAX, ACC_MAX), st.integers(-8, 62))
@example(3 << 11, 12)  # ties (2m + 1) 2^(s-1) of both signs
@example(-(3 << 11), 12)
@example(-1, 1)
@example(-(5 << 28), 29)
@example(ACC_MAX, 53)
@example(-ACC_MAX, 54)
@example(ACC_MAX, 62)
@example(-1, 2)  # -0.25 rounds to -0.0
@example(ACC_MAX, 1)
@example(1 << 23, -8)  # 2^31 after the shift
def test_round_shift_matches_oracle(v, s):
    # a left shift past 31 bits, which no accepted layer reaches,
    # saturates at the clamp
    want = min(max(round_shift_oracle(v, s), -ACC_MAX), ACC_MAX)
    got = _round_shift(v, s)
    assert got.dtype == np.float64 and got[0] == want


# shifts from -8 to 62, with |v| small enough that left shifts stay in 31 bits
_shift_pairs = st.integers(-8, 62).flatmap(
    lambda s: st.tuples(
        st.integers(-(2**30 >> max(-s, 0)), 2**30 >> max(-s, 0)), st.just(s)
    )
)


@given(st.lists(_shift_pairs, min_size=1, max_size=32))
def test_round_shift_array_shifts_match_oracle(pairs):
    v, s = (np.array(col) for col in zip(*pairs))
    got = _round_shift(v, s)
    assert got.tolist() == [round_shift_oracle(a, b) for a, b in pairs]


def test_leaky_examples():
    x = np.array([[100.0, 0.0, -4096.0]])
    leaky_relu_int(x)
    np.testing.assert_array_equal(x, [[100, 0, -41]])


def test_leaky_matches_oracle_on_every_int16():
    v = np.arange(-(2**15), 2**15)
    want = [max(a, round_shift_oracle(LEAKY_NUM * a, LEAKY_SHIFT)) for a in v.tolist()]
    x = v.reshape(256, 256).astype(np.float64)
    leaky_relu_int(x)
    assert x.ravel().tolist() == want


# --- linearized softmax ---------------------------------------------------


def test_softmax_uniform_thirds():
    np.testing.assert_array_equal(
        linear_softmax_field([0, 0, 0], 8), [10923, 10923, 10922]
    )


def test_softmax_guard_floors_numerator():
    w = linear_softmax_field([0, -(1 << 10), -(1 << 12)], 10)
    assert np.all(w > 0)
    assert w.sum() == 1 << 15
    assert tuple(int(v) for v in w) == softmax_oracle([0, -(1 << 10), -(1 << 12)], 10)


def test_softmax_spread_example():
    z = [1 << 10, 0, -(1 << 10)]
    np.testing.assert_array_equal(linear_softmax_field(z, 10), softmax_oracle(z, 10))


def test_softmax_refuses_other_than_3_components():
    for z in ([0, 0], np.zeros((4, 2), np.int64)):
        with pytest.raises(ShapeError, match="3 mixture components on axis 0"):
            linear_softmax_field(z, 8)


@given(st.lists(st.integers(-(2**15), 2**15), min_size=3, max_size=3), st.integers(4, 12))
def test_softmax_matches_rational_oracle(z, p):
    got = linear_softmax_field(z, p)
    assert tuple(int(v) for v in got) == softmax_oracle(z, p)
    assert got.sum() == 1 << 15 and np.all(got > 0)


def test_softmax_field_matches_scalar():
    rng = np.random.default_rng(0)
    z = rng.integers(-2000, 2000, size=(3, 2, 4, 4))
    field = linear_softmax_field(z, 10)
    for idx in np.ndindex(2, 4, 4):
        sel = (slice(None),) + idx
        np.testing.assert_array_equal(field[sel], linear_softmax_field(z[sel], 10))


# --- integer convolution --------------------------------------------------


def test_zero_input_gives_bias():
    lyr = qlayer(np.ones((1, 3, 3, 2)) * 0.1, b=[1.0, -0.5])
    x = np.zeros((1, 4, 4), dtype=np.int64)
    acc = qconv(x, lyr)
    for j in range(2):
        assert np.all(acc[..., j] == lyr.b_q[j])


def test_identity_layer_scalar_product():
    lyr = qlayer(np.ones((1, 1, 1, 1)))
    x = np.arange(9, dtype=np.int64).reshape(1, 3, 3)
    acc = qconv(x, lyr)
    np.testing.assert_array_equal(acc[..., 0], x[0] * lyr.w_q[0, 0, 0, 0])


def test_masked_conv_causality_perturbation_sweep():
    rng = np.random.default_rng(9)
    lyr = qlayer(rng.normal(size=(1, 3, 3, 2)), b=rng.normal(size=2), mask=True)
    h = w = 4
    x = rng.integers(-200, 200, size=(1, h, w))
    base = qconv(x, lyr)
    for y in range(h):
        for xx in range(w):
            for yy in range(h):
                for xs in range(w):
                    if (yy, xs) < (y, xx):
                        continue  # only perturb t and later positions
                    pert = x.copy()
                    pert[0, yy, xs] += 50
                    out = qconv(pert, lyr)
                    assert np.all(out[y, xx] == base[y, xx])


def test_conv_order_invariance_single_layer():
    rng = np.random.default_rng(10)
    lyr = qlayer(rng.normal(size=(3, 3, 3, 4)), b=rng.normal(size=4))
    x = rng.integers(-32767, 32768, size=(3, 5, 5))
    # the one GEMM equals the per-tap sum in each of three distinct orders
    got = qconv(x, lyr)
    for o in ORDERS:
        np.testing.assert_array_equal(got, qconv_oracle(x.transpose(1, 2, 0), lyr, o))


@pytest.mark.parametrize(
    "m,k,mask,n_i",
    [
        (2, 1, False, 16),  # T = 2, 1x1
        (5, 1, False, 16),  # T = 5, odd, 1x1
        (16, 1, False, 16),  # T = 16, 1x1
        (12, 1, False, 16),  # T = 12, 1x1
        (1, 3, False, 16),  # T = 9
        (3, 3, False, 16),  # T = 27
        (1, 3, True, 9),  # masked 3x3
        (2, 5, True, 9),  # masked 5x5, T = 50
    ],
)
def test_qconv_matches_per_tap_oracle(m, k, mask, n_i):
    rng = np.random.default_rng(100 * m + k)
    lyr = qlayer(
        rng.normal(size=(m, k, k, 3)) * 0.5, b=rng.normal(size=3), mask=mask, n_i=n_i
    )
    lim = (1 << (n_i - 1)) - 1
    x = rng.integers(-lim, lim + 1, size=(m, 5, 6))
    got = qconv(x, lyr)
    for order in ORDERS:
        np.testing.assert_array_equal(got, qconv_oracle(x.transpose(1, 2, 0), lyr, order))


def test_qconv_exact_at_accumulator_bound():
    # sum|w| * x_max + |b| = 2 * 32767^2 + 131069 = 2^31 - 1 exactly
    w = np.array([32767, -32767]).reshape(2, 1, 1, 1)
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    lyr = QConvLayer(w_q=w, b_q=np.array([131069]), spec=spec)
    assert accumulator_bound(lyr.w_q, lyr.b_q, 16)[0] == (1 << 31) - 1
    sign = np.random.default_rng(15).choice([-1, 1], size=(3, 4))
    x = np.stack([32767 * sign, -32767 * sign])
    want = 2 * 32767**2 * sign + 131069
    acc = qconv(x, lyr)
    np.testing.assert_array_equal(acc[..., 0], want)
    for order in ORDERS:
        np.testing.assert_array_equal(acc, qconv_oracle(x.transpose(1, 2, 0), lyr, order))
    assert acc.max() == (1 << 31) - 1


def test_codec_width_layer_runs_in_bounded_memory():
    # 192 -> 384 channels, 5x5, 16x16: the (P, T, n) products tensor would
    # take 3.8 GB
    rng = np.random.default_rng(16)
    lyr = qlayer(rng.normal(size=(192, 5, 5, 384)) * 0.05, b=rng.normal(size=384))
    x = rng.integers(-32767, 32768, size=(192, 16, 16))
    tracemalloc.start()
    try:
        out = qconv(x, lyr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    xp = np.pad(x, ((0, 0), (2, 2), (2, 2)))
    for j, y, xx in zip(*(rng.integers(0, hi, size=16) for hi in (384, 16, 16))):
        taps = xp[:, y : y + 5, xx : xx + 5].ravel().tolist()
        wts = lyr.w_q[..., j].ravel().tolist()
        want = sum(a * b for a, b in zip(taps, wts)) + int(lyr.b_q[j])
        assert int(out[y, xx, j]) == want


def test_conv_purity():
    rng = np.random.default_rng(11)
    lyr = qlayer(rng.normal(size=(2, 3, 3, 2)))
    data = rng.integers(-100, 100, size=(2, 4, 4)).transpose(1, 2, 0).astype(np.float64)
    x = data.copy()  # the (h, w, c) carrier, given as the kernel gives it
    a = qconv_forward(x.transpose(2, 0, 1), lyr)
    b = qconv_forward(x.transpose(2, 0, 1), lyr)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(x, data)


# --- requantize -----------------------------------------------------------


def test_requantize_fused_scaling_accuracy():
    # rescaled output differs from the exact real product by at most half a step
    rng = np.random.default_rng(12)
    lyr = qlayer(rng.normal(size=(2, 1, 1, 3)), b=rng.normal(size=3), p_in=8, p_out=10)
    x = rng.integers(-1000, 1000, size=(2, 3, 3))
    acc = qconv(x, lyr)
    out = acc.copy()
    requantize(out, lyr.spec, (1 << 15) - 1)
    for j in range(3):
        exact = acc[..., j] / 2.0 ** (int(lyr.spec.k[j]) + 8)
        got = out[..., j] / 2.0**10
        assert np.all(np.abs(exact - got) <= 2.0**-11 + 1e-15)


def _requantize_loop(acc, spec, lim):
    """requantize one entry at a time by the exact oracle, on a (..., n)
    accumulator, as int64."""
    out = np.empty(acc.shape, dtype=np.int64)
    for idx in np.ndindex(acc.shape):
        r = round_shift_oracle(acc[idx], int(spec.shift[idx[-1]]))
        out[idx] = min(max(r, -lim), lim)
    return out


def test_requantize_mixed_shifts_match_channel_loop():
    spec = _shift_spec([0, 3, 7, 15, 1], p_in=5)  # shifts -3, 0, 4, 12, -2
    acc = np.random.default_rng(17).integers(-(2**14), 2**14, size=(5, 3, 4))
    # right shifts 4 and 12: exact halves, and one either side, of both signs
    acc[:, 0, :3] = [[4, 5, 3], [4, 5, 3], [8, 9, 7], [2048, 2049, 2047], [-2, -3, -1]]
    acc[:, 1, :3] = -acc[:, 0, :3]
    acc = acc.transpose(1, 2, 0).astype(np.float64)  # channels last
    for out_bits in (9, 16):
        lim = (1 << (out_bits - 1)) - 1
        got = acc.copy()
        requantize(got, spec, lim)
        assert got.tolist() == _requantize_loop(acc, spec, lim).tolist()


# (accumulator, shift) pairs: |acc| < 2^31, shifts from -8 to 62
_acc_shifts = st.lists(
    st.tuples(st.integers(-ACC_MAX, ACC_MAX), st.integers(-8, 62)), min_size=1, max_size=8
)


@given(_acc_shifts, st.integers(2, 16))
# ties (2m + 1) 2^(s-1) of both signs, and -0.25, which rounds to -0.0
@example([(3 << 11, 12), (-(3 << 11), 12), (1, 1), (-1, 1), (-(5 << 28), 29), (-1, 2)], 16)
@example([(ACC_MAX, 53), (-ACC_MAX, 54), (ACC_MAX, 62), (-ACC_MAX, 0), (ACC_MAX, 1)], 16)
@example([(-ACC_MAX, 53), (ACC_MAX, 54), (-ACC_MAX, 62), (ACC_MAX, -8)], 16)  # overflows
def test_requantize_matches_oracle(pairs, out_bits):
    # a left shift past 31 bits, which no accepted layer reaches,
    # saturates at the clamp like any other value
    v, s = (np.array(col) for col in zip(*pairs))
    spec = _shift_spec(s + 8, p_in=0)  # p_out 8: k = s + 8 reaches s = -8 to 62
    want = [round_shift_oracle(a, b) for a, b in pairs]
    lim = (1 << (out_bits - 1)) - 1
    acc = v.reshape(1, -1).astype(np.float64)  # one position, a channel per pair
    requantize(acc, spec, lim)
    assert acc.ravel().tolist() == [min(max(r, -lim), lim) for r in want]


def test_spec_scale_read_only_and_per_spec():
    a, b = (LayerQuantSpec(n_i=16, p_in=5, p_out=8, k=[0, 3, 7]) for _ in range(2))
    assert a.scale is a.scale  # built once
    assert a.scale.dtype == np.float64 and a.scale.shape == (3,)
    np.testing.assert_array_equal(a.scale.ravel(), [8.0, 1.0, 1 / 16])  # shifts -3, 0, 4
    assert not a.scale.flags.writeable
    assert not np.shares_memory(a.scale, b.scale)
    with pytest.raises(ValueError):
        a.scale[0] = 1


# --- full stack -----------------------------------------------------------


def test_zero_stack_uniform_weights_zero_means():
    rng = np.random.default_rng(13)
    fs = random_stack(rng)
    for chain in (fs.hyperdecoder, fs.context, fs.gather):
        for i, lyr in enumerate(chain):
            chain[i] = ConvLayerF(
                weights=np.zeros_like(lyr.weights),
                bias=np.zeros_like(lyr.bias),
                mask=lyr.mask,
            )
    pair = make_stack_pair(fs)
    params = run_backend(
        pair, np.zeros((1, 4, 4)), np.zeros((2, 4, 4)), BackendVariant("seq", "seq")
    )
    assert np.all(params.means == 0)
    np.testing.assert_array_equal(
        np.unique(params.weights.sum(axis=0)), [1 << 15]
    )
    np.testing.assert_array_equal(params.weights[0].ravel()[:1], [10923])


def test_stack_deterministic_and_order_invariant():
    rng = np.random.default_rng(14)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 5, 5))
    hyper = rng.normal(size=(2, 5, 5))
    got = run_backend(pair, latent, hyper, BackendVariant("seq", "seq")).tobytes()
    # the same stack with every convolution summed per tap in each order
    for o in ORDERS:
        assert oracle_priors(pair, latent, hyper, o).tobytes() == got
    again = run_backend(pair, latent, hyper, BackendVariant("seq", "seq")).tobytes()
    assert again == got


def test_hand_built_stack_matches_per_tap_oracle():
    # channels shifting left, and right by 53 to 62, which quantize_layer
    # never picks for the random stacks
    rng = np.random.default_rng(19)
    pair = StackPair(None, shift_stack(rng))
    latent = random_latent(rng, (1, 5, 5))
    hyper = rng.normal(size=(2, 5, 5)) * 3
    got = run_backend(pair, latent, hyper, BackendVariant("seq", "seq")).tobytes()
    for o in ORDERS:
        assert oracle_priors(pair, latent, hyper, o).tobytes() == got


def test_oracle_priors_reach_every_layer_of_the_chains(monkeypatch):
    # a per-tap oracle patched where the chains do not look would compare
    # the stack with itself: raising one channel's bias by one output unit
    # in the oracle must move the oracle's priors
    rng = np.random.default_rng(14)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 5, 5))
    hyper = rng.normal(size=(2, 5, 5))
    want = oracle_priors(pair, latent, hyper, "seq").tobytes()
    conv = oracles.qconv_oracle

    def bumped(x, layer, order):
        acc = conv(x, layer, order).copy()
        acc[..., 0] += 1 << max(int(layer.spec.shift[0]), 0)
        return acc

    monkeypatch.setattr(oracles, "qconv_oracle", bumped)
    assert oracle_priors(pair, latent, hyper, "seq").tobytes() != want


def three_by_three_gather(fs, rng):
    """fs's gather layers with the second one widened to a 3x3 kernel."""
    hidden = fs.gather[1].out_channels
    w = rng.normal(0.0, 1.0 / math.sqrt(9 * hidden), size=(hidden, 3, 3, hidden))
    return [fs.gather[0], ConvLayerF(w, fs.gather[1].bias), *fs.gather[2:]]


def test_context_stack_with_a_3x3_gather_layer_is_refused():
    # a decoder step runs gather on its own positions alone, so a gather
    # layer reading their neighbours would read positions of no step yet
    rng = np.random.default_rng(40)
    fs = random_stack(rng)
    gather = three_by_three_gather(fs, rng)
    msg = "gather layers must be 1x1 when a context model is present"
    with pytest.raises(ShapeError, match=msg):
        replace(fs, gather=gather)
    quant = make_stack_pair(fs).quant_stack
    cfg = fs.gather_cfg[1]
    wide = quantize_layer(gather[1], n_i=cfg.n_i, p_in=cfg.p_in, p_out=cfg.p_out)
    with pytest.raises(ShapeError, match=msg):
        replace(quant, gather=(quant.gather[0], wide, *quant.gather[2:]))


def context_layer(fs, rng, in_channels=None, mask=True):
    """A 3x3 context layer in fs's place: in_channels inputs (fs's own if
    None), masked or not."""
    m, k, _, n = fs.context[0].weights.shape
    w = rng.normal(0.0, 1.0 / math.sqrt(9 * m), size=(in_channels or m, k, k, n))
    return ConvLayerF(w, fs.context[0].bias, mask)


def refuse_context(fs, layer, msg):
    """Both stacks refuse a context chain of this one layer when built."""
    with pytest.raises(ShapeError, match=msg):
        replace(fs, context=[layer])
    quant = make_stack_pair(fs).quant_stack
    cfg = fs.context_cfg[0]
    q = quantize_layer(layer, n_i=cfg.n_i, p_in=cfg.p_in, p_out=cfg.p_out)
    with pytest.raises(ShapeError, match=msg):
        replace(quant, context=(q,))


def test_context_layer_reading_another_channel_count_is_refused():
    # a 1-channel model whose context layer read 2 channels was built and
    # saved, and then coded no latent of either channel count
    rng = np.random.default_rng(42)
    fs = random_stack(rng)
    assert fs.latent_channels == fs.context[0].in_channels == 1
    layer = context_layer(fs, rng, in_channels=2)
    refuse_context(fs, layer, "context reads 2 channels, the latent has 1")


def test_unmasked_context_layer_is_refused():
    # an unmasked context layer reads its own position and later ones,
    # which a decoder has not decoded yet
    rng = np.random.default_rng(43)
    fs = random_stack(rng, latent_channels=2)
    refuse_context(fs, context_layer(fs, rng, mask=False), "context layers must be masked")


def _head_of_8(fs):
    head = fs.gather[-1]
    return {"gather": [*fs.gather[:-1], ConvLayerF(head.weights[..., :8], head.bias[:8])]}


# each wiring rule of check_topology that no other test breaks: the fields
# of a random_stack that break it, and its message
_WIRING_BREAKS = {
    "gather-6-layers": (
        lambda fs: {"gather": fs.gather[:1] + fs.gather[2:], "gather_cfg": fs.gather_cfg[1:]},
        "gather subnetwork must have exactly 7 layers",
    ),
    "fused-channels": (
        # gather[0] still reads the hyperdecoder's outputs
        lambda fs: {"hyperdecoder": [], "hyper_cfg": []},
        "gather input channels must equal hyperdecoder \\+ context outputs",
    ),
    "chain-end-grid": (
        # gather's p_in is 10
        lambda fs: {"context_cfg": [replace(fs.context_cfg[0], p_out=11)]},
        "context p_out must match gather p_in",
    ),
    "head-channels": (_head_of_8, "head must emit 9 channels per latent channel"),
}


@pytest.mark.parametrize("rule", list(_WIRING_BREAKS))
@pytest.mark.parametrize("kind", ["int", "float"])
def test_broken_wiring_is_refused(kind, rule):
    fs = random_stack(np.random.default_rng(44))
    brk, msg = _WIRING_BREAKS[rule]
    changes = brk(fs)
    with pytest.raises(ShapeError, match=msg):
        if kind == "float":
            replace(fs, **changes)
        else:
            # a built float stack's lists stay mutable; its layers quantize
            # one by one, and the integer stack checks their wiring
            vars(fs).update(changes)
            fs.quantize()


def test_stack_without_context_runs_a_3x3_gather_layer():
    # without a context model a decoder's one step is the whole grid, where
    # a 3x3 gather layer reads each position's neighbours as the encoder's
    # does: both roundtrips decode, and the priors are the per-tap oracle's
    rng = np.random.default_rng(41)
    fs = random_stack(rng, latent_channels=2, with_context=False)
    pair = make_stack_pair(replace(fs, gather=three_by_three_gather(fs, rng)))
    assert pair.quant_stack.gather[1].kernel == 3
    latent = random_latent(rng, (2, 5, 6))
    hyper = rng.normal(size=(2, 5, 6))
    enc, dec = BackendVariant("e", "seq"), BackendVariant("d", "tree")
    rep = roundtrip_experiment(pair, latent, hyper, enc, dec)
    assert rep == InteropReport(True, None, 0.0)
    got = run_backend(pair, latent, hyper, enc).tobytes()
    for o in ORDERS:
        assert oracle_priors(pair, latent, hyper, o).tobytes() == got
    enc, dec = BackendVariant("e", "seq", "float"), BackendVariant("d", "tree", "float")
    assert roundtrip_experiment(pair, latent, hyper, enc, dec).decoded_equal


def test_stack_without_hyperdecoder_roundtrips():
    # a model whose priors read the latent alone: its hyper latent is not
    # read, both roundtrips decode, and the priors are the per-tap oracle's
    rng = np.random.default_rng(42)
    fs = random_stack(rng, latent_channels=2)
    g0, hidden = fs.gather[0], fs.hyperdecoder[-1].out_channels
    # gather[0] reads the hyperdecoder's outputs first: drop their rows
    gather = [ConvLayerF(g0.weights[hidden:], g0.bias), *fs.gather[1:]]
    pair = make_stack_pair(replace(fs, hyperdecoder=[], hyper_cfg=[], gather=gather))
    assert not pair.quant_stack.hyperdecoder
    latent = random_latent(rng, (2, 5, 6))
    enc, dec = BackendVariant("e", "seq"), BackendVariant("d", "tree")
    assert roundtrip_experiment(pair, latent, None, enc, dec) == InteropReport(True, None, 0.0)
    got = run_backend(pair, latent, None, enc).tobytes()
    for o in ORDERS:
        assert oracle_priors(pair, latent, None, o).tobytes() == got
    enc, dec = BackendVariant("e", "seq", "float"), BackendVariant("d", "tree", "float")
    assert roundtrip_experiment(pair, latent, None, enc, dec).decoded_equal


def test_stack_rejects_first_layer_input_wider_than_its_n_i():
    for n_i in (12, 9):
        rng = np.random.default_rng(18)
        stack = make_stack_pair(random_stack(rng, n_i=n_i)).quant_stack
        latent = np.zeros((1, 4, 4), dtype=np.int64)
        hyper = np.zeros((2, 4, 4), dtype=np.int64)
        want = run_entropy_stack(latent, hyper, stack).tobytes()
        # any integer dtype enters; int16 gives the int64 priors
        small = (latent.astype(np.int16), hyper.astype(np.int16))
        assert run_entropy_stack(*small, stack).tobytes() == want
        lim = 1 << (n_i - 1)
        for arr in (latent, hyper):
            arr[0, 1, 2] = lim  # one past n_i bits
            with pytest.raises(ValueError, match=f"{n_i}-bit range"):
                run_entropy_stack(latent, hyper, stack)
            arr[0, 1, 2] = lim - 1
            run_entropy_stack(latent, hyper, stack)


def test_stack_rejects_input_that_is_not_3d():
    pair, latent, hyper = _entry_stack()
    stack = pair.quant_stack
    for bad in (latent[0], latent[None]):
        with pytest.raises(ShapeError, match="expected \\(c, h, w\\)"):
            run_entropy_stack(bad, hyper, stack)
    for bad in (hyper[0], hyper[None]):
        with pytest.raises(ShapeError, match="expected \\(c, h, w\\)"):
            run_entropy_stack(latent, bad, stack)


# inputs the stack's entry check refuses, each with its message: a float
# and a bool array, int64's minimum (whose abs wraps), one past each end of
# 12 bits and of a 9-bit stack's 9 bits, and one channel too many
_BAD_ENTRIES = [
    ("float", "integer array"),
    ("int64 min", "12-bit range"),
    ("+2^11", "12-bit range"),
    ("-2^11", "12-bit range"),
    ("channels", "input has {c} channels, layer expects {m}"),
    ("bool", "integer array"),
    ("+2^8", "9-bit range"),
    ("-2^8", "9-bit range"),
]
# a latent of another channel count is refused where its StepDecoder is built
_LATENT_CHANNELS = "latent has {c} channels, the stack codes {m}"
_VALUES = {
    "int64 min": np.iinfo(np.int64).min,
    "+2^11": 2048,
    "-2^11": -2048,
    "+2^8": 256,
    "-2^8": -256,
}


def _bad_entry(kind, arr):
    out = arr.copy()
    if kind in ("float", "bool"):
        return out.astype({"float": np.float64, "bool": bool}[kind])
    if kind == "channels":
        return np.zeros((arr.shape[0] + 1, *arr.shape[1:]), dtype=np.int64)
    out[0, 1, 2] = _VALUES[kind]
    return out


def _refused(kind, msg, arr, fn):
    err = ShapeError if kind == "channels" else ValueError
    msg = msg.format(c=arr.shape[0] + 1, m=arr.shape[0])
    with pytest.raises(err, match=msg):
        fn(_bad_entry(kind, arr))


def _entry_stack(kind=None):
    """The stack, a zero latent and a zero hyper latent; the stack's inputs
    are 9 bits wide for the 9-bit kinds of _BAD_ENTRIES, else 12."""
    rng = np.random.default_rng(18)
    pair = make_stack_pair(random_stack(rng, n_i=9 if kind in ("+2^8", "-2^8") else 12))
    latent = np.zeros((1, 4, 4), dtype=np.int64)
    hyper = np.zeros((2, 4, 4), dtype=np.int64)
    return pair, latent, hyper


@pytest.mark.parametrize("kind,msg", _BAD_ENTRIES)
def test_stack_checks_each_input_where_it_enters(kind, msg):
    pair, latent, hyper = _entry_stack(kind)
    stack = pair.quant_stack
    msg_y = _LATENT_CHANNELS if kind == "channels" else msg
    _refused(kind, msg_y, latent, lambda x: run_entropy_stack(x, hyper, stack))
    _refused(kind, msg, hyper, lambda x: run_entropy_stack(latent, x, stack))
    # a decoder's symbols are checked where they enter, each step's own
    steps = StepDecoder(hyper, stack, latent.shape)
    at = (np.array([[1]]), np.array([[2]]))  # a decoder step's (P, 1) arrays
    _refused(kind, msg, latent, lambda x: steps.enter(at, x[:, at[0], at[1]]))


def test_picked_positions_check_only_their_band():
    # a decoder checks each symbol where it enters, after its own step, and
    # never reads one it has not decoded: priors of positions need only the
    # symbols of the steps before them
    pair, latent, hyper = _entry_stack()
    stack = pair.quant_stack
    latent[0] = np.arange(16).reshape(4, 4) % 7 - 3
    full = run_entropy_stack(latent, hyper, stack).fields
    steps = StepDecoder(hyper, stack, latent.shape)
    # positions as a decoder step gives them: two (P, 1) index arrays
    before = (np.array([[0], [0]]), np.array([[0], [1]]))
    steps.enter(before, latent[:, before[0], before[1]])
    at = (np.array([[0]]), np.array([[2]]))
    got = steps.priors(at)
    assert got.field_shape == (1, 1, 1)  # (c, P, 1)
    assert got.fields.tobytes() == full[..., at[0], at[1]].tobytes()
    with pytest.raises(ValueError, match="12-bit range"):
        steps.enter(at, np.array([[[1 << 20]]]))
    # the refused symbol did not enter: the canvas reads 0 there
    latent[0, 0, 2] = 0
    nxt = (np.array([[0]]), np.array([[3]]))
    want = run_entropy_stack(latent, hyper, stack).fields[..., nxt[0], nxt[1]]
    assert steps.priors(nxt).fields.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,msg", _BAD_ENTRIES)
def test_int_roundtrip_refuses_what_the_stack_refuses(kind, msg):
    pair, latent, hyper = _entry_stack(kind)
    v = BackendVariant("seq", "seq")

    def roundtrip(lat, hyp):
        return roundtrip_experiment(pair, lat, hyp, v, v)

    # a latent is refused as coder symbols before it reaches the stack
    ints = "symbols must be integers"
    symbols = {"float": ints, "bool": ints, "channels": _LATENT_CHANNELS}
    msg_y = symbols.get(kind, "outside the coder alphabet")
    _refused(kind, msg_y, latent, lambda x: roundtrip(x, hyper))
    if kind == "channels":
        _refused(kind, msg, hyper, lambda x: roundtrip(latent, x))
    elif kind == "bool":
        # a raw hyper latent must be numeric: no boolean is read as 0 or 1
        _refused(kind, "dtype bool", hyper, lambda x: roundtrip(latent, x))
    else:
        # a raw hyper latent is quantized to the first layer's grid first
        assert roundtrip(latent, _bad_entry(kind, hyper)).decoded_equal


# SHA-256 of the priors of 8 seeded stacks whose gather input is 12 bits wide:
# the chains end in 16 bits, LeakyReLU runs, and only then does the fused
# gather input clamp to 12 bits; clamping before the activation gives other
# priors wherever a chain ends below -2047
N_I_12_PRIORS = "5ed9bee80bec80366b9b5e6147ee3189838383647cbffaa23260023ffa3b3c22"


def test_gather_input_clamps_after_the_chain_activation():
    h = hashlib.sha256()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        fs = random_stack(rng, n_i=12)
        latent = random_latent(rng, (1, 5, 6))
        hyper = rng.normal(size=(2, 5, 6)) * 4
        params = run_backend(make_stack_pair(fs), latent, hyper, BackendVariant("seq"))
        h.update(params.tobytes())
    assert h.hexdigest() == N_I_12_PRIORS
