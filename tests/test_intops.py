import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detq.intops import (
    LEAKY_NUM,
    LEAKY_SHIFT,
    AccumulatorOverflowError,
    leaky_relu_int,
    linear_softmax_field,
    qconv_forward,
    requantize,
    round_shift,
    run_entropy_stack,
)
from detq.quantize import LayerQuantSpec, QConvLayer, accumulator_bound, quantize_layer
from detq.tensors import ConvLayerF, ShapeError
from detq.harness import (
    ORDERS,
    BackendVariant,
    make_stack_pair,
    run_backend,
)

from models import random_latent, random_stack
from oracles import oracle_priors, qconv_oracle, round_shift_oracle, softmax_oracle


def qlayer(w, b=None, mask=False, n_i=16, p_in=8, p_out=8):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[3])
    lyr = ConvLayerF(weights=w, bias=np.asarray(b, dtype=np.float64), mask=mask)
    return quantize_layer(lyr, n_i=n_i, p_in=p_in, p_out=p_out)


# --- round_shift / leaky --------------------------------------------------


def test_round_shift_examples():
    assert round_shift(0, 8) == 0
    assert round_shift(1024, 8) == 4
    assert round_shift(384, 8) == 2  # (384+128)>>8, rounds up at half
    assert round_shift(-384, 8) == -2  # half away from zero


@given(st.integers(-(2**30), 2**30), st.integers(0, 20))
def test_round_shift_matches_oracle(v, s):
    assert int(round_shift(v, s)) == round_shift_oracle(v, s)


# shifts from -8 to 20, with |v| small enough that left shifts stay in 31 bits
_shift_pairs = st.integers(-8, 20).flatmap(
    lambda s: st.tuples(
        st.integers(-(2**30 >> max(-s, 0)), 2**30 >> max(-s, 0)), st.just(s)
    )
)


@given(st.lists(_shift_pairs, min_size=1, max_size=32))
def test_round_shift_array_shifts_match_oracle(pairs):
    v, s = (np.array(col) for col in zip(*pairs))
    got = round_shift(v, s)
    assert got.tolist() == [round_shift_oracle(a, b) for a, b in pairs]


def test_leaky_examples():
    out = leaky_relu_int(np.array([[[100, 0, -4096]]]))
    np.testing.assert_array_equal(out, [[[100, 0, -41]]])


def test_leaky_matches_oracle_on_every_int16():
    x = np.arange(-(2**15), 2**15)
    want = [max(v, round_shift_oracle(LEAKY_NUM * v, LEAKY_SHIFT)) for v in x.tolist()]
    assert leaky_relu_int(x.reshape(1, 256, 256)).ravel().tolist() == want


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
    acc = qconv_forward(x, lyr)
    for j in range(2):
        assert np.all(acc[j] == lyr.b_q[j])


def test_identity_layer_scalar_product():
    lyr = qlayer(np.ones((1, 1, 1, 1)))
    x = np.arange(9, dtype=np.int64).reshape(1, 3, 3)
    acc = qconv_forward(x, lyr)
    np.testing.assert_array_equal(acc[0], x[0] * lyr.w_q[0, 0, 0, 0])


def test_masked_conv_causality_perturbation_sweep():
    rng = np.random.default_rng(9)
    lyr = qlayer(rng.normal(size=(1, 3, 3, 2)), b=rng.normal(size=2), mask=True)
    h = w = 4
    x = rng.integers(-200, 200, size=(1, h, w))
    base = qconv_forward(x, lyr)
    for y in range(h):
        for xx in range(w):
            for yy in range(h):
                for xs in range(w):
                    if (yy, xs) < (y, xx):
                        continue  # only perturb t and later positions
                    pert = x.copy()
                    pert[0, yy, xs] += 50
                    out = qconv_forward(pert, lyr)
                    assert np.all(out[:, y, xx] == base[:, y, xx])


def test_qconv_range_check_includes_int64_min():
    lyr = qlayer(np.ones((1, 1, 1, 1)) * 0.1)
    qconv_forward(np.full((1, 1, 1), -32767), lyr)
    # np.abs(-2^63) is -2^63, so an abs-based check would let it through
    for v in (-32768, 32768, np.iinfo(np.int64).min):
        with pytest.raises(ValueError, match="16-bit range"):
            qconv_forward(np.full((1, 1, 1), v), lyr)
    lyr9 = qlayer(np.ones((1, 1, 1, 1)) * 0.1, n_i=9)
    qconv_forward(np.full((1, 1, 1), 255), lyr9)
    with pytest.raises(ValueError, match="9-bit range"):
        qconv_forward(np.full((1, 1, 1), -256), lyr9)


def test_qconv_rejects_non_integer_input():
    # np.asarray(x, np.int64) used to truncate: a stack fed 0.9 everywhere
    # gave the priors of zeros
    lyr = qlayer(np.ones((1, 1, 1, 1)) * 0.1)
    for x in (np.full((1, 2, 2), 0.9), np.ones((1, 2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="integer array"):
            qconv_forward(x, lyr)
    qconv_forward(np.ones((1, 2, 2), dtype=np.int16), lyr)
    stack = make_stack_pair(random_stack(np.random.default_rng(5))).quant_stack
    with pytest.raises(ValueError, match="integer array"):
        run_entropy_stack(np.full((1, 4, 4), 0.9), np.zeros((2, 4, 4), np.int64), stack)
    with pytest.raises(ValueError, match="integer array"):
        run_entropy_stack(np.zeros((1, 4, 4), np.int64), np.full((2, 4, 4), 0.9), stack)


def test_qconv_rejects_input_that_is_not_3d():
    lyr = qlayer(np.ones((1, 1, 1, 1)) * 0.1)
    for shape in ((1, 4), (1, 1, 2, 2)):
        with pytest.raises(ShapeError, match="expected \\(c, h, w\\)"):
            qconv_forward(np.zeros(shape, dtype=np.int64), lyr)


def test_conv_order_invariance_single_layer():
    rng = np.random.default_rng(10)
    lyr = qlayer(rng.normal(size=(3, 3, 3, 4)), b=rng.normal(size=4))
    x = rng.integers(-32767, 32768, size=(3, 5, 5))
    # the one GEMM equals the per-tap sum in each of three distinct orders
    got = qconv_forward(x, lyr)
    for o in ORDERS:
        np.testing.assert_array_equal(got, qconv_oracle(x, lyr, o))


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
    got = qconv_forward(x, lyr)
    for order in ORDERS:
        np.testing.assert_array_equal(got, qconv_oracle(x, lyr, order))


def test_qconv_exact_at_accumulator_bound():
    # sum|w| * x_max + |b| = 2 * 32767^2 + 131069 = 2^31 - 1 exactly
    w = np.array([32767, -32767]).reshape(2, 1, 1, 1)
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    lyr = QConvLayer(w_q=w, b_q=np.array([131069]), spec=spec)
    assert accumulator_bound(lyr.w_q, lyr.b_q, 16)[0] == (1 << 31) - 1
    sign = np.random.default_rng(15).choice([-1, 1], size=(3, 4))
    x = np.stack([32767 * sign, -32767 * sign])
    want = 2 * 32767**2 * sign + 131069
    acc = qconv_forward(x, lyr)
    np.testing.assert_array_equal(acc[0], want)
    for order in ORDERS:
        np.testing.assert_array_equal(acc, qconv_oracle(x, lyr, order))
    assert acc.max() == (1 << 31) - 1


def test_codec_width_layer_runs_in_bounded_memory():
    # 192 -> 384 channels, 5x5, 16x16: the (P, T, n) products tensor would
    # take 3.8 GB
    rng = np.random.default_rng(16)
    lyr = qlayer(rng.normal(size=(192, 5, 5, 384)) * 0.05, b=rng.normal(size=384))
    x = rng.integers(-32767, 32768, size=(192, 16, 16))
    tracemalloc.start()
    try:
        out = qconv_forward(x, lyr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    xp = np.pad(x, ((0, 0), (2, 2), (2, 2)))
    for j, y, xx in zip(*(rng.integers(0, hi, size=16) for hi in (384, 16, 16))):
        taps = xp[:, y : y + 5, xx : xx + 5].ravel().tolist()
        wts = lyr.w_q[..., j].ravel().tolist()
        want = sum(a * b for a, b in zip(taps, wts)) + int(lyr.b_q[j])
        assert int(out[j, y, xx]) == want


def test_conv_purity():
    rng = np.random.default_rng(11)
    lyr = qlayer(rng.normal(size=(2, 3, 3, 2)))
    data = rng.integers(-100, 100, size=(2, 4, 4))
    x = data.copy()
    a = qconv_forward(x, lyr)
    b = qconv_forward(x, lyr)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(x, data)


# --- requantize -----------------------------------------------------------


def test_requantize_fused_scaling_accuracy():
    # rescaled output differs from the exact real product by at most half a step
    rng = np.random.default_rng(12)
    lyr = qlayer(rng.normal(size=(2, 1, 1, 3)), b=rng.normal(size=3), p_in=8, p_out=10)
    x = rng.integers(-1000, 1000, size=(2, 3, 3))
    acc = qconv_forward(x, lyr)
    out = requantize(acc, lyr)
    for j in range(3):
        exact = acc[j] / 2.0 ** (int(lyr.spec.k[j]) + 8)
        got = out[j] / 2.0**10
        assert np.all(np.abs(exact - got) <= 2.0**-11 + 1e-15)


def _requantize_loop(acc, layer, out_bits=16):
    """requantize as one scalar-shift round_shift call per channel."""
    spec = layer.spec
    out = np.empty_like(acc)
    for j in range(acc.shape[0]):
        out[j] = round_shift(acc[j], int(spec.k[j]) + spec.p_in - spec.p_out)
    lim = (1 << (out_bits - 1)) - 1
    return np.clip(out, -lim, lim)


def _shift_layer(k, p_in):
    spec = LayerQuantSpec(n_i=16, p_in=p_in, p_out=8, k=k)
    return QConvLayer(w_q=np.zeros((1, 1, 1, len(k))), b_q=np.zeros(len(k)), spec=spec)


def test_requantize_mixed_shifts_match_channel_loop():
    lyr = _shift_layer([0, 3, 7, 15, 1], p_in=5)  # shifts -3, 0, 4, 12, -2
    acc = np.random.default_rng(17).integers(-(2**14), 2**14, size=(5, 3, 4))
    # right shifts 4 and 12: exact halves, and one either side, of both signs
    acc[:, 0, :3] = [[4, 5, 3], [4, 5, 3], [8, 9, 7], [2048, 2049, 2047], [-2, -3, -1]]
    acc[:, 1, :3] = -acc[:, 0, :3]
    for out_bits in (9, 16):
        got = requantize(acc, lyr, out_bits=out_bits)
        lim = (1 << (out_bits - 1)) - 1
        want = [
            [[min(max(round_shift_oracle(v, int(s)), -lim), lim) for v in row] for row in ch]
            for ch, s in zip(acc.tolist(), lyr.spec.shift)
        ]
        assert got.tolist() == want


def test_requantize_takes_an_n_h_w_accumulator():
    lyr = _shift_layer([0, 3], p_in=5)
    with pytest.raises(ShapeError):
        requantize(np.zeros((2, 4), dtype=np.int64), lyr)


def test_spec_rounding_terms_read_only_and_per_spec():
    a, b = (LayerQuantSpec(n_i=16, p_in=5, p_out=8, k=[0, 3, 7]) for _ in range(2))
    assert a.rounding is a.rounding  # built once
    np.testing.assert_array_equal(a.rounding.left.ravel(), [3, 0, 0])
    for ta, tb in zip(a.rounding, b.rounding):
        assert ta.shape == (3, 1, 1) and not ta.flags.writeable
        assert not np.shares_memory(ta, tb)
        with pytest.raises(ValueError):
            ta[0] = 1
    # no negative shift: no left-shift term
    assert LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0, 3]).rounding.left is None


def test_requantize_left_shift_overflow_still_raises():
    lyr = _shift_layer([0, 15], p_in=2)  # shifts -6, 9
    acc = np.zeros((2, 2, 2), dtype=np.int64)
    acc[1] = 1 << 40  # right-shifted channel: no left-shift overflow
    requantize(acc, lyr)
    acc[0, 1, 1] = 1 << 26  # 2^32 after the left shift
    for fn in (requantize, _requantize_loop):
        with pytest.raises(AccumulatorOverflowError):
            fn(acc, lyr)


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


def test_stack_rejects_first_layer_input_wider_than_its_n_i():
    rng = np.random.default_rng(18)
    stack = make_stack_pair(random_stack(rng, n_i=12)).quant_stack
    latent = np.zeros((1, 4, 4), dtype=np.int64)
    hyper = np.zeros((2, 4, 4), dtype=np.int64)
    run_entropy_stack(latent, hyper, stack)
    for arr in (latent, hyper):
        arr[0, 1, 2] = 2048  # 2^11: one past 12 bits
        with pytest.raises(ValueError, match="12-bit range"):
            run_entropy_stack(latent, hyper, stack)
        arr[0, 1, 2] = 2047


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
