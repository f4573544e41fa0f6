import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detq.quantize import (
    INT16_MAX,
    K_MAX,
    LayerQuantSpec,
    QConvLayer,
    WeightRangeError,
    accumulator_bound,
    adjust_shift_for_bias,
    ceil_log2,
    derive_weight_shift,
    exceeds,
    quantize_layer,
    quantize_value,
    round_half_away,
    shifted_bound,
)
from detq.intops import requantize
from detq.tensors import ConvLayerF, ShapeError

from oracles import (
    adjust_shift_for_bias_oracle,
    ceil_log2_fr,
    derive_weight_shift_oracle,
    qconv,
    quantize_layer_oracle,
    quantize_value_oracle,
    round_half_away_fr,
)


def layer(w, b=None, mask=False):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[3])
    return ConvLayerF(weights=w, bias=np.asarray(b, dtype=np.float64), mask=mask)


# --- quantize_value -------------------------------------------------------


def test_quantize_value_examples():
    assert quantize_value(0.0, 5, 16) == 0
    assert quantize_value(1.0, 8, 16) == 256
    assert quantize_value(200.0, 8, 9) == 255  # 51200 clamps to 2^8 - 1
    assert type(quantize_value(np.float64(1.0), 8, 16)) is int


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantize_value_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        quantize_value(bad, 8, 16)
    x = np.zeros((1, 2, 2))
    x[0, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantize_value(x, 8, 16)


@pytest.mark.parametrize("b", [1, 0, -3])
def test_quantize_value_refuses_bit_depth_below_2(b):
    # at b = 1 the range +-(2^0 - 1) holds only 0
    with pytest.raises(ValueError, match="bit depth must be at least 2"):
        quantize_value(1.0, 8, b)


@pytest.mark.parametrize("b", [17, 64, 100])
def test_quantize_value_refuses_bit_depth_above_16(b):
    # at b = 100 the clamp 2^99 - 1 lies past int64, and 1e30 came back
    # as -2^63; at 17 the grid rule is broken, though the value fits
    with pytest.raises(ValueError, match="bit depth must be at least 2 and at most 16"):
        quantize_value(1e30, 0, b)


@pytest.mark.parametrize("p", [-1, 16, 2000, -2000])
def test_quantize_value_refuses_an_exponent_outside_0_to_15(p):
    # 2^2000 raised OverflowError and 2^-2000 ZeroDivisionError; -1 and 16
    # quantized on a grid that no layer has
    with pytest.raises(ValueError, match=r"exponent must lie in \[0, 15\]"):
        quantize_value(1.0, p, 16)


def test_quantize_value_rejects_complex():
    # cast to float64, 1 + 5j would quantize as 1 with only a ComplexWarning
    for bad in (np.array([1 + 5j]), 1 + 0j, np.zeros((1, 2, 2), np.complex64)):
        with pytest.raises(ValueError, match="complex"):
            quantize_value(bad, 8, 16)


def test_quantize_value_rejects_non_numeric():
    # cast to float64, "1.5" would quantize as 1.5 and True as 1
    for bad in (np.array(["1.5"]), np.array([b"2"]), np.array([True]), False):
        with pytest.raises(ValueError, match="must be numeric, got dtype"):
            quantize_value(bad, 8, 16)


@given(
    st.floats(-1000, 1000, allow_nan=False),
    st.integers(0, 15),
    st.integers(2, 16),
)
# scaled before the clamp, these overflowed float64 (and warned)
@example(sys.float_info.max, 15, 16)
@example(-sys.float_info.max, 15, 16)
@example(7.02223881e305, 8, 16)
# floor(|x| + 0.5) rounded these up: x + 0.5 is 1.0 in float64
@example(0.49999999999999994, 0, 16)
@example(math.ldexp(-0.49999999999999994, -15), 15, 16)
def test_quantize_value_matches_oracle(x, p, b):
    assert quantize_value(x, p, b) == quantize_value_oracle(x, p, b)


# --- round_half_away, exceeds -----------------------------------------------


@pytest.mark.parametrize(
    "x, want",
    [
        (0.49999999999999994, 0.0),  # the largest double below 0.5
        (-0.49999999999999994, 0.0),
        (0.5, 1.0),
        (-2.5, -3.0),
        (2.0**52 + 1, 2.0**52 + 1),  # whole, but x + 0.5 rounds to even 2^52 + 2
        (-(2.0**52) - 1, -(2.0**52) - 1),
        (2.0**52 - 0.5, 2.0**52),
        (sys.float_info.max, sys.float_info.max),
        (5e-324, 0.0),
        (math.inf, math.inf),
    ],
)
def test_round_half_away_is_exact(x, want):
    assert round_half_away(x) == want
    assert round_half_away(np.array([x, -x]))[::-1].tolist() == [-want, want]


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.49999999999999994)
@example(2.0**52 + 1)
def test_round_half_away_matches_exact_oracle(x):
    assert int(round_half_away(x)) == round_half_away_fr(Fraction(x))


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_exceeds_matches_python_ints_at_the_dtype_extremes(dtype):
    info = np.iinfo(dtype)
    # odd lengths too: a view of the bytes as another width would not fit them
    arrays = [[info.min], [info.max], [0, 1], [0, 1, 2], [info.min, 0, info.max]]
    lims = {0, 1, 4, info.max - 1, info.max, abs(info.min) - 1, abs(info.min), 2**64}
    for vals in arrays:
        arr = np.array(vals, dtype)
        for lim in sorted(v for v in lims if v >= 0):
            assert exceeds(arr, lim) == any(abs(v) > lim for v in vals), (vals, lim)
    assert not exceeds(np.zeros(0, dtype), 0)


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("size", [31, 32, 33, 1000])
def test_exceeds_reads_many_entries_like_a_few(dtype, size):
    # a few entries are read as a list, more by numpy reductions: both at
    # the dtype extremes, anywhere in a multi-dimensional array
    info = np.iinfo(dtype)
    rng = np.random.default_rng(size)
    lims = {0, 1, info.max - 1, info.max, abs(info.min) - 1, abs(info.min), 2**64}
    for extreme in (info.min, info.max, 0):
        arr = np.zeros(size, dtype)
        arr[rng.integers(size)] = extreme
        arr = arr.reshape(1, -1, 1)
        for lim in sorted(lims):
            assert exceeds(arr, lim) == (abs(int(extreme)) > lim), (extreme, lim)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.bool_])
def test_exceeds_refuses_non_integer_arrays(dtype):
    # a float64 1.0 read as uint64 is 4607182418800017408
    for vals in ([1], [], [0, 1, 0]):
        with pytest.raises(TypeError, match="integer array"):
            exceeds(np.array(vals, dtype), 2)


@given(st.floats(-100, 100), st.integers(0, 12))
def test_quant_dequant_error_bound(x, p):
    # within the representable range the quantization error is at most half a step
    q = quantize_value(x, p, 16)
    if abs(q) < (1 << 15) - 1:
        assert abs(x - q * math.ldexp(1.0, -p)) <= math.ldexp(1.0, -p - 1)


# --- ceil_log2 ------------------------------------------------------------


@given(
    st.one_of(
        st.floats(min_value=1e-30, max_value=1e30),
        st.integers(min_value=1, max_value=2**200),
        st.fractions(min_value=Fraction(1, 10**40), max_value=10**40).filter(
            lambda f: f > 0
        ),
    )
)
@example(5e-324)  # the smallest subnormal
@example(sys.float_info.max)
@example(Fraction(2**70 + 1, 3))
def test_ceil_log2_matches_exact_oracle(x):
    assert ceil_log2(x) == ceil_log2_fr(Fraction(x))


@pytest.mark.parametrize("x", [0, -1, 0.0, -5e-324, Fraction(-1, 3)])
def test_ceil_log2_refuses_non_positive(x):
    with pytest.raises(ValueError, match="positive argument"):
        ceil_log2(x)


def test_ceil_log2_exact_powers():
    for e in range(-20, 21):
        assert ceil_log2(math.ldexp(1.0, e)) == e
        assert ceil_log2(Fraction(2) ** e) == e


# --- derive_weight_shift / adjust_shift_for_bias --------------------------


def test_derive_weight_shift_examples():
    assert derive_weight_shift([1.2, -2.5], 16) == 14  # sum 3.7
    assert derive_weight_shift([1.0], 16) == 16
    assert derive_weight_shift([0.0, 0.0], 16) == K_MAX


def test_derive_weight_shift_monotone_in_n_i():
    w = [0.3, -0.7, 1.1]
    assert derive_weight_shift(w, 9) >= derive_weight_shift(w, 16)


def test_derive_weight_shift_refuses_n_i_at_the_accumulator_width():
    with pytest.raises(ValueError, match="accumulator must be wider"):
        derive_weight_shift([1.0], 32)


# columns whose sum |w| is a power of two or one ulp to either side, one
# just past 1 whose float sum in order loses its small terms and lands
# below 1, and one whose float sum rounds onto 1: exact sums settle each
NEAR_POWERS = np.zeros((7, 5))
NEAR_POWERS[:2, :3] = [[0.75] * 3, [0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0)]]
NEAR_POWERS[:, 3] = [0.5, 0.5 - 2.0**-52] + [2.0**-54] * 5
NEAR_POWERS[:2, 4] = [1.0, 2.0**-60]


@given(
    hnp.arrays(
        np.float64, st.tuples(st.integers(1, 20), st.integers(1, 4)), elements=st.floats(-10, 10)
    )
)
@example(NEAR_POWERS)
@example(np.full((2, 1), 1e308))  # a sum past float64
def test_derive_weight_shift_matches_oracle(w):
    # a (T, n) matrix gives each column's shift, and a column alone its own
    want = [derive_weight_shift_oracle(col, 32, 16) for col in w.T.tolist()]
    assert derive_weight_shift(w, 16).tolist() == want
    assert [derive_weight_shift(col, 16) for col in w.T] == want


def test_adjust_shift_for_bias_examples():
    assert adjust_shift_for_bias(7, 0.0, 8) == 7
    assert adjust_shift_for_bias(14, 2.5, 8) == 13  # min(21, 14) - 1
    assert adjust_shift_for_bias(14, 0.5, 8) == 13  # min(23, 14) - 1


@given(
    st.integers(0, 20),
    st.floats(-100, 100),
    st.integers(0, 15),
)
@example(14, -0.0, 8)
@example(14, 1e308, 15)
def test_adjust_shift_matches_oracle(k, b, p):
    want = adjust_shift_for_bias_oracle(k, b, p)
    assert adjust_shift_for_bias(k, b, p) == want
    # elementwise over arrays of shifts and biases
    got = adjust_shift_for_bias(np.array([k, k]), np.array([b, 0.0]), p)
    assert got.tolist() == [want, k]


# --- quantize_layer -------------------------------------------------------


def test_identity_layer_hits_representability_cap():
    # the derived shift 16 would need W_q = 65536; the int16 guard caps it
    q = quantize_layer(layer(np.ones((1, 1, 1, 1))), n_i=16, p_in=8, p_out=8)
    assert q.spec.k[0] == K_MAX
    assert q.w_q[0, 0, 0, 0] == 16384


def test_all_zero_layer():
    q = quantize_layer(layer(np.zeros((2, 3, 3, 2))), n_i=16, p_in=8, p_out=8)
    assert np.all(q.w_q == 0) and np.all(q.b_q == 0)


def test_weights_never_clipped():
    rng = np.random.default_rng(5)
    lyr = layer(rng.normal(size=(3, 3, 3, 4)), b=rng.normal(size=4))
    q = quantize_layer(lyr, n_i=16, p_in=8, p_out=8)
    for j in range(4):
        k = int(q.spec.k[j])
        want = round_half_away(lyr.weights[:, :, :, j] * math.ldexp(1.0, k))
        np.testing.assert_array_equal(q.w_q[:, :, :, j], want.astype(np.int64))


def test_channel_sum_within_accumulator_budget():
    rng = np.random.default_rng(6)
    for n_i in (9, 16):
        # weight magnitudes < 2 so every channel is int16-representable
        lyr = layer(rng.normal(0, 0.3, size=(4, 3, 3, 5)), b=rng.normal(size=5))
        q = quantize_layer(lyr, n_i=n_i, p_in=8, p_out=8)
        sums = np.abs(q.w_q, dtype=np.int64).sum(axis=(0, 1, 2))
        x_max = (1 << (n_i - 1)) - 1
        assert np.all(sums * x_max + np.abs(q.b_q) <= (1 << 31) - 1)


def test_tiny_weights_keep_requantize_shift_exact():
    # sum|w| = 2^-47.5 derives k = 63, one past the widest exact right shift
    lyr = layer(np.full((1, 3, 3, 1), 2.0**-47.5 / 9))
    q = quantize_layer(lyr, n_i=16, p_in=8, p_out=8)
    assert q.spec.k[0] == 62
    acc = qconv(np.full((1, 2, 2), 32767), q)
    requantize(acc, q.spec, INT16_MAX)
    np.testing.assert_array_equal(acc, 0)


@pytest.mark.parametrize("w, k", [([3.0], 13), ([2.0, 2.0], 13), ([5.0, 1.0], 12)])
def test_channel_past_int16_at_its_shift_takes_a_lower_one(w, k):
    # at the budget's shift (14, 14 and 13) a weight scales to 2^15 or more
    q = quantize_layer(layer(np.reshape(w, (len(w), 1, 1, 1))), n_i=16, p_in=8, p_out=8)
    assert q.spec.k.tolist() == [k]
    assert q.w_q.ravel().tolist() == [v * 2**k for v in w]


def test_unrepresentable_weight_rejected():
    with pytest.raises(WeightRangeError):
        quantize_layer(layer(np.full((1, 1, 1, 1), 1e9)), n_i=16, p_in=8, p_out=8)


def test_weight_past_int64_refused_by_its_channel():
    # 3e38 at shift 0 lies past int64: checked before the cast, which would
    # turn it into -2^63 (or whatever the CPU makes of it) and warn
    w = np.zeros((1, 1, 1, 2))
    w[0, 0, 0, 1] = 3e38
    with pytest.raises(
        WeightRangeError, match=r"channel 1: weight magnitude 3e\+38 not representable in int16"
    ):
        quantize_layer(layer(w), n_i=16, p_in=8, p_out=8)


@pytest.mark.parametrize(
    "w, b, match",
    [
        # sum |w| past float64: the weights alone refuse the channel
        ([1e308, 1e308], 0.0, "weight magnitude 1e\\+308 not representable in int16 at shift 0"),
        # the bias scaled by 2^p_in past float64
        ([0.1, 0.1], 1e308, "cannot satisfy accumulator bound"),
    ],
)
def test_channel_past_float64_refused_by_its_channel(w, b, match):
    wts = np.zeros((2, 1, 1, 2))
    wts[:, 0, 0, 1] = w
    with pytest.raises(WeightRangeError, match=f"channel 1: {match}"):
        quantize_layer(layer(wts, b=[0.5, b]), n_i=16, p_in=8, p_out=8)


@st.composite
def float_layer_cases(draw):
    """A float layer whose channels' weights and biases lie at random binary
    scales, a few past float64 once summed or scaled, with n_i, p_in and
    p_out."""
    m, kk, n = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), draw(st.integers(1, 4))
    unit = st.floats(-1, 1)
    scale = st.one_of(st.integers(-70, 24), st.just(1020))
    w = draw(hnp.arrays(np.float64, (m, kk, kk, n), elements=unit))
    b = draw(hnp.arrays(np.float64, (n,), elements=unit))
    w_exp = draw(hnp.arrays(np.int64, (n,), elements=scale))
    b_exp = draw(hnp.arrays(np.int64, (n,), elements=scale))
    lyr = layer(np.ldexp(w, w_exp), np.ldexp(b, b_exp), mask=kk > 1 and draw(st.booleans()))
    return lyr, draw(st.integers(2, 16)), draw(st.integers(0, 15)), draw(st.integers(0, 15))


def _budget_case():
    # sum |w| 2^10 is 2^16 exactly, but two ties round up: 65537 > 2^16,
    # though 65537 x_max fits 32 bits
    w = np.ldexp([21845.0] * 3 + [0.5] * 2, -10)
    return layer(np.reshape(w, (5, 1, 1, 1)))


def _zero_column_case():
    w = np.zeros((1, 3, 3, 2))
    w[..., 1] = 0.3
    return layer(w, b=[0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(float_layer_cases())
@example((layer(NEAR_POWERS.reshape(7, 1, 1, 5)), 16, 8, 8))
@example((layer(np.ones((1, 1, 1, 1))), 16, 8, 8))  # identity capped at K_MAX
@example((layer(np.full((1, 3, 3, 1), 2.0**-47.5 / 9)), 16, 8, 8))  # k_cap 62
@example((layer(np.full((1, 1, 1, 1), 0.01), b=[1000.0]), 16, 8, 8))  # bias-limited
@example((_zero_column_case(), 16, 8, 8))
@example((_budget_case(), 16, 8, 8))  # steps down to 9 for the eq14 budget
@example((layer(np.reshape([0.5, 1e9], (1, 1, 1, 2))), 16, 8, 8))  # int16 after a pass
@example((layer(np.full((2, 1, 1, 1), 1e308)), 16, 8, 8))
@example((layer(np.full((1, 1, 1, 1), 0.1), b=[1e308]), 16, 8, 8))
def test_quantize_layer_matches_channel_oracle(case):
    # the one pass over a layer's channels gives each the shift, weights and
    # bias the channel-by-channel oracle does, or the same error
    lyr, n_i, p_in, p_out = case
    try:
        want = quantize_layer_oracle(lyr, n_i, p_in, p_out)
    except WeightRangeError as e:
        with pytest.raises(WeightRangeError, match=f"^{re.escape(str(e))}$"):
            quantize_layer(lyr, n_i, p_in, p_out)
        return
    got = quantize_layer(lyr, n_i, p_in, p_out)
    assert got.spec.k.tolist() == want.spec.k.tolist()
    np.testing.assert_array_equal(got.w_q, want.w_q)
    np.testing.assert_array_equal(got.b_q, want.b_q)


def test_qconv_layer_enforces_accumulator_bound():
    # three int16-max taps: 3 * 32767 * (2^15 - 1) > 2^31 - 1 at 16-bit input
    w = np.full((3, 1, 1, 2), 32767)
    w[:, :, :, 1] = 1
    b = np.array([0, 5])
    spec16 = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0, 0])
    assert list(accumulator_bound(w, b, 16)) == [3 * 32767 * 32767, 3 * 32767 + 5]
    with pytest.raises(WeightRangeError, match="accumulator bound"):
        QConvLayer(w_q=w, b_q=b, spec=spec16)
    # the same weights fit at 9-bit input: 3 * 32767 * 255 < 2^31 - 1
    spec9 = LayerQuantSpec(n_i=9, p_in=8, p_out=8, k=[0, 0])
    QConvLayer(w_q=w, b_q=b, spec=spec9)


@st.composite
def layer_cases(draw):
    """int16 weights and a bias of random magnitude, n_i, p_in, p_out and
    per-channel k, so that requantize shifts some channels left."""
    m, kk, n = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), draw(st.integers(1, 3))
    lim = min(1 << draw(st.integers(0, 15)), INT16_MAX)
    w = draw(hnp.arrays(np.int64, (m, kk, kk, n), elements=st.integers(-lim, lim)))
    b_lim = (1 << draw(st.integers(0, 31))) - 1
    b = draw(hnp.arrays(np.int64, (n,), elements=st.integers(-b_lim, b_lim)))
    p_in, p_out = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    k = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))  # 20 < 62 - 15
    return w, b, LayerQuantSpec(n_i=draw(st.integers(2, 16)), p_in=p_in, p_out=p_out, k=k)


@settings(max_examples=300, deadline=None)
@given(layer_cases())
def test_accepted_layer_never_overflows_on_extreme_input(case):
    w, b, spec = case
    try:
        lyr = QConvLayer(w_q=w, b_q=b, spec=spec)
    except WeightRangeError:
        return
    x_max = (1 << (spec.n_i - 1)) - 1
    c = lyr.kernel // 2  # the centre output of a K x K input reads every tap
    for j in range(lyr.out_channels):
        # the sign-matched extreme input of channel j attains its accumulator bound
        x = np.sign(w[..., j]) * (x_max if b[j] >= 0 else -x_max)
        acc = qconv(x, lyr)
        assert abs(acc[c, c, j]) == accumulator_bound(w, b, spec.n_i)[j]
        assert np.abs(acc).max() <= 2**31 - 1
        # the left shift stays within 32 bits too
        assert np.abs(round_half_away(acc * spec.scale)).max() <= 2**31 - 1


@pytest.mark.parametrize("left", [0, 1, 15])
def test_left_shift_bound_is_exact(left):
    # n_i = 2 makes x_max 1, so a one-tap channel's accumulator bound is |w| + |b|
    spec = LayerQuantSpec(n_i=2, p_in=0, p_out=left, k=[0])
    assert spec.shift[0] == -left
    top = (2**31 - 1) >> left  # the largest bound the shift keeps within 2^31 - 1
    w = np.ones((1, 1, 1, 1), np.int64)
    lyr = QConvLayer(w_q=w, b_q=[top - 1], spec=spec)
    assert shifted_bound(lyr.w_q, lyr.b_q, spec)[0] == top << left  # 2^31 - 1 at left 0
    acc = qconv(np.ones((1, 1, 1), np.int64), lyr)
    assert acc[0, 0, 0] == top
    assert np.abs(round_half_away(acc * spec.scale)).max() <= 2**31 - 1
    with pytest.raises(WeightRangeError, match="channel 0: worst case"):
        QConvLayer(w_q=w, b_q=[top], spec=spec)


def test_qconv_layer_enforces_causality():
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    w = np.zeros((1, 3, 3, 1), dtype=np.int64)
    w[0, 0, :, 0] = w[0, 1, 0, 0] = 7  # every strictly-prior tap
    QConvLayer(w_q=w, b_q=[0], spec=spec, mask=True)
    for tap in [(1, 1), (1, 2), (2, 0), (2, 2)]:  # the centre and later taps
        bad = w.copy()
        bad[(0, *tap, 0)] = 1
        QConvLayer(w_q=bad, b_q=[0], spec=spec)  # unmasked layers may use any tap
        with pytest.raises(ValueError, match="non-causal"):
            QConvLayer(w_q=bad, b_q=[0], spec=spec, mask=True)


def test_qconv_layer_range_check_includes_int64_min():
    # np.abs(-2^63) is -2^63, so an abs-based check would let both through
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    int64_min = np.iinfo(np.int64).min
    with pytest.raises(WeightRangeError, match="int16 range"):
        QConvLayer(w_q=np.full((1, 1, 1, 1), int64_min), b_q=[0], spec=spec)
    with pytest.raises(WeightRangeError, match="accumulator range"):
        QConvLayer(w_q=np.zeros((1, 1, 1, 1), np.int64), b_q=[int64_min], spec=spec)
    with pytest.raises(WeightRangeError, match="int16 range"):
        QConvLayer(w_q=np.full((1, 1, 1, 1), -32768), b_q=[0], spec=spec)
    # held as int16, -32768 is in the dtype but not in the symmetric range
    w = np.full((1, 1, 1, 1), -32768, np.int16)
    with pytest.raises(WeightRangeError, match="int16 range"):
        QConvLayer(w_q=w, b_q=[0], spec=spec)
    # no wraparound: abs of int16 -32768 is -32768 in int16
    assert accumulator_bound(w, np.zeros(1, np.int64), 2).tolist() == [32768]


@pytest.mark.parametrize(
    "w, b",
    [
        (np.full((1, 1, 1, 1), 1.7), [0]),  # was truncated to weight 1
        (np.ones((1, 1, 1, 1), np.int64), np.array([2.9])),  # was truncated to bias 2
        (np.ones((1, 1, 1, 1)), [0]),  # whole-valued, but float all the same
        (np.ones((1, 1, 1, 1), bool), [0]),
    ],
    ids=["weight-1.7", "bias-2.9", "weight-1.0", "bool-weight"],
)
def test_qconv_layer_refuses_non_integer_arrays(w, b):
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    with pytest.raises(ValueError, match="must be integer arrays"):
        QConvLayer(w_q=w, b_q=b, spec=spec)


@pytest.mark.parametrize(
    "w_shape, b_len, message",
    [
        ((1, 2, 2, 1), 1, "kernel size must be odd, got 2"),
        ((1, 3, 1, 1), 1, r"weights must be \(m, K, K, n\)"),
        ((1, 1, 1, 1), 3, "bias must have length 1"),
    ],
    ids=["even-kernel", "non-square", "3-entry-bias"],
)
def test_qconv_layer_has_the_float_layer_geometry(w_shape, b_len, message):
    # one rule for both layer types: tensors.check_layer_geometry
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0] * w_shape[3])
    with pytest.raises(ShapeError, match=message):
        QConvLayer(w_q=np.zeros(w_shape, np.int64), b_q=np.zeros(b_len, np.int64), spec=spec)
    with pytest.raises(ShapeError, match=message):
        ConvLayerF(np.zeros(w_shape), np.zeros(b_len))


def test_qconv_layer_checks_a_bias_before_narrowing_it():
    # a uint64 bias of 2^64 - 1 used to be cast to int64 -1 and accepted
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0])
    w = np.ones((1, 1, 1, 1), np.int64)
    with pytest.raises(WeightRangeError, match="accumulator range"):
        QConvLayer(w_q=w, b_q=np.array([2**64 - 1], np.uint64), spec=spec)
    lyr = QConvLayer(w_q=w, b_q=np.array([7], np.uint64), spec=spec)
    assert lyr.b_q.dtype == np.int64 and lyr.b_q.tolist() == [7]


def test_int16_weights_bound_as_python_ints():
    # every weight at +-32767 in int16: sum |w| would wrap in int16 and
    # in int32 times x_max; the bounds are taken in int64 and float64
    spec = LayerQuantSpec(n_i=2, p_in=0, p_out=3, k=[0, 0])
    w = np.full((8, 3, 3, 2), 32767, np.int16)
    w[::2, :, :, 1] = -32767
    b = np.array([-(2**20), 2**20 - 1])
    lyr = QConvLayer(w_q=w, b_q=b, spec=spec)
    assert lyr.w_q.dtype == np.int16 and lyr.w_q.flags.owndata is False
    want = [72 * 32767 + 2**20, 72 * 32767 + 2**20 - 1]  # x_max is 1 at n_i 2
    assert accumulator_bound(lyr.w_q, lyr.b_q, spec.n_i).tolist() == want
    assert shifted_bound(lyr.w_q, lyr.b_q, spec).tolist() == [v << 3 for v in want]
    x_max = 2**15 - 1
    assert accumulator_bound(w, b, 16).tolist() == [72 * 32767 * x_max + abs(v) for v in b]


def test_qconv_layer_weights_are_read_only():
    # the overflow bound and the cached GEMM operands hold only while they stay
    lyr = quantize_layer(layer(np.full((2, 1, 1, 1), 0.5)), n_i=16, p_in=8, p_out=8)
    wmat = lyr.weight_matrix
    for arr in (lyr.w_q, lyr.b_q, wmat):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert lyr.weight_matrix is wmat
    assert lyr.w_q.dtype == np.int16
    assert wmat.shape == (2, 1) and wmat.dtype == np.float64
    np.testing.assert_array_equal(wmat, lyr.w_q.reshape(2, 1).astype(np.float64))


def test_spec_channel_shifts_are_read_only():
    # shift and rounding are cached from k, and a saved model writes k: a
    # changed k would save a model other than the one that runs
    k = np.array([3, 5])
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=k)
    with pytest.raises(ValueError, match="read-only"):
        spec.k[0] = 0
    k[0] = 0  # nor does the caller's array reach it
    assert list(spec.k) == [3, 5] and list(spec.shift) == [3, 5]


@pytest.mark.parametrize(
    "k",
    [[0.9, 1.2, 2.7], [1.0, 2.0, 3.0], [True, False, True], [[1, 2, 3]], 4],
    ids=["fractional", "float", "bool", "2-D", "scalar"],
)
def test_spec_refuses_shifts_that_are_not_a_1d_integer_sequence(k):
    # the int64 cast took [0.9, 1.2, 2.7] as [0, 1, 2] and bools as 0 and 1,
    # and a 2-D k made saving the model raise a bare TypeError
    with pytest.raises(ValueError, match="channel shifts must be a 1-D integer sequence"):
        LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=k)


@pytest.mark.parametrize("shifts", [1, 8, 10])
def test_qconv_layer_refuses_a_shift_count_other_than_its_channels(shifts):
    # one shift broadcast over 9 channels: the layer ran, and the model it
    # saved did not load
    w, b = np.zeros((2, 1, 1, 9), np.int16), np.zeros(9, np.int64)
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[3] * shifts)
    with pytest.raises(ShapeError, match=f"{shifts} channel shifts for 9 output channels"):
        QConvLayer(w_q=w, b_q=b, spec=spec)


# --- activation quantization of tensors ----------------------------------


def test_activation_tensor_examples():
    assert np.all(quantize_value(np.zeros((1, 2, 2)), 8, 16) == 0)
    ones = quantize_value(np.ones((1, 2, 2)), 8, 16)
    assert ones.dtype == np.int64 and np.all(ones == 256)


def test_activation_tensor_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 2, size=(2, 3, 3))
    got = quantize_value(x, 8, 9)
    for idx in np.ndindex(*x.shape):
        assert got[idx] == quantize_value_oracle(x[idx], 8, 9)


def test_activation_tensor_input_forms_agree():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 2, size=(2, 3, 4))
    np.testing.assert_array_equal(quantize_value(x.tolist(), 8, 9), quantize_value(x, 8, 9))
    ints = rng.integers(-8, 9, size=(2, 3, 4))
    strided = np.repeat(ints, 2, axis=2)[:, :, ::2]  # non-contiguous view
    for form in (ints, ints.astype(np.int32), strided):
        got = quantize_value(form, 8, 9)
        np.testing.assert_array_equal(got, np.clip(ints * 256, -255, 255))
