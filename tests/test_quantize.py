import math
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
    quantize_layer,
    quantize_value,
    round_half_away,
    shifted_bound,
)
from detq.intops import qconv_forward, requantize
from detq.tensors import ConvLayerF

from oracles import (
    adjust_shift_for_bias_oracle,
    ceil_log2_fr,
    derive_weight_shift_oracle,
    quantize_value_oracle,
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


def test_quantize_value_rejects_complex():
    # cast to float64, 1 + 5j would quantize as 1 with only a ComplexWarning
    for bad in (np.array([1 + 5j]), 1 + 0j, np.zeros((1, 2, 2), np.complex64)):
        with pytest.raises(ValueError, match="complex"):
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
def test_quantize_value_matches_oracle(x, p, b):
    assert quantize_value(x, p, b) == quantize_value_oracle(x, p, b)


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


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
def test_derive_weight_shift_matches_oracle(ws):
    assert derive_weight_shift(ws, 16) == derive_weight_shift_oracle(ws, 32, 16)


def test_adjust_shift_for_bias_examples():
    assert adjust_shift_for_bias(7, 0.0, 8) == 7
    assert adjust_shift_for_bias(14, 2.5, 8) == 13  # min(21, 14) - 1
    assert adjust_shift_for_bias(14, 0.5, 8) == 13  # min(23, 14) - 1


@given(
    st.integers(0, 20),
    st.floats(-100, 100),
    st.integers(0, 15),
)
def test_adjust_shift_matches_oracle(k, b, p):
    assert adjust_shift_for_bias(k, b, p) == adjust_shift_for_bias_oracle(k, b, p)


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
        sums = np.abs(q.w_q).sum(axis=(0, 1, 2))
        x_max = (1 << (n_i - 1)) - 1
        assert np.all(sums * x_max + np.abs(q.b_q) <= (1 << 31) - 1)


def test_tiny_weights_keep_requantize_shift_exact():
    # sum|w| = 2^-47.5 derives k = 63, one past the widest exact right shift
    lyr = layer(np.full((1, 3, 3, 1), 2.0**-47.5 / 9))
    q = quantize_layer(lyr, n_i=16, p_in=8, p_out=8)
    assert q.spec.k[0] == 62
    x = np.full((1, 2, 2), 32767)
    np.testing.assert_array_equal(requantize(qconv_forward(x, q), q), 0)


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
        acc = qconv_forward(x, lyr)
        assert abs(acc[j, c, c]) == accumulator_bound(w, b, spec.n_i)[j]
        assert np.abs(acc).max() <= 2**31 - 1
        requantize(acc, lyr)  # the left shift stays within 32 bits too


@pytest.mark.parametrize("left", [0, 1, 15])
def test_left_shift_bound_is_exact(left):
    # n_i = 2 makes x_max 1, so a one-tap channel's accumulator bound is |w| + |b|
    spec = LayerQuantSpec(n_i=2, p_in=0, p_out=left, k=[0])
    assert spec.shift[0] == -left
    top = (2**31 - 1) >> left  # the largest bound the shift keeps within 2^31 - 1
    w = np.ones((1, 1, 1, 1))
    lyr = QConvLayer(w_q=w, b_q=[top - 1], spec=spec)
    assert shifted_bound(lyr.w_q, lyr.b_q, spec)[0] == top << left  # 2^31 - 1 at left 0
    acc = qconv_forward(np.ones((1, 1, 1), np.int64), lyr)
    assert acc[0, 0, 0] == top
    requantize(acc, lyr)
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
        QConvLayer(w_q=np.zeros((1, 1, 1, 1)), b_q=[int64_min], spec=spec)
    with pytest.raises(WeightRangeError, match="int16 range"):
        QConvLayer(w_q=np.full((1, 1, 1, 1), -32768), b_q=[0], spec=spec)


def test_qconv_layer_weights_are_read_only():
    # the overflow bound and the cached GEMM operands hold only while they stay
    lyr = quantize_layer(layer(np.full((2, 1, 1, 1), 0.5)), n_i=16, p_in=8, p_out=8)
    wmat = lyr.weight_matrix
    for arr in (lyr.w_q, lyr.b_q, wmat):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert lyr.weight_matrix is wmat
    assert wmat.shape == (2, 1) and wmat.dtype == np.float64
    np.testing.assert_array_equal(wmat.ravel(), lyr.w_q.ravel())


def test_spec_channel_shifts_are_read_only():
    # shift and rounding are cached from k, and a saved model writes k: a
    # changed k would save a model other than the one that runs
    k = np.array([3, 5])
    spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=k)
    with pytest.raises(ValueError, match="read-only"):
        spec.k[0] = 0
    k[0] = 0  # nor does the caller's array reach it
    assert list(spec.k) == [3, 5] and list(spec.shift) == [3, 5]


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
