import itertools

import numpy as np
import pytest

from detq.harness import conv_ordered_float
from detq.quantize import LayerQuantSpec, QConvLayer, quantize_value
from detq.tensors import ConvLayerF, ShapeError, causal_mask, im2col, windows

from oracles import conv2d_oracle, qconv


def layer(w, b=None, mask=False):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[3])
    return ConvLayerF(weights=w, bias=np.asarray(b, dtype=np.float64), mask=mask)


def test_identity_kernel_passthrough():
    x = np.arange(12, dtype=np.float32).reshape(3, 4, 1)
    out = conv_ordered_float(x, layer(np.ones((1, 1, 1, 1))), "seq")
    np.testing.assert_array_equal(out, x)


def test_bias_broadcast():
    x = np.random.default_rng(0).normal(size=(3, 3, 2)).astype(np.float32)
    lyr = layer(np.zeros((2, 3, 3, 4)), b=[1.0, -2.0, 0.5, 3.0])
    out = conv_ordered_float(x, lyr, "seq")
    for j, c in enumerate([1.0, -2.0, 0.5, 3.0]):
        np.testing.assert_array_equal(out[..., j], np.full((3, 3), c))


def test_ones_kernel_center_and_corner():
    x = np.ones((3, 3, 1), dtype=np.float32)
    out = conv_ordered_float(x, layer(np.ones((1, 3, 3, 1))), "seq")
    assert out[1, 1, 0] == 9.0
    assert out[0, 0, 0] == 4.0


def test_conv_matches_naive_oracle():
    # conv2d_oracle loops over taps, so this checks im2col too (qconv_oracle uses it);
    # the later canvases are as small as a causal window, narrower than the kernel
    rng = np.random.default_rng(42)
    for k, (c, h, w) in itertools.product((1, 3, 5), ((2, 4, 5), (1, 1, 1), (1, 2, 7))):
        n = 3
        x = rng.integers(-32767, 32768, size=(c, h, w))
        wgt = rng.integers(-300, 301, size=(c, k, k, n))
        b = rng.integers(-10**6, 10**6, size=n)
        spec = LayerQuantSpec(n_i=16, p_in=8, p_out=8, k=[0] * n)
        lyr = QConvLayer(w_q=wgt, b_q=b, spec=spec)
        want = conv2d_oracle(x.tolist(), wgt.tolist(), b.tolist())
        assert qconv(x, lyr).transpose(2, 0, 1).tolist() == want


def _im2col_loop(data, k):
    """im2col one tap at a time: row y*w + x, column (i*k + dy)*k + dx holds
    channel i at (y + dy - k//2, x + dx - k//2), zero outside the data."""
    h, w, c = data.shape
    r = k // 2
    out = np.zeros((h * w, c * k * k), dtype=data.dtype)
    for y, x, i, dy, dx in itertools.product(range(h), range(w), range(c), range(k), range(k)):
        if 0 <= y + dy - r < h and 0 <= x + dx - r < w:
            out[y * w + x, (i * k + dy) * k + dx] = data[y + dy - r, x + dx - r, i]
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("rows", [1, 2])
def test_im2col_matches_per_tap_loop(k, rows):
    # canvases one or two rows high and as narrow as one pixel, where
    # zero padding fills most of each window
    rng = np.random.default_rng(10 * k + rows)
    for c, w in ((1, 1), (1, 5), (3, 2), (2, 9)):
        for dtype in (np.float64, np.int64):
            data = rng.integers(-100, 101, size=(rows, w, c)).astype(dtype)
            got = im2col(data, k)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, _im2col_loop(data, k))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_im2col_of_picked_windows_is_their_rows(k):
    # a decoder step cuts the windows of P positions from a zero-padded
    # carrier; their im2col is the whole canvas's im2col at those rows,
    # and a reshape of the windows, no copy
    rng = np.random.default_rng(k)
    data = rng.integers(-100, 101, size=(4, 5, 3)).astype(np.float64)
    xp = np.pad(data, ((k // 2, k // 2), (k // 2, k // 2), (0, 0)))
    ys, xs = np.array([3, 0, 2, 2]), np.array([0, 4, 1, 2])
    picked = np.ascontiguousarray(windows(xp, k)[ys, xs, None])
    assert picked.shape == (4, 1, 3, k, k)
    got = im2col(picked, k)
    assert np.shares_memory(got, picked)
    np.testing.assert_array_equal(got, im2col(data, k)[ys * 5 + xs])


@pytest.mark.parametrize("k", [3, 5])
def test_im2col_window_view_is_read_only(k):
    # one channel, one pixel: the windows reshape to (1, k*k) without a copy,
    # so the result is the window view itself
    out = im2col(np.ones((1, 1, 1)), k)
    assert not out.flags.owndata and not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 2.0


def test_causal_mask_strictly_prior():
    m = causal_mask(3)
    np.testing.assert_array_equal(
        m, [[1, 1, 1], [1, 0, 0], [0, 0, 0]]
    )
    assert causal_mask(1)[0, 0] == 0


@pytest.mark.parametrize("k", [0, 2, 4])
def test_causal_mask_refuses_an_even_kernel(k):
    with pytest.raises(ValueError, match="kernel size must be odd"):
        causal_mask(k)


@pytest.mark.parametrize("bias_shape", [(2,), (4,), (3, 1)])
def test_layer_refuses_a_bias_of_another_shape(bias_shape):
    with pytest.raises(ShapeError, match="bias must have length 3"):
        ConvLayerF(np.zeros((1, 1, 1, 3)), np.zeros(bias_shape))


def test_masked_layer_zeroes_center_and_future():
    rng = np.random.default_rng(1)
    lyr = layer(rng.normal(size=(1, 3, 3, 1)), mask=True)
    assert lyr.weights[0, 1, 1, 0] == 0.0
    assert np.all(lyr.weights[0, 2, :, 0] == 0.0)
    assert np.all(lyr.weights[0, 1, 1:, 0] == 0.0)


def test_shape_validation():
    with pytest.raises(ShapeError):
        ConvLayerF(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        layer(np.zeros((1, 2, 2, 1)))  # even kernel
    with pytest.raises(ValueError):
        quantize_value(np.array([[[np.nan]]]), 8, 16)


def test_signalling_nan_parameters_are_refused_without_a_warning():
    # a float32 blob can hold a signalling NaN, whose float64 cast used to
    # raise numpy's "invalid value encountered in cast" warning
    snan = np.frombuffer(bytes.fromhex("02729a7f"), "<f4")
    assert np.isnan(snan).all()
    for args in ((snan.reshape(1, 1, 1, 1), np.zeros(1)), (np.zeros((1, 1, 1, 1)), snan)):
        with pytest.raises(ValueError, match="non-finite"):
            ConvLayerF(*args)
