"""The float convolution layer, the causal mask, and im2col.

Activations are (channels, height, width) at the package's public
edges; inside an entropy stack they are carried channels-last, as C-contiguous
(height, width, channels) arrays (see intops).  Convolution weights are
(in_channels, K, K, out_channels).  Only stride-1, zero same-padded
convolutions are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvLayerF",
    "ShapeError",
    "causal_mask",
    "check_conv_input",
]


class ShapeError(ValueError):
    """Raised when tensor / layer geometries do not line up."""


def causal_mask(k: int) -> np.ndarray:
    """(k, k) 0/1 mask keeping strictly-prior raster positions.

    The kernel center and every position at or after it in raster order is
    zeroed, so a masked convolution at position t never sees position t or
    any later one.
    """
    if k % 2 != 1:
        raise ValueError("kernel size must be odd")
    m = np.zeros((k, k), dtype=np.float64)
    c = k // 2
    m[:c, :] = 1.0
    m[c, :c] = 1.0
    return m


@dataclass(frozen=True, eq=False)
class ConvLayerF:
    """Float convolution layer: weights (m, K, K, n), bias (n,), stride 1.

    ``mask=True`` zeroes the kernel center and all raster-later taps
    (autoregressive context convolution).
    """

    weights: np.ndarray
    bias: np.ndarray
    mask: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 4 or w.shape[1] != w.shape[2]:
            raise ShapeError(f"weights must be (m, K, K, n), got {w.shape}")
        if w.shape[1] % 2 != 1:
            raise ShapeError(f"kernel size must be odd, got {w.shape[1]}")
        if b.shape != (w.shape[3],):
            raise ShapeError(f"bias must have length {w.shape[3]}, got {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters contain non-finite values")
        if self.mask:
            w = w * causal_mask(w.shape[1])[None, :, :, None]
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[3]


def check_conv_input(x: np.ndarray, layer) -> None:
    """ShapeError unless x, a convolution input entering a stack, is a
    (c, h, w) array with the layer's input channels."""
    if x.ndim != 3:
        raise ShapeError(f"expected (c, h, w) input, got shape {x.shape}")
    if x.shape[0] != layer.in_channels:
        raise ShapeError(f"input has {x.shape[0]} channels, layer expects {layer.in_channels}")


def windows(xp: np.ndarray, k: int) -> np.ndarray:
    """The k x k windows of an (h + k - 1, w + k - 1, c) array xp, as a
    read-only (h, w, c, k, k) view: window (y, x) is xp[y:y+k, x:x+k] with
    its channels first.  Of xp zero-padded by k // 2 around (h, w, c)
    data, window (y, x) is the same-padded window centred at (y, x)."""
    sy, sx, sc = xp.strides
    shape = (xp.shape[0] - k + 1, xp.shape[1] - k + 1, xp.shape[2], k, k)
    # the last window ends at xp's last entry
    win = np.ndarray(shape, xp.dtype, xp, 0, (sy, sx, sc, sy, sx))
    win.flags.writeable = False
    return win


def im2col(data: np.ndarray, k: int) -> np.ndarray:
    """Zero-padded sliding windows of (h, w, c) data as (h*w, c*k*k).

    Column order is (c, ky, kx), matching (m, K, K, n) weights flattened
    over (m, K, K).  For k = 1 that is the data reshaped, with no copy
    when the data is C-contiguous.  data may also be windows cut already,
    an (h, w, c, k, k) array (a context layer's step takes those of the
    whole grid, or of a decoder step's P positions as h, w = P, 1): their
    columns are that array reshaped, with no copy when it is C-contiguous.
    """
    if data.ndim == 5:
        return data.reshape(data.shape[0] * data.shape[1], data.shape[2] * k * k)
    h, w, c = data.shape
    if k == 1:
        return data.reshape(h * w, c)
    pad = k // 2
    xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=data.dtype)
    xp[pad : pad + h, pad : pad + w] = data
    return windows(xp, k).reshape(h * w, c * k * k)
