"""Quantization parameter derivation and layer quantization.

Weights and activations are 16-bit signed integers with power-of-two
scales.  Activation scale is 2^-p per layer; weight scale is 2^-k_j per
output channel, with k_j chosen from the accumulator budget so that a
32-bit accumulator can never overflow for any in-range input;
QConvLayer also refuses a layer whose requantize left shift could.

Rounding is half-away-from-zero everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tensors import ConvLayerF, causal_mask

__all__ = [
    "K_MAX",
    "INT16_MAX",
    "ACCUM_BITS",
    "RoundingTerms",
    "rounding_terms",
    "LayerQuantSpec",
    "QConvLayer",
    "WeightRangeError",
    "round_half_away",
    "exceeds",
    "ceil_log2",
    "quantize_value",
    "accumulator_bound",
    "shifted_bound",
    "derive_weight_shift",
    "adjust_shift_for_bias",
    "quantize_layer",
]

# Cap on per-channel weight shifts: 2^14 keeps any |W| <= 2 representable
# in int16 after scaling.
K_MAX = 14
INT16_MAX = (1 << 15) - 1
ACCUM_BITS = 32
# Widest right shift round_shift rounds correctly: 1 << 63 wraps in int64.
MAX_RIGHT_SHIFT = 62


class WeightRangeError(ValueError):
    """A quantized weight or bias does not fit its integer register, or a
    channel's worst case (shifted_bound) does not fit 32 bits."""


def round_half_away(x):
    """Round to nearest integer, ties away from zero.  Works on arrays."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def exceeds(arr: np.ndarray, lim: int) -> bool:
    """Whether an int64 array has an entry outside [-lim, lim]."""
    # abs(-2^63) wraps to -2^63 itself, which read as unsigned is 2^63 > lim
    return arr.size > 0 and np.abs(arr).view(np.uint64).max() > lim


def ceil_log2(x) -> int:
    """Exact ceil(log2(x)) for a positive real given as int, float or Fraction."""
    n, d = Fraction(x).as_integer_ratio()
    if n <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    # 2^(e-1) < n/d < 2^(e+1); n/d > 2^e decides between e and e + 1
    e = n.bit_length() - d.bit_length()
    return e + ((n << max(-e, 0)) > (d << max(e, 0)))


def quantize_value(x, p: int, b: int):
    """clamp(round(x * 2^p), -(2^(b-1)-1), 2^(b-1)-1), half away from zero.

    The one activation quantizer.  Works elementwise: an int for a scalar,
    an int64 array for an array.  Complex or non-finite input raises
    ValueError.
    """
    if b < 2:
        raise ValueError("bit depth must be at least 2")
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError("activation must be real, got a complex array")
    x = x.astype(np.float64, copy=False)
    if not np.isfinite(x).all():
        raise ValueError("activation contains non-finite values")
    lim = (1 << (b - 1)) - 1
    q = np.minimum(np.maximum(round_half_away(x * math.ldexp(1.0, p)), -lim), lim)
    q = q.astype(np.int64)
    return q if q.ndim else int(q)


class RoundingTerms(NamedTuple):
    """What scaling by 2^-s with half-away rounding needs of the shifts s.

    right = max(s, 0); half = 2^(right-1), 0 where right is 0; tie = -1
    where right > 0, else 0, so (v >> 63) & tie takes one off below zero;
    left = max(-s, 0), or None when no shift is negative.
    """

    right: np.ndarray
    half: np.ndarray
    tie: np.ndarray
    left: np.ndarray | None


def rounding_terms(s) -> RoundingTerms:
    """The RoundingTerms of an int or integer array of shifts, read-only."""
    s = np.asarray(s, dtype=np.int64)
    right = np.maximum(s, 0)
    half = (1 << right) >> 1
    left = np.maximum(-s, 0) if s.min(initial=0) < 0 else None
    return RoundingTerms(*map(_read_only, (right, half, -np.minimum(half, 1), left)))


def _read_only(a):
    """A read-only copy of a, None for None.  A scalar becomes a 0-d array,
    which ufuncs take faster than a numpy scalar."""
    if a is None:
        return None
    a = np.array(a)
    a.flags.writeable = False
    return a


def _check_grid(n_i: int, p_in: int, p_out: int):
    """n_i in [2, 16] and both activation shift exponents in [0, 15]."""
    if not 2 <= n_i <= 16:
        raise ValueError(f"n_i out of range: {n_i}")
    if not (0 <= p_in <= 15 and 0 <= p_out <= 15):
        raise ValueError("p must be in [0, 15]")


@dataclass(frozen=True, eq=False)
class LayerQuantSpec:
    """Per-layer quantization parameters.

    n_i: input bit depth; p_in / p_out: activation shift exponents for this
    layer's input and the next layer's input; k: per-output-channel weight
    shift exponents.  Requantization shifts channel j right by
    k_j + p_in - p_out, and int64 half-away rounding is exact up to
    MAX_RIGHT_SHIFT.
    """

    n_i: int
    p_in: int
    p_out: int
    k: np.ndarray

    def __post_init__(self):
        _check_grid(self.n_i, self.p_in, self.p_out)
        k = np.asarray(self.k)
        k_max = MAX_RIGHT_SHIFT - self.p_in + self.p_out
        if k.size and not (k.min() >= 0 and k.max() <= k_max):
            raise ValueError(f"channel shifts must lie in [0, {k_max}]")
        # read-only: shift and rounding are cached from it
        object.__setattr__(self, "k", _read_only(k.astype(np.int64, copy=False)))

    @cached_property
    def shift(self) -> np.ndarray:
        """Per-channel requantization right shift k_j + p_in - p_out."""
        return self.k + (self.p_in - self.p_out)

    @cached_property
    def rounding(self) -> RoundingTerms:
        """rounding_terms of shift, shaped (n, 1, 1) to broadcast over the
        channels of an (n, h, w) accumulator."""
        return rounding_terms(self.shift.reshape(-1, 1, 1))


def accumulator_bound(w_q, b_q, n_i: int) -> np.ndarray:
    """Per-channel worst-case |accumulator|: sum|w| * (2^(n_i-1)-1) + |b|.

    w_q is (..., n) and b_q is (n,).  The sign-matched extreme input attains
    the bound, and it bounds every partial sum in every summation order.
    """
    w = np.abs(np.asarray(w_q, dtype=np.int64))
    x_max = (1 << (n_i - 1)) - 1
    return w.reshape(-1, w.shape[-1]).sum(axis=0) * x_max + np.abs(b_q)


def shifted_bound(w_q, b_q, spec: LayerQuantSpec) -> np.ndarray:
    """Per-channel worst case of the 32-bit register: accumulator_bound,
    times 2^-shift_j where requantize shifts channel j left.  float64, so
    no shift wraps it: exact below 2^53, ordered right beyond."""
    acc = accumulator_bound(w_q, b_q, spec.n_i).astype(np.float64)
    return np.ldexp(acc, np.maximum(-spec.shift, 0))


@dataclass(frozen=True, eq=False)
class QConvLayer:
    """Quantized convolution layer: int16-valued weights, wide-int bias.

    Construction enforces the static overflow bound, so every layer, built
    or loaded, accumulates and requantizes in 32 bits for any input within
    its n_i bits (shifted_bound), and causality: a masked layer has zero
    weights at every tap that causal_mask zeroes.  The layer holds w_q and b_q as read-only views,
    so both hold for its lifetime unless the caller writes to the arrays
    it passed in.
    """

    w_q: np.ndarray  # (m, K, K, n) int64, entries within int16
    b_q: np.ndarray  # (n,) int64
    spec: LayerQuantSpec
    mask: bool = False

    def __post_init__(self):
        # read-only views: a write through the layer would void the checks
        # below and the cached weight_matrix
        w = np.asarray(self.w_q, dtype=np.int64).view()
        b = np.asarray(self.b_q, dtype=np.int64).view()
        w.flags.writeable = b.flags.writeable = False
        if exceeds(w, INT16_MAX):
            raise WeightRangeError("quantized weights exceed int16 range")
        if self.mask and np.any(w[:, causal_mask(w.shape[1]) == 0]):
            raise ValueError("masked layer has non-zero weights at non-causal taps")
        acc_max = (1 << (ACCUM_BITS - 1)) - 1
        if exceeds(b, acc_max):
            raise WeightRangeError("quantized bias exceeds accumulator range")
        worst = shifted_bound(w, b, self.spec)
        over = np.flatnonzero(worst > acc_max)
        if over.size:
            j = int(over[0])
            raise WeightRangeError(
                f"accumulator bound violated: channel {j}: worst case "
                f"{worst[j]:.0f} exceeds 2^31-1"
            )
        object.__setattr__(self, "w_q", w)
        object.__setattr__(self, "b_q", b)

    @property
    def in_channels(self) -> int:
        return self.w_q.shape[0]

    @property
    def kernel(self) -> int:
        return self.w_q.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w_q.shape[3]

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """w_q as a read-only (m*K*K, n) float64 GEMM operand, built on first use."""
        out = self.w_q.reshape(-1, self.out_channels).astype(np.float64)
        out.flags.writeable = False
        return out


def derive_weight_shift(w_col, n_i: int = 16) -> int:
    """Maximum per-channel weight shift allowed by the accumulator budget.

    k_j = ACCUM_BITS - n_i - ceil(log2(sum |W|)), floored at 0.  An
    all-zero channel gets K_MAX (any shift works; the weights stay zero).
    """
    if ACCUM_BITS <= n_i:
        raise ValueError("accumulator must be wider than the input")
    vals = np.abs(np.asarray(w_col, dtype=np.float64)).ravel().tolist()
    s = math.fsum(vals)
    if s == 0.0:
        return K_MAX
    # fsum is correctly rounded, so its ceil(log2) can only be wrong when it
    # lands exactly on a power of two; settle that case with exact rationals
    if math.frexp(s)[0] == 0.5:
        s = sum(map(Fraction, vals))
    return max(ACCUM_BITS - n_i - ceil_log2(s), 0)


def adjust_shift_for_bias(k_j: int, b_j: float, p: int) -> int:
    """Reduce a channel shift so the bias also fits the accumulator budget.

    Applied only for non-zero bias: k' = min(ACCUM_BITS-1-p-max(ceil(log2|b|),0), k) - 1.
    """
    if b_j == 0:
        return k_j
    lb = max(ceil_log2(abs(float(b_j))), 0)
    return min(ACCUM_BITS - 1 - p - lb, k_j) - 1


def _quantize_channel(w_col: np.ndarray, k: int):
    """w_col scaled by 2^k and rounded, as int64; None if an entry lies
    outside int16, checked before the cast, which could not hold it."""
    q = round_half_away(w_col * math.ldexp(1.0, k))
    return q.astype(np.int64) if np.abs(q).max(initial=0) <= INT16_MAX else None


def quantize_layer(
    layer: ConvLayerF,
    n_i: int,
    p_in: int,
    p_out: int,
    name: str = "layer",
) -> QConvLayer:
    """Quantize one convolution layer with per-channel weight shifts.

    Weights and bias are scaled and rounded without clipping.  If a channel's
    scaled weights do not fit int16, the shift is capped at K_MAX; if they
    still do not fit, the layer is rejected.  As a final safety net the
    shift is lowered until the worst-case accumulator value (sign-matched
    extreme input plus bias) provably fits ACCUM_BITS bits.  Shifts are
    capped so that requantize never shifts right by more than
    MAX_RIGHT_SHIFT.  A left-shifting channel past shifted_bound is refused:
    whatever k is, that bound is about sum|W| x_max 2^(p_out-p_in) + |bias| 2^p_out.
    """
    # checked before use: a huge p_in would overflow the bias scaling below
    _check_grid(n_i, p_in, p_out)
    m, kk, _, n = layer.weights.shape
    acc_max = (1 << (ACCUM_BITS - 1)) - 1
    eq14_budget = 1 << (ACCUM_BITS - n_i)
    k_cap = MAX_RIGHT_SHIFT - p_in + p_out

    w_q = np.zeros((m, kk, kk, n), dtype=np.int64)
    b_q = np.zeros(n, dtype=np.int64)
    ks = np.zeros(n, dtype=np.int64)

    def fits(wq, bq):
        # |bq| alone first: before the shift is lowered it can exceed int64
        return abs(bq) <= acc_max and (
            accumulator_bound(wq[..., None], bq, n_i)[0] <= acc_max
        )

    for j in range(n):
        col = layer.weights[:, :, :, j]
        bias = float(layer.bias[j])
        k = min(derive_weight_shift(col, n_i), k_cap)
        if bias != 0.0:
            k = adjust_shift_for_bias(k, bias, p_in)
            k = max(k, 0)
        wq = _quantize_channel(col, k)
        if wq is None and k > K_MAX:
            k = K_MAX
            wq = _quantize_channel(col, k)
        if wq is None:
            raise WeightRangeError(
                f"{name}: channel {j}: weight magnitude "
                f"{np.abs(col).max():.6g} not representable in int16 "
                f"at shift {k}"
            )
        bq = int(round_half_away(bias * math.ldexp(1.0, k + p_in)))
        # Rounding can push the channel a hair past the static budget;
        # lower the shift until the worst-case accumulator provably fits.
        ok = fits(wq, bq)
        while k > 0 and (int(np.abs(wq).sum()) > eq14_budget or not ok):
            k -= 1
            wq = _quantize_channel(col, k)
            bq = int(round_half_away(bias * math.ldexp(1.0, k + p_in)))
            ok = fits(wq, bq)
        if not ok:
            raise WeightRangeError(
                f"{name}: channel {j}: cannot satisfy accumulator bound"
            )
        w_q[:, :, :, j] = wq
        b_q[j] = bq
        ks[j] = k

    spec = LayerQuantSpec(n_i=n_i, p_in=p_in, p_out=p_out, k=ks)
    try:
        return QConvLayer(w_q=w_q, b_q=b_q, spec=spec, mask=layer.mask)
    except WeightRangeError as e:
        raise WeightRangeError(f"{name}: {e}") from e
