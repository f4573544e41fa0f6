"""Quantization parameter derivation and layer quantization.

Weights and activations are 16-bit signed integers with power-of-two
scales.  Activation scale is 2^-p per layer; weight scale is 2^-k_j per
output channel, with k_j chosen from the accumulator budget so that a
32-bit accumulator can never overflow for any in-range input;
QConvLayer also refuses a layer whose requantize left shift could.

quantize_layer derives, scales and checks all of a layer's channels in one
numpy pass.  A column's sum |W| is a float sum; only where its error bound
reaches a power of two does the column's shift come from an exact sum.
Each channel gets the same shift, weights and bias as it would
quantized on its own.

Quantized weights are held as int16, the type the paper's registers and
the model blob give them; their magnitudes are taken in int32 and all
other arithmetic on them is int64 or float64.

Rounding is half-away-from-zero everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .tensors import ConvLayerF, ShapeError, causal_mask, check_layer_geometry

__all__ = [
    "K_MAX",
    "INT16_MAX",
    "ACCUM_BITS",
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

# Cap on per-channel weight shifts: 2^14 keeps any |W| <= 2 - 2^-14
# representable in int16 after scaling.
K_MAX = 14
INT16_MAX = (1 << 15) - 1
ACCUM_BITS = 32
# Widest requantize right shift, a format rule.  requantize rounds
# acc 2^-s in float64, exact for any shift: |acc| < 2^31 makes it a
# normal double of at most 31 significant bits.  An implementation in
# 64-bit integers adds 2^(s-1) and shifts right by s, and 2^63 wraps.
MAX_RIGHT_SHIFT = 62


class WeightRangeError(ValueError):
    """A quantized weight or bias does not fit its integer register, or a
    channel's worst case (shifted_bound) does not fit 32 bits."""


# The largest double below 0.5.  |x| + 0.5 rounds to the next integer
# for 0.49999999999999994 and for odd |x| between 2^52 and 2^53.  |x| plus
# this reaches the next integer exactly where |x|'s fraction is at least
# 0.5: a fraction of 0.5 lands 2^-54 below it and rounds up to it, a
# smaller one lands at least one spacing of |x| further down.  Rounding
# to nearest is symmetric, so x - this for x < 0 is -(|x| + this).
_BELOW_HALF = 0.5 - 2.0**-54

# exceeds reads arrays up to this size as a list
_FEW_ENTRIES = 32


def round_half_away(x, out=None):
    """Round to nearest integer, ties away from zero.  Works on arrays, in
    place with out=x.  Exact for every double."""
    return np.trunc(np.add(x, np.copysign(_BELOW_HALF, x), out=out), out=out)


def exceeds(arr: np.ndarray, lim: int) -> bool:
    """Whether an integer array has an entry outside [-lim, lim].  An array
    of another dtype raises TypeError: its bytes read as an integer are
    no magnitude.

    Reads the array's max and min as Python ints, with no |arr| copy, so a
    layer's weights are checked in place.  Up to _FEW_ENTRIES entries, as a
    decoder step's symbols, are read as a list: Python's max and min over
    it cost less than two numpy reductions.
    """
    if arr.dtype.kind not in "iu":
        raise TypeError(f"exceeds takes an integer array, got dtype {arr.dtype}")
    if arr.size <= _FEW_ENTRIES:
        vals = arr.ravel().tolist()
        return bool(vals) and (max(vals) > lim or min(vals) < -lim)
    return int(arr.max()) > lim or int(arr.min()) < -lim


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
    an int64 array for an array.  b and p follow the grid rule, b in
    [2, 16] and p in [0, 15].  Complex, non-finite or non-numeric (text,
    bytes, boolean) input raises ValueError.
    """
    if not 2 <= b <= 16:
        raise ValueError(f"bit depth must be at least 2 and at most 16, got {b}")
    if not 0 <= p <= 15:
        raise ValueError(f"exponent must lie in [0, 15], got {p}")
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError("activation must be real, got a complex array")
    if x.dtype.kind not in "iuf":  # astype would parse text and read bools as 0, 1
        raise ValueError(f"activation must be numeric, got dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    if not np.isfinite(x).all():
        raise ValueError("activation contains non-finite values")
    lim = (1 << (b - 1)) - 1
    # clamped before the scaling, which a large finite x would overflow:
    # +-lim 2^-p scales to +-lim exactly, and rounding keeps what lies
    # between them within +-lim
    scale = math.ldexp(1.0, p)
    top = lim / scale
    q = round_half_away(np.minimum(np.maximum(x, -top), top) * scale).astype(np.int64)
    return q if q.ndim else int(q)


def _read_only(a):
    """A read-only copy of array a."""
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
    shift exponents, a 1-D integer sequence.  Requantization shifts
    channel j right by k_j + p_in - p_out, at most MAX_RIGHT_SHIFT: it
    scales the accumulator by scale, 2^-shift in float64, and rounds half
    away from zero, exact at every shift.
    """

    n_i: int
    p_in: int
    p_out: int
    k: np.ndarray

    def __post_init__(self):
        _check_grid(self.n_i, self.p_in, self.p_out)
        k = np.asarray(self.k)
        # the int64 cast below would truncate a fractional shift and read
        # a bool as 0 or 1
        if k.ndim != 1 or k.dtype.kind not in "iu":
            raise ValueError(
                f"channel shifts must be a 1-D integer sequence, got {k.dtype}, shape {k.shape}"
            )
        k_max = MAX_RIGHT_SHIFT - self.p_in + self.p_out
        if k.size and not (k.min() >= 0 and k.max() <= k_max):
            raise ValueError(f"channel shifts must lie in [0, {k_max}]")
        # read-only: shift and scale are cached from it
        object.__setattr__(self, "k", _read_only(k.astype(np.int64, copy=False)))

    @cached_property
    def shift(self) -> np.ndarray:
        """Per-channel requantization right shift k_j + p_in - p_out."""
        return self.k + (self.p_in - self.p_out)

    @cached_property
    def scale(self) -> np.ndarray:
        """2^-shift as a read-only float64 (n,) row, to broadcast over the
        channels of a (..., n) accumulator."""
        return _read_only(np.ldexp(1.0, -self.shift))


def accumulator_bound(w_q, b_q, n_i: int) -> np.ndarray:
    """Per-channel worst-case |accumulator|: sum|w| * (2^(n_i-1)-1) + |b|.

    w_q is (..., n) integers of any width, int16 as a layer holds them, and
    b_q is (n,).  The sign-matched extreme input attains the bound, and it
    bounds every partial sum in every summation order.  |w| is taken in
    int32 for weights of 16 bits or fewer, half the copy int64 would take,
    and in int64 for wider ones; either way int16 -32768 has its magnitude.
    The sums and the bound are int64.
    """
    w = np.asarray(w_q)
    w = w.reshape(-1, w.shape[-1])
    abs_dt = np.int32 if w.dtype.kind in "iu" and w.dtype.itemsize <= 2 else np.int64
    w_sum = np.abs(w, dtype=abs_dt).sum(axis=0, dtype=np.int64)
    x_max = (1 << (n_i - 1)) - 1
    return w_sum * x_max + np.abs(b_q)


def shifted_bound(w_q, b_q, spec: LayerQuantSpec) -> np.ndarray:
    """Per-channel worst case of the 32-bit register: accumulator_bound,
    times 2^-shift_j where requantize shifts channel j left.  float64, so
    no shift wraps it: exact below 2^53, ordered right beyond."""
    acc = accumulator_bound(w_q, b_q, spec.n_i).astype(np.float64)
    return np.ldexp(acc, np.maximum(-spec.shift, 0))


@dataclass(frozen=True, eq=False)
class QConvLayer:
    """Quantized convolution layer: int16 weights, wide-int bias.

    Weights and bias must be integer arrays, with a float layer's geometry
    (tensors.check_layer_geometry); a float array is refused, not
    truncated.  Weights of another integer type are range-checked, then
    narrowed to int16; int16 weights, such as a loaded layer's views of
    the model blob, are kept as they are.  Either way -32768 is refused
    like any other entry outside +-INT16_MAX.  Construction enforces the
    static overflow bound, so every layer, built or loaded, accumulates and
    requantizes in 32 bits for any input within its n_i bits
    (shifted_bound), and causality: a masked layer has zero weights at
    every tap that causal_mask zeroes.  The layer holds w_q and b_q as
    read-only views, so both hold for its lifetime unless the caller
    writes to the arrays it passed in.
    """

    w_q: np.ndarray  # (m, K, K, n) int16, entries within +-INT16_MAX
    b_q: np.ndarray  # (n,) int64
    spec: LayerQuantSpec
    mask: bool = False

    def __post_init__(self):
        w, b = np.asarray(self.w_q), np.asarray(self.b_q)
        if w.dtype.kind not in "iu" or b.dtype.kind not in "iu":
            raise ValueError(f"weights and bias must be integer arrays, got {w.dtype}, {b.dtype}")
        check_layer_geometry(w, b)
        if self.spec.k.shape != b.shape:
            # one shift would broadcast over every channel, and a saved
            # model would not load
            raise ShapeError(f"{self.spec.k.size} channel shifts for {b.size} output channels")
        # checked before the narrowing, which would wrap what lies outside
        acc_max = (1 << (ACCUM_BITS - 1)) - 1
        if exceeds(w, INT16_MAX):
            raise WeightRangeError("quantized weights exceed int16 range")
        if exceeds(b, acc_max):
            raise WeightRangeError("quantized bias exceeds accumulator range")
        # read-only views: a write through the layer would void the checks
        # below and the cached weight_matrix
        w, b = w.astype(np.int16, copy=False).view(), b.astype(np.int64, copy=False).view()
        w.flags.writeable = b.flags.writeable = False
        if self.mask and np.any(w[:, causal_mask(w.shape[1]) == 0]):
            raise ValueError("masked layer has non-zero weights at non-causal taps")
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


def derive_weight_shift(w, n_i: int = 16):
    """Maximum per-channel weight shift allowed by the accumulator budget.

    k_j = ACCUM_BITS - n_i - ceil(log2(sum |W_j|)), floored at 0.  An
    all-zero channel gets K_MAX (any shift works; the weights stay zero).
    w is one channel's weights as a 1-D sequence, giving an int, or a
    (T, n) matrix holding a channel in each column, giving n shifts as an
    int64 array.
    """
    if ACCUM_BITS <= n_i:
        raise ValueError("accumulator must be wider than the input")
    w = np.asarray(w, dtype=np.float64)
    one = w.ndim == 1
    # one weight past 2^(ACCUM_BITS-n_i) makes the shift 0 on its own: the
    # clip moves no shift, and no column sum can overflow float64
    a = np.abs(w.reshape(-1, 1) if one else w)
    np.minimum(a, 2.0 ** (ACCUM_BITS - n_i), out=a)
    s = a.sum(axis=0)
    frac, e = np.frexp(s)
    e = e.astype(np.int64)
    # A float sum of T non-negative terms lies within a relative T 2^-53 of
    # the exact sum, in any order: ceil(log2) of the exact sum is e (frac in
    # (0.5, 1)) unless a power of two lies that close (tol is 4 times as
    # wide).  There fsum decides;
    # it is correctly rounded, so its ceil(log2) can only be wrong when it
    # lands exactly on a power of two, which exact rationals settle.
    tol = len(a) * 2.0**-51
    for j in np.flatnonzero((s > 0) & ((frac <= 0.5 + tol) | (frac >= 1.0 - tol))):
        vals = a[:, j].tolist()
        exact = math.fsum(vals)
        if math.frexp(exact)[0] == 0.5:
            exact = sum(map(Fraction, vals))
        e[j] = ceil_log2(exact)
    k = np.where(s > 0, np.maximum(ACCUM_BITS - n_i - e, 0), K_MAX)
    return int(k[0]) if one else k


def adjust_shift_for_bias(k, b, p: int):
    """Reduce channel shifts so the bias also fits the accumulator budget.

    Applied only for non-zero bias: k' = min(ACCUM_BITS-1-p-max(ceil(log2|b|),0), k) - 1.
    Elementwise: an int for a scalar k and b, an int64 array for arrays.
    """
    k = np.asarray(k, dtype=np.int64)
    # |b| = frac 2^e exactly, frac in [0.5, 1) or 0 for b = 0: ceil(log2|b|)
    # is e, or e - 1 where |b| is a power of two
    frac, e = np.frexp(np.abs(np.asarray(b, dtype=np.float64)))
    lb = np.maximum(e.astype(np.int64) - (frac == 0.5), 0)
    out = np.where(frac == 0, k, np.minimum(ACCUM_BITS - 1 - p - lb, k) - 1)
    return int(out) if out.ndim == 0 else out


def _scale_channels(w, b, k, p_in: int, n_i: int):
    """Channels at weight shifts k: w (T, c) times 2^k and b (c,) times
    2^(k+p_in), rounded half away from zero, as int32 w_q and int64 b_q.  Also,
    per channel: whether a weight lies past int16, sum |w_q|, and whether
    the worst-case accumulator (accumulator_bound) fits ACCUM_BITS bits.

    Scaled weights are clipped to one past int16, and the bias before and
    after its scaling to one past the accumulator range, since the scaling
    and the casts could not hold larger values; a clipped channel fails
    its check all the same.

    The weights take one float64 buffer of w's size, and every pass over
    them but the int32 cast runs in place in it: it holds |w| 2^k, which
    rounds half away from zero as trunc(|w| 2^k + _BELOW_HALF) (see
    round_half_away), is clipped, gives the channel sums and maxima, and
    takes w's signs back.  The float sums are exact: they add integers of
    at most 2^15 over T rows, below 2^53 for any T < 2^38.
    """
    acc_max = (1 << (ACCUM_BITS - 1)) - 1
    q = np.abs(w)
    np.multiply(q, np.ldexp(1.0, k), out=q)
    np.trunc(np.add(q, _BELOW_HALF, out=q), out=q)
    np.minimum(q, INT16_MAX + 1, out=q)
    w_sum = q.sum(axis=0).astype(np.int64)
    wide = q.max(axis=0, initial=0) > INT16_MAX
    w_q = np.copysign(q, w, out=q).astype(np.int32)
    top = float(acc_max + 1)
    bq = round_half_away(np.clip(b, -top, top) * np.ldexp(1.0, k + p_in))
    b_q = np.clip(bq, -top, top).astype(np.int64)
    fits = accumulator_bound(w_sum, b_q, n_i) <= acc_max
    return w_q, b_q, wide, w_sum, fits


def quantize_layer(
    layer: ConvLayerF,
    n_i: int,
    p_in: int,
    p_out: int,
    name: str = "layer",
) -> QConvLayer:
    """Quantize one convolution layer with per-channel weight shifts.

    Weights and bias are scaled and rounded without clipping.  If a channel's
    scaled weights do not fit int16, the shift is capped at K_MAX, then
    lowered one step at a time until they fit; a channel that does not fit
    at shift 0 is rejected.  As a final safety net the shift is lowered
    until the worst-case accumulator value (sign-matched extreme input plus
    bias) provably fits ACCUM_BITS bits.  Shifts are
    capped so that requantize never shifts right by more than
    MAX_RIGHT_SHIFT.  A left-shifting channel past shifted_bound is refused:
    whatever k is, that bound is about sum|W| x_max 2^(p_out-p_in) + |bias| 2^p_out.

    Each step is one pass over the layer's (m*K*K, n) weight matrix, with
    an exact sum for a column whose float sum |W| lies within its error
    bound of a power of two.  Only the lowering steps loop, over the
    channels that still fail, usually none.  Each channel gets the shift,
    weights and bias it would get quantized on its own, and of several
    failing channels the lowest is reported.
    """
    # checked before use: a huge p_in would overflow the bias scaling below
    _check_grid(n_i, p_in, p_out)
    m, kk, _, n = layer.weights.shape
    w = layer.weights.reshape(m * kk * kk, n)
    b = layer.bias
    eq14_budget = 1 << (ACCUM_BITS - n_i)

    k = np.minimum(derive_weight_shift(w, n_i), MAX_RIGHT_SHIFT - p_in + p_out)
    k = np.maximum(adjust_shift_for_bias(k, b, p_in), 0)
    w_q, b_q, wide, w_sum, fits = _scale_channels(w, b, k, p_in, n_i)

    def lower(cols, k_new):
        k[cols] = k_new
        out = _scale_channels(w[:, cols], b[cols], k_new, p_in, n_i)
        w_q[:, cols], b_q[cols], wide[cols], w_sum[cols], fits[cols] = out

    # A wide channel drops to the K_MAX cap first, then one step at a
    # time; rounding can push a channel a hair past the static budget, so
    # the shift also drops until the worst-case accumulator provably fits.
    # A lower shift never makes a channel wide again.
    while (cols := np.flatnonzero((k > 0) & (wide | (w_sum > eq14_budget) | ~fits))).size:
        lower(cols, np.where(wide[cols], np.minimum(k[cols] - 1, K_MAX), k[cols] - 1))
    failed = np.flatnonzero(wide | ~fits)
    if failed.size:
        j = int(failed[0])
        if wide[j]:
            raise WeightRangeError(
                f"{name}: channel {j}: weight magnitude "
                f"{np.abs(w[:, j]).max():.6g} not representable in int16 "
                f"at shift {k[j]}"
            )
        raise WeightRangeError(f"{name}: channel {j}: cannot satisfy accumulator bound")

    spec = LayerQuantSpec(n_i=n_i, p_in=p_in, p_out=p_out, k=k)
    try:
        return QConvLayer(w_q=w_q.reshape(m, kk, kk, n), b_q=b_q, spec=spec, mask=layer.mask)
    except WeightRangeError as e:
        raise WeightRangeError(f"{name}: {e}") from e
