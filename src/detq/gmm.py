"""Fixed-point Gaussian-mixture CDF tables.

Everything downstream of the checked-in Phi table is exact integer
arithmetic, so identical GmmParams bits produce identical CdfTable bits on
any platform.  Probabilities are Q16 (total 2^16), mixture weights Q15
(total 2^15).

GmmParams holds a field's priors as prior rows in coding order: one
(3 kinds, 3 components, n) int64 array, one row per element, position,
then channel, checked once where it is built.  The stack's head writes a
decoder step's rows in that order, and build_cdf_table evaluates all rows
in one vectorized pass, one table per row in row order, which is the order
the range coder reads; the (3, 3, c, h, w) fields view serves whole-field
readers and the canonical bytes.  The build works in the layout the coder
reads, (N rows, S symbols): the mixture CDF is written into the inner
columns of the one (N, S+1) table array, and each row's frequencies are
apportioned (apportion, along the last axis) and summed along the row.

A CdfTable is one checked field of tables over one symbol range: an
(N, S+1) int64 array checked once, in its constructor, whoever builds it.
Its interval gather (symbols -> (lo, hi)) is the one answer to "how
probable is this symbol": the range coder codes those intervals and the
calibration rate sums -log2 of them, so both read the same tables.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, Z_LIMIT

__all__ = [
    "CDF_TOTAL",
    "WEIGHT_TOTAL",
    "GmmParams",
    "CdfTable",
    "sigma_min_for",
    "apportion",
    "build_cdf_table",
]

CDF_TOTAL = 1 << 16
WEIGHT_TOTAL = 1 << 15

_PHI = np.asarray(PHI_TABLE_Q16, dtype=np.int32)
_SPAN = Z_LIMIT << GRID_FRAC_BITS  # 384
# GmmParams keeps |means| and scales below 2^48 and scale_exp at most 15, and
# build_cdf_table symbols below 2^38 in magnitude, so the boundaries it
# evaluates, t = (v << scale_exp) - 2^(scale_exp - 1) for v_min < v <= v_max,
# are below 2^53 in magnitude.  The int64 intermediates of _mixture_cdf_q16's
# numerator are then, at worst, in magnitude:
#   t << 7                                  < 2^60
#   mean << 7                               < 2^55
#   (2 _SPAN + 1) scale                     < 2^58
#   (2 _SPAN + 1) scale - (mean << 7)       < 2^58 + 2^55
#   (t << 7) + that, less the 0/1 mask      < 2^60 + 2^58 + 2^55 + 1 < 2^61
#   the divisor, scale << 1                 < 2^49
# all below 2^63
_PARAM_LIMIT = 1 << 48
_MAX_SCALE_EXP = 15
_SYMBOL_LIMIT = 1 << 38
_CF_ENDS = np.array([0, CDF_TOTAL])


def sigma_min_for(scale_exp: int) -> int:
    """Smallest admissible fixed-point scale: 2^-4 in real units."""
    return max(1, 1 << max(scale_exp - 4, 0))


def _phi_at(idx):
    """Phi at table indices idx (z + _SPAN), clamped to +-6; int32."""
    return _PHI.take(idx, mode="clip")


def _check_rows(rows, scale_exp):
    """The one check of prior rows: ValueError unless every row's weights
    lie in [0, 2^15] and sum to 2^15, its scales are positive and its means
    and scales below 2^48 in magnitude, and 1 <= scale_exp <= 15."""
    if not 1 <= scale_exp <= _MAX_SCALE_EXP:
        raise ValueError(f"scale_exp must lie in [1, {_MAX_SCALE_EXP}]")
    # per kind, the extremes with 1 and 0 folded in, which decide no rule and
    # give an empty field extremes: one reduction each for all three kinds
    lo = rows.min(axis=(1, 2), initial=1).tolist()
    hi = rows.max(axis=(1, 2), initial=0).tolist()
    # weights in [0, 2^15] sum exactly; unbounded, three could wrap to 2^15
    if lo[0] < 0 or hi[0] > WEIGHT_TOTAL or np.count_nonzero(rows[0].sum(axis=0) != WEIGHT_TOTAL):
        raise ValueError("mixture weights must lie in [0, 2^15] and sum to 2^15")
    if lo[2] < 1:
        raise ValueError("scales must be positive")
    if lo[1] <= -_PARAM_LIMIT or max(hi[1:]) >= _PARAM_LIMIT:
        raise ValueError("means and scales must be below 2^48 in magnitude")


@dataclass(frozen=True, eq=False, init=False)
class GmmParams:
    """3-component mixture parameters of a field, as prior rows in coding order.

    rows is one read-only (3 kinds, 3 components, n) int64 array, kinds
    weights, means and scales: one row per element of the field, position,
    then channel.  A field's first axis is its channel axis, so rows lists
    the field with that axis moved innermost: a (c, h, w) field's rows are
    its positions in (h, w) C order, each with its c channels, the order the
    coder reads.  fields is the (3, 3, *field_shape) view of the same rows,
    for whole-field readers, and weights, means and scales its kinds.

    weights: Q15, summing to 2^15 over the components; means and scales are
    fixed point at 2^-scale_exp, below 2^48 in magnitude, scales positive;
    1 <= scale_exp <= 15.  Every GmmParams is checked once, where it is
    built: by the keyword constructor, which copies the (3, *field_shape)
    component arrays into rows, or by from_rows, which takes rows as they
    are.  take gathers rows already checked.
    """

    rows: np.ndarray = field(repr=False)
    field_shape: tuple
    scale_exp: int

    def __init__(self, weights, means, scales, scale_exp: int):
        parts = [np.asarray(a, dtype=np.int64) for a in (weights, means, scales)]
        if len({a.shape for a in parts}) > 1 or parts[0].shape[:1] != (3,):
            raise ValueError("expected matching (3, ...) component arrays")
        shape = parts[0].shape[1:]
        if shape:  # the channel axis innermost
            parts = [np.moveaxis(a, 1, -1) for a in parts]
        rows = np.stack(parts).reshape(3, 3, -1)  # a copy: the caller's arrays stay theirs
        _check_rows(rows, scale_exp)
        self._own(rows, shape, scale_exp)

    @classmethod
    def from_rows(cls, rows: np.ndarray, field_shape, scale_exp: int) -> GmmParams:
        """GmmParams of (3, 3, n) int64 rows of a field of n elements, checked
        here and kept as they are, no copy: they become read-only."""
        if rows.dtype != np.int64 or rows.shape != (3, 3, math.prod(field_shape)):
            raise ValueError(f"expected (3, 3, {math.prod(field_shape)}) int64 rows")
        _check_rows(rows, scale_exp)
        params = cls.__new__(cls)
        params._own(rows, field_shape, scale_exp)
        return params

    def take(self, index) -> GmmParams:
        """The rows at a 1-D index array, in its order, as a field of their
        own: gathered from checked rows, so not checked again."""
        params = GmmParams.__new__(GmmParams)
        params._own(self.rows[:, :, index], np.shape(index), self.scale_exp)
        return params

    def _own(self, rows, field_shape, scale_exp):
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "field_shape", tuple(field_shape))
        object.__setattr__(self, "scale_exp", scale_exp)

    @property
    def fields(self) -> np.ndarray:
        """The (3, 3, *field_shape) view of rows."""
        s = self.field_shape
        if not s:
            return self.rows.reshape(3, 3)
        return np.moveaxis(self.rows.reshape(3, 3, *s[1:], s[0]), -1, 2)

    weights = property(lambda self: self.fields[0])
    means = property(lambda self: self.fields[1])
    scales = property(lambda self: self.fields[2])

    def tobytes(self) -> bytes:
        """Canonical bytes: int64 scale_exp, then weights, means and scales,
        each over the field in C order."""
        return np.int64(self.scale_exp).tobytes() + self.fields.tobytes()


def _mixture_cdf_q16(t_fp, weights, means, scales):
    """Weighted Phi at fixed-point boundary values (component axis first).

    Each component's z = ((t - mean) << 6) / scale is rounded half away
    from zero, clamped to +-6 and looked up in the Phi table; the Q15
    weighting is removed with round-half-to-even so the mixture CDF stays
    exactly antisymmetric for symmetric parameters (half-up would round
    mirrored tie values up on both sides).  Returns int32.
    """
    # for num = (t - mean) << 6 and den = scale, (2 num + den - [t < mean])
    # // 2 den is z, num / den rounded half away from zero: the floor rounds
    # ties up, and the 1 taken off below zero rounds them down there; 2 _SPAN
    # den more in the numerator makes it z + _SPAN, z's index in the table,
    # which take's clip clamps to +-6.  t and mean are shifted on their own
    # small arrays, so the full (components, rows, boundaries) field takes one
    # add, one compare, one subtract and the division (_PARAM_LIMIT bounds
    # each), and goes once the lookup has read it
    t = t_fp << (GRID_FRAC_BITS + 1)
    mu = means << (GRID_FRAC_BITS + 1)
    num = t + (scales * (2 * _SPAN + 1) - mu)
    num -= t < mu
    num //= scales << 1
    phi = _phi_at(num)
    del num
    # Phi <= 65535 and the weights sum to 2^15, so int32 holds the mixture
    phi *= np.asarray(weights, dtype=np.int32)
    mix = phi.sum(axis=0, dtype=np.int32)
    del phi
    # (mix + 2^14 - 1 + the quotient's low bit) >> 15: ties to even
    odd = mix >> 15
    odd &= 1
    mix += odd
    mix += (WEIGHT_TOTAL >> 1) - 1
    mix >>= 15
    return mix


@dataclass(frozen=True, eq=False, init=False)
class CdfTable:
    """A field of N cumulative-frequency tables over one range [v_min, v_max].

    cf is a read-only (N, S+1) int64 array, one row per element; every row
    has cf[0] = 0, cf[S] = 2^16 and strictly increases (every symbol gets
    frequency >= 1).  The constructor copies any integer array, checks all
    rows at once and takes a flat sequence as a one-row field.  Iterating
    a field yields its rows as one-row tables.
    """

    v_min: int
    v_max: int
    cf: np.ndarray

    def __init__(self, v_min: int, v_max: int, cf):
        v_min, v_max = operator.index(v_min), operator.index(v_max)
        cf = np.asarray(cf)
        if cf.dtype.kind not in "iu":
            raise TypeError("cumulative frequencies must be integers")
        cf = np.array(cf, dtype=np.int64, ndmin=2)
        if v_min > v_max:
            raise ValueError("empty symbol range")
        s = v_max - v_min + 1
        if cf.ndim != 2 or cf.shape[1] != s + 1:
            raise ValueError("cumulative array length must be range size + 1")
        # count_nonzero: no slower than .any() on the decoder's 1-4-row step
        # fields or on whole fields, and faster than np.any
        if np.count_nonzero(cf[:, ::s] != _CF_ENDS):  # columns 0 and S
            raise ValueError("cumulative frequencies must span [0, 2^16]")
        if np.count_nonzero(cf[:, 1:] <= cf[:, :-1]):
            raise ValueError("cumulative frequencies must be strictly increasing")
        cf.flags.writeable = False
        object.__setattr__(self, "v_min", v_min)
        object.__setattr__(self, "v_max", v_max)
        object.__setattr__(self, "cf", cf)

    def __len__(self) -> int:
        return len(self.cf)

    def __iter__(self):
        # a checked field's rows are checked: each is a read-only view
        for i in range(len(self.cf)):
            row = copy.copy(self)
            object.__setattr__(row, "cf", self.cf[i : i + 1])
            yield row

    def intervals(self, symbols):
        """(cum_lo, cum_hi) int64 arrays: row i's interval for symbols[i].

        Symbols of a non-integer dtype are refused, not truncated; an empty
        sequence is an empty one of any dtype.
        """
        v = np.asarray(symbols)
        if v.size and v.dtype.kind not in "iu":
            raise ValueError(f"symbols must be integers, got dtype {v.dtype}")
        v = v.astype(np.int64, copy=False)
        if v.shape != (len(self.cf),):
            got = f"{v.size} symbols" if v.ndim == 1 else f"symbols of shape {v.shape}"
            raise ValueError(f"{got} but {len(self.cf)} tables; one table per symbol")
        outside = (v < self.v_min) | (v > self.v_max)
        if outside.any():
            i = outside.argmax()
            raise ValueError(f"symbol {v[i]} at {i} outside [{self.v_min}, {self.v_max}]")
        rows, cols = np.arange(len(v)), v - self.v_min
        return self.cf[rows, cols], self.cf[rows, cols + 1]

    def interval(self, symbol: int):
        """(cum_lo, cum_hi) of a symbol under a one-row table, as ints."""
        (row,) = self.cf
        if not self.v_min <= symbol <= self.v_max:
            raise ValueError(f"symbol {symbol} outside [{self.v_min}, {self.v_max}]")
        i = symbol - self.v_min
        return int(row[i]), int(row[i + 1])

    def tobytes(self) -> bytes:
        """Row by row: v_min, v_max and cf as little-endian int64."""
        ends = np.array([self.v_min, self.v_max], np.int64)
        return np.insert(self.cf, [0, 0], ends, axis=1).astype("<i8").tobytes()


def apportion(base, rem, target: int):
    """Largest-remainder rounding along the last axis.

    base holds the floored shares and rem their remainders as non-negative
    integers that order and tie as the remainders do (float remainders pass
    their ranks); a row of n shares needs n * rem below 2^63.  The
    target - sum(base) units a row misses, 0 to n, go one each to its
    largest remainders, ties to the lower index.  A row missing more than
    n units or fewer than none gets between 0 and n of them, so it still
    misses target.
    """
    n = rem.shape[-1]
    # keys i - n rem are unique in a row and order its shares by remainder,
    # then index.  The `left` smallest win a unit: those below the key at
    # place `left` of the row sorted, where a row missing all n units finds
    # n, above every key; the places are read from the flat sorted array
    keys = rem.reshape(-1, n) * -n
    keys += np.arange(n)
    ranked = np.empty((len(keys), n + 1), keys.dtype)
    ranked[:, n] = n
    ranked[:, :n] = keys
    ranked[:, :n].sort()
    at = target - np.add.reduce(base, -1, np.intp).reshape(-1, 1)
    at += np.arange(0, ranked.size, n + 1).reshape(-1, 1)
    bar = ranked.take(at, mode="clip")
    del ranked
    won = keys < bar
    del keys
    return base + won.reshape(base.shape)


def build_cdf_table(params: GmmParams, v_min: int, v_max: int) -> CdfTable:
    """Monotone integer CDF tables, one per row of params, in row order.

    All rows are evaluated in one vectorized pass, in the (N rows, S + 1)
    layout the coder reads: the mixture CDF fills the inner columns of the
    one table array, and each row's frequencies are apportioned and summed
    along the row, on contiguous memory.  Symbols must lie below 2^38 in
    magnitude (see _PARAM_LIMIT).  Tail mass beyond [v_min, v_max] is
    folded into the boundary symbols; frequencies are renormalized to total
    2^16 with a floor of 1 per symbol via largest-remainder apportionment.
    """
    if not -_SYMBOL_LIMIT < v_min <= v_max < _SYMBOL_LIMIT:
        raise ValueError("symbol range must be non-empty and below 2^38 in magnitude")
    s = v_max - v_min + 1
    if s > CDF_TOTAL:
        raise ValueError(f"symbol range {s} exceeds the 2^16 frequency total")
    e = params.scale_exp
    half = 1 << (e - 1)
    # the S - 1 inner boundaries; the outer two columns hold the folded
    # tails, so the table's ends are 0 and 2^16 whatever the mixture, and
    # are not evaluated
    lo = ((v_min + 1) << e) - half
    bounds = np.arange(lo, lo + ((s - 1) << e), 1 << e, dtype=np.int64)
    # the table array, (N rows, S + 1): its inner columns take the mixture
    # CDF, (components, rows, 1) parameters against the boundaries
    mix = _mixture_cdf_q16(bounds, *params.rows[:, :, :, None])
    cf = np.zeros((len(mix), s + 1), dtype=np.int64)
    cf[:, s] = CDF_TOTAL
    cf[:, 1:s] = mix
    del mix
    # each row's masses times target, in int64 as they reach 2^32 (a row's
    # masses sum to 2^16): the floored shares and, in the table's own
    # columns until the cumulative sum overwrites them, the remainders
    target = CDF_TOTAL - s
    raw = cf[:, 1:] - cf[:, :-1]
    raw *= target
    rem = np.bitwise_and(raw, CDF_TOTAL - 1, out=cf[:, 1:])
    raw >>= 16
    freq = apportion(raw, rem, target)
    del raw, rem
    freq += 1
    np.add.accumulate(freq, axis=1, out=cf[:, 1:])
    return CdfTable(v_min, v_max, cf)
