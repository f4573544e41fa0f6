"""Fixed-point Gaussian-mixture CDF tables.

Everything downstream of the checked-in Phi table is exact integer
arithmetic, so identical GmmParams bits produce identical CdfTable bits on
any platform.  Probabilities are Q16 (total 2^16), mixture weights Q15
(total 2^15).  build_cdf_table takes a whole parameter field and evaluates
it in one vectorized pass.

A CdfTable is one checked field of tables over one symbol range: an
(N, S+1) int64 array checked once, in its constructor, whoever builds it.
Its interval gather (symbols -> (lo, hi)) is the one answer to "how
probable is this symbol": the range coder codes those intervals and the
calibration rate sums -log2 of them, so both read the same tables.
"""

from __future__ import annotations

import copy
import hashlib
import operator
from dataclasses import dataclass, field

import numpy as np

from .phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, Z_LIMIT
from .quantize import exceeds

__all__ = [
    "CDF_TOTAL",
    "WEIGHT_TOTAL",
    "GmmParams",
    "CdfTable",
    "sigma_min_for",
    "apportion",
    "table_digest",
    "std_normal_cdf_fixed",
    "build_cdf_table",
]

CDF_TOTAL = 1 << 16
WEIGHT_TOTAL = 1 << 15

_PHI = np.asarray(PHI_TABLE_Q16, dtype=np.int32)
_SPAN = Z_LIMIT << GRID_FRAC_BITS  # 384
# GmmParams keeps |means| and scales below 2^48 and scale_exp at most 15, so
# for symbols below 2^38 in magnitude a boundary t is below 2^54, twice the
# Q6 argument, (t - mean) << 7, below 2^62, and the numerator of
# _mixture_cdf_q16's quotient, that plus (2 _SPAN + 1) den < 2^58, inside int64
_PARAM_LIMIT = 1 << 48
_MAX_SCALE_EXP = 15
_SYMBOL_LIMIT = 1 << 38
_CF_ENDS = np.array([0, CDF_TOTAL])


def table_digest() -> str:
    """SHA-256 of the table's little-endian uint16 encoding."""
    raw = b"".join(int(v).to_bytes(2, "little") for v in PHI_TABLE_Q16)
    return hashlib.sha256(raw).hexdigest()


def sigma_min_for(scale_exp: int) -> int:
    """Smallest admissible fixed-point scale: 2^-4 in real units."""
    return max(1, 1 << max(scale_exp - 4, 0))


def std_normal_cdf_fixed(z):
    """Phi(z) in Q16 by direct lookup; z is fixed point on the table's Q6
    grid and is clamped to +-6."""
    # clamp before the offset, so no int64 z wraps; the result stays int64
    out = _phi_at(np.clip(np.asarray(z, dtype=np.int64), -_SPAN, _SPAN) + _SPAN)
    out = out.astype(np.int64)
    return out if out.ndim else int(out)


def _phi_at(idx):
    """Phi at table indices idx (z + _SPAN), clamped to +-6; int32."""
    return _PHI.take(idx, mode="clip")


@dataclass(frozen=True, eq=False)
class GmmParams:
    """3-component mixture parameters, component axis first.

    weights: Q15, summing to 2^15 along axis 0; means and scales are fixed
    point at 2^-scale_exp, below 2^48 in magnitude, scales positive;
    1 <= scale_exp <= 15.  They are the rows of fields, one int64 copy of
    shape (3 kinds, 3 components, *field_shape) made by the constructor.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    scale_exp: int
    fields: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parts = [np.asarray(a, dtype=np.int64) for a in (self.weights, self.means, self.scales)]
        if len({a.shape for a in parts}) > 1 or parts[0].shape[:1] != (3,):
            raise ValueError("expected matching (3, ...) component arrays")
        f = np.stack(parts)  # a copy: the caller's arrays stay theirs
        if np.any(f[0] < 0) or np.any(f[0].sum(axis=0) != WEIGHT_TOTAL):
            raise ValueError("mixture weights must be >= 0 and sum to 2^15")
        if np.any(f[2] < 1):
            raise ValueError("scales must be positive")
        if exceeds(f[1:], _PARAM_LIMIT - 1):
            raise ValueError("means and scales must be below 2^48 in magnitude")
        if not 1 <= self.scale_exp <= _MAX_SCALE_EXP:
            raise ValueError(f"scale_exp must lie in [1, {_MAX_SCALE_EXP}]")
        object.__setattr__(self, "fields", f)
        for name, row in zip(("weights", "means", "scales"), f):
            object.__setattr__(self, name, row)

    @property
    def field_shape(self):
        return self.fields.shape[2:]

    def tobytes(self) -> bytes:
        """Canonical bytes: int64 scale_exp, then weights, means and scales in C order."""
        return np.int64(self.scale_exp).tobytes() + self.fields.tobytes()


def _mixture_cdf_q16(t_fp, weights, means, scales):
    """Weighted Phi at fixed-point boundary values (component axis first).

    Each component's z = ((t - mean) << 6) / scale is rounded half away
    from zero, clamped to +-6 and looked up in the Phi table; the Q15
    weighting is removed with round-half-to-even so the mixture CDF stays
    exactly antisymmetric for symmetric parameters (half-up would round
    mirrored tie values up on both sides).  Returns int32.
    """
    # for num = (t - mean) << 6 and den = scale, (2 num + den + (num >> 63))
    # // 2 den is z, num / den rounded half away from zero: the floor rounds
    # ties up, and num >> 63, -1 below zero, rounds them down there; 2 _SPAN
    # den more in the numerator makes it z + _SPAN, z's index in the table,
    # which take's clip clamps to +-6
    num = np.subtract(t_fp, means, dtype=np.int64)
    num <<= GRID_FRAC_BITS + 1
    num += num >> 63
    num += scales * (2 * _SPAN + 1)
    num //= scales << 1
    phi = _phi_at(num)
    # Phi <= 65535 and the weights sum to 2^15, so int32 holds the mixture
    phi *= np.asarray(weights, dtype=np.int32)
    mix = phi.sum(axis=0, dtype=np.int32)
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
    """Largest-remainder rounding along axis 0.

    base holds the floored shares and rem their remainders; the
    target - sum(base) units still missing go one each to the largest
    remainders, ties to the lower index.
    """
    n = len(rem)
    rem = rem.reshape(n, -1)
    order = np.argsort(-rem, axis=0, kind="stable")
    # the first `left` places of each column's order win a unit; the inverse
    # permutation, one scatter, carries that back to the entries
    won = np.arange(n)[:, None] < (target - base.sum(axis=0)).reshape(-1)
    extra = np.empty_like(won)
    extra[order, np.arange(rem.shape[1])] = won
    return base + extra.reshape(base.shape)


def build_cdf_table(params: GmmParams, v_min: int, v_max: int) -> CdfTable:
    """Monotone integer CDF tables, one row per element of the field, in C order.

    All elements are evaluated in one vectorized pass; symbols must lie
    below 2^38 in magnitude (see _PARAM_LIMIT).  Tail mass beyond
    [v_min, v_max] is folded into the boundary symbols; frequencies are
    renormalized to total 2^16 with a floor of 1 per symbol via
    largest-remainder apportionment.
    """
    if not -_SYMBOL_LIMIT < v_min <= v_max < _SYMBOL_LIMIT:
        raise ValueError("symbol range must be non-empty and below 2^38 in magnitude")
    s = v_max - v_min + 1
    if s > CDF_TOTAL:
        raise ValueError(f"symbol range {s} exceeds the 2^16 frequency total")
    e = params.scale_exp
    half = 1 << (e - 1)
    bounds = np.arange((v_min << e) - half, ((v_max + 2) << e) - half, 1 << e, dtype=np.int64)
    cum = _mixture_cdf_q16(bounds[:, None], *params.fields.reshape(3, 3, 1, -1))  # (S+1, N)
    cum[0] = 0
    cum[-1] = CDF_TOTAL
    target = CDF_TOTAL - s
    # each column of raw sums to 2^16, so raw * target is below 2^32: the
    # difference is widened to int64 before the product, not by promotion
    raw = np.subtract(cum[1:], cum[:-1], dtype=np.int64)
    raw *= target
    freq = apportion(raw >> 16, raw & (CDF_TOTAL - 1), target)
    freq += 1
    cf = np.zeros((s + 1, freq.shape[1]), dtype=np.int64)
    np.cumsum(freq, axis=0, out=cf[1:])
    return CdfTable(v_min, v_max, cf.T)
