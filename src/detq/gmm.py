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
from dataclasses import dataclass

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

_PHI = np.asarray(PHI_TABLE_Q16, dtype=np.int64)
_SPAN = Z_LIMIT << GRID_FRAC_BITS  # 384
# GmmParams keeps |means| and scales below 2^48 and scale_exp at most 15, so
# for symbols below 2^38 in magnitude a boundary t is below 2^54 and the Q6
# argument (t - mean) << 6 below 2^61: int64 holds it and the 2|num| + den
# of _div_round_half_away
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


def _div_round_half_away(num, den):
    """Elementwise num/den rounded half away from zero; den > 0 integers."""
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    q = (2 * np.abs(num) + den) // (2 * den)
    return np.where(num < 0, -q, q)


def std_normal_cdf_fixed(z):
    """Phi(z) in Q16 by direct lookup; z is fixed point on the table's Q6
    grid and is clamped to +-6."""
    t = np.minimum(np.maximum(np.asarray(z, dtype=np.int64), -_SPAN), _SPAN) + _SPAN
    out = _PHI[t]
    return out if out.ndim else int(out)


@dataclass(frozen=True, eq=False)
class GmmParams:
    """3-component mixture parameters, component axis first.

    weights: Q15, summing to 2^15 along axis 0; means and scales are fixed
    point at 2^-scale_exp, below 2^48 in magnitude, scales positive;
    1 <= scale_exp <= 15.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    scale_exp: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.int64)
        mu = np.asarray(self.means, dtype=np.int64)
        sg = np.asarray(self.scales, dtype=np.int64)
        if not (w.shape == mu.shape == sg.shape) or w.shape[0] != 3:
            raise ValueError("expected matching (3, ...) component arrays")
        if w.size and (np.any(w < 0) or np.any(w.sum(axis=0) != WEIGHT_TOTAL)):
            raise ValueError("mixture weights must be >= 0 and sum to 2^15")
        if sg.size and np.any(sg < 1):
            raise ValueError("scales must be positive")
        if exceeds(mu, _PARAM_LIMIT - 1) or exceeds(sg, _PARAM_LIMIT - 1):
            raise ValueError("means and scales must be below 2^48 in magnitude")
        if not 1 <= self.scale_exp <= _MAX_SCALE_EXP:
            raise ValueError(f"scale_exp must lie in [1, {_MAX_SCALE_EXP}]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "scales", sg)

    @property
    def field_shape(self):
        return self.weights.shape[1:]

    def tobytes(self) -> bytes:
        """Canonical byte serialization, for bit-identity comparisons."""
        head = np.int64(self.scale_exp).tobytes()
        return head + b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (self.weights, self.means, self.scales)
        )


def _mixture_cdf_q16(t_fp, weights, means, scales):
    """Weighted Phi at fixed-point boundary values (component axis first).

    The Q15 weighting is removed with round-half-to-even so the mixture CDF
    stays exactly antisymmetric for symmetric parameters (half-up would
    round mirrored tie values up on both sides).
    """
    t = np.asarray(t_fp, dtype=np.int64)
    z = _div_round_half_away((t - means) << GRID_FRAC_BITS, scales)
    phi = std_normal_cdf_fixed(z)
    mix = (np.asarray(phi) * weights).sum(axis=0)
    out = (mix + (WEIGHT_TOTAL >> 1)) >> 15
    tie = (mix & (WEIGHT_TOTAL - 1)) == (WEIGHT_TOTAL >> 1)
    return out - (tie & (out & 1))


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
        # count_nonzero: the cheapest reduction on the decoder's one-row fields
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
            raise ValueError(
                f"{v.size} symbols but {len(self.cf)} tables; one table per symbol"
            )
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
    half = 1 << (params.scale_exp - 1)
    bounds = (
        (np.arange(v_min, v_max + 2, dtype=np.int64) << params.scale_exp) - half
    )
    w, mu, sg = (
        a.reshape(3, 1, -1) for a in (params.weights, params.means, params.scales)
    )
    cum = _mixture_cdf_q16(bounds[:, None], w, mu, sg)  # (S+1, N)
    cum[0] = 0
    cum[-1] = CDF_TOTAL
    raw = np.diff(cum, axis=0)  # each column sums to CDF_TOTAL
    target = CDF_TOTAL - s
    freq = 1 + apportion(raw * target // CDF_TOTAL, raw * target % CDF_TOTAL, target)
    cf = np.zeros((freq.shape[1], s + 1), dtype=np.int64)
    cf[:, 1:] = np.cumsum(freq, axis=0).T
    return CdfTable(v_min, v_max, cf)
