"""Fixed-point Gaussian-mixture probabilities and CDF tables.

Everything downstream of the checked-in Phi table is exact integer
arithmetic, so identical GmmParams bits produce identical CdfTable bits on
any platform.  Probabilities are Q16 (total 2^16), mixture weights Q15
(total 2^15).  Both the pmf and the CDF-table builder take a whole
parameter field and evaluate it in one vectorized pass.

A CdfTable holds its entries as a tuple of Python ints and checks them
once, in its constructor, whoever builds it; the range coder's lookups
(interval, and a bisect in symbol_for_cum) then read plain ints, with no
numpy object per symbol.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, TABLE_SHA256, Z_LIMIT
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
    "gmm_pmf_field",
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


def gmm_pmf_field(symbols, params: GmmParams):
    """Q16 probability of each integer symbol under its element's mixture.

    symbols is shaped like the parameter field (a 0-d field takes a scalar).
    """
    v = np.asarray(symbols, dtype=np.int64)
    if v.shape != params.field_shape:
        raise ValueError("symbol field shape must match the parameter field")
    half = 1 << (params.scale_exp - 1)
    fp = v << params.scale_exp
    w, mu, sg = params.weights, params.means, params.scales
    hi = _mixture_cdf_q16(fp[None] + half, w, mu, sg)
    lo = _mixture_cdf_q16(fp[None] - half, w, mu, sg)
    return hi - lo


@dataclass(frozen=True, eq=False, slots=True, init=False)
class CdfTable:
    """Cumulative frequencies over [v_min, v_max], total exactly 2^16.

    cf is a tuple of S+1 Python ints with cf[0] = 0, cf[S] = 2^16, strictly
    increasing (every symbol gets frequency >= 1).  The constructor takes
    any integer sequence, copies it into that tuple and checks the copy, so
    the coder's lookups read plain ints that are the checked entries.
    """

    v_min: int
    v_max: int
    cf: tuple

    def __init__(self, v_min: int, v_max: int, cf):
        # set each field once: the table is built per latent element
        v_min, v_max = operator.index(v_min), operator.index(v_max)
        cf = tuple(map(operator.index, cf))
        if v_min > v_max:
            raise ValueError("empty symbol range")
        if len(cf) != v_max - v_min + 2:
            raise ValueError("cumulative array length must be range size + 1")
        if cf[0] != 0 or cf[-1] != CDF_TOTAL:
            raise ValueError("cumulative frequencies must span [0, 2^16]")
        if not all(map(operator.lt, cf, cf[1:])):
            raise ValueError("cumulative frequencies must be strictly increasing")
        object.__setattr__(self, "v_min", v_min)
        object.__setattr__(self, "v_max", v_max)
        object.__setattr__(self, "cf", cf)

    @property
    def num_symbols(self) -> int:
        return self.v_max - self.v_min + 1

    def contains(self, symbol: int) -> bool:
        return self.v_min <= symbol <= self.v_max

    def interval(self, symbol: int):
        """(cum_lo, cum_hi) for a symbol."""
        if not self.contains(symbol):
            raise ValueError(f"symbol {symbol} outside [{self.v_min}, {self.v_max}]")
        i = symbol - self.v_min
        return self.cf[i], self.cf[i + 1]

    def symbol_for_cum(self, cum: int) -> int:
        """Symbol whose interval contains the cumulative value."""
        if not 0 <= cum < CDF_TOTAL:
            raise ValueError("cumulative value out of range")
        return self.v_min + bisect.bisect_right(self.cf, cum) - 1

    def tobytes(self) -> bytes:
        """v_min, v_max and cf as little-endian int64."""
        return struct.pack(f"<{len(self.cf) + 2}q", self.v_min, self.v_max, *self.cf)


def apportion(base, rem, target: int):
    """Largest-remainder rounding along axis 0.

    base holds the floored shares and rem their remainders; the
    target - sum(base) units still missing go one each to the largest
    remainders, ties to the lower index.
    """
    left = target - base.sum(axis=0)
    rank = np.argsort(np.argsort(-rem, axis=0, kind="stable"), axis=0, kind="stable")
    return base + (rank < left)


def build_cdf_table(params: GmmParams, v_min: int, v_max: int) -> list[CdfTable]:
    """Monotone integer CDF tables, one per element of the field, in C order.

    All elements are evaluated in one vectorized pass.  Tail mass beyond
    [v_min, v_max] is folded into the boundary symbols; frequencies are
    renormalized to total 2^16 with a floor of 1 per symbol via
    largest-remainder apportionment.
    """
    if v_min > v_max:
        raise ValueError("empty symbol range")
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
    return [CdfTable(v_min, v_max, row) for row in cf.tolist()]
