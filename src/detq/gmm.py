"""Fixed-point Gaussian-mixture probabilities and CDF tables.

Everything downstream of the checked-in Phi table is exact integer
arithmetic, so identical GmmParams bits produce identical CdfTable bits on
any platform.  Probabilities are Q16 (total 2^16), mixture weights Q15
(total 2^15).  Both the pmf and the CDF-table builder take a whole
parameter field and evaluate it in one vectorized pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, TABLE_SHA256, Z_LIMIT

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
    point at 2^-scale_exp, scales positive.
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
        if self.scale_exp < 1:
            raise ValueError("scale_exp must be at least 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "scales", sg)

    @property
    def field_shape(self):
        return self.weights.shape[1:]

    def element(self, idx) -> "GmmParams":
        """Sub-field view: idx indexes the field axes (integers or slices)."""
        sel = (slice(None),) + tuple(idx)
        return GmmParams(
            weights=self.weights[sel],
            means=self.means[sel],
            scales=self.scales[sel],
            scale_exp=self.scale_exp,
        )

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


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Cumulative frequencies over [v_min, v_max], total exactly 2^16.

    cf has length S+1 with cf[0] = 0, cf[S] = 2^16, strictly increasing
    (every symbol gets frequency >= 1).
    """

    v_min: int
    v_max: int
    cf: np.ndarray

    def __post_init__(self):
        cf = np.asarray(self.cf, dtype=np.int64)
        s = self.v_max - self.v_min + 1
        if self.v_min > self.v_max:
            raise ValueError("empty symbol range")
        if cf.shape != (s + 1,):
            raise ValueError("cumulative array length must be range size + 1")
        if cf[0] != 0 or cf[-1] != CDF_TOTAL:
            raise ValueError("cumulative frequencies must span [0, 2^16]")
        if np.any(np.diff(cf) < 1):
            raise ValueError("cumulative frequencies must be strictly increasing")
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
        return int(self.cf[i]), int(self.cf[i + 1])

    def symbol_for_cum(self, cum: int) -> int:
        """Symbol whose interval contains the cumulative value."""
        if not 0 <= cum < CDF_TOTAL:
            raise ValueError("cumulative value out of range")
        i = int(np.searchsorted(self.cf, cum, side="right")) - 1
        return self.v_min + i

    def tobytes(self) -> bytes:
        return (
            np.int64(self.v_min).tobytes()
            + np.int64(self.v_max).tobytes()
            + np.ascontiguousarray(self.cf).tobytes()
        )


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
    return [CdfTable(v_min=v_min, v_max=v_max, cf=row) for row in cf]
