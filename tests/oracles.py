"""Independent pure-Python oracles used to pin expected values.

Everything here avoids numpy and floating point where possible, working in
Fraction/int arithmetic so the production code is checked against a second,
independently written implementation.
"""

import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from detq import intops
from detq.harness import BackendVariant, run_backend
from detq.phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, Z_LIMIT
from detq.quantize import LayerQuantSpec, QConvLayer, WeightRangeError, round_half_away
from detq.tensors import im2col

K_MAX = 14
INT16_MAX = (1 << 15) - 1
MAX_RIGHT_SHIFT = 62


def round_half_away_fr(q: Fraction) -> int:
    """Nearest integer, ties away from zero, exact."""
    if q >= 0:
        return int((2 * q + 1) // 2)
    return -int((2 * -q + 1) // 2)


def ceil_log2_fr(f: Fraction) -> int:
    assert f > 0
    e = 0
    while Fraction(2) ** e < f:
        e += 1
    while Fraction(2) ** (e - 1) >= f:
        e -= 1
    return e


def quantize_value_oracle(x, p, b) -> int:
    lim = (1 << (b - 1)) - 1
    q = round_half_away_fr(Fraction(x) * 2**p)
    return max(-lim, min(lim, q))


def derive_weight_shift_oracle(ws, n_a=32, n_i=16) -> int:
    s = sum(abs(Fraction(float(w))) for w in ws)
    if s == 0:
        return K_MAX
    return max(n_a - n_i - ceil_log2_fr(s), 0)


def adjust_shift_for_bias_oracle(k_j, b_j, p, n_a=32) -> int:
    if b_j == 0:
        return k_j
    lb = max(ceil_log2_fr(abs(Fraction(float(b_j)))), 0)
    return min(n_a - 1 - p - lb, k_j) - 1


def quantize_layer_oracle(layer, n_i, p_in, p_out, name="layer"):
    """quantize_layer one channel at a time: each channel's shift derived,
    lowered and checked on its own, by the exact shift oracles above, with
    the float scaling and rounding quantize_layer specifies.  The scaled
    bias stays a float until stored, so one past float64 is inf and fails
    its channel's accumulator check."""
    m, kk, _, n = layer.weights.shape
    acc_max = (1 << 31) - 1
    x_max = (1 << (n_i - 1)) - 1
    eq14_budget = 1 << (32 - n_i)
    k_cap = MAX_RIGHT_SHIFT - p_in + p_out

    w_q = np.zeros((m, kk, kk, n), dtype=np.int64)
    b_q = np.zeros(n, dtype=np.int64)
    ks = np.zeros(n, dtype=np.int64)

    def quantize_channel(col, k):
        q = round_half_away(col * math.ldexp(1.0, k))
        return q.astype(np.int64) if np.abs(q).max(initial=0) <= INT16_MAX else None

    def fits(wq, bq):
        return abs(bq) <= acc_max and int(np.abs(wq).sum()) * x_max + abs(int(bq)) <= acc_max

    for j in range(n):
        col = layer.weights[:, :, :, j]
        bias = float(layer.bias[j])
        k = min(derive_weight_shift_oracle(col.ravel().tolist(), 32, n_i), k_cap)
        if bias != 0.0:
            k = adjust_shift_for_bias_oracle(k, bias, p_in)
            k = max(k, 0)
        wq = quantize_channel(col, k)
        while wq is None and k > 0:
            k = min(k - 1, K_MAX)
            wq = quantize_channel(col, k)
        if wq is None:
            raise WeightRangeError(
                f"{name}: channel {j}: weight magnitude "
                f"{np.abs(col).max():.6g} not representable in int16 "
                f"at shift {k}"
            )
        bq = round_half_away(bias * math.ldexp(1.0, k + p_in))
        ok = fits(wq, bq)
        while k > 0 and (int(np.abs(wq).sum()) > eq14_budget or not ok):
            k -= 1
            wq = quantize_channel(col, k)
            bq = round_half_away(bias * math.ldexp(1.0, k + p_in))
            ok = fits(wq, bq)
        if not ok:
            raise WeightRangeError(f"{name}: channel {j}: cannot satisfy accumulator bound")
        w_q[:, :, :, j] = wq
        b_q[j] = int(bq)
        ks[j] = k

    spec = LayerQuantSpec(n_i=n_i, p_in=p_in, p_out=p_out, k=ks)
    try:
        return QConvLayer(w_q=w_q, b_q=b_q, spec=spec, mask=layer.mask)
    except WeightRangeError as e:
        raise WeightRangeError(f"{name}: {e}") from e


def round_shift_oracle(v, s) -> int:
    return round_half_away_fr(Fraction(int(v), 2**s) if s >= 0 else Fraction(int(v)) * 2**-s)


def apportion_oracle(base, rem, target):
    """Largest remainder along axis 0, column by column: the missing units
    go to the entries first in order of (-rem, index)."""
    out = np.array(base, dtype=np.int64)
    for col in np.ndindex(out.shape[1:]):
        b = [int(v) for v in out[(slice(None),) + col]]
        r = [int(v) for v in rem[(slice(None),) + col]]
        for i in sorted(range(len(r)), key=lambda i: (-r[i], i))[: target - sum(b)]:
            out[(i,) + col] += 1
    return out


def softmax_oracle(z, p):
    """Exact rational linearized softmax -> positive Q15 triple, total 2^15."""
    n = [max((1 << p) + int(zi), 1) for zi in z]
    d = sum(n)
    target = (1 << 15) - 3
    base = [ni * target // d for ni in n]
    rem = [ni * target % d for ni in n]
    left = target - sum(base)
    for idx in sorted(range(3), key=lambda i: (-rem[i], i))[:left]:
        base[idx] += 1
    return tuple(1 + b for b in base)


def phi_oracle(z_q6: int) -> int:
    span = Z_LIMIT << GRID_FRAC_BITS
    t = max(-span, min(span, int(z_q6))) + span
    return PHI_TABLE_Q16[t]


def div_round_half_away_oracle(num: int, den: int) -> int:
    return round_half_away_fr(Fraction(int(num), int(den)))


def mixture_cdf_oracle(t_fp, weights, means, scales) -> int:
    acc = 0
    for w, mu, sg in zip(weights, means, scales):
        z = div_round_half_away_oracle((int(t_fp) - int(mu)) << GRID_FRAC_BITS, int(sg))
        acc += int(w) * phi_oracle(z)
    # round() on a Fraction is round-half-to-even, matching the pipeline
    return round(Fraction(acc, 1 << 15))


def cdf_table_oracle(weights, means, scales, scale_exp, v_min, v_max):
    """Independent integer reimplementation of the table builder."""
    total = 1 << 16
    s = v_max - v_min + 1
    half = 1 << (scale_exp - 1)
    cum = [
        mixture_cdf_oracle((v << scale_exp) - half, weights, means, scales)
        for v in range(v_min, v_max + 2)
    ]
    cum[0] = 0
    cum[-1] = total
    raw = [cum[i + 1] - cum[i] for i in range(s)]
    target = total - s
    tot = sum(raw)
    base = [r * target // tot for r in raw]
    rem = [r * target % tot for r in raw]
    left = target - sum(base)
    for idx in sorted(range(s), key=lambda i: (-rem[i], i))[:left]:
        base[idx] += 1
    freq = [1 + b for b in base]
    cf = [0]
    for f in freq:
        cf.append(cf[-1] + f)
    return cf


def cdf_lookup_oracle(cf, v_min, cum):
    """Symbol whose interval holds cum, by numpy's sorted search."""
    return int(np.searchsorted(np.asarray(cf), cum, side="right")) - 1 + v_min


def cdf_interval_oracle(cf, v_min, symbol):
    """(cum_lo, cum_hi) of a symbol, read from an int64 array."""
    cf = np.asarray(cf, dtype=np.int64)
    i = symbol - v_min
    return int(cf[i]), int(cf[i + 1])


def range_encode_oracle(intervals):
    """The carry-less coder's state update as rc's module docstring states
    it, one (cum_lo, cum_hi) interval at a time, in integer arithmetic with
    no bit operations.  Returns the payload and how many times the
    range < 2^16 clamp ran."""
    low, rng, out, clamps = 0, 2**32 - 1, [], 0

    def emit_shift():
        nonlocal low, rng
        out.append(low // 2**24)
        low = low * 256 % 2**32
        rng *= 256

    for cum_lo, cum_hi in intervals:
        r = rng // 2**16
        low += r * cum_lo
        assert low + r * (cum_hi - cum_lo) <= 2**32  # never wraps
        rng = r * (cum_hi - cum_lo)
        while True:
            if low // 2**24 == (low + rng) // 2**24:
                emit_shift()
            elif rng < 2**16:
                rng = -low % 2**16
                clamps += 1
                emit_shift()
            else:
                break
    if intervals:
        for _ in range(4):
            emit_shift()
    return bytes(out), clamps


def range_decode_oracle(payload, rows, v_min):
    """The decoder of rc's module docstring, one symbol at a time, in
    integer arithmetic with no bit operations: code is the first 4 payload
    bytes, a symbol's target cum is (code - low) // (range // 2^16) held to
    [0, 2^16 - 1], its index counts the row's inner entries at or below cum,
    and each renormalization shift reads the next byte into code.  rows are
    cumulative-frequency rows, one per symbol.  Returns the symbols decoded
    and the index of the symbol at which the payload ran out, or None."""
    if not rows:
        return [], None
    if len(payload) < 4:
        return [], 0
    low, rng, code, pos, got = 0, 2**32 - 1, int.from_bytes(payload[:4], "big"), 4, []
    for i, cf in enumerate(rows):
        r = rng // 2**16
        cum = min(max((code - low) // r, 0), 2**16 - 1)
        s = sum(1 for c in cf[1:-1] if c <= cum)
        low += r * cf[s]
        rng = r * (cf[s + 1] - cf[s])
        while True:
            if low // 2**24 == (low + rng) // 2**24:
                pass
            elif rng < 2**16:
                rng = -low % 2**16
            else:
                break
            if pos == len(payload):
                return got, i
            code = (code * 256 + payload[pos]) % 2**32
            pos += 1
            low = low * 256 % 2**32
            rng *= 256
        got.append(v_min + s)
    return got, None


def conv2d_oracle(x, weights, bias):
    """Naive zero-padded cross-correlation; x (c,h,w), weights (m,K,K,n)."""
    c, h, w = len(x), len(x[0]), len(x[0][0])
    m, kk, _, n = (
        len(weights),
        len(weights[0]),
        len(weights[0][0]),
        len(weights[0][0][0]),
    )
    assert m == c
    r = kk // 2
    out = [[[bias[j] for _ in range(w)] for _ in range(h)] for j in range(n)]
    for j in range(n):
        for y in range(h):
            for xx in range(w):
                for i in range(c):
                    for dy in range(kk):
                        for dx in range(kk):
                            yy, xs = y + dy - r, xx + dx - r
                            if 0 <= yy < h and 0 <= xs < w:
                                out[j][y][xx] += x[i][yy][xs] * weights[i][dy][dx][j]
    return out


def _fold(terms, order):
    """Sum a list of arrays one by one from the front (seq), from the back
    (rev), or as the sum of its two halves, recursively (tree)."""
    if order == "seq":
        return functools.reduce(operator.add, terms)
    if order == "rev":
        return functools.reduce(operator.add, terms[::-1])
    if order == "tree":
        if len(terms) == 1:
            return terms[0]
        half = len(terms) // 2
        return _fold(terms[:half], "tree") + _fold(terms[half:], "tree")
    raise ValueError(f"unknown order {order!r}")


def qconv_oracle(x, layer, order):
    """Per-tap int64 convolution of an (h, w, m) x, or of the (h, w, m, K, K)
    windows of its positions: the products of each of the T = m*K*K taps,
    in (m, K, K) order, summed tap by tap in `order`.  Returns (h, w, n)."""
    h, w = x.shape[:2]
    cols = im2col(np.asarray(x, np.int64), layer.kernel)
    wmat = layer.w_q.reshape(-1, layer.out_channels).astype(np.int64)
    products = cols[:, :, None] * wmat[None, :, :]  # (P, T, n)
    acc = _fold(list(products.transpose(1, 0, 2)), order) + layer.b_q[None, :]
    return acc.reshape(h, w, layer.out_channels)


def qconv(x, layer):
    """intops.qconv_forward of an integer (c, h, w) x, called as the fused
    kernel calls it: on a (c, h, w) view of the float64 (h, w, c) carrier.
    Returns the accumulator as (h, w, n), qconv_oracle's layout."""
    carrier = np.asarray(x, np.float64).transpose(1, 2, 0).copy()
    acc = intops.qconv_forward(carrier.transpose(2, 0, 1), layer)
    return acc.reshape(*carrier.shape[:2], layer.out_channels)


def oracle_priors(pair, latent, hyper, order):
    """Integer priors of run_backend with every convolution replaced by
    qconv_oracle summing in `order`: at intops.qconv_forward, the
    convolution step of each fused layer step, which takes a (c, h, w)
    view of the float64 carrier, or for the context layer a (c, h, w, K, K)
    view of its windows, and gives the (h*w, n) float64 accumulator."""

    def accumulate(x, layer):
        acc = qconv_oracle(np.moveaxis(x, 0, 2), layer, order)  # (h, w, n) int64
        return acc.reshape(-1, layer.out_channels).astype(np.float64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intops, "qconv_forward", accumulate)
        return run_backend(pair, latent, hyper, BackendVariant(order, order))
