import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detq import gmm
from detq.gmm import (
    CDF_TOTAL,
    WEIGHT_TOTAL,
    CdfTable,
    GmmParams,
    _mixture_cdf_q16,
    apportion,
    build_cdf_table,
    sigma_min_for,
)
from detq.phi_table import GRID_FRAC_BITS, PHI_TABLE_Q16, TABLE_SHA256, Z_LIMIT
from detq.rc import RangeDecoder

from oracles import (
    apportion_oracle,
    cdf_interval_oracle,
    cdf_lookup_oracle,
    cdf_table_oracle,
    mixture_cdf_oracle,
)

FROZEN_SHA256 = "543cbdf85b8d1616580303f7f8c1a37f0bc107e19f8cd6468fa7c91ce2e9b5a9"


def single_gaussian(mu, sigma, scale_exp=8):
    return GmmParams(
        weights=np.array([WEIGHT_TOTAL, 0, 0]),
        means=np.array([mu, 0, 0]),
        scales=np.array([sigma, sigma_min_for(scale_exp), sigma_min_for(scale_exp)]),
        scale_exp=scale_exp,
    )


def pmf(symbols, p):
    """Q16 mixture mass of each symbol's bin, as _mixture_cdf_q16 differences
    (before the tables fold the tails and renormalize)."""
    t = np.asarray(symbols, dtype=np.int64)[None] << p.scale_exp
    half = 1 << (p.scale_exp - 1)
    w, mu, sg = p.weights, p.means, p.scales
    return _mixture_cdf_q16(t + half, w, mu, sg) - _mixture_cdf_q16(t - half, w, mu, sg)


def lookup(t, cum):
    """The symbol RangeDecoder.decode reads at a cumulative value, one-row table t."""
    # a fresh decoder has low 0 and range 2^32 - 1, so code cum * (2^16 - 1) reads cum
    dec = RangeDecoder((cum * (CDF_TOTAL - 1)).to_bytes(4, "big") + bytes(8), 1)
    return dec.decode(t.cf[0].tolist(), t.v_min)


# --- Phi table ------------------------------------------------------------


def test_table_digest_is_frozen():
    assert TABLE_SHA256 == FROZEN_SHA256
    raw = np.asarray(PHI_TABLE_Q16, dtype="<u2").tobytes()  # little-endian uint16
    assert hashlib.sha256(raw).hexdigest() == FROZEN_SHA256
    assert len(PHI_TABLE_Q16) == 769


def test_table_matches_erf_within_rounding():
    for i, v in enumerate(PHI_TABLE_Q16):
        z = (i - (Z_LIMIT << GRID_FRAC_BITS)) / (1 << GRID_FRAC_BITS)
        exact = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))) * 65536
        assert abs(v - exact) <= 0.5 + 1e-6 or v in (1, 65535)


def test_phi_fixed_examples():
    # entry z + 384 holds Phi(z / 64) in Q16
    span = Z_LIMIT << GRID_FRAC_BITS
    assert PHI_TABLE_Q16[span] == 32768
    assert PHI_TABLE_Q16[2 * span] == 65535
    assert PHI_TABLE_Q16[0] == 1
    # z = 0.5 on the Q6 grid; Phi(0.5) ~ 0.691462, * 65536 ~ 45315.7
    assert PHI_TABLE_Q16[span + 32] == 45316


def test_phi_clamps_beyond_six_sigma():
    # the kernel clamps z to +-6, the table's ends, which it reads as Phi
    # of every z beyond them
    assert (PHI_TABLE_Q16[0], PHI_TABLE_Q16[-1]) == (1, 65535)


def test_phi_table_exactly_antisymmetric():
    n = len(PHI_TABLE_Q16)
    for i in range(n):
        assert PHI_TABLE_Q16[i] + PHI_TABLE_Q16[n - 1 - i] == 65536


# --- mixture bin mass (_mixture_cdf_q16) ----------------------------------


def test_pmf_single_gaussian_center():
    # Phi(0.5) - Phi(-0.5) ~ 0.382925 -> 25096 in Q16
    p = single_gaussian(0, 256, scale_exp=8)
    assert pmf(0, p) == 25096


def test_pmf_symmetry():
    p = GmmParams(
        weights=np.array([WEIGHT_TOTAL // 2, WEIGHT_TOTAL // 4, WEIGHT_TOTAL // 4]),
        means=np.zeros(3, dtype=np.int64),
        scales=np.array([256, 512, 128]),
        scale_exp=8,
    )
    for v in range(0, 6):
        assert pmf(v, p) == pmf(-v, p)


def test_pmf_degenerate_mixture_equals_single_gaussian():
    rng = np.random.default_rng(0)
    p3 = GmmParams(
        weights=np.array([WEIGHT_TOTAL, 0, 0]),
        means=np.array([37, 500, -900]),
        scales=np.array([300, 100, 80]),
        scale_exp=8,
    )
    p1 = single_gaussian(37, 300)
    for v in range(-4, 5):
        assert pmf(v, p3) == pmf(v, p1)


def test_pmf_unimodal_around_mean():
    p = single_gaussian(0, 256)
    vals = [pmf(v, p) for v in range(0, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_pmf_field_matches_scalar():
    rng = np.random.default_rng(1)
    shape = (2, 3, 3)
    params = GmmParams(
        weights=np.broadcast_to(
            np.array([WEIGHT_TOTAL // 2, WEIGHT_TOTAL // 4, WEIGHT_TOTAL // 4]).reshape(
                3, 1, 1, 1
            ),
            (3,) + shape,
        ).copy(),
        means=rng.integers(-500, 500, (3,) + shape),
        scales=rng.integers(100, 600, (3,) + shape),
        scale_exp=8,
    )
    symbols = rng.integers(-5, 6, shape)
    field = pmf(symbols, params)
    for idx in np.ndindex(*shape):
        sel = (slice(None),) + idx
        w, mu, sg = params.weights[sel], params.means[sel], params.scales[sel]
        t = int(symbols[idx]) << 8
        want = mixture_cdf_oracle(t + 128, w, mu, sg) - mixture_cdf_oracle(
            t - 128, w, mu, sg
        )
        assert field[idx] == want


def test_mixture_cdf_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        w1 = int(rng.integers(0, WEIGHT_TOTAL + 1))
        w2 = int(rng.integers(0, WEIGHT_TOTAL - w1 + 1))
        p = GmmParams(
            weights=np.array([w1, w2, WEIGHT_TOTAL - w1 - w2]),
            means=rng.integers(-800, 800, 3),
            scales=rng.integers(16, 900, 3),
            scale_exp=8,
        )
        v = int(rng.integers(-6, 7))
        want = mixture_cdf_oracle(
            (v << 8) + 128, p.weights, p.means, p.scales
        ) - mixture_cdf_oracle((v << 8) - 128, p.weights, p.means, p.scales)
        assert pmf(v, p) == want


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("sigma_units", [1, 3, 10])
def test_mixture_cdf_exact_ties_round_away_from_zero(sign, sigma_units):
    # an even scale sigma = 128 j and t - mean = (2k + 1) j put num = (t - mean) << 6
    # at exactly (2k + 1) sigma / 2: z = +-(k + 1/2) rounds to +-(k + 1)
    sigma = 128 * sigma_units
    for k in [0, 1, 2, 7, 383, 384, 500]:
        t = sign * (2 * k + 1) * sigma_units
        p = single_gaussian(0, sigma)
        got = _mixture_cdf_q16(t, p.weights, p.means, p.scales)
        assert got == mixture_cdf_oracle(t, p.weights, p.means, p.scales)
        assert got == PHI_TABLE_Q16[min(k + 1, 384) * sign + 384]
    # ties in every component of a mixture, one field of both signs
    w = np.array([WEIGHT_TOTAL // 2, WEIGHT_TOTAL // 4, WEIGHT_TOTAL // 4])
    mu = np.array([-3, 5, 0]) * sigma_units
    sg = np.array([128, 128, 384]) * sigma_units
    t = sign * (np.arange(-40, 41, 2) + 1) * sigma_units
    got = _mixture_cdf_q16(t, w[:, None], mu[:, None], sg[:, None])
    for ti, g in zip(t.tolist(), got.tolist()):
        assert g == mixture_cdf_oracle(ti, w, mu, sg)


# --- params validation ----------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        GmmParams(np.array([1, 1, 1]), np.zeros(3), np.ones(3), 8)  # bad weight sum
    with pytest.raises(ValueError):
        GmmParams(
            np.array([WEIGHT_TOTAL, 0, 0]), np.zeros(3), np.zeros(3), 8
        )  # zero scale


def test_params_refuse_mismatched_component_arrays():
    w, mu, sg = np.array([WEIGHT_TOTAL, 0, 0]), np.zeros(3), np.full(3, 256)
    # a short scale array, a weight array of another rank, two components
    for parts in ((w, mu, sg[:2]), (w[:, None], mu, sg), (w[:2], mu[:2], sg[:2])):
        with pytest.raises(ValueError, match="matching \\(3, \\.\\.\\.\\) component arrays"):
            GmmParams(*parts, 8)


def test_params_reject_weights_whose_sum_wraps():
    # three weights near 2^63 summed to 2^15 modulo 2^64, and were taken;
    # each weight is now held to [0, 2^15] too, so their sum is exact
    for weights in ([2**63 - 1, 2**63 - 1, 2**15 + 2], [WEIGHT_TOTAL + 1, -1, 0]):
        with pytest.raises(ValueError, match="mixture weights"):
            GmmParams(np.array(weights), np.zeros(3), np.full(3, 256), 8)


def test_rows_constructor_checks_and_keeps_its_rows():
    p = GmmParams(*_component_arrays(), 9)
    rows = np.array(p.rows)
    q = GmmParams.from_rows(rows, p.field_shape, 9)
    assert q.rows is rows and not rows.flags.writeable
    assert q.tobytes() == p.tobytes()
    bad = np.array(p.rows)
    bad[2, 1, 4] = 0
    with pytest.raises(ValueError, match="scales must be positive"):
        GmmParams.from_rows(bad, p.field_shape, 9)
    for wrong in (rows[..., 1:], rows.astype(np.int32)):
        with pytest.raises(ValueError, match="int64 rows"):
            GmmParams.from_rows(wrong, p.field_shape, 9)


@pytest.mark.parametrize("mean", [2**57, 2**58, -(2**58), 2**62])
def test_params_reject_means_whose_q6_argument_wraps(mean):
    # (t - mean) << 6 wrapped in int64 for these means, and the table came
    # out as a zero-mean Gaussian's, with no error
    with pytest.raises(ValueError, match="below 2\\^48"):
        single_gaussian(mean, 256)


def test_params_bound_scales_and_scale_exp():
    with pytest.raises(ValueError, match="below 2\\^48"):
        single_gaussian(0, 1 << 48)
    for scale_exp in (0, 16, 63):
        with pytest.raises(ValueError, match="scale_exp"):
            GmmParams(np.array([WEIGHT_TOTAL, 0, 0]), np.zeros(3), np.ones(3), scale_exp)


def _component_arrays(h=2, w=3):
    """Valid int64 weights, means and scales of field shape (h, w), each
    a transposed, non-contiguous view of a (3, w, h) array."""
    rng = np.random.default_rng(5)
    w0 = rng.integers(0, WEIGHT_TOTAL + 1, (w, h))
    weights = np.stack((w0, WEIGHT_TOTAL - w0, np.zeros_like(w0)))
    means = rng.integers(-1000, 1000, (3, w, h))
    scales = rng.integers(1, 1000, (3, w, h))
    return [a.transpose(0, 2, 1) for a in (weights, means, scales)]


def test_params_bytes_are_scale_exp_then_each_component_in_c_order():
    arrays = _component_arrays()
    assert not any(a.flags.c_contiguous for a in arrays)
    want = np.int64(9).tobytes() + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    assert GmmParams(*arrays, 9).tobytes() == want


def test_params_components_are_the_rows_of_one_field():
    arrays = _component_arrays()
    p = GmmParams(*arrays, 9)
    assert p.fields.shape == (3, 3, 2, 3) and p.field_shape == (2, 3)
    # rows list the field with its first axis innermost
    assert p.rows.shape == (3, 3, 6) and p.rows.flags.c_contiguous
    want = np.stack([a.transpose(0, 2, 1) for a in arrays]).reshape(3, 3, 6)
    np.testing.assert_array_equal(p.rows, want)
    for i, a in enumerate((p.weights, p.means, p.scales)):
        assert np.shares_memory(a, p.rows) and np.shares_memory(a, p.fields[i])
        np.testing.assert_array_equal(a, p.fields[i])
        np.testing.assert_array_equal(a, arrays[i])


def test_params_own_their_field():
    arrays = [np.ascontiguousarray(a) for a in _component_arrays()]
    p = GmmParams(*arrays, 9)
    before = p.tobytes()
    for a in arrays:
        a += 1
    assert p.tobytes() == before


def test_tables_exact_up_to_the_params_bound():
    top = [2] + [1] * 15 + [CDF_TOTAL - 17]  # all mass on v_max, floors elsewhere
    for mean, want in ((2**40, top), ((1 << 48) - 1, top), (1 - (1 << 48), top[::-1])):
        [t] = build_cdf_table(single_gaussian(mean, 256), -8, 8)
        assert np.diff(t.cf[0]).tolist() == want
    rng = np.random.default_rng(8)
    lim = (1 << 48) - 1
    for _ in range(10):
        w1 = int(rng.integers(0, WEIGHT_TOTAL + 1))
        p = GmmParams(
            weights=np.array([w1, WEIGHT_TOTAL - w1, 0]),
            means=rng.integers(-lim, lim, 3, endpoint=True),
            scales=rng.integers(1, lim, 3, endpoint=True),
            scale_exp=15,
        )
        [t] = build_cdf_table(p, -8, 8)
        want = cdf_table_oracle(
            p.weights.tolist(), p.means.tolist(), p.scales.tolist(), 15, -8, 8
        )
        assert t.cf[0].tolist() == list(want)


def test_tables_exact_at_the_corners_of_the_admitted_inputs():
    # symbols +-(2^38 - 1) at scale_exp 15, means +-(2^48 - 1), scales 1 and
    # 2^48 - 1: the largest magnitudes _mixture_cdf_q16's numerator takes
    # (_PARAM_LIMIT), every mixture of them, against the exact oracle
    lim, top = (1 << 48) - 1, (1 << 38) - 1
    corners = itertools.product(itertools.product((lim, -lim), (1, lim)), repeat=3)
    means, scales = np.array(list(corners)).transpose(2, 1, 0)  # (3, 64) each
    weights = np.broadcast_to([[1 << 14], [1 << 13], [1 << 13]], means.shape)
    p = GmmParams(weights, means, scales, 15)
    for v_min, v_max in ((-top, -top + 16), (top - 16, top), (top, top)):
        t = build_cdf_table(p, v_min, v_max)
        for i, row in enumerate(t.cf.tolist()):
            parts = (a[:, i].tolist() for a in (weights, means, scales))
            assert row == cdf_table_oracle(*parts, 15, v_min, v_max)


def test_symbol_range_past_the_frequency_total_is_refused():
    # every symbol needs a frequency of at least 1 of the 2^16
    p = single_gaussian(0, 256)
    with pytest.raises(ValueError, match="symbol range 65537 exceeds the 2\\^16"):
        build_cdf_table(p, -(2**15), 2**15)
    [t] = build_cdf_table(p, -(2**15), 2**15 - 1)  # 2^16 symbols, each of frequency 1
    np.testing.assert_array_equal(t.cf.ravel(), np.arange(CDF_TOTAL + 1))


def test_symbols_bounded_before_the_shift():
    # (v << scale_exp) wrapped in int64 for the first range, and the table of
    # a Gaussian ~2^47 sigma away came out as one near zero, with no error
    p = single_gaussian(0, 256)
    for v_min, v_max in ((-(2**55), -(2**55) + 4), (2**38, 2**38 + 4), (-(2**38), 0)):
        with pytest.raises(ValueError, match="below 2\\^38"):
            build_cdf_table(p, v_min, v_max)
    # the largest symbols still admitted: all mass folded to v_min, as the
    # exact oracle has it
    [t] = build_cdf_table(p, 2**38 - 5, 2**38 - 1)
    want = cdf_table_oracle(
        p.weights.tolist(), p.means.tolist(), p.scales.tolist(), 8, 2**38 - 5, 2**38 - 1
    )
    assert t.cf[0].tolist() == list(want)
    assert np.diff(want).tolist() == [CDF_TOTAL - 5, 1, 1, 1, 2]


def test_sigma_min():
    assert sigma_min_for(8) == 16  # 2^-4 at scale 2^-8
    assert sigma_min_for(10) == 64
    assert sigma_min_for(2) == 1


# --- apportion --------------------------------------------------------------


@st.composite
def apportion_case(draw):
    """base, rem, target on a 2-d (n, m) or a (3, c, h, w) field: remainders
    from a tiny range, so ties are the rule, and each column missing
    between 0 and n units."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 17)), draw(st.integers(0, 6)))
    else:
        shape = (3, *(draw(st.integers(1, 3)) for _ in range(3)))
    size = int(np.prod(shape))
    rem = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    base = np.array(draw(st.lists(st.integers(0, 50), min_size=size, max_size=size)))
    rem, base = rem.reshape(shape), base.reshape(shape)
    cols = int(np.prod(shape[1:]))
    left = draw(st.lists(st.integers(0, shape[0]), min_size=cols, max_size=cols))
    target = 50 * shape[0] + shape[0]
    # row 0 takes up the slack, so column j misses exactly left[j] units
    base[0] += target - np.reshape(left, shape[1:]) - base.sum(axis=0)
    return base, rem, target


@given(apportion_case())
def test_apportion_matches_sort_by_remainder_then_index(case):
    base, rem, target = case
    got = apportion(base, rem, target)
    np.testing.assert_array_equal(got, apportion_oracle(base, rem, target))
    assert got.shape == base.shape and np.all(got.sum(axis=0) == target)


# --- CdfTable / build_cdf_table ------------------------------------------


def test_single_symbol_table():
    t = CdfTable(v_min=0, v_max=0, cf=np.array([0, CDF_TOTAL]))
    assert len(t) == 1 and t.cf.shape == (1, 2)
    assert t.interval(0) == (0, CDF_TOTAL)
    assert lookup(t, 0) == 0
    assert lookup(t, CDF_TOTAL - 1) == 0


# a valid 3-symbol table over [0, 2], and (v_min, v_max, cf) made malformed from it
VALID_CF = [0, 100, 60000, CDF_TOTAL]
MALFORMED = [
    (0, 3, VALID_CF),  # wrong length
    (0, 2, [1, 100, 60000, CDF_TOTAL]),  # non-zero start
    (0, 2, [0, 100, 60000, CDF_TOTAL - 1]),  # end other than 2^16
    (0, 2, [0, 100, 100, CDF_TOTAL]),  # zero-width bin
    (0, 2, [0, 60000, 100, CDF_TOTAL]),  # decreasing pair
    (1, 0, [0, CDF_TOTAL]),  # empty range
]


def test_table_validation():
    for as_array in (False, True):
        CdfTable(0, 2, np.array(VALID_CF) if as_array else VALID_CF)
        for v_min, v_max, cf in MALFORMED:
            with pytest.raises(ValueError):
                CdfTable(v_min, v_max, np.array(cf) if as_array else cf)
    with pytest.raises(ValueError):
        CdfTable(0, 2, [[VALID_CF]])  # a field is two-dimensional


def test_table_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        CdfTable(0, 0, [0.0, float(CDF_TOTAL)])
    with pytest.raises(TypeError):
        CdfTable(0, 0, np.array([0.0, CDF_TOTAL]))


def test_every_field_goes_through_the_one_constructor(monkeypatch):
    # build_cdf_table checks its whole field in one constructor call; the
    # field with any one row corrupted in each of the malformed ways is
    # refused there
    seen = []
    init = CdfTable.__init__

    def counting(self, v_min, v_max, cf):
        seen.append(np.array(cf))
        init(self, v_min, v_max, cf)

    monkeypatch.setattr(gmm.CdfTable, "__init__", counting)
    p = GmmParams(
        weights=np.array([[WEIGHT_TOTAL] * 5, [0] * 5, [0] * 5]),
        means=np.array([[-300, 0, 40, 500, 900], [0] * 5, [0] * 5]),
        scales=np.array([[16, 256, 700, 64, 2000]] + [[16] * 5] * 2),
        scale_exp=8,
    )
    field = build_cdf_table(p, -4, 4)
    assert len(seen) == 1 and seen[0].shape == (5, 10)
    np.testing.assert_array_equal(seen[0], field.cf)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        CdfTable(-4, 4, field.cf[:, :-1])
    for i, cf in enumerate(field.cf.tolist()):
        for bad in (
            [1] + cf[1:],
            cf[:-1] + [CDF_TOTAL + 1],
            cf[:2] + [cf[1]] + cf[3:],
            cf[:1] + [cf[2], cf[1]] + cf[3:],
        ):
            rows = field.cf.copy()
            rows[i] = bad
            with pytest.raises(ValueError):
                CdfTable(-4, 4, rows)


def test_field_interval_gather_matches_its_rows():
    rng = np.random.default_rng(9)
    p = GmmParams(
        weights=np.array([[WEIGHT_TOTAL] * 6, [0] * 6, [0] * 6]),
        means=rng.integers(-900, 900, (3, 6)),
        scales=rng.integers(16, 900, (3, 6)),
        scale_exp=8,
    )
    field = build_cdf_table(p, -3, 3)
    symbols = rng.integers(-3, 4, 6)
    lo, hi = field.intervals(symbols)
    rows = list(field)
    assert [(int(a), int(b)) for a, b in zip(lo, hi)] == [
        t.interval(int(v)) for t, v in zip(rows, symbols)
    ]
    assert field.tobytes() == b"".join(t.tobytes() for t in rows)
    symbols[4] = 4
    with pytest.raises(ValueError, match="symbol 4 at 4 outside"):
        field.intervals(symbols)
    with pytest.raises(ValueError, match="5 symbols but 6 tables"):
        field.intervals(symbols[:5])


@pytest.mark.parametrize("symbol", [-1, 3, -(2**40)])
def test_table_interval_refuses_a_symbol_outside_its_range(symbol):
    t = CdfTable(0, 2, VALID_CF)
    with pytest.raises(ValueError, match=rf"symbol {symbol} outside \[0, 2\]"):
        t.interval(symbol)


def test_table_is_independent_of_its_input_array():
    src = np.array(VALID_CF)
    t = CdfTable(-1, 1, src)
    before = (t.cf.tolist(), t.tobytes(), [t.interval(v) for v in (-1, 0, 1)])
    src[:] = [0, 1, 2, CDF_TOTAL]
    assert (t.cf.tolist(), t.tobytes(), [t.interval(v) for v in (-1, 0, 1)]) == before
    assert lookup(t, 100) == 0 and lookup(t, 99) == -1
    with pytest.raises(ValueError, match="read-only"):
        t.cf[0, 1] = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.cf = np.array([[0, CDF_TOTAL]])


@st.composite
def valid_tables(draw):
    n = draw(st.integers(1, 64))
    v_min = draw(st.integers(-(2**40), 2**40))
    cuts = draw(
        st.lists(st.integers(1, CDF_TOTAL - 1), min_size=n - 1, max_size=n - 1, unique=True)
    )
    return v_min, [0] + sorted(cuts) + [CDF_TOTAL]


@settings(max_examples=200, deadline=None)
@given(valid_tables(), st.lists(st.integers(0, CDF_TOTAL - 1), max_size=16), st.booleans())
def test_lookups_match_numpy_oracle(table, cums, as_array):
    v_min, cf = table
    t = CdfTable(v_min, v_min + len(cf) - 2, np.array(cf) if as_array else cf)
    for v in range(t.v_min, t.v_max + 1):
        got = t.interval(v)
        assert got == cdf_interval_oracle(cf, v_min, v)
        assert all(type(c) is int for c in got)
    edges = [c - d for c in cf[:-1] for d in (0, 1) if c - d >= 0]
    for cum in edges + cums:
        got = lookup(t, cum)
        assert got == cdf_lookup_oracle(cf, v_min, cum) and type(got) is int
    want = np.array([v_min, t.v_max] + cf, dtype="<i8").tobytes()
    assert t.tobytes() == want


def test_interval_inverse_of_symbol_lookup():
    p = single_gaussian(0, 256)
    [t] = build_cdf_table(p, -8, 8)
    for v in range(-8, 9):
        lo, hi = t.interval(v)
        assert lookup(t, lo) == v
        assert lookup(t, hi - 1) == v


def test_build_table_postconditions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w1 = int(rng.integers(0, WEIGHT_TOTAL + 1))
        p = GmmParams(
            weights=np.array([w1, WEIGHT_TOTAL - w1, 0]),
            means=rng.integers(-2000, 2000, 3),
            scales=rng.integers(16, 2000, 3),
            scale_exp=8,
        )
        [t] = build_cdf_table(p, -8, 8)
        assert t.cf[0, 0] == 0 and t.cf[0, -1] == CDF_TOTAL
        assert np.all(np.diff(t.cf) >= 1)


def test_build_table_matches_independent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        w1 = int(rng.integers(0, WEIGHT_TOTAL + 1))
        w2 = int(rng.integers(0, WEIGHT_TOTAL - w1 + 1))
        p = GmmParams(
            weights=np.array([w1, w2, WEIGHT_TOTAL - w1 - w2]),
            means=rng.integers(-900, 900, 3),
            scales=rng.integers(20, 1200, 3),
            scale_exp=8,
        )
        [t] = build_cdf_table(p, -8, 8)
        want = cdf_table_oracle(
            [int(v) for v in p.weights],
            [int(v) for v in p.means],
            [int(v) for v in p.scales],
            8,
            -8,
            8,
        )
        np.testing.assert_array_equal(t.cf[0], want)


def test_symmetric_params_near_mirror():
    # zero-mean symmetric mixture: the table mirrors up to the one unit the
    # tie rule and the saturated Phi tail can move between boundary bins
    p = GmmParams(
        weights=np.array([WEIGHT_TOTAL // 2, WEIGHT_TOTAL // 4, WEIGHT_TOTAL // 4]),
        means=np.zeros(3, dtype=np.int64),
        scales=np.array([256, 512, 128]),
        scale_exp=8,
    )
    [t] = build_cdf_table(p, -8, 8)
    s = t.cf.shape[1] - 1
    for i in range(s + 1):
        assert abs(int(t.cf[0, i]) + int(t.cf[0, s - i]) - CDF_TOTAL) <= 1
