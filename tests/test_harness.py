import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detq import gmm, harness, intops
from detq.gmm import CDF_TOTAL, CdfTable
from detq.rc import Bitstream, RangeDecoder, StreamFormatError, rc_encode
from detq.harness import (
    BackendVariant,
    LayerCfg,
    boundary_failure_demo,
    calibrate_shifts,
    conv_ordered_float,
    device_steps,
    discretize_priors,
    field_tables,
    float_cross_entropy_bits,
    int_cross_entropy_bits,
    make_stack_pair,
    roundtrip_experiment,
    run_backend,
)
from detq.gmm import WEIGHT_TOTAL, GmmParams, sigma_min_for
from detq.intops import run_entropy_stack
from detq.tensors import ConvLayerF, ShapeError, causal_mask

from models import random_latent, random_stack
from oracles import cdf_table_oracle, ordered_sum_oracle


def fixture_pair(seed=21, **kw):
    rng = np.random.default_rng(seed)
    fs = random_stack(rng, **kw)
    latent = random_latent(rng, (1, 4, 4))
    hyper = rng.normal(size=(2, 4, 4))
    return make_stack_pair(fs), latent, hyper


def test_variant_validation():
    with pytest.raises(ValueError):
        BackendVariant("x", order="weird")
    with pytest.raises(ValueError):
        BackendVariant("x", mode="complex")


@pytest.mark.parametrize("order", ["bogus", "Rev", ""])
def test_float_stack_of_an_unknown_order_is_refused_when_built(order):
    # it used to build, and fail only at its first convolution
    fs = random_stack(np.random.default_rng(23))
    with pytest.raises(ValueError, match=f"unknown accumulation order {order!r}"):
        replace(fs, order=order)


@pytest.mark.parametrize("order", ["bogus", "Rev", ""])
def test_float_conv_of_an_unknown_order_is_refused(order):
    lyr = ConvLayerF(weights=np.ones((2, 1, 1, 1)), bias=np.zeros(1))
    with pytest.raises(ValueError, match=f"unknown accumulation order {order!r}"):
        conv_ordered_float(np.ones((1, 1, 2), np.float32), lyr, order)


def test_int_mode_byte_identical_across_variants():
    pair, latent, hyper = fixture_pair()
    outs = [
        run_backend(pair, latent, hyper, BackendVariant(o, o, "int")).tobytes()
        for o in ("seq", "rev", "tree")
    ]
    assert outs[0] == outs[1] == outs[2]


def test_int_mode_rejects_non_finite_hyper_latent():
    pair, latent, hyper = fixture_pair()
    hyper[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_backend(pair, latent, hyper, BackendVariant("a", "seq", "int"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e40])
def test_float_mode_rejects_hyper_latent_float32_cannot_hold(bad):
    pair, latent, hyper = fixture_pair()
    hyper[0, 3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        run_backend(pair, latent, hyper, BackendVariant("a", "seq", "float"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e40, 1 + 5j])
def test_float_stack_checks_each_input_where_it_enters(bad):
    # both inputs are checked where they enter, as on the int stack: unchecked,
    # a NaN hyper latent gives NaN priors
    rng = np.random.default_rng(3)
    fs = random_stack(rng)
    inputs = (np.zeros((1, 3, 3)), rng.normal(size=(2, 3, 3)))
    for i in range(2):
        args = list(inputs)
        args[i] = args[i] + np.zeros((), np.result_type(bad))  # a copy that holds bad
        args[i][0, 1, 2] = bad
        with pytest.raises(ValueError, match="complex or non-finite"):
            run_entropy_stack(*args, fs)


def test_float_stack_with_a_broken_p_chain_is_refused_when_built():
    fs = random_stack(np.random.default_rng(23))
    cfg = copy.deepcopy(fs.hyper_cfg)
    cfg[0].p_out = 11  # cfg[1].p_in stays 8
    with pytest.raises(ShapeError, match="hyperdecoder: p_out/p_in chain broken"):
        replace(fs, hyper_cfg=cfg)


def test_float_cancellation_orders_differ():
    # f32 sequential: (2^24 + 1) - 2^24 = 0; reversed: (-2^24 + 1) + 2^24 = 1
    lyr = ConvLayerF(weights=np.ones((3, 1, 1, 1)), bias=np.zeros(1))
    x = np.array([2.0**24, 1.0, -(2.0**24)], np.float32).reshape(1, 1, 3)
    seq = conv_ordered_float(x, lyr, "seq")
    rev = conv_ordered_float(x, lyr, "rev")
    assert seq[0, 0, 0] == 0.0
    assert rev[0, 0, 0] == 1.0


def tap_products(x, weights):
    """The float32 product of each of a convolution's m*K*K taps, in
    (m, K, K) order, each (h, w, n): of (h, w, m) data, zero same-padded,
    or of the (h, w, m, K, K) windows of its positions."""
    wf = weights.astype(np.float32)
    m, k = wf.shape[:2]
    if x.ndim == 3:
        h, w, pad = *x.shape[:2], k // 2
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        tap = lambda c, dy, dx: xp[dy : dy + h, dx : dx + w, c]
    else:
        tap = lambda c, dy, dx: x[:, :, c, dy, dx]
    return [
        tap(c, dy, dx)[..., None] * wf[c, dy, dx]
        for c in range(m)
        for dy in range(k)
        for dx in range(k)
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 3, 5]).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 70 // k**2))),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example((5, 32), 2, 2, 3, False, 1)  # T = 800
@example((3, 192), 3, 3, 2, True, 2)  # T = 1728
def test_float_orders_sum_tap_by_tap(kernel_m, n, h, w, cut, seed):
    # each output equals its taps' float32 products summed one by one in
    # the order, with weights and inputs of magnitude 1e-6 to 1e6, so
    # that every order rounds differently
    k, m = kernel_m
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)).astype(np.float32)

    lyr = ConvLayerF(weights=draw(m, k, k, n), bias=draw(n))
    x = draw(h, w, m, k, k) if cut else draw(h, w, m)
    taps = tap_products(x, lyr.weights)
    assert len(taps) == m * k * k
    for order in harness.ORDERS:
        want = ordered_sum_oracle(taps, order) + lyr.bias.astype(np.float32)
        assert conv_ordered_float(x, lyr, order).tobytes() == want.tobytes(), order


@pytest.fixture(scope="module")
def wide_pair():
    # the wide.blob model: 192-wide layers, a 5x5 context kernel, 32 channels
    return make_stack_pair(random_stack(np.random.default_rng(2027), 32, 32, 192, ctx_kernel=5))


@pytest.mark.parametrize("order", harness.ORDERS)
def test_codec_width_float_priors_run_in_bounded_memory(wide_pair, order):
    # a 32x16x16 latent: the hyperdecoder's 192x3x3 layer has 1728 taps, and
    # the (P, T, n) products tensor of its 256 positions would take 340 MB
    rng = np.random.default_rng(2031)
    latent, hyper = random_latent(rng, (32, 16, 16)), rng.normal(size=(32, 16, 16))
    tracemalloc.start()
    try:
        params = run_backend(wide_pair, latent, hyper, BackendVariant("f", order, "float"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.field_shape == (32, 16, 16)
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_float_vs_int_priors_close_on_random_stack():
    pair, latent, hyper = fixture_pair()
    pi = run_backend(pair, latent, hyper, BackendVariant("a", "seq", "int"))
    pf = run_backend(pair, latent, hyper, BackendVariant("b", "seq", "float"))
    assert pi.scale_exp == pf.scale_exp
    unit = 2.0**-pi.scale_exp
    for a, b in ((pi.means, pf.means), (pi.scales, pf.scales)):
        rel = np.abs(a - b) * unit / np.maximum(np.abs(b) * unit, 0.25)
        assert rel.max() < 0.02
    assert np.abs(pi.weights - pf.weights).max() / WEIGHT_TOTAL < 0.02


def test_discretize_priors_weights_positive_and_normalized():
    rng = np.random.default_rng(3)
    fs = random_stack(rng)  # drawn before the hyper latent
    pri = run_entropy_stack(np.zeros((1, 3, 3)), rng.normal(size=(2, 3, 3)), fs)
    q = discretize_priors(pri, 10)
    assert np.all(q.weights > 0)
    assert np.all(q.weights.sum(axis=0) == WEIGHT_TOTAL)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(1, 4), min_size=3, max_size=3), min_size=1, max_size=12))
def test_discretize_priors_apportions_tied_float_weights(parts):
    # weights a / sum(a) for small a tie often, as [1, 1, 2] / 4 does: each
    # element's floors take their missing units by largest float remainder,
    # ties to the lower component, as a scalar oracle takes them
    a = np.array(parts, dtype=np.float64).T.reshape(3, len(parts), 1, 1)
    w = a / a.sum(axis=0)
    pri = harness.FloatPriors(weights=w, means=np.zeros_like(w), scales=np.ones_like(w))
    got = discretize_priors(pri, 10).weights
    target = WEIGHT_TOTAL - 3
    for j in range(len(parts)):
        scaled = [float(w[k, j, 0, 0]) * target for k in range(3)]
        base = [math.floor(x) for x in scaled]
        rem = [x - b for x, b in zip(scaled, base)]
        for k in sorted(range(3), key=lambda k: (-rem[k], k))[: target - sum(base)]:
            base[k] += 1
        assert [int(got[k, j, 0, 0]) for k in range(3)] == [1 + b for b in base]


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_discretize_priors_refuses_weights_that_do_not_sum_to_one(factor):
    # the floors then miss more units than there are components, or fewer
    # than none, and no apportionment makes the weights sum to 2^15
    rng = np.random.default_rng(3)
    fs = random_stack(rng)
    pri = run_entropy_stack(np.zeros((1, 3, 3)), rng.normal(size=(2, 3, 3)), fs)
    arrays = {f: np.array(getattr(pri, f), np.float64) for f in ("weights", "means", "scales")}
    arrays["weights"] *= factor
    with pytest.raises(ValueError, match="sum to 2\\^15"):
        discretize_priors(harness.FloatPriors(**arrays), 10)


@pytest.mark.parametrize("field", ["weights", "means", "scales"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_discretize_priors_rejects_non_finite_or_huge(field, bad):
    rng = np.random.default_rng(3)
    fs = random_stack(rng)
    pri = run_entropy_stack(np.zeros((1, 3, 3)), rng.normal(size=(2, 3, 3)), fs)
    arrays = {f: np.array(getattr(pri, f), np.float64) for f in ("weights", "means", "scales")}
    arrays[field][1, 0, 2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        discretize_priors(harness.FloatPriors(**arrays), 10)


@pytest.mark.parametrize("field", ["means", "scales"])
@pytest.mark.parametrize("bad", [3e11, -6e14, 6e14])
def test_discretize_priors_rejects_values_past_the_params_bound(field, bad):
    # at scale 2^10 these land past 2^48 but below 2^63, where the int64
    # casts are still defined and the CDF arithmetic would wrap
    rng = np.random.default_rng(3)
    fs = random_stack(rng)
    pri = run_entropy_stack(np.zeros((1, 3, 3)), rng.normal(size=(2, 3, 3)), fs)
    arrays = {f: np.array(getattr(pri, f), np.float64) for f in ("weights", "means", "scales")}
    arrays[field][1, 0, 2, 1] = abs(bad) if field == "scales" else bad
    with pytest.raises(ValueError, match="below 2\\^48"):
        discretize_priors(harness.FloatPriors(**arrays), 10)


def test_float_roundtrip_rejects_priors_past_fixed_point():
    # a hyper value float32 can hold drives the float means to ~1e36, which
    # no int64 fixed-point value holds; cast anyway, both sides would agree
    # on the same garbage and the decode would read as equal
    pair, latent, hyper = fixture_pair()
    hyper[0, 3, 1] = 3e38
    enc, dec = BackendVariant("a", "seq", "float"), BackendVariant("b", "tree", "float")
    with pytest.raises(ValueError, match="non-finite"):
        roundtrip_experiment(pair, latent, hyper, enc, dec)


@pytest.mark.parametrize("mode", ["int", "float"])
def test_roundtrip_refuses_float_latents(mode):
    # cast to int64, latent + 0.6 would be coded as latent and read as equal
    pair, latent, hyper = fixture_pair()
    enc, dec = BackendVariant("a", "seq", mode), BackendVariant("b", "tree", mode)
    with pytest.raises(ValueError, match="latent symbols must be integers"):
        roundtrip_experiment(pair, latent + 0.6, hyper, enc, dec)
    with pytest.raises(ValueError, match="latent symbols must be integers"):
        calibrate_shifts(pair.float_stack, [(latent + 0.0, hyper)], grid=(8,), passes=1)
    assert roundtrip_experiment(pair, latent, hyper, enc, dec).decoded_equal


@pytest.mark.parametrize("mode", ["int", "float"])
def test_complex_hyper_latent_is_refused(mode):
    # cast to float, 1 + 5j would lose its imaginary part; integer mode
    # refuses it as device_steps quantizes it, float mode where it enters
    # the stack, as the decoder is built
    pair, latent, hyper = fixture_pair()
    with pytest.raises(ValueError, match="complex"):
        run_backend(pair, latent, hyper + 5j, BackendVariant("a", "seq", mode))


@pytest.mark.parametrize("dtype", ["U8", "S8", "bool"])
@pytest.mark.parametrize("mode", ["int", "float"])
def test_non_numeric_hyper_latent_is_refused(mode, dtype):
    # cast to float, text used to be parsed as numbers and booleans read
    # as 0 and 1
    pair, latent, hyper = fixture_pair()
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}"):
        run_backend(pair, latent, hyper.astype(dtype), BackendVariant("a", "seq", mode))


@pytest.mark.parametrize("mode", ["int", "float"])
def test_position_priors_refuse_a_hyper_latent_on_another_grid(mode):
    # at (1, 1) the decoder used to get priors from the 3x3 grid's hyper
    # features, and at (3, 0) a bare IndexError
    rng = np.random.default_rng(24)
    pair = make_stack_pair(random_stack(rng))
    hyper, device = rng.normal(size=(2, 3, 3)), BackendVariant("d", "seq", mode)
    canvas = random_latent(rng, (1, 4, 4))
    grid = r"\(3, 3\) under a latent of \(h, w\) \(4, 4\)"
    with pytest.raises(ShapeError, match=grid):
        run_backend(pair, canvas, hyper, device)
    # a decoder of the 4x4 latent is refused when it is built, before any step
    with pytest.raises(ShapeError, match=grid):
        device_steps(pair, hyper, device, canvas.shape)


# --- priors of one position ------------------------------------------------


def two_layer_context_pair(rng, latent_channels, k2=5):
    """Stack pair whose context chain is a masked 3x3 then a masked k2 x k2
    layer, so a position's causal window reaches R = 1 + k2 // 2 back."""
    fs = random_stack(rng, latent_channels=latent_channels)
    hidden = fs.context[0].out_channels
    w = rng.normal(0.0, 1.0 / math.sqrt(k2 * k2 * hidden), size=(hidden, k2, k2, hidden))
    fs.context.append(ConvLayerF(w, rng.normal(0.0, 0.05, hidden), mask=True))
    fs.context_cfg[0].p_out = fs.context_cfg[0].p_in
    fs.context_cfg.append(LayerCfg(n_i=16, p_in=fs.context_cfg[0].p_in, p_out=10))
    return make_stack_pair(fs)


def step_priors(steps):
    """A decoder's steps on a device, as harness._decode takes them
    (device_steps): a function giving the priors of positions at from what
    was entered before, and one entering the latent's symbols at
    positions."""
    priors, enter = steps
    return priors, lambda latent, at: enter(at, latent[(slice(None), *at)])


@pytest.mark.parametrize("mode", ["int", "float"])
@pytest.mark.parametrize("order", ["seq", "rev", "tree"])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 7), (1, 6, 5), (2, 5, 8)])
def test_position_priors_equal_whole_canvas_priors(mode, order, shape):
    rng = np.random.default_rng(sum(shape))
    pair = two_layer_context_pair(rng, shape[0])
    assert intops.context_reach(pair.quant_stack) == 3
    # the raster steps of a v1 stream: each position's priors, from the
    # symbols before it alone, equal those of the full canvas, where the
    # symbols at and after it are present too
    canvas = random_latent(rng, shape)
    hyper = rng.normal(size=(2, *shape[1:]))
    device = BackendVariant("d", order, mode)
    full = run_backend(pair, canvas, hyper, device)
    priors, enter = step_priors(device_steps(pair, hyper, device, shape))
    steps = harness._schedule(Bitstream(math.prod(shape), shape, b""), 3)
    assert [(ys.item(), xs.item()) for ys, xs in steps] == list(np.ndindex(shape[1:]))
    for ys, xs in steps:
        y, x = ys.item(), xs.item()
        at = (slice(None), slice(None), slice(y, y + 1), slice(x, x + 1))
        want = GmmParams(full.weights[at], full.means[at], full.scales[at], full.scale_exp)
        got = priors((ys, xs))
        assert got.field_shape == (shape[0], 1, 1)
        assert got.tobytes() == want.tobytes(), (y, x)
        enter(canvas, (ys, xs))


# context chains: one masked 3x3 (R = 1), one masked 5x5 (R = 2), two
# stacked masked 3x3 (R = 2), a masked 3x3 then 5x5 (R = 3)
CONTEXTS = {
    "3x3": (lambda rng, c: make_stack_pair(random_stack(rng, latent_channels=c)), 1),
    "5x5": (
        lambda rng, c: make_stack_pair(random_stack(rng, latent_channels=c, ctx_kernel=5)),
        2,
    ),
    "3x3+3x3": (lambda rng, c: two_layer_context_pair(rng, c, k2=3), 2),
    "3x3+5x5": (lambda rng, c: two_layer_context_pair(rng, c), 3),
}
DEVICES = [("seq", "int"), ("seq", "float"), ("rev", "float"), ("tree", "float")]


def in_order(a, at):
    """A (..., c, h, w) array flattened at positions at, each with its channels."""
    return harness._raster(a, at)


def wavefront_steps(shape, reach):
    """The decoder's steps for a v2 stream of a latent of this shape."""
    return harness._schedule(Bitstream(math.prod(shape), shape, b"", reach), reach)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(CONTEXTS)),
    st.integers(1, 2),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**16),
)
# one row; one column; fewer columns than R + 1, so some anti-diagonals are empty
@example("3x3+5x5", 2, 1, 3, 0)
@example("5x5", 1, 4, 1, 1)
@example("3x3+3x3", 2, 4, 2, 2)
def test_band_priors_equal_whole_canvas_priors(context, c, h, w, seed):
    # each wavefront step's priors, from the symbols of earlier steps alone
    # as a decoder enters them, equal the whole-canvas priors
    build, reach = CONTEXTS[context]
    rng = np.random.default_rng(seed)
    pair = build(rng, c)
    assert intops.context_reach(pair.quant_stack) == reach
    latent = random_latent(rng, (c, h, w))
    hyper = rng.normal(size=(2, h, w))
    steps = wavefront_steps(latent.shape, reach)
    assert len(steps) <= (w - 1) + (reach + 1) * (h - 1) + 1
    for order, mode in DEVICES:
        device = BackendVariant("d", order, mode)
        full = run_backend(pair, latent, hyper, device).fields
        priors, enter = step_priors(device_steps(pair, hyper, device, latent.shape))
        for ys, xs in steps:
            got = priors((ys, xs))
            assert ys.shape == xs.shape == (len(ys), 1)
            assert got.field_shape == (c, len(ys), 1)
            want = full[..., ys, xs]
            assert got.fields.tobytes() == want.tobytes(), (order, mode, ys, xs)
            enter(latent, (ys, xs))


@pytest.mark.parametrize(
    "h, w, reach", [(1, 1, 1), (1, 5, 2), (4, 1, 1), (5, 2, 2), (6, 7, 3)]
)
def test_wavefront_steps_read_only_earlier_steps(h, w, reach):
    # every position of a causal window of the given reach -- rows above
    # within reach, and the row's own earlier columns -- lies in an earlier
    # step; counted here position by position
    steps = wavefront_steps((1, h, w), reach)
    step_of = {}
    for k, at in enumerate(steps):
        ys, xs = (a[:, 0] for a in at)  # each step's (P, 1) index arrays
        assert list(ys) == sorted(ys) and len(set(xs + (reach + 1) * ys)) == 1
        step_of.update({(int(y), int(x)): k for y, x in zip(ys, xs)})
    assert sorted(step_of) == [(y, x) for y in range(h) for x in range(w)]
    for (y, x), k in step_of.items():
        window = [(y, x - d) for d in range(1, reach + 1)]
        window += [
            (y - dy, x + dx) for dy in range(1, reach + 1) for dx in range(-reach, reach + 1)
        ]
        assert all(step_of[p] < k for p in window if p in step_of), (y, x)
    assert len(steps) == len({x + (reach + 1) * y for y, x in step_of})


@pytest.mark.parametrize(
    "context, shape", [("3x3", (1, 6, 5)), ("5x5", (2, 4, 6)), ("3x3+3x3", (2, 5, 3))]
)
def test_v2_roundtrip_exact_for_all_order_pairs(context, shape):
    # criterion 3 for wavefront streams: each of the 9 encoder/decoder
    # order pairs in integer mode decodes the serialized v2 stream exactly
    # and regenerates the encoder's priors row for row
    build, reach = CONTEXTS[context]
    rng = np.random.default_rng(len(context) + sum(shape))
    pair = build(rng, shape[0])
    for _ in range(3):
        latent = random_latent(rng, shape)
        hyper = rng.normal(size=(2, *shape[1:]))
        at = harness._coding_order(*shape[1:], reach)[:2]
        sent = in_order(latent, at)
        for eo in harness.ORDERS:
            enc = run_backend(pair, latent, hyper, BackendVariant("e", eo))
            data = harness._encode(enc, latent, reach)[0].to_bytes()
            stream = Bitstream.from_bytes(data)
            assert stream.version == 2 and stream.reach == reach
            for do in harness.ORDERS:
                steps = device_steps(pair, hyper, BackendVariant("d", do), stream.shape)
                got, rows = harness._decode(stream, steps, reach)
                assert got == sent.tolist(), (eo, do)
                np.testing.assert_array_equal(rows, in_order(enc.fields, at))
                rep = roundtrip_experiment(
                    pair, latent, hyper, BackendVariant("e", eo), BackendVariant("d", do)
                )
                assert rep == harness.InteropReport(True, None, 0.0)


def test_v2_stream_codes_the_raster_rows_in_wavefront_order():
    # the payload is rc_encode of the v1 symbols and table rows, permuted
    # into wavefront order: positions by x + (R+1)y, then y, each followed
    # by its channels
    rng = np.random.default_rng(7)
    pair = make_stack_pair(random_stack(rng, latent_channels=2, ctx_kernel=5))
    c, h, w, reach = 2, 4, 6, 2
    latent = random_latent(rng, (c, h, w))
    params = run_backend(pair, latent, rng.normal(size=(2, h, w)), BackendVariant("e"))
    raster_rows = field_tables(params, -8, 8).cf
    positions = sorted(np.ndindex(h, w), key=lambda p: (p[1] + (reach + 1) * p[0], p[0]))
    index = [(y * w + x) * c + ch for y, x in positions for ch in range(c)]
    symbols = latent.transpose(1, 2, 0).ravel()[index]
    want = rc_encode(symbols, CdfTable(-8, 8, raster_rows[index]), (c, h, w))
    got = harness._encode(params, latent, reach)[0]
    assert got == Bitstream(want.count, want.shape, want.payload, reach)


def test_decoder_refuses_a_stream_of_another_reach():
    rng = np.random.default_rng(3)
    pair = make_stack_pair(random_stack(rng))  # a 3x3 context: reach 1
    latent = random_latent(rng, (1, 4, 4))
    hyper = rng.normal(size=(2, 4, 4))
    device = BackendVariant("d")
    stream = harness._encode(run_backend(pair, latent, hyper, device), latent, 2)[0]
    with pytest.raises(StreamFormatError, match="reach 2"):
        harness._decode(stream, device_steps(pair, hyper, device, stream.shape), 1)
    # a model without a context model has no wavefront order
    with pytest.raises(StreamFormatError, match="reach 2"):
        harness._decode(stream, device_steps(pair, hyper, device, stream.shape), None)
    # a reach-2 window holds a reach-1 one
    got, _ = harness._decode(stream, device_steps(pair, hyper, device, stream.shape), 2)
    assert got == in_order(latent, harness._coding_order(4, 4, 2)[:2]).tolist()


def test_decoder_refuses_a_stream_of_another_channel_count():
    # the decoder's symbols enter the stack one step at a time, so the
    # stream's channel count is checked before the first step; without a
    # context model no symbol enters, and the decoder used to return half
    # the symbols of a 2-channel stream under a 1-channel stack
    for with_context, reach in ((True, 1), (False, None)):
        rng = np.random.default_rng(3)
        pair = make_stack_pair(random_stack(rng, with_context=with_context))  # one channel
        latent = random_latent(rng, (1, 4, 4))
        hyper, device = rng.normal(size=(2, 4, 4)), BackendVariant("d")
        stream = harness._encode(run_backend(pair, latent, hyper, device), latent, reach)[0]
        two = Bitstream(stream.count, (2, 4, 4), stream.payload, reach)
        with pytest.raises(ShapeError, match="latent has 2 channels, the stack codes 1"):
            harness._decode(two, device_steps(pair, hyper, device, two.shape), reach)


@pytest.mark.parametrize("mode", ["int", "float"])
def test_model_without_context_refuses_a_latent_of_another_channel_count(mode):
    # without a context model no symbol enters the stack, and a (3, 5, 5)
    # latent under a 1-channel model used to get a (1, 5, 5) prior field
    rng = np.random.default_rng(25)
    pair = make_stack_pair(random_stack(rng, with_context=False))  # one channel
    latent = random_latent(rng, (3, 5, 5))
    hyper = np.zeros((2, 5, 5), np.int64)
    stack = pair.quant_stack if mode == "int" else pair.float_stack
    msg = "latent has 3 channels, the stack codes 1"
    with pytest.raises(ShapeError, match=msg):
        run_backend(pair, latent, hyper, BackendVariant("d", "seq", mode))
    with pytest.raises(ShapeError, match=msg):
        run_entropy_stack(latent, hyper, stack)


def test_v1_context_stream_decodes_through_the_raster_schedule():
    # a stream written with field_tables and rc_encode, as before v2,
    # decodes one raster position per step
    rng = np.random.default_rng(5)
    pair = make_stack_pair(random_stack(rng, latent_channels=2))
    latent = random_latent(rng, (2, 5, 4))
    hyper = rng.normal(size=(2, 5, 4))
    params = run_backend(pair, latent, hyper, BackendVariant("e", "rev"))
    symbols = latent.transpose(1, 2, 0).ravel()
    stream = rc_encode(symbols, field_tables(params, -8, 8), latent.shape)
    stream = Bitstream.from_bytes(stream.to_bytes())
    assert stream.version == 1 and stream.reach is None
    steps = harness._schedule(stream, 1)
    assert [(ys.item(), xs.item()) for ys, xs in steps] == list(np.ndindex(5, 4))
    # any v1 shape, empty ones too: the steps are the coding order's
    # positions, one raster position each
    for h, w in np.ndindex(6, 7):
        steps = harness._schedule(Bitstream(h * w, (1, h, w), b""), 1)
        ys, xs, _ = harness._coding_order(h, w)
        assert [(y.tolist(), x.tolist()) for y, x in steps] == [
            ([[y]], [[x]]) for y, x in zip(ys.tolist(), xs.tolist())
        ]
        assert list(zip(ys.tolist(), xs.tolist())) == list(np.ndindex(h, w))
    steps = device_steps(pair, hyper, BackendVariant("d", "tree"), stream.shape)
    got, rows = harness._decode(stream, steps, 1)
    assert got == symbols.tolist()
    np.testing.assert_array_equal(rows, harness._raster(params.fields))


@pytest.mark.parametrize("order", harness.ORDERS)
def test_float_mode_sums_in_the_variant_order(order, monkeypatch):
    # discretized priors of two orders can be byte-equal, so the test reads
    # the order each float convolution is asked for
    pair, latent, hyper = fixture_pair()
    seen = set()
    conv = harness.conv_ordered_float

    def recording_conv(x, layer, order):
        seen.add(order)
        return conv(x, layer, order)

    monkeypatch.setattr(harness, "conv_ordered_float", recording_conv)
    device = BackendVariant("d", order, "float")
    priors, _ = device_steps(pair, hyper, device, latent.shape)
    assert seen == {order}  # the hyperdecoder runs as the decoder is built
    at = (np.array([[2]]), np.array([[1]]))
    for run in (lambda: run_backend(pair, latent, hyper, device), lambda: priors(at)):
        seen.clear()
        run()
        assert seen == {order}
    assert pair.float_stack.order == "seq"


def test_causal_window_is_clipped_receptive_field():
    # each context layer of a step reads the K x K window around each
    # position of its input, zero outside the canvas; through the causal
    # masks of a 3x3 then a 5x5 layer, a position's priors read only
    # positions of its reach-3 causal window, clipped to the canvas
    pair = two_layer_context_pair(np.random.default_rng(4), 1)
    stack = pair.quant_stack
    r = intops.context_reach(stack)
    assert r == 3
    h, w = 9, 10
    steps = intops.StepDecoder(np.zeros((2, h, w), np.int64), stack, (1, h, w))
    # every canvas holds 1 + the raster index of each position, and its
    # padded carrier 0 outside
    index = 1 + np.arange(h * w).reshape(h, w)
    reads = []
    for layer, canvas, win in zip(stack.context, steps.canvases, steps._windows):
        k = layer.kernel
        canvas[..., 0] = index
        for y, x in ((5, 4), (0, w - 1), (h - 1, 0)):
            square = np.pad(index, k // 2)[y : y + k, x : x + k]
            np.testing.assert_array_equal(win[y, x, 0], square)
        kept = (win[..., 0, :, :] * causal_mask(k)).astype(int)
        reads.append({(y, x): set(kept[y, x].ravel()) - {0} for y, x in np.ndindex(h, w)})
    first, second = reads

    def field(y, x):
        """(y, x)'s receptive field: the second layer reads first-layer
        outputs, each of which reads symbols."""
        return {divmod(s - 1, w) for q in second[y, x] for s in first[divmod(q - 1, w)]}

    for y, x in np.ndindex(h, w):
        window = {(y, x - d) for d in range(1, r + 1)}
        window |= {(y - dy, x + dx) for dy in range(1, r + 1) for dx in range(-r, r + 1)}
        assert field(y, x) <= window, (y, x)
    # an inner position's field spans R rows up and R columns either side;
    # at the canvas edges it is clipped
    spans = {(5, 4): (2, 5, 1, 7), (h - 1, w - 1): (5, 8, 6, 9), (1, 0): (0, 0, 0, 1)}
    for (y, x), span in spans.items():
        ys, xs = zip(*field(y, x))
        assert (min(ys), max(ys), min(xs), max(xs)) == span, (y, x)


def roundtrip_side(monkeypatch):
    """A one-item list naming the side of a roundtrip_experiment that runs:
    "enc" inside its encoder's run_backend, else "dec"."""
    side, backend = ["dec"], harness.run_backend

    def encoder_backend(*args):
        side[0] = "enc"
        try:
            return backend(*args)
        finally:
            side[0] = "dec"

    monkeypatch.setattr(harness, "run_backend", encoder_backend)
    return side


def test_decoder_runs_gather_once_per_position(monkeypatch):
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    gather = {id(lyr) for lyr in pair.quant_stack.gather}
    positions = {"enc": 0, "dec": 0}
    side = roundtrip_side(monkeypatch)
    conv = intops.qconv_forward

    def counting_conv(x, layer):
        if id(layer) in gather:
            positions[side[0]] += x.shape[1] * x.shape[2]
        return conv(x, layer)

    monkeypatch.setattr(intops, "qconv_forward", counting_conv)
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "tree")
    )
    assert rep.decoded_equal and rep.prior_max_reldiff == 0.0
    # rerunning gather on the whole canvas after every position costs 7*hw*(hw+1)
    assert positions == {"enc": 7 * 8 * 8, "dec": 7 * 8 * 8}


def test_codec_width_roundtrip_runs_the_context_layer_once_per_position(monkeypatch):
    # the wide.blob model: 192-wide layers, a 5x5 context kernel (R = 2)
    # and 32 channels, on a 32x8x8 latent.  Each step's context layer
    # used to run on its band, 758 positions in all
    pair = make_stack_pair(
        random_stack(
            np.random.default_rng(2027),
            latent_channels=32,
            hyper_channels=32,
            hidden=192,
            ctx_kernel=5,
        )
    )
    rng = np.random.default_rng(2030)
    latent, hyper = random_latent(rng, (32, 8, 8)), rng.normal(size=(32, 8, 8))
    context = pair.quant_stack.context
    positions = {"enc": 0, "dec": 0}
    side = roundtrip_side(monkeypatch)
    conv = intops.qconv_forward

    def counting_conv(x, layer):
        if layer is context[0]:
            positions[side[0]] += x.shape[1] * x.shape[2]
        return conv(x, layer)

    monkeypatch.setattr(intops, "qconv_forward", counting_conv)
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "tree")
    )
    assert rep.decoded_equal and rep.prior_max_reldiff == 0.0
    assert positions == {"enc": 64, "dec": 64}


@pytest.mark.parametrize("mode", ["int", "float"])
def test_each_side_runs_the_hyperdecoder_once(mode, monkeypatch):
    # the hyperdecoder reads only the hyper latent: each side of a
    # roundtrip runs each of its layers once, when its StepDecoder is built
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    stack = pair.quant_stack if mode == "int" else pair.float_stack
    layers = [id(lyr) for lyr in stack.hyperdecoder]
    runs = {"enc": [], "dec": []}
    side = roundtrip_side(monkeypatch)
    module, name = (intops, "qconv_forward") if mode == "int" else (harness, "conv_ordered_float")
    conv = getattr(module, name)

    def counting_conv(x, layer, *order):
        if id(layer) in layers:
            runs[side[0]].append(id(layer))
        return conv(x, layer, *order)

    monkeypatch.setattr(module, name, counting_conv)
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq", mode), BackendVariant("d", "tree", mode)
    )
    assert rep.decoded_equal
    assert runs == {"enc": layers, "dec": layers}


def test_roundtrip_checks_each_activation_once_where_it_enters(monkeypatch):
    # the range check runs on the hyper latent and on the canvas (a decoder
    # step's own symbols, where they enter), never inside a chain:
    # requantize clamps each layer's output to the next layer's bits, and
    # LeakyReLU never grows it
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    checks = {"enc": 0, "dec": 0}
    side = roundtrip_side(monkeypatch)
    exceeds = intops.exceeds

    def counting_exceeds(arr, lim):
        checks[side[0]] += 1
        return exceeds(arr, lim)

    monkeypatch.setattr(intops, "exceeds", counting_exceeds)
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "tree")
    )
    assert rep.decoded_equal
    # one decoder step per anti-diagonal x + (R+1)y of the 8x8 latent
    steps = len(set(harness._coding_order(8, 8, intops.context_reach(pair.quant_stack))[2]))
    assert steps == 22
    # the encoder's hyper latent and canvas; the decoder's hyper latent and
    # each step's symbols, once each, but the last step's, which no step
    # reads and which do not enter.  A check per layer made 10 and
    # 2 + 8 * steps = 178
    assert checks == {"enc": 2, "dec": 1 + steps - 1}


def test_float_roundtrip_checks_each_input_once_where_it_enters(monkeypatch):
    # EntropyStackF.enter casts, checks and transposes the hyper latent and
    # the canvas (a decoder step's own symbols, where they enter); no layer
    # checks its input again
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    checks = {"enc": 0, "dec": 0}
    side = roundtrip_side(monkeypatch)
    check = harness.check_conv_input

    def counting_check(x, layer):
        checks[side[0]] += 1
        return check(x, layer)

    monkeypatch.setattr(harness, "check_conv_input", counting_check)
    rep = roundtrip_experiment(
        pair,
        latent,
        hyper,
        BackendVariant("e", "seq", "float"),
        BackendVariant("d", "seq", "float"),
    )
    assert rep.decoded_equal
    steps = len(set(harness._coding_order(8, 8, intops.context_reach(pair.quant_stack))[2]))
    assert steps == 22
    # the last step's symbols do not enter: no step reads them.  A check
    # per layer made 10 and 2 + 8 * steps = 178
    assert checks == {"enc": 2, "dec": 1 + steps - 1}


@pytest.mark.parametrize("mode", ["int", "float"])
def test_stack_carries_activations_channels_last(mode, monkeypatch):
    # every layer step takes a C-contiguous (h, w, m) array, the carrier,
    # or a context layer's (h, w, m, K, K) windows cut from it, which is
    # im2col's operand (in int mode through qconv_forward's (c, h, w)
    # view, so the same memory, shape and strides), and a 1x1 layer's
    # im2col operand is that array reshaped: no copy
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    stack, owner, dtype = {
        "int": (intops.EntropyStack, intops, np.float64),
        "float": (harness.EntropyStackF, harness, np.float32),
    }[mode]
    steps, cols = [], []
    windows = {"enc": 0, "dec": 0}  # positions whose windows a step takes
    side = roundtrip_side(monkeypatch)
    step, cut = stack.layer_step, owner.im2col

    def recording_step(self, x, layer, *args):
        steps.append((x, layer))
        if x.ndim == 5:
            windows[side[0]] += x.shape[0] * x.shape[1]
        return step(self, x, layer, *args)

    def recording_im2col(data, k):
        cols.append((data, cut(data, k)))
        return cols[-1][1]

    monkeypatch.setattr(stack, "layer_step", recording_step)
    monkeypatch.setattr(owner, "im2col", recording_im2col)
    variant = BackendVariant("e", "seq", mode)
    rep = roundtrip_experiment(pair, latent, hyper, variant, variant)
    assert rep.decoded_equal
    assert len(steps) == len(cols)
    kernels = set()
    model = {"int": pair.quant_stack, "float": pair.float_stack}[mode]
    context = {id(layer) for layer in model.context}
    for (x, layer), (data, out) in zip(steps, cols):
        same = [(a.ctypes.data, a.dtype, a.shape, a.strides) for a in (data, x)]
        assert same[0] == same[1]
        assert x.dtype == dtype and x.flags.c_contiguous
        assert x.ndim in (3, 5) and x.shape[2] == layer.in_channels
        # the context layer, and only it, runs on windows
        assert (x.ndim == 5) == (id(layer) in context)
        if x.ndim == 5:
            assert x.shape[3:] == (layer.kernel, layer.kernel)
        kernels.add(layer.kernel)
        if layer.kernel == 1:
            assert np.shares_memory(out, x)
    assert kernels == {1, 3}
    # each side's context layer runs on each position's window once: the
    # encoder's one step on all 64, the decoder's steps on their own
    assert windows == {"enc": 64, "dec": 64}


def test_decoder_without_context_builds_tables_in_one_call(monkeypatch):
    rng = np.random.default_rng(33)
    pair = make_stack_pair(random_stack(rng, latent_channels=2, with_context=False))
    latent = random_latent(rng, (2, 4, 5))
    hyper = rng.normal(size=(2, 4, 5))
    calls = []
    build = harness.build_cdf_table

    def counting_build(params, v_min, v_max):
        calls.append(params.field_shape)
        return build(params, v_min, v_max)

    monkeypatch.setattr(harness, "build_cdf_table", counting_build)
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "rev")
    )
    assert rep.decoded_equal and rep.prior_max_reldiff == 0.0
    # one whole field per side, in coding order: the encoder's 40 rows
    # gathered from its field, the decoder's (c, h, w) field, whose prior
    # rows are already in that order
    assert calls == [(40,), (2, 4, 5)]


def test_ar_roundtrip_checks_each_steps_prior_rows_once(monkeypatch):
    # the encoder's field and each decoder step's rows are checked once, in
    # the one GmmParams the head builds: the encoder gathers its coded rows
    # from its checked field, and no step builds a second GmmParams
    rng = np.random.default_rng(34)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 4, 5))
    hyper = rng.normal(size=(2, 4, 5))
    reach = intops.context_reach(pair.quant_stack)
    steps = len(np.unique(harness._coding_order(4, 5, reach)[2]))
    assert steps == 4 + 2 * 3 + 1
    checks, built = [], []
    check, own = gmm._check_rows, GmmParams._own
    monkeypatch.setattr(gmm, "_check_rows", lambda r, e: checks.append(r.shape) or check(r, e))
    monkeypatch.setattr(GmmParams, "_own", lambda p, *a: built.append(a[1]) or own(p, *a))
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "tree")
    )
    assert rep == harness.InteropReport(True, None, 0.0)
    assert len(checks) == 1 + steps and checks[0] == (3, 3, 20)
    # the encoder's field and its gathered rows, then one per step
    assert len(built) == 2 + steps and built[:2] == [(1, 4, 5), (20,)]
    # a step whose head weights sum past 2^15 is refused on the decoder side
    enc = run_backend(pair, latent, hyper, BackendVariant("e"))
    stream = harness._encode(enc, latent, reach)[0]
    soft = intops.linear_softmax_field

    def heavy(z, scale_exp):
        weights = soft(z, scale_exp)
        weights[0] += 1
        return weights

    monkeypatch.setattr(intops, "linear_softmax_field", heavy)
    dec = device_steps(pair, hyper, BackendVariant("d", "tree"), stream.shape)
    with pytest.raises(ValueError, match="sum to 2\\^15"):
        harness._decode(stream, dec, reach)


# --- roundtrips -----------------------------------------------------------


def check_field_tables_against_oracle(shape):
    # every element distinct, so a wrong order or mixed-up columns shows
    rng = np.random.default_rng(8)
    w1 = rng.integers(0, WEIGHT_TOTAL + 1, shape)
    w2 = rng.integers(0, WEIGHT_TOTAL + 1, shape) % (WEIGHT_TOTAL - w1 + 1)
    weights = np.stack([w1, w2, WEIGHT_TOTAL - w1 - w2])
    means = rng.integers(-900, 900, (3,) + shape)
    scales = rng.integers(20, 1200, (3,) + shape)
    flat_w, flat_mu, flat_sg = (a.reshape(3, -1) for a in (weights, means, scales))
    flat_w[:, 0] = [WEIGHT_TOTAL, 0, 0]  # zero-weight components
    flat_w[:, -1] = [0, WEIGHT_TOTAL // 2, WEIGHT_TOTAL // 2]
    flat_mu[:, 1] = [5000, -5000, 3000]  # beyond the +-6 sigma Phi clamp
    flat_sg[:, 1] = [200, 300, 100]
    flat_sg[:, -2] = sigma_min_for(8)
    params = GmmParams(weights=weights, means=means, scales=scales, scale_exp=8)

    tables = field_tables(params, -8, 8)
    c, h, w = shape
    assert len(tables) == c * h * w
    # coding order: raster position, then channel
    for row, (y, x, ch) in zip(tables.cf, np.ndindex(h, w, c)):
        sel = (slice(None), ch, y, x)
        want = cdf_table_oracle(
            [int(v) for v in weights[sel]],
            [int(v) for v in means[sel]],
            [int(v) for v in scales[sel]],
            8,
            -8,
            8,
        )
        np.testing.assert_array_equal(row, want)


def test_field_tables_match_oracle_in_coding_order():
    # several channels and positions are built transposed, one of either not
    for shape in [(2, 3, 4), (3, 4, 5), (1, 3, 4), (3, 1, 1)]:
        check_field_tables_against_oracle(shape)

    empty = np.zeros((3, 1, 0, 0), dtype=np.int64)
    params = GmmParams(weights=empty, means=empty, scales=empty, scale_exp=8)
    assert len(field_tables(params, -8, 8)) == 0


def test_int_roundtrip_all_variant_pairs():
    pair, latent, hyper = fixture_pair()
    for eo in ("seq", "rev", "tree"):
        for do in ("seq", "rev", "tree"):
            rep = roundtrip_experiment(
                pair, latent, hyper, BackendVariant("e", eo), BackendVariant("d", do)
            )
            assert rep.decoded_equal and rep.first_mismatch is None
            assert rep.prior_max_reldiff == 0.0


def test_float_roundtrip_same_variant():
    pair, latent, hyper = fixture_pair()
    rep = roundtrip_experiment(
        pair,
        latent,
        hyper,
        BackendVariant("e", "seq", "float"),
        BackendVariant("d", "seq", "float"),
    )
    assert rep.decoded_equal


def test_float_roundtrip_runs_hyperdecoder_once_per_side(monkeypatch):
    # the hyperdecoder does not see the latent, so each side runs it once
    # however many canvases the decoder evaluates
    rng = np.random.default_rng(12)
    pair = make_stack_pair(random_stack(rng))
    latent = random_latent(rng, (1, 8, 8))
    hyper = rng.normal(size=(2, 8, 8))
    hyper_layers = {id(lyr) for lyr in pair.float_stack.hyperdecoder}
    calls = {"enc": 0, "dec": 0}
    side = roundtrip_side(monkeypatch)
    conv = harness.conv_ordered_float

    def counting_conv(x, layer, order):
        calls[side[0]] += id(layer) in hyper_layers
        return conv(x, layer, order)

    monkeypatch.setattr(harness, "conv_ordered_float", counting_conv)
    rep = roundtrip_experiment(
        pair,
        latent,
        hyper,
        BackendVariant("e", "seq", "float"),
        BackendVariant("d", "seq", "float"),
    )
    assert rep.decoded_equal
    assert calls == {"enc": 2, "dec": 2}


def test_roundtrip_without_context_model():
    rng = np.random.default_rng(33)
    fs = random_stack(rng, with_context=False)
    pair = make_stack_pair(fs)
    latent = random_latent(rng, (1, 4, 4))
    hyper = rng.normal(size=(2, 4, 4))
    rep = roundtrip_experiment(
        pair, latent, hyper, BackendVariant("e", "seq"), BackendVariant("d", "tree")
    )
    assert rep.decoded_equal


@pytest.mark.parametrize("mode", ["int", "float"])
@pytest.mark.parametrize("shape", [(1, 0, 4), (1, 3, 0)])
def test_roundtrip_of_an_empty_latent(mode, shape):
    # the prior difference of an empty field used to raise from np.max
    pair, _, _ = fixture_pair()
    rep = roundtrip_experiment(
        pair,
        np.zeros(shape, np.int64),
        np.zeros((2, *shape[1:])),
        BackendVariant("e", "seq", mode),
        BackendVariant("d", "tree", mode),
    )
    assert rep == harness.InteropReport(True, None, 0.0)


def test_roundtrip_rejects_out_of_alphabet_symbols():
    pair, latent, hyper = fixture_pair()
    bad = latent.copy()
    bad[0, 0, 0] = 99
    with pytest.raises(ValueError):
        roundtrip_experiment(
            pair, bad, hyper, BackendVariant("e", "seq"), BackendVariant("d", "seq")
        )


def off_payload_case(seed, with_context):
    """A float model, latent and hyper latent whose seq-encoded stream a
    decoder in another order runs off: seed 190 without a context model
    (decoded in tree order), seed 169 with one (in rev order, from its v2
    stream).  Seed 25 with a context model runs off its v1 stream in rev
    order; in wavefront order its one differing table costs no symbol."""
    rng = np.random.default_rng(seed)
    fs = random_stack(
        rng, hidden=24, p_gather=15, p_inner=12, with_context=with_context, latent_channels=2
    )
    return fs, random_latent(rng, (2, 12, 12)), rng.normal(size=(2, 12, 12))


@pytest.mark.parametrize(
    "seed, with_context, dec_order",
    [(190, False, "tree"), (169, True, "rev")],
    ids=["no-context", "autoregressive"],
)
def test_decode_off_the_payload_is_a_divergence(seed, with_context, dec_order, monkeypatch):
    # it used to escape as StreamFormatError("truncated payload")
    decoded, stops = [], []

    class Recording(RangeDecoder):
        def decode(self, cf, v_min):
            try:
                decoded.append(super().decode(cf, v_min))
            except StreamFormatError:
                stops.append(len(decoded))
                raise
            return decoded[-1]

    monkeypatch.setattr(harness, "RangeDecoder", Recording)
    fs, latent, hyper = off_payload_case(seed, with_context)
    enc, dec = BackendVariant("e", "seq", "float"), BackendVariant("d", dec_order, "float")
    rep = roundtrip_experiment(make_stack_pair(fs), latent, hyper, enc, dec)
    assert stops and len(decoded) < latent.size
    # the first differing decoded symbol in coding order, or where decoding stopped
    reach = 1 if with_context else None
    sent = in_order(latent, harness._coding_order(12, 12, reach)[:2])
    diff = np.flatnonzero(sent[: len(decoded)] != decoded)
    assert rep.first_mismatch == (diff[0] if diff.size else len(decoded))
    assert not rep.decoded_equal
    assert 0 < rep.prior_max_reldiff < math.inf


def test_decode_off_the_payload_decodes_each_symbol_once(monkeypatch):
    # a decoder that decoded the field again after running off it made
    # 516 calls for the 257 symbols it returned
    calls, returned = [], []
    decode = RangeDecoder.decode

    def counting(self, cf, v_min):
        calls.append(1)
        returned.append(decode(self, cf, v_min))
        return returned[-1]

    monkeypatch.setattr(RangeDecoder, "decode", counting)
    fs, latent, hyper = off_payload_case(190, False)
    enc, dec = BackendVariant("e", "seq", "float"), BackendVariant("d", "tree", "float")
    rep = roundtrip_experiment(make_stack_pair(fs), latent, hyper, enc, dec)
    assert not rep.decoded_equal
    assert len(calls) <= len(returned) + 1  # the last call ran off the payload
    assert 0 < len(returned) < latent.size


@pytest.mark.parametrize("mode", ["int", "float"])
def test_position_steps_decode_a_no_context_stream_as_one_step(mode):
    # without a context model a position's priors do not read the canvas,
    # so the raster steps of a reach-0 model decode the v1 stream the same
    rng = np.random.default_rng(33)
    pair = make_stack_pair(random_stack(rng, latent_channels=2, with_context=False))
    latent = random_latent(rng, (2, 4, 5))
    hyper = rng.normal(size=(2, 4, 5))
    device = BackendVariant("d", "tree", mode)
    stream = harness._encode(run_backend(pair, latent, hyper, device), latent)[0]
    assert harness._schedule(stream, None) == [np.s_[:, :]]
    got, rows = harness._decode(stream, device_steps(pair, hyper, device, stream.shape), None)
    np.testing.assert_array_equal(got, latent.transpose(1, 2, 0).ravel())
    assert rows.shape == (3, 3, latent.size)
    assert len(harness._schedule(stream, 0)) == 4 * 5
    steps = harness._decode(stream, device_steps(pair, hyper, device, stream.shape), 0)
    np.testing.assert_array_equal(steps[0], got)
    np.testing.assert_array_equal(steps[1], rows)


# --- failure demo ---------------------------------------------------------


def test_demo_float_priors_fail():
    rep = boundary_failure_demo()
    assert not rep.decoded_equal
    assert rep.first_mismatch == 4  # frozen: cascade from the perturbed element
    assert rep.prior_max_reldiff > 0


def test_demo_integer_priors_roundtrip():
    rep = boundary_failure_demo(prior_mode="int")
    assert rep.decoded_equal and rep.first_mismatch is None


def test_report_text_format():
    txt = boundary_failure_demo().to_text()
    assert "decoded_equal=false" in txt
    assert "first_mismatch=4" in txt


# --- calibration ----------------------------------------------------------


def calib_case(seed=5):
    rng = np.random.default_rng(seed)
    fs = random_stack(rng)
    cal = [(random_latent(rng, (1, 4, 4)), rng.normal(size=(2, 4, 4)))]
    return fs, cal


def test_calibrate_single_candidate_grid():
    fs, cal = calib_case()
    rep = calibrate_shifts(fs, cal, grid=(9,), passes=1)
    assert all(entry["p"] == 9 for entry in rep.layers)
    assert np.isfinite(rep.final_objective)


def test_calibrate_deterministic():
    fs1, cal = calib_case()
    fs2, _ = calib_case()
    r1 = calibrate_shifts(fs1, cal, grid=(8, 9, 10), passes=1)
    r2 = calibrate_shifts(fs2, cal, grid=(8, 9, 10), passes=1)
    assert r1.layers == r2.layers
    assert r1.final_objective == r2.final_objective


def test_calibrate_descends_and_picks_conditional_argmin():
    grid = (8, 9, 10)
    fs, cal = calib_case(seed=6)
    reference = copy.deepcopy(fs)
    rep = calibrate_shifts(fs, cal, grid=grid, passes=2)

    # the objective never increases along the coordinate-descent trace
    objs = [t["objective"] for t in rep.trace]
    assert all(a >= b for a, b in zip(objs, objs[1:]))
    assert rep.final_objective == objs[-1]

    def objective(stack):
        total = 0.0
        pair = make_stack_pair(stack)
        for latent, hyper in cal:
            total += int_cross_entropy_bits(
                latent, run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))
            )
        return total

    assert objective(fs) == pytest.approx(rep.final_objective)

    # first junction decision matches the exhaustive conditional argmin,
    # ties broken toward the smaller p
    first = reference.junctions()[0]
    best_p, best_obj = None, float("inf")
    for p in grid:
        trial = copy.deepcopy(reference)
        trial.set_junction_p(first, p)
        obj = objective(trial)
        if obj < best_obj:
            best_p, best_obj = p, obj
    assert rep.trace[0]["junction"] == first
    assert rep.trace[0]["p"] == best_p


def test_calibrate_layer_objective_is_its_last_decision():
    grid = (8, 9, 10)
    fs, cal = calib_case(seed=7)
    replay = copy.deepcopy(fs)
    rep = calibrate_shifts(fs, cal, grid=grid, passes=2)

    def objective(stack):
        pair = make_stack_pair(stack)
        return sum(
            int_cross_entropy_bits(
                latent, run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))
            )
            for latent, hyper in cal
        )

    # replay the decisions; each one's objective is that of the stack it leaves
    decided = {}
    for t in rep.trace:
        replay.set_junction_p(t["junction"], t["p"])
        if t["pass"] == rep.passes:
            decided[t["junction"]] = objective(replay)
    assert len(decided) == len(rep.layers)
    for entry in rep.layers:
        junction = (entry["subnetwork"], entry["index"])
        assert entry["objective"] == pytest.approx(decided[junction], rel=1e-12)


@pytest.mark.parametrize("seed, grid", [(5, (6,)), (6, (7,))])
def test_calibrate_reports_the_objective_of_the_stack_it_leaves(seed, grid):
    # the grid leaves out the gather junctions' p 10, so forced moves can
    # raise the objective; a running minimum reported 65.801 for 65.996
    fs, cal = calib_case(seed)
    replay = copy.deepcopy(fs)
    rep = calibrate_shifts(fs, cal, grid=grid, passes=1)

    def objective(stack):
        pair = make_stack_pair(stack)
        return sum(
            int_cross_entropy_bits(latent, run_backend(pair, latent, hyper, BackendVariant("o")))
            for latent, hyper in cal
        )

    objs = []
    for t in rep.trace:
        replay.set_junction_p(t["junction"], t["p"])
        objs.append(objective(replay))
        assert t["objective"] == pytest.approx(objs[-1], rel=1e-12)
    assert any(a < b for a, b in zip(objs, objs[1:]))  # a forced move raised it
    assert rep.final_objective == pytest.approx(objective(fs), rel=1e-12)


def test_calibrate_propagates_programming_errors(monkeypatch):
    fs, cal = calib_case()

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(harness, "quantize_layer", broken)
    with pytest.raises(TypeError, match="injected"):
        calibrate_shifts(fs, cal, grid=(9,), passes=1)


def unquantizable_at_p15(fs):
    """Give every layer a bias of 2^16, whose accumulator value 2^(16 + p_in)
    exceeds 32 bits at p_in = 15 alone; each junction sets some layer's p_in."""
    for _, layers, _ in fs.chains():
        for lyr in layers:
            lyr.bias[0] = 2.0**16


def test_calibrate_scores_unquantizable_point_inf():
    fs, cal = calib_case()
    unquantizable_at_p15(fs)
    initial = [fs.junction_p(j) for j in fs.junctions()]
    rep = calibrate_shifts(fs, cal, grid=(15,), passes=1)
    assert all(entry["objective"] == math.inf for entry in rep.layers)
    assert [fs.junction_p(j) for j in fs.junctions()] == initial
    assert np.isfinite(rep.final_objective)
    rep = calibrate_shifts(fs, cal, grid=(9, 15), passes=1)
    assert all(entry["p"] == 9 for entry in rep.layers)
    assert np.isfinite(rep.final_objective)


def test_calibrate_rejects_empty_set():
    fs, _ = calib_case()
    with pytest.raises(ValueError):
        calibrate_shifts(fs, [])


def test_cross_entropy_helpers_consistent():
    pair, latent, hyper = fixture_pair(seed=8)
    params = run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))
    ib = int_cross_entropy_bits(latent, params)
    pri = run_entropy_stack(latent, hyper, pair.float_stack)
    fb = float_cross_entropy_bits(latent, pri)
    assert ib > 0 and fb > 0
    assert abs(ib - fb) / fb < 0.05


def test_float_cross_entropy_refuses_what_the_coder_cannot_code():
    # float symbols were truncated to int64, a latent of another shape was
    # broadcast over the priors, and a symbol past the alphabet was folded in
    pair, latent, hyper = fixture_pair(seed=8)
    pri = run_entropy_stack(latent, hyper, pair.float_stack)
    want = float_cross_entropy_bits(latent, pri)
    assert float_cross_entropy_bits(latent.astype(np.int32), pri) == want
    with pytest.raises(ValueError, match="symbols must be integers"):
        float_cross_entropy_bits(latent + 0.25, pri)
    with pytest.raises(ValueError, match="outside the coder alphabet"):
        float_cross_entropy_bits(np.full_like(latent, 9), pri)
    with pytest.raises(ValueError, match="shape"):
        float_cross_entropy_bits(latent[:, :1], pri)  # (1, 1, 4) broadcasts over (3, 1, 4, 4)


def test_int_cross_entropy_is_the_rate_the_coder_codes(monkeypatch):
    pair, latent, hyper = fixture_pair(seed=8, latent_channels=2)
    latent = random_latent(np.random.default_rng(3), (2, 4, 4))
    params = run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))
    coded = []
    intervals = CdfTable.intervals

    def recording(self, symbols):
        lo, hi = intervals(self, symbols)
        coded.extend(zip(lo.tolist(), hi.tolist()))
        return lo, hi

    monkeypatch.setattr(CdfTable, "intervals", recording)
    symbols = latent.transpose(1, 2, 0).ravel()
    rc_encode(symbols, field_tables(params, -8, 8), shape=latent.shape)
    assert len(coded) == latent.size
    want = sum(-math.log2((hi - lo) / CDF_TOTAL) for lo, hi in coded)
    assert int_cross_entropy_bits(latent, params) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="symbol 9 at 0 outside"):
        int_cross_entropy_bits(np.full_like(latent, 9), params)
    with pytest.raises(ValueError, match="symbols must be integers"):
        int_cross_entropy_bits(latent + 0.25, params)
    with pytest.raises(ValueError, match="shape"):
        int_cross_entropy_bits(latent[:1], params)


@pytest.mark.parametrize("value", [9, -9])
def test_calibrate_rejects_latents_outside_the_alphabet(value):
    fs, cal = calib_case()
    latent, hyper = cal[0]
    latent = latent.copy()
    latent[0, 1, 1] = value
    before = [fs.junction_p(j) for j in fs.junctions()]
    with pytest.raises(ValueError, match="outside the coder alphabet"):
        calibrate_shifts(fs, cal + [(latent, hyper)], grid=(8, 9), passes=1)
    assert [fs.junction_p(j) for j in fs.junctions()] == before


def test_calibrate_refuses_a_grid_value_that_is_not_an_integer():
    # int() turned grid value 7.9 into 7
    fs, cal = calib_case()
    before = [fs.junction_p(j) for j in fs.junctions()]
    with pytest.raises(TypeError):
        calibrate_shifts(fs, cal, grid=(7.9, 9), passes=1)
    assert [fs.junction_p(j) for j in fs.junctions()] == before
    rep = calibrate_shifts(fs, cal, grid=(np.int64(9),), passes=1)
    assert all(entry["p"] == 9 for entry in rep.layers)


def test_random_latent_within_alphabet():
    rng = np.random.default_rng(9)
    lat = random_latent(rng, (2, 8, 8), bound=8)
    assert lat.min() >= -8 and lat.max() <= 8
