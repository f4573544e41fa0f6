"""Cross-device interop experiments, calibration, and the failure demo.

Cross-device floating-point variance is modeled by accumulation-order
variants (sequential, reversed, pairwise tree) executed in float32, and
only there: EntropyStackF carries the order it sums in, and device_steps
binds a float variant's order to it.  conv_ordered_float sums a
convolution's taps in all three orders through one loop, Higham's (1993)
general summation: it keeps pending partial sums and replaces the last two
by their sum, always for seq and rev, and for tree only while they hold as
many taps.  So it holds at most log2(T) + 1 partial sums beyond the
im2col columns, and runs float priors at codec width.  The integer
pipeline sums exactly, so it has no order, and the tests hold it to a
per-tap reference that sums in each order.  Encode-on-A / decode-on-B
experiments then show that float priors can break entropy decoding while
integer priors round-trip exactly.

A simulated device is the pair (priors, enter) of one intops.StepDecoder
(device_steps): a decoder's steps, and a whole latent's priors as its one
step over every position (run_backend).  In integer mode it quantizes its
raw latent and hyper latent with quantize.quantize_value, which rejects
non-finite values; float mode feeds them to EntropyStackF as they are,
whose entry checks that float32 holds them.  The float reference oracle
is intops.run_entropy_stack on an EntropyStackF.

Every experiment codes through one encoder (_encode) and one decoder
(_decode) in one coding order (_coding_order): positions by step
t = x + K*y, then by y.  v1 is raster order, K = w.  A stack with a context
model codes v2, K = R+1 for its context reach R: a step is an anti-diagonal
whose priors read only earlier steps.  _decode takes its steps as one
pair of functions, priors(at) and enter(at, symbols): a roundtrip passes
the decoder device's, one per stream (device_steps), and the failure demo
passes two functions over its fixed field, whose one step is the whole
grid.  The decoder enters each step's symbols once, and its StepDecoder
computes each context output once, at its own step: every context layer
masks its centre and every raster-later tap, so a window reads only
positions of earlier steps, whose cached values are final; the same holds
for the raster steps of a v1 stream.  Without a context model the whole
field is one decoder step; a v1 stream of a context model decodes one
position per step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .gmm import (
    CDF_TOTAL,
    WEIGHT_TOTAL,
    CdfTable,
    GmmParams,
    apportion,
    build_cdf_table,
    sigma_min_for,
)
from .intops import (
    LEAKY_NUM,
    LEAKY_SHIFT,
    SUBNETS,
    EntropyStack,
    StepDecoder,
    check_topology,
    context_reach,
)
from .quantize import WeightRangeError, quantize_layer, quantize_value, round_half_away
# rc_decode is not called here: it stays in this namespace because the
# benchmark tracer patches it here (perfbench/spans.py, TARGETS) until an
# in-library trace replaces that patching
from .rc import Bitstream, RangeDecoder, StreamFormatError, rc_decode, rc_encode
from .tensors import ConvLayerF, check_conv_input, im2col

__all__ = [
    "ORDERS",
    "BackendVariant",
    "InteropReport",
    "CalibrationReport",
    "LayerCfg",
    "EntropyStackF",
    "FloatPriors",
    "StackPair",
    "conv_ordered_float",
    "discretize_priors",
    "device_steps",
    "run_backend",
    "field_tables",
    "roundtrip_experiment",
    "boundary_failure_demo",
    "calibrate_shifts",
    "float_cross_entropy_bits",
    "int_cross_entropy_bits",
    "DEFAULT_SYMBOL_BOUND",
]

DEFAULT_SYMBOL_BOUND = 8
# the coder alphabet: every latent symbol lies in [_V_MIN, _V_MAX]
_V_MIN, _V_MAX = -DEFAULT_SYMBOL_BOUND, DEFAULT_SYMBOL_BOUND

# accumulation orders a simulated device may sum its float32 products in
ORDERS = ("seq", "rev", "tree")

# EntropyStackF field holding each subnetwork's LayerCfg list
CFG_FIELDS = dict(zip(SUBNETS, ("hyper_cfg", "context_cfg", "gather_cfg")))

_LEAKY_SLOPE = np.float32(LEAKY_NUM) / np.float32(1 << LEAKY_SHIFT)
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class BackendVariant:
    """One simulated device: an accumulation order and an arithmetic mode."""

    id: str
    order: str = "seq"
    mode: str = "int"

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValueError(f"unknown order {self.order!r}")
        if self.mode not in ("int", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class InteropReport:
    decoded_equal: bool
    first_mismatch: int | None
    prior_max_reldiff: float

    def to_text(self) -> str:
        mismatch = "none" if self.first_mismatch is None else str(self.first_mismatch)
        return (
            f"decoded_equal={'true' if self.decoded_equal else 'false'}\n"
            f"first_mismatch={mismatch}\n"
            f"prior_max_reldiff={self.prior_max_reldiff:.9e}\n"
        )


@dataclass
class LayerCfg:
    """Activation quantization parameters attached to one float layer."""

    n_i: int
    p_in: int
    p_out: int


@dataclass
class EntropyStackF:
    """Float entropy stack plus per-layer quantization configuration.

    Its arithmetic for the intops topology is float32: conv_ordered_float
    summing in `order` (one of ORDERS; not part of the manifest), LeakyReLU,
    and a float softmax and sigma floor giving FloatPriors.  Its carrier is
    a C-contiguous float32 (h, w, c) array; enter casts, checks and
    transposes an input once, where it enters a chain.  A stack is built
    only if its order is one of ORDERS and its wiring obeys check_topology,
    as an EntropyStack's is, and saved only if its wiring still does.
    """

    hyperdecoder: list
    context: list
    gather: list
    hyper_cfg: list
    context_cfg: list
    gather_cfg: list
    latent_channels: int
    order: str = "seq"

    carrier = np.float32  # the activation carrier's dtype

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValueError(f"unknown accumulation order {self.order!r}")
        self.check()

    def check(self):
        """ShapeError unless the wiring obeys check_topology.  The stack is
        checked when it is built and again when it is saved, since its
        lists can change in between."""
        check_topology(
            {name: list(zip(layers, cfgs)) for name, layers, cfgs in self.chains()},
            self.latent_channels,
        )

    def chains(self):
        return tuple((name, getattr(self, name), self._cfg(name)) for name in SUBNETS)

    @property
    def head_scale_exp(self) -> int:
        return self.gather_cfg[-1].p_out

    def junctions(self):
        """Calibratable p variables in topological order.

        Each junction is (chain_name, layer_index); setting it fixes that
        layer's p_in and every tied upstream p_out.
        """
        out = []
        for name, layers, _ in self.chains():
            out.extend((name, i) for i in range(len(layers)))
        return out

    def _cfg(self, name):
        return getattr(self, CFG_FIELDS[name])

    def junction_p(self, junction) -> int:
        name, i = junction
        return self._cfg(name)[i].p_in

    def set_junction_p(self, junction, p: int):
        name, i = junction
        cfg = self._cfg(name)
        cfg[i].p_in = p
        if i > 0:
            cfg[i - 1].p_out = p
        elif name == "gather":
            if self.hyper_cfg:
                self.hyper_cfg[-1].p_out = p
            if self.context_cfg:
                self.context_cfg[-1].p_out = p

    def enter(self, x, layer):
        """x, a (c, h, w) input of layer, as the float32 (h, w, c) carrier;
        the one check an input gets."""
        x = np.asarray(x)
        if x.dtype.kind not in "iufc":  # astype would parse text and read bools as 0, 1
            raise ValueError(f"input must be numeric, got dtype {x.dtype}")
        # float32 would hold such a value as inf or NaN, and the priors as
        # garbage; the comparison is false for NaN too.  A complex value
        # would lose its imaginary part.
        if x.dtype.kind == "c" or not np.all(np.abs(x.astype(float)) <= _F32_MAX):
            raise ValueError("input has complex or non-finite values, or values beyond float32")
        check_conv_input(x, layer)
        return x.transpose(1, 2, 0).astype(np.float32, order="C")

    def layer_step(self, x, layer, after, activation=True):
        x = conv_ordered_float(x, layer, self.order)
        return _leaky_float(x) if activation else x

    def fuse(self, feats) -> np.ndarray:
        return np.concatenate(feats, axis=-1)

    def decode_head(self, y: np.ndarray) -> FloatPriors:
        """FloatPriors of the (h, w, 9c) head, each kind (3, c, h, w): the
        carrier leaves the channels-last layout here."""
        p_e = self.head_scale_exp
        y = y.reshape(*y.shape[:2], self.latent_channels, 9).transpose(3, 2, 0, 1)
        z, means, scales = y[0:3], y[3:6], y[6:9]
        unit = np.float32(math.ldexp(1.0, -p_e))
        nums = np.maximum(np.float32(1.0) + z, unit)
        scales = np.maximum(scales, np.float32(sigma_min_for(p_e) * unit))
        return FloatPriors(nums / nums.sum(axis=0, keepdims=True), means, scales)

    def quantize(self) -> EntropyStack:
        return EntropyStack(
            **{
                name: [
                    quantize_layer(
                        lyr, n_i=c.n_i, p_in=c.p_in, p_out=c.p_out, name=f"{name}[{i}]"
                    )
                    for i, (lyr, c) in enumerate(zip(layers, cfgs))
                ]
                for name, layers, cfgs in self.chains()
            },
            latent_channels=self.latent_channels,
        )


@dataclass(frozen=True)
class FloatPriors:
    """Raw float mixture parameters, component axis first, shape (3, c, h, w)."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray


def conv_ordered_float(x: np.ndarray, layer: ConvLayerF, order: str) -> np.ndarray:
    """float32 convolution of an (h, w, m) float32 array, or of the
    (h, w, m, K, K) windows a step cuts from one, with an explicit
    accumulation order; returns (h, w, n).

    Each output sums its T = m*K*K taps, in (m, K, K) order, in one loop
    for every order: rev walks the taps from the last, seq and tree from
    the first.  Each tap's float32 product is a pending partial sum that
    merges with the one before it as prev + new, always in seq and rev,
    and in tree only while both hold as many taps (a binary counter).
    What is still pending then folds from the top, which is pairing
    neighbours level by level with an odd last term carried up.  Beyond
    the im2col columns it holds at most log2(T) + 1 partial (h*w, n)
    sums.  This is the stand-in for device-dependent float kernels: the
    result depends on the order at the ulp level.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown accumulation order {order!r}")
    cols = im2col(x, layer.kernel)
    wmat = layer.weights.reshape(-1, layer.out_channels).astype(np.float32)
    taps = range(cols.shape[1])
    pending = []  # (taps held, partial sum), oldest first
    for t in reversed(taps) if order == "rev" else taps:
        count, part = 1, cols[:, t, None] * wmat[t]
        while pending and (order != "tree" or pending[-1][0] == count):
            held, prev = pending.pop()
            count, part = held + count, prev + part
        pending.append((count, part))
    acc = pending.pop()[1]
    while pending:
        acc = pending.pop()[1] + acc
    acc = acc + layer.bias.astype(np.float32)
    return acc.reshape(*x.shape[:2], layer.out_channels)


def _leaky_float(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, (x * _LEAKY_SLOPE).astype(np.float32))


def discretize_priors(priors: FloatPriors, scale_exp: int) -> GmmParams:
    """Fixed-point GmmParams from float priors (the "float priors" path).

    This models a device that computes priors in float and must discretize
    them to drive the shared CDF tables; a one-ulp float difference can
    cross a rounding boundary here and change the tables.
    """
    unit = math.ldexp(1.0, scale_exp)
    target = WEIGHT_TOTAL - 3
    means, scales, scaled = (
        np.asarray(f, np.float64) * k
        for f, k in ((priors.means, unit), (priors.scales, unit), (priors.weights, target))
    )
    # NaN fails the comparison too; past 2^63 the int64 casts below are undefined
    if not all(np.all(np.abs(a) < 2.0**63) for a in (means, scales, scaled)):
        raise ValueError("float priors have non-finite values or exceed int64 fixed point")
    means = round_half_away(means).astype(np.int64)
    scales = np.maximum(round_half_away(scales).astype(np.int64), sigma_min_for(scale_exp))
    # floor of 1 per component, the rest by largest remainder, as in the
    # integer linearized softmax; the remainders' dense ranks order and tie
    # exactly as the floats do
    base = np.floor(scaled).astype(np.int64)
    rank = np.unique(scaled - base, return_inverse=True)[1].reshape(base.shape)
    weights = 1 + apportion(base.T, rank.T, target).T
    return GmmParams(weights=weights, means=means, scales=scales, scale_exp=scale_exp)


@dataclass(frozen=True)
class StackPair:
    """Float stack and its quantized form, run by either backend mode."""

    float_stack: EntropyStackF
    quant_stack: EntropyStack


def make_stack_pair(fstack: EntropyStackF) -> StackPair:
    return StackPair(float_stack=fstack, quant_stack=fstack.quantize())


def device_steps(stacks: StackPair, hyper, variant: BackendVariant, shape):
    """A decoder's steps of a (c, h, w) latent on one simulated device, as
    the pair (priors, enter) of one intops.StepDecoder, which runs the
    hyperdecoder once, here: priors(at) gives the GmmParams of positions
    at, and enter(at, symbols) enters their symbols.

    In integer mode the hyper latent and the symbols are quantized at
    their first layer's input grid, where that subnetwork exists (without
    it the stack reads only the latent's shape); float mode takes them as
    they are and discretizes the priors.  Integer mode is bit-identical
    across variants; float mode may differ at the ulp level between
    accumulation orders, and those differences can survive discretization.
    """
    if variant.mode == "float":
        stack = replace(stacks.float_stack, order=variant.order)
        steps = StepDecoder(hyper, stack, shape)
        return lambda at: discretize_priors(steps.priors(at), stack.head_scale_exp), steps.enter
    stack = stacks.quant_stack

    def on_grid(chain, x):
        return quantize_value(x, chain[0].spec.p_in, chain[0].spec.n_i) if chain else x

    steps = StepDecoder(on_grid(stack.hyperdecoder, hyper), stack, shape)
    return steps.priors, lambda at, symbols: steps.enter(at, on_grid(stack.context, symbols))


def run_backend(stacks: StackPair, latent, hyper, variant: BackendVariant) -> GmmParams:
    """Priors of a whole latent as computed on one simulated device: its
    decoder's one step over every position, with every symbol entered."""
    priors, enter = device_steps(stacks, hyper, variant, np.shape(latent))
    enter(np.s_[:, :], latent)
    return priors(np.s_[:, :])


def _raster(a, at=np.s_[:, :]):
    """A (..., c, h, w) array at positions at of its (h, w) grid, in their
    order, flattened over its last three axes: position, then channel.  The
    whole grid comes in raster order."""
    lead = np.shape(a)[:-3]
    return np.moveaxis(a, -3, -1)[(..., *at, slice(None))].reshape(*lead, -1)


def _coding_order(h, w, reach=None):
    """Every position (ys, xs) of an h x w field and its step t, in coding
    order: by t = x + K*y, then by y.  K = w (reach None) gives v1, raster
    order, one position per step; K = reach + 1 gives v2, the wavefront
    order, where a position's causal window reads only smaller t."""
    ys, xs = np.indices((h, w)).reshape(2, -1)
    t = xs + (w if reach is None else reach + 1) * ys
    i = np.lexsort((ys, t))
    return ys[i], xs[i], t[i]


def field_tables(params: GmmParams, v_min: int, v_max: int) -> CdfTable:
    """A whole (c, h, w) field's CDF tables in raster order, position, then
    channel (see _raster): the order of its prior rows, so one table per
    row, as build_cdf_table builds them."""
    return build_cdf_table(params, v_min, v_max)


def _check_alphabet(latent) -> np.ndarray:
    """latent as int64, refused if it is not an integer array or a symbol
    lies outside the coder alphabet."""
    latent = np.asarray(latent)
    if latent.size and latent.dtype.kind not in "iu":
        raise ValueError(f"latent symbols must be integers, got dtype {latent.dtype}")
    latent = latent.astype(np.int64, copy=False)
    if latent.min(initial=0) < _V_MIN or latent.max(initial=0) > _V_MAX:
        raise ValueError("latent symbols outside the coder alphabet")
    return latent


def _encode(params: GmmParams, latent, reach=None):
    """Code a (c, h, w) latent under the encoder's priors in the coding
    order of reach (None: v1).  Returns the stream and the symbols and the
    (3, 3, n) prior rows it coded, both in coding order.  params is a
    field on the latent's own grid, as run_backend gives it, whose rows
    are in raster order: one index array gathers the coded rows from them."""
    c, h, w = latent.shape
    ys, xs = _coding_order(h, w, reach)[:2]
    coded = params.take(((ys * w + xs)[:, None] * c + np.arange(c)).ravel())
    sent = _raster(latent, (ys, xs))
    tables = build_cdf_table(coded, _V_MIN, _V_MAX)
    return replace(rc_encode(sent, tables, latent.shape), reach=reach), sent, coded.rows


def _schedule(stream: Bitstream, reach):
    """The decoder's steps for stream, given its model's context reach
    (None without a context model): the whole grid, or the positions of
    each t of _coding_order as two (P, 1) index arrays (ys, xs).  A v2
    stream coded for another reach is refused: it was coded for another
    model, and a smaller reach than the model's would order a position
    before some that its window reads."""
    if stream.reach is not None and stream.reach != reach:
        raise StreamFormatError(
            f"stream coded for context reach {stream.reach}, the model's is {reach}"
        )
    if reach is None:
        return [np.s_[:, :]]
    ys, xs, t = _coding_order(*stream.shape[1:], stream.reach)
    cuts = np.flatnonzero(np.diff(t)) + 1
    steps = (np.split(a[:, None], cuts) for a in (ys, xs))
    return list(zip(*steps)) if t.size else []


def _decode(stream: Bitstream, steps, reach):
    """Decode stream step by step (_schedule), given its model's context
    reach (None without a context model).

    steps is the pair (priors, enter) of a decoder of stream.shape, as
    device_steps gives it: priors(at) gives the priors of positions
    at from the symbols of the steps before, and enter(at, symbols) enters
    each step's (c, P, 1) symbols once, after its own step.  A step's
    priors come as prior rows in coding order, checked once; its tables
    are built from them, one per row, and continue the stream where the
    step before stopped.  Decoding stops where the decoder runs off the
    payload.
    Returns the symbols decoded and the (3, 3, n) prior rows (weights,
    means, scales) of the n symbols whose priors it computed, both in
    coding order.
    """
    got = []  # a list: appending beats a numpy store per symbol
    rows = [np.zeros((3, 3, 0), dtype=np.int64)]
    decode = RangeDecoder(stream.payload, stream.count).decode
    schedule = _schedule(stream, reach)
    priors, enter = steps
    for at in schedule:
        params = priors(at)
        rows.append(params.rows)
        start = len(got)
        try:
            for row in build_cdf_table(params, _V_MIN, _V_MAX).cf.tolist():
                got.append(decode(row, _V_MIN))
        except StreamFormatError:
            break
        if at is not schedule[-1]:  # no step reads the last one's symbols
            # (c, ...) on the step's grid, as its priors came
            enter(at, np.reshape(got[start:], (*params.field_shape[1:], -1)).transpose(2, 0, 1))
    return got, np.concatenate(rows, axis=-1)


def roundtrip_experiment(
    stacks: StackPair,
    latent,
    hyper,
    enc_variant: BackendVariant,
    dec_variant: BackendVariant,
) -> InteropReport:
    """Encode latents with priors from one device, decode on another.

    Each device computes priors in its variant's mode and order.  The
    decoder regenerates priors autoregressively from its own decoded
    symbols, exactly as a real decoder must.  With a context model the
    stream is v2, in wavefront order, and the decoder takes one step per
    anti-diagonal of positions; without one it is v1 and the whole field is
    one step, since the priors do not depend on the canvas.  The report
    compares the encoder's priors with the decoder's in coding order.  A
    decoder whose tables differ from the encoder's can run off the payload:
    that is a divergence too, reported where decoding stopped.
    """
    latent = _check_alphabet(latent)
    enc_params = run_backend(stacks, latent, hyper, enc_variant)
    stack = stacks.quant_stack
    reach = context_reach(stack) if stack.context else None
    stream, sent, rows = _encode(enc_params, latent, reach)
    steps = device_steps(stacks, hyper, dec_variant, stream.shape)
    return _report(sent, rows, *_decode(stream, steps, reach))


def _report(sent, enc_rows, got, dec_rows):
    """Interop outcome of the symbols sent and the _decode output got back,
    symbols and (3, 3, n) prior rows each in coding order.

    got may stop short of sent, where decoding ran off the payload;
    first_mismatch is then at most where it stopped.  The priors are
    compared over the rows the decoder computed.
    """
    n = len(got)
    diff = np.flatnonzero(sent[:n] != got)
    first = int(diff[0]) if diff.size else (n if n < len(sent) else None)
    enc_rows = enc_rows[..., : dec_rows.shape[-1]]
    reldiff = 0.0  # equal rows, as every integer roundtrip's
    if not np.array_equal(enc_rows, dec_rows):
        a, b = (r.astype(np.float64) for r in (enc_rows, dec_rows))
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        reldiff = float(np.max(rel))
    return InteropReport(first is None, first, reldiff)


# ---------------------------------------------------------------------------
# Deterministic boundary failure demo
# ---------------------------------------------------------------------------


def _demo_field():
    """Fixed 1x4x4 float prior field with one scale on a rounding boundary."""
    shape = (1, 4, 4)
    n = int(np.prod(shape))
    means = (np.arange(n, dtype=np.float64).reshape(shape) % 5 - 2.0) * 0.75
    scales = np.full(shape, 1.25, dtype=np.float64)
    # element (0,0,1): exactly halfway between two Q8 codes; rounds up,
    # but one ulp lower rounds down.
    boundary_sigma = (256 + 0.5) / 256.0
    scales[0, 0, 1] = boundary_sigma
    weights = np.full((3,) + shape, 1.0 / 3.0, dtype=np.float64)
    priors = FloatPriors(
        weights=weights,
        means=np.broadcast_to(means, (3,) + shape).copy(),
        scales=np.broadcast_to(scales, (3,) + shape).copy(),
    )
    symbols = (np.arange(n, dtype=np.int64).reshape(shape) % 9) - 4
    return priors, symbols


def boundary_failure_demo(prior_mode: str = "float") -> InteropReport:
    """Reproduce the decode-failure phenomenon deterministically.

    One scale value sits within one float ulp of a fixed-point rounding
    boundary; the "decoder device" sees it one ulp lower.  Under float
    priors the resulting CDF tables differ and decoding diverges; under
    integer priors both sides share identical tables and decoding is exact.
    """
    p_e = 8
    priors, symbols = _demo_field()
    enc_params = discretize_priors(priors, p_e)

    if prior_mode == "int":
        dec_params = enc_params
    else:
        pert_scales = priors.scales.copy()
        pert_scales[:, 0, 0, 1] = np.nextafter(pert_scales[:, 0, 0, 1], 0.0)
        dec_params = discretize_priors(
            FloatPriors(priors.weights, priors.means, pert_scales), p_e
        )

    stream, sent, rows = _encode(enc_params, symbols)
    # the decoder's priors are one fixed field that reads no symbol: its
    # one step is the whole grid
    steps = (lambda at: dec_params), (lambda at, symbols: None)
    return _report(sent, rows, *_decode(stream, steps, None))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass
class CalibrationReport:
    layers: list
    trace: list = field(default_factory=list)
    final_objective: float = math.inf
    passes: int = 0


def int_cross_entropy_bits(latent, params: GmmParams) -> float:
    """Total bits the coder's tables give the (c, h, w) latent symbols under
    integer priors: the sum of -log2((hi - lo) / 2^16) over their coded
    intervals, read in the order of the prior rows."""
    shape = np.shape(latent)
    if shape != params.field_shape:
        raise ValueError(f"prior field {params.field_shape} for symbols of shape {shape}")
    tables = build_cdf_table(params, _V_MIN, _V_MAX)
    lo, hi = tables.intervals(_raster(np.asarray(latent)))
    return float(np.sum(-np.log2((hi - lo) / CDF_TOTAL)))


def float_cross_entropy_bits(latent, priors: FloatPriors) -> float:
    """Total bits the (c, h, w) latent symbols take under float priors,
    folded over the same finite alphabet.  The symbols must lie in the
    coder alphabet, and each prior kind must be a (3, c, h, w) field."""
    latent = _check_alphabet(latent)
    w, mu, sigma = (np.asarray(f, float) for f in (priors.weights, priors.means, priors.scales))
    if any(f.shape != (3, *latent.shape) for f in (w, mu, sigma)):
        raise ValueError(f"prior field {mu.shape[1:]} for symbols of shape {latent.shape}")
    erf = np.vectorize(math.erf)

    def mix_cdf(t):
        phi = 0.5 * (1.0 + erf((t - mu) / sigma / math.sqrt(2.0)))
        return (w * phi).sum(axis=0)

    hi = np.where(latent >= _V_MAX, 1.0, mix_cdf(latent + 0.5))
    lo = np.where(latent <= _V_MIN, 0.0, mix_cdf(latent - 0.5))
    pmf = np.maximum(hi - lo, 1.0 / CDF_TOTAL)
    return float(np.sum(-np.log2(pmf)))


def calibrate_shifts(
    fstack: EntropyStackF,
    calib_tensors,
    grid=tuple(range(6, 13)),
    passes: int = 2,
) -> CalibrationReport:
    """Coordinate-descent search of per-layer shift exponents.

    Objective: total bits the range coder's tables give the calibration
    latents under the integer-pipeline priors (int_cross_entropy_bits),
    whose symbols must lie in the coder alphabet.  Layers are visited in
    topological order for a fixed number of passes; ties go to the
    smaller p.  A setting that QConvLayer refuses (WeightRangeError: a
    weight, bias or worst case past its register) scores inf; any other
    error is the input's and raises.  Each trace entry and the final
    objective are those of the stack as the decision leaves it, which a
    grid without a junction's current p can leave worse than before.
    """
    if not calib_tensors:
        raise ValueError("calibration set is empty")
    calib_tensors = [(_check_alphabet(latent), hyper) for latent, hyper in calib_tensors]
    grid = tuple(sorted(map(operator.index, grid)))  # 7.9 is refused, not read as 7
    if not all(0 <= p <= 15 for p in grid):
        raise ValueError("grid values must lie in [0, 15]")
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    device = BackendVariant("calibration")

    def objective() -> float:
        try:
            stacks = make_stack_pair(fstack)
            return sum(
                int_cross_entropy_bits(latent, run_backend(stacks, latent, hyper, device))
                for latent, hyper in calib_tensors
            )
        except WeightRangeError:
            return math.inf

    report = CalibrationReport(layers=[], passes=passes)
    current = objective()  # of the stack as it stands
    decided = {}  # junction -> objective of its latest decision
    for pass_no in range(1, passes + 1):
        for junction in fstack.junctions():
            best_p = fstack.junction_p(junction)
            best_obj = math.inf
            for p in grid:
                fstack.set_junction_p(junction, p)
                obj = objective()
                if obj < best_obj:
                    best_obj = obj
                    best_p = p
            fstack.set_junction_p(junction, best_p)
            decided[junction] = best_obj
            if best_obj < math.inf:  # else the junction keeps its p
                current = best_obj
            report.trace.append(
                {
                    "pass": pass_no,
                    "junction": junction,
                    "p": best_p,
                    "objective": current,
                }
            )
    report.final_objective = current
    for name, layers, cfgs in fstack.chains():
        for i, c in enumerate(cfgs):
            report.layers.append(
                {
                    "subnetwork": name,
                    "index": i,
                    "p": c.p_in,
                    "n_i": c.n_i,
                    "objective": decided.get((name, i), current),
                }
            )
    return report
