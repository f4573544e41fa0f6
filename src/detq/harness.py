"""Cross-device interop experiments, calibration, and the failure demo.

Cross-device floating-point variance is modeled by accumulation-order
variants (sequential, reversed, pairwise tree) executed in float32, and
only there: EntropyStackF carries the order it sums in, and prior_fn binds
a float variant's order to it.  The integer pipeline sums exactly, so it
has no order, and the tests hold it to a per-tap reference that sums in
each order.  Encode-on-A / decode-on-B experiments then show that float
priors can break entropy decoding while integer priors round-trip exactly.

A device in integer mode quantizes its raw latent and hyper latent with
quantize.quantize_value, which rejects non-finite values; float mode
feeds them to EntropyStackF as they are, once it has checked that
float32 holds the hyper latent.  The float reference oracle is
intops.run_entropy_stack on an EntropyStackF.

Every experiment codes through one encoder (_encode) and one decoder
(_decode) that walks a schedule of steps, the whole field or one position
each, with each step's priors from the canvas decoded so far: with a
context model, a position's causal window, so a roundtrip costs time
linear in the number of positions.
"""

from __future__ import annotations

import math
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
    causal_window,
    hyper_features,
    priors_from_features,
    split_head,
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
    "conv_ordered_float",
    "discretize_priors",
    "prior_fn",
    "run_backend",
    "field_tables",
    "roundtrip_experiment",
    "boundary_failure_demo",
    "calibrate_shifts",
    "float_cross_entropy_bits",
    "int_cross_entropy_bits",
    "random_stack",
    "random_latent",
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
    and a float softmax and sigma floor giving FloatPriors.
    """

    hyperdecoder: list
    context: list
    gather: list
    hyper_cfg: list
    context_cfg: list
    gather_cfg: list
    latent_channels: int
    order: str = "seq"

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

    def layer_step(self, x, layer, after, activation=True):
        x = conv_ordered_float(x, layer, self.order)
        return _leaky_float(x) if activation else x

    def fuse(self, feats) -> np.ndarray:
        return np.concatenate(feats, axis=0)

    def decode_head(self, y: np.ndarray) -> FloatPriors:
        p_e = self.head_scale_exp
        z, means, scales = split_head(y, self.latent_channels)
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


def _ordered_sum(terms: np.ndarray, order: str) -> np.ndarray:
    """Reduce (P, T, n) terms over axis 1 in the requested order."""
    if order == "seq":
        return np.cumsum(terms, axis=1)[:, -1, :]
    if order == "rev":
        return np.cumsum(terms[:, ::-1, :], axis=1)[:, -1, :]
    if order == "tree":
        arr = terms
        while arr.shape[1] > 1:
            t = arr.shape[1]
            even = arr[:, 0 : t - t % 2 : 2, :] + arr[:, 1:t:2, :]
            if t % 2:
                even = np.concatenate([even, arr[:, t - 1 : t, :]], axis=1)
            arr = even
        return arr[:, 0, :]
    raise ValueError(f"unknown accumulation order {order!r}")


def conv_ordered_float(x: np.ndarray, layer: ConvLayerF, order: str) -> np.ndarray:
    """float32 convolution with an explicit accumulation order.

    This is the stand-in for device-dependent float kernels: the result
    depends on the order at the ulp level.
    """
    x = np.asarray(x, dtype=np.float32)
    _, h, w = check_conv_input(x, layer)
    cols = im2col(x, layer.kernel)
    wmat = layer.weights.reshape(-1, layer.out_channels).astype(np.float32)
    products = cols[:, :, None] * wmat[None, :, :]
    acc = _ordered_sum(products, order) + layer.bias.astype(np.float32)
    return acc.reshape(h, w, layer.out_channels).transpose(2, 0, 1)


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
    # integer linearized softmax
    base = np.floor(scaled).astype(np.int64)
    weights = 1 + apportion(base, scaled - base, target)
    return GmmParams(weights=weights, means=means, scales=scales, scale_exp=scale_exp)


@dataclass(frozen=True)
class StackPair:
    """Float stack and its quantized form, run by either backend mode."""

    float_stack: EntropyStackF
    quant_stack: EntropyStack


def make_stack_pair(fstack: EntropyStackF) -> StackPair:
    return StackPair(float_stack=fstack, quant_stack=fstack.quantize())


def _quantize_for(chain, x):
    """x quantized at the chain's input grid; None when the chain is absent."""
    if not chain:
        return None
    spec = chain[0].spec
    return quantize_value(x, spec.p_in, spec.n_i)


def prior_fn(stacks: StackPair, hyper, variant: BackendVariant):
    """Priors one simulated device computes, as a function of the latent canvas.

    The callable takes the canvas and, optionally, one position at = (y, x).
    Given a position it returns that position's priors alone, a (c, 1, 1)
    field computed from its causal window (intops.causal_window), so their
    cost does not grow with the canvas; they equal the whole-canvas priors
    at (y, x) byte for byte.  The hyper-only work runs once, here.  Integer
    mode is bit-identical across variants; float mode may differ at the ulp
    level between accumulation orders, and those differences can survive
    discretization.
    """
    if variant.mode == "int":
        stack = stacks.quant_stack
        hyper_feat = hyper_features(_quantize_for(stack.hyperdecoder, hyper), stack)

        def priors(context, at):
            ctx = _quantize_for(stack.context, context)
            return priors_from_features(hyper_feat, ctx, stack, at)

    else:
        stack = replace(stacks.float_stack, order=variant.order)
        # float32 would hold such a value as inf or NaN, and the priors as
        # garbage; the comparison is false for NaN too.  A complex value
        # would lose its imaginary part.
        hyper = np.asarray(hyper)
        if stack.hyperdecoder and (
            hyper.dtype.kind == "c" or not np.all(np.abs(hyper.astype(float)) <= _F32_MAX)
        ):
            raise ValueError(
                "hyper latent has complex or non-finite values, or values beyond float32"
            )
        hyper_feat = hyper_features(hyper, stack)

        def priors(context, at):
            raw = priors_from_features(hyper_feat, context, stack, at)
            return discretize_priors(raw, stack.head_scale_exp)

    def params_of(canvas, at=None):
        return priors(canvas if at is None else causal_window(canvas, stack, at), at)

    return params_of


def run_backend(stacks: StackPair, latent, hyper, variant: BackendVariant) -> GmmParams:
    """Priors of a whole latent as computed on one simulated device."""
    return prior_fn(stacks, hyper, variant)(latent)


def _raster(a):
    """A (c, h, w) array flattened in coding order: raster position, then channel."""
    return np.asarray(a).transpose(1, 2, 0).ravel()


def _coded_rows(params: GmmParams, v_min: int, v_max: int) -> np.ndarray:
    """The rows of the field's CDF tables, built in C order, in coding order
    (see _raster)."""
    cf = build_cdf_table(params, v_min, v_max).cf
    c, h, w = params.field_shape
    return cf.reshape(c, h * w, cf.shape[1]).swapaxes(0, 1).reshape(cf.shape)


def field_tables(params: GmmParams, v_min: int, v_max: int) -> CdfTable:
    """The field's CDF tables with rows in coding order (see _raster)."""
    return CdfTable(v_min, v_max, _coded_rows(params, v_min, v_max))


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


def _encode(params: GmmParams, latent) -> Bitstream:
    """The stream of a (c, h, w) latent coded under the encoder's priors."""
    return rc_encode(_raster(latent), field_tables(params, _V_MIN, _V_MAX), latent.shape)


def _decode(stream: Bitstream, params_of, steps):
    """Decode stream in steps: None, the whole field, or a position (y, x).

    A step's priors are params_of(canvas, step) on the symbols decoded so
    far; its table rows are built once, in coding order, and continue the
    stream where the step before stopped, so steps follow coding order.
    Decoding stops where the decoder runs off the payload.  Returns the
    symbols decoded, in coding order, the (3, 3, c, h, w) prior fields
    (weights, means, scales) and the (h, w) mask of the positions reached.
    """
    c, h, w = stream.shape
    got = []  # a list: appending beats a numpy store per symbol
    flat = np.zeros(stream.count, dtype=np.int64)  # got, then zeros
    canvas = flat.reshape(h, w, c).transpose(2, 0, 1)  # flat as (c, h, w)
    fields = np.zeros((3, 3, c, h, w), dtype=np.int64)
    reached = np.zeros((h, w), dtype=bool)
    decoder = RangeDecoder(stream.payload, stream.count)
    for at in steps:
        params = params_of(canvas, at)
        if at is None:
            ys = xs = slice(None)
        else:
            ys, xs = slice(at[0], at[0] + 1), slice(at[1], at[1] + 1)
        fields[..., ys, xs] = params.weights, params.means, params.scales
        reached[ys, xs] = True
        start = len(got)
        try:
            for row in _coded_rows(params, _V_MIN, _V_MAX).tolist():
                got.append(decoder.decode(row, _V_MIN))
        except StreamFormatError:
            break
        flat[start : len(got)] = got[start:]
    return got, fields, reached


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
    symbols, exactly as a real decoder must: one step per raster position,
    or one step for the whole field when the stack has no context model and
    the priors do not depend on the canvas.  The report compares the
    encoder's prior field with the one the decoder assembled.  A decoder
    whose tables differ from the encoder's can run off the payload: that is
    a divergence too, reported where decoding stopped.
    """
    latent = _check_alphabet(latent)
    enc_params = run_backend(stacks, latent, hyper, enc_variant)
    steps = np.ndindex(latent.shape[1:]) if stacks.quant_stack.context else [None]
    decoded = _decode(
        _encode(enc_params, latent), prior_fn(stacks, hyper, dec_variant), steps
    )
    return _report(latent, enc_params, *decoded)


def _report(latent, enc_params: GmmParams, got, dec_fields, reached):
    """Interop outcome of the latent sent and the _decode output got back.

    got may stop short of the latent, where decoding ran off the payload;
    first_mismatch is then at most where it stopped.  The prior fields are
    compared at the positions the decoder reached.
    """
    sent = _raster(latent)
    n = len(got)
    diff = np.flatnonzero(sent[:n] != got)
    first = int(diff[0]) if diff.size else (n if n < len(sent) else None)
    enc = np.stack([enc_params.weights, enc_params.means, enc_params.scales])
    a, b = (f[..., reached].astype(np.float64) for f in (enc, dec_fields))
    rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return InteropReport(
        decoded_equal=first is None,
        first_mismatch=first,
        prior_max_reldiff=float(np.max(rel, initial=0.0)),
    )


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

    decoded = _decode(_encode(enc_params, symbols), lambda canvas, at: dec_params, [None])
    return _report(symbols, enc_params, *decoded)


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
    """Total bits the coder's tables give the latent symbols under integer
    priors: the sum of -log2((hi - lo) / 2^16) over their coded intervals."""
    if np.shape(latent) != params.field_shape:
        raise ValueError("symbol field shape must match the parameter field")
    tables = build_cdf_table(params, _V_MIN, _V_MAX)
    lo, hi = tables.intervals(np.ravel(latent))
    return float(np.sum(-np.log2((hi - lo) / CDF_TOTAL)))


def float_cross_entropy_bits(latent, priors: FloatPriors) -> float:
    """Total bits under float priors, folded over the same finite alphabet."""
    latent = np.asarray(latent, dtype=np.int64)
    erf = np.vectorize(math.erf)

    def mix_cdf(t):
        z = (t - np.asarray(priors.means, np.float64)) / np.asarray(
            priors.scales, np.float64
        )
        phi = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        return (np.asarray(priors.weights, np.float64) * phi).sum(axis=0)

    hi = np.where(latent >= _V_MAX, 1.0, mix_cdf(latent[None].astype(np.float64) + 0.5))
    lo = np.where(latent <= _V_MIN, 0.0, mix_cdf(latent[None].astype(np.float64) - 0.5))
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
    grid = tuple(sorted(int(p) for p in grid))
    if not all(0 <= p <= 15 for p in grid):
        raise ValueError("grid values must lie in [0, 15]")
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


# ---------------------------------------------------------------------------
# Random stack / data generators (shared by tests and CLI)
# ---------------------------------------------------------------------------


def random_stack(
    rng: np.random.Generator,
    latent_channels: int = 1,
    hyper_channels: int = 2,
    hidden: int = 6,
    ctx_kernel: int = 3,
    with_context: bool = True,
    p_inner: int = 8,
    p_gather: int = 10,
    n_i: int = 16,
) -> EntropyStackF:
    """Seeded random entropy stack with codec-like geometry at desk scale.

    Hyperdecoder: two 3x3 layers; context: one masked layer; gather: seven
    1x1 layers ending in the 9-channels-per-latent GMM head.
    """

    def conv(m, k, n, mask=False, bias_scale=0.05, w_gain=1.0):
        fan_in = m * k * k
        w = rng.normal(0.0, w_gain / math.sqrt(fan_in), size=(m, k, k, n))
        b = rng.normal(0.0, bias_scale, size=n)
        return ConvLayerF(weights=w, bias=b, mask=mask)

    c_y, c_z = latent_channels, hyper_channels
    hyper_layers = [conv(c_z, 3, hidden), conv(hidden, 3, hidden)]
    hyper_cfg = [
        LayerCfg(n_i=n_i, p_in=p_inner, p_out=p_inner),
        LayerCfg(n_i=n_i, p_in=p_inner, p_out=p_gather),
    ]
    if with_context:
        ctx_layers = [conv(c_y, ctx_kernel, hidden, mask=True)]
        ctx_cfg = [LayerCfg(n_i=n_i, p_in=p_inner, p_out=p_gather)]
        g0_in = 2 * hidden
    else:
        ctx_layers, ctx_cfg = [], []
        g0_in = hidden
    head_bias = np.zeros(9 * c_y)
    for i in range(c_y):
        head_bias[9 * i + 3 : 9 * i + 6] = rng.uniform(0.4, 1.2, 3) * rng.choice(
            [-1.0, 1.0], 3
        )
        head_bias[9 * i + 6 : 9 * i + 9] = rng.uniform(0.8, 1.6, 3)
    gather_layers = [
        conv(g0_in, 1, hidden),
        conv(hidden, 1, hidden),
        conv(hidden, 1, hidden),
        conv(hidden, 1, hidden),
        conv(hidden, 1, hidden),
        conv(hidden, 1, hidden),
        conv(hidden, 1, 9 * c_y),
    ]
    gather_layers[-1] = ConvLayerF(
        weights=gather_layers[-1].weights, bias=head_bias
    )
    gather_cfg = [LayerCfg(n_i=n_i, p_in=p_gather, p_out=p_gather) for _ in range(7)]
    return EntropyStackF(
        hyperdecoder=hyper_layers,
        context=ctx_layers,
        gather=gather_layers,
        hyper_cfg=hyper_cfg,
        context_cfg=ctx_cfg,
        gather_cfg=gather_cfg,
        latent_channels=c_y,
    )


def random_latent(
    rng: np.random.Generator,
    shape=(1, 4, 4),
    bound: int = DEFAULT_SYMBOL_BOUND,
) -> np.ndarray:
    """Seeded integer latents, roughly Laplacian, clipped to the alphabet."""
    raw = np.rint(rng.laplace(0.0, bound / 4.0, size=shape)).astype(np.int64)
    return np.clip(raw, -bound, bound)
