"""Fused integer convolution pipeline for the entropy subnetworks.

Activations enter the stack as (c, h, w) integer arrays, already on the
first layer's input grid (harness quantizes raw activations with
quantize.quantize_value, the one activation quantizer); each layer's spec
carries the grid 2^-p_in and the bit depth n_i of its input, and
check_topology holds that they chain.  An activation's dtype, shape and
range are checked once, where it enters the stack: the hyper latent in
hyper_features, a whole canvas in priors_from_features (before its shape
is read), and a decoder's symbols, each step's own, in StepDecoder.enter.
Inside a chain nothing is checked again, since every later activation
is in range by construction: requantize clamps to the next layer's n_i
bits, LeakyReLU never grows |x|, and fuse clamps the gather input.  All
arithmetic from the entry on is exact integer arithmetic: int16-range
operands, 32-bit accumulators whose overflow is excluded statically by
the shift derivation, and per-channel fused rescaling by a power of two
with half-away-from-zero rounding.

The stack topology exists once, here: hyper_features runs the
hyperdecoder, and StepDecoder.priors the context chain, fuse, gather and
head, for a decoder step and for a whole canvas alike (priors_from_features
is one step over every position).  The stack passed in supplies the
arithmetic (entry, layer step, fuse, head decode): integer for
EntropyStack, float32 for harness.EntropyStackF.  Only the float32 stack
has an accumulation order, and it carries its own.

Inside a stack an activation is carried channels-last, as a C-contiguous
(h, w, c) array, from the entry to decode_head: the entry transposes it
once, and split_head once more, to the (3, c, h, w) layout of GmmParams.
EntropyStack carries float64 arrays of whole numbers, and decode_head
casts them to int64 once.  A layer step is one fused kernel of three
steps, each a module function: qconv_forward, the convolution and bias as
one GEMM on a (c, h, w) view of the carrier (or of the (h, w, c, K, K)
windows a context layer's step cuts), giving the (h*w, n) accumulator;
requantize, the per-channel scale, rounding and clamp, in place on it;
and leaky_relu_int, in place too.  A reshape, no copy, makes the result
the next layer's (h, w, n) input.  A 1x1 layer's im2col is a reshape of
its input too.  The steps check nothing: their inputs are in range by
construction.

The convolution runs as one float64 BLAS GEMM, and that is exact too.
QConvLayer enforces sum|w| * x_max + |b| <= 2^31 - 1, so every product
and every partial sum, taken in any order, is an integer of magnitude
below 2^31 < 2^53: float64 represents each one exactly, whatever
summation order, blocking or FMA use the BLAS library picks.

The requantize and LeakyReLU roundings run in float64 on the GEMM's
output, and they are exact too.  For an integer |acc| < 2^31 and a shift
s, acc 2^-s is a multiple of 2^-s with at most 31 significant bits: a
normal double for s <= MAX_RIGHT_SHIFT = 62, a whole number for a left
shift (s < 0), so multiplying by the channel's scale 2^-s rounds nothing.
round_half_away is exact for every double, so each rounded value is the
whole number that integer shifts with half-away rounding give.  LeakyReLU
keeps x >= 0 and takes ceil(x 41 2^-12 - 1/2), the half-away rounding of
x 41 2^-12, below it: that product has at most 21 significant bits for
|x| < 2^15, so it and its difference with 1/2 are exact.

Every context output is computed once (the caching of Paine et al. 2016,
"Fast Wavenet Generation Algorithm").  A StepDecoder, built once per
canvas, keeps each context layer's input as a zero-padded channels-last
carrier, zero outside the canvas: the symbol canvas for the first layer,
the previous layer's output cache for each later one.  Positions index the
(h, w) grid as numpy indexing does: np.s_[:, :] is the whole grid, and
two (P, 1) index arrays (ys, xs) are a decoder step's P positions;
priors come out on that grid, (c, h, w) or (c, P, 1).  A step enters only
its own symbols, and runs each context layer on the windows it reads (the
padded carrier's windows are what im2col builds, in the same (c, K, K)
column order), writing its rows into the next layer's cache; fuse, gather
and head run on the same rows.  A whole canvas is one step over every
position, with every symbol entered (priors_from_features).  A decoder's
steps are exact too: every context layer masks its centre and every
raster-later tap, so a window reads only positions of earlier steps, whose
cached values are final.  Under the wavefront order of harness and rc a
position's window reads only positions of smaller x + (R+1)*y, R =
context_reach, each of them in an earlier anti-diagonal; under raster
order (v1 streams), each is an earlier position.  Every output sums its
own taps, in float32 too, so a step's priors equal the whole-canvas priors
at its positions bit for bit.  Without a context model the priors do not
read the canvas, and a decoder's one step is the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import GmmParams, apportion, sigma_min_for
from .quantize import ACCUM_BITS, QConvLayer, exceeds, round_half_away
from .tensors import ShapeError, check_conv_input, im2col, windows

__all__ = [
    "SUBNETS",
    "EntropyStack",
    "check_topology",
    "AccumulatorOverflowError",
    "LEAKY_NUM",
    "LEAKY_SHIFT",
    "linear_softmax_field",
    "hyper_features",
    "context_reach",
    "priors_from_features",
    "StepDecoder",
    "run_entropy_stack",
    "split_head",
]

# The entropy subnetworks, in evaluation and serialization order.
SUBNETS = ("hyperdecoder", "context", "gather")

# LeakyReLU negative slope 41/4096 ~= 0.01 as a dyadic rational.
LEAKY_NUM = 41
LEAKY_SHIFT = 12
_LEAKY_SLOPE = LEAKY_NUM * 2.0**-LEAKY_SHIFT  # exact in float64
_ACC_MAX = (1 << (ACCUM_BITS - 1)) - 1

# axes from the channels-last carrier (h, w, c), or a context layer's
# windows (h, w, c, K, K), to the (c, h, w) edge layout, and back
_TO_EDGE = {3: (2, 0, 1), 5: (2, 0, 1, 3, 4)}
_TO_CARRIER = {3: (1, 2, 0), 5: (1, 2, 0, 3, 4)}


class AccumulatorOverflowError(ArithmeticError):
    """A left shift pushed a value past the 32-bit range.  QConvLayer rules
    it out for any layer it accepts; it guards direct calls."""


def _enter(x, layer: QConvLayer) -> np.ndarray:
    """x, a (c, h, w) integer array within layer's n_i bits, as the float64
    (h, w, c) activation carrier; the one check an activation gets.  An x
    of any other dtype is refused, not truncated."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"input must be an integer array, got dtype {x.dtype}")
    check_conv_input(x, layer)
    n_i = layer.spec.n_i
    if exceeds(x, (1 << (n_i - 1)) - 1):
        raise ValueError(f"input entry exceeds the layer's {n_i}-bit range")
    return x.transpose(1, 2, 0).astype(np.float64, order="C")


def qconv_forward(x: np.ndarray, layer: QConvLayer) -> np.ndarray:
    """im2col @ layer.weight_matrix + b_q: the (h*w, n) accumulator of x, a
    new C-contiguous float64 array; the kernel's convolution step.

    x is a (c, h, w) float64 array of whole numbers within the layer's n_i
    bits, in the stack a view of the (h, w, c) carrier; or, for a context
    layer, a (c, h, w, K, K) view of the (h, w, c, K, K) windows of a
    step's positions.  im2col reads either back through a transpose, no
    copy.  QConvLayer holds sum|w| * x_max + |b| within 32 bits, so every
    partial sum in any order is an integer below 2^53 that float64 holds
    exactly, and the one GEMM gives the same result for any summation
    order the BLAS library picks.
    Masked (causal) layers carry their zeroes in the weights.
    """
    acc = im2col(x.transpose(_TO_CARRIER[x.ndim]), layer.kernel) @ layer.weight_matrix
    acc += layer.b_q
    return acc


def requantize(acc: np.ndarray, spec, lim: int):
    """Rescale a float64 (..., n) accumulator to the next layer's input grid,
    in place: the kernel's requantize step.

    acc holds integers below 2^31 in magnitude at scale 2^-(k_j + p_in) on
    channel j; each is scaled by spec.scale, 2^-(k_j + p_in - p_out),
    rounded half away from zero and clamped to +-lim.  A left shift past
    31 bits raises AccumulatorOverflowError.
    """
    acc *= spec.scale
    round_half_away(acc, out=acc)
    if spec.left is not None and np.any(spec.left & (np.abs(acc) > _ACC_MAX)):
        raise AccumulatorOverflowError("a left shift exceeds the 32-bit range")
    np.maximum(acc, -lim, out=acc)
    np.minimum(acc, lim, out=acc)


def leaky_relu_int(x: np.ndarray):
    """Integer LeakyReLU with negative slope 41/4096 on whole-number float64
    x below 2^15 in magnitude, in place: the kernel's activation step.  It
    never grows |x|."""
    # x 41 2^-12 lies between 0 and x, so the larger of x and
    # ceil(x 41 2^-12 - 1/2) is x at or above zero and, below zero, the
    # scaled value rounded half away
    t = x * _LEAKY_SLOPE
    t -= 0.5
    np.ceil(t, out=t)
    np.maximum(x, t, out=x)


def linear_softmax_field(z: np.ndarray, scale_exp: int) -> np.ndarray:
    """Linearized Softmax over axis 0 of a (3, ...) integer array.

    A (3,) array gives the weights of one mixture.

    exp(z) is replaced by its first-order approximation 1 + z in fixed
    point, floored at one unit to stay positive.  Every component gets a
    floor weight of 1; the remaining 2^15 - 3 units are apportioned by
    largest remainder (ties to the lowest component), so the outputs are
    strictly positive and sum to exactly 2^15.
    """
    z = np.asarray(z, dtype=np.int64)
    if z.shape[0] != 3:
        raise ShapeError("expected 3 mixture components on axis 0")
    target = (1 << 15) - 3
    n = np.maximum((1 << scale_exp) + z, 1)
    denom = n.sum(axis=0)
    return 1 + apportion(n * target // denom, n * target % denom, target)


def check_topology(chains, latent_channels: int):
    """The wiring rules of an entropy stack; a broken one raises ShapeError.

    chains maps each name in SUBNETS to its layers as (layer, grid) pairs:
    the layer gives in_channels, out_channels, kernel and mask, the grid
    p_in and p_out (a QConvLayer and its spec, or a float layer and its
    LayerCfg).
    """
    hyper, context, gather = (chains[name] for name in SUBNETS)
    if len(gather) != 7:
        raise ShapeError("gather subnetwork must have exactly 7 layers")
    for name in SUBNETS:
        for (a, ga), (b, gb) in zip(chains[name], chains[name][1:]):
            if a.out_channels != b.in_channels:
                raise ShapeError(f"{name}: channel mismatch between layers")
            if ga.p_out != gb.p_in:
                raise ShapeError(f"{name}: p_out/p_in chain broken")
    if not all(lyr.mask for lyr, _ in context):
        raise ShapeError("context layers must be masked")
    ends = (("hyperdecoder", hyper), ("context", context))
    fused = sum(chain[-1][0].out_channels for _, chain in ends if chain)
    if fused != gather[0][0].in_channels:
        raise ShapeError(
            "gather input channels must equal hyperdecoder + context outputs"
        )
    for name, chain in ends:
        if chain and chain[-1][1].p_out != gather[0][1].p_in:
            raise ShapeError(f"{name} p_out must match gather p_in")
    if context and any(lyr.kernel != 1 for lyr, _ in gather):
        # autoregressive decoding evaluates gather pointwise
        raise ShapeError("gather layers must be 1x1 when a context model is present")
    if gather[-1][0].out_channels != 9 * latent_channels:
        raise ShapeError("head must emit 9 channels per latent channel")


@dataclass(frozen=True, eq=False)
class EntropyStack:
    """Quantized entropy subnetworks: hyperdecoder, context, gather.

    The last gather layer is the GMM head: 9 output channels per latent
    channel, ordered [w1 w2 w3 | mu1 mu2 mu3 | sigma1 sigma2 sigma3].
    """

    hyperdecoder: tuple
    context: tuple
    gather: tuple
    latent_channels: int

    carrier = np.float64  # the activation carrier's dtype

    def __post_init__(self):
        for name in SUBNETS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_topology(
            {name: [(lyr, lyr.spec) for lyr in chain] for name, chain in self.chains()},
            self.latent_channels,
        )

    def chains(self):
        return tuple((name, getattr(self, name)) for name in SUBNETS)

    @property
    def head_scale_exp(self) -> int:
        return self.gather[-1].spec.p_out

    def enter(self, x, layer) -> np.ndarray:
        """x, checked as an input of layer, as the float64 carrier (_enter)."""
        return _enter(x, layer)

    def layer_step(self, x, layer, after, activation=True):
        """Convolve, requantize to `after`'s bit depth (16 if None), LeakyReLU:
        the fused kernel, qconv_forward, then requantize and leaky_relu_int
        in place on its (h*w, n) GEMM output.

        x is the float64 (h, w, m) carrier, unchecked: it comes from enter,
        fuse or the layer before; or the (h, w, m, K, K) windows a step cuts
        from such a carrier.  The output is (h, w, n) float64 whole numbers,
        at `after`'s input grid and within its n_i bits by construction.
        """
        acc = qconv_forward(x.transpose(_TO_EDGE[x.ndim]), layer)
        n_bits = after.spec.n_i if after is not None else 16
        requantize(acc, layer.spec, (1 << (n_bits - 1)) - 1)
        if activation:
            leaky_relu_int(acc)
        return acc.reshape(*x.shape[:2], layer.out_channels)

    def fuse(self, feats) -> np.ndarray:
        """Concatenated chain outputs, clamped to gather[0]'s n_i bits: the
        float64 carrier, in range by construction.

        Both chains end at the gather input grid (check_topology) in 16
        bits; the clamp comes after their last activation.
        """
        lim = (1 << (self.gather[0].spec.n_i - 1)) - 1
        y = np.concatenate(feats, axis=-1)
        np.maximum(y, -lim, out=y)
        return np.minimum(y, lim, out=y)

    def decode_head(self, y: np.ndarray) -> GmmParams:
        """GmmParams of the head's float64 output, cast to int64 here, once."""
        p_e = self.head_scale_exp
        z, means, scales = split_head(y.astype(np.int64), self.latent_channels)
        scales = np.maximum(scales, sigma_min_for(p_e))
        return GmmParams(linear_softmax_field(z, p_e), means, scales, p_e)


def _run_chain(x, chain, stack, last_act=True):
    """Run layers in order; the last one skips its activation unless last_act."""
    for layer, after in zip(chain, (*chain[1:], None)):
        x = stack.layer_step(x, layer, after, after is not None or last_act)
    return x


def split_head(y: np.ndarray, latent_channels: int):
    """Weight logits, means and scales, each (3, c, h, w), of an (h, w, 9c)
    head: the carrier leaves the channels-last layout here."""
    y = y.reshape(*y.shape[:2], latent_channels, 9).transpose(3, 2, 0, 1)
    return y[0:3], y[3:6], y[6:9]


def hyper_features(hyper_latent, stack):
    """Hyperdecoder output as the (h, w, n) carrier, or None for a stack
    without a hyperdecoder.

    For an EntropyStack the hyper latent is checked here (dtype, shape,
    n_i range), and the output is float64 whole numbers.  It does not
    depend on the latent, so a decoder computes it once.
    """
    chain = stack.hyperdecoder
    if not chain:
        return None
    return _run_chain(stack.enter(hyper_latent, chain[0]), chain, stack)


def context_reach(stack) -> int:
    """How many rows and columns a context output reaches back: sum of K//2."""
    return sum(layer.kernel // 2 for layer in stack.context)


def _check_grid(hyper_feat, hw):
    """ShapeError unless hyper features, if any, lie on the (h, w) grid hw
    of the latent whose priors they feed."""
    if hyper_feat is not None and hyper_feat.shape[:2] != tuple(hw):
        raise ShapeError(
            f"hyper latent of (h, w) {hyper_feat.shape[:2]} under a latent of (h, w) {tuple(hw)}"
        )


def _gather_head(feats, stack):
    """Fuse the chain outputs, run gather, decode the head."""
    return stack.decode_head(_run_chain(stack.fuse(feats), stack.gather, stack, last_act=False))


def priors_from_features(hyper_feat, canvas, stack):
    """Context on the canvas -> fuse with hyper features -> gather -> GMM head:
    one StepDecoder step over the whole grid, with every symbol entered.

    An EntropyStack's head gives Q15 mixture weights (linearized softmax),
    means, and scales floored at sigma_min_for, as GmmParams.  The canvas
    is checked where it enters the context chain, before its shape is
    read; a stack without a context model does not read it, and its grid
    is the hyper features'.  With both a hyperdecoder and a context model,
    hyper features on another (h, w) grid than the canvas are refused.
    """
    if stack.context:
        canvas = stack.enter(canvas, stack.context[0])  # the (h, w, c) carrier
    grid = (canvas if stack.context else hyper_feat).shape[:2]
    steps = StepDecoder(hyper_feat, stack, (stack.latent_channels, *grid))
    if stack.context:
        steps.canvases[0][...] = canvas
    return steps.priors(np.s_[:, :])


class StepDecoder:
    """Priors, step by step, from the symbols entered before each step.

    Built once per (c, h, w) canvas.  Each context layer's input is a
    zero-padded channels-last carrier, zero outside the canvas: the symbol
    canvas for the first layer, the previous layer's output cache for each
    later one; canvases holds each one's (h, w, m) view inside its padding.
    Positions index the (h, w) grid as numpy indexing does: the whole grid,
    or a decoder step's (P, 1) index arrays.  enter writes a step's symbols
    into the canvas, and priors computes a step's priors from what was
    entered before it (see the module docstring for why that is exact).  A
    decoder's steps must read only earlier steps, as the wavefront and
    raster orders do.
    """

    def __init__(self, hyper_feat, stack, shape):
        c, h, w = shape
        if c != stack.latent_channels:
            raise ShapeError(f"latent has {c} channels, the stack codes {stack.latent_channels}")
        # else positions read the hyper features of another grid
        _check_grid(hyper_feat, (h, w))
        self.hyper_feat, self.stack = hyper_feat, stack
        self.canvases, self._windows = [], []
        for layer in stack.context:
            r = layer.kernel // 2
            xp = np.zeros((h + 2 * r, w + 2 * r, layer.in_channels), stack.carrier)
            self.canvases.append(xp[r : r + h, r : r + w])
            self._windows.append(windows(xp, layer.kernel))

    def enter(self, at, symbols):
        """Enter the symbols of positions at, the (c, ...) array of the
        latent at them, on the first context layer's input grid: checked
        here as a (c, P, 1) array, where they enter the stack, and written
        into the canvas."""
        if self.stack.context:
            rows = np.reshape(symbols, (len(symbols), -1, 1))
            x = self.stack.enter(rows, self.stack.context[0])
            self.canvases[0][at] = x.reshape(*np.shape(symbols)[1:], -1)

    def priors(self, at):
        """Priors of the positions at, on their grid: (c, h, w) for the
        whole grid, (c, P, 1) for P positions.

        Each context layer runs on the windows it reads, an im2col of them
        (tensors.windows), and its rows are written into the next layer's
        cache; fuse, gather and head run on the same rows.
        """
        stack = self.stack
        feats = [] if self.hyper_feat is None else [self.hyper_feat[at]]
        chain = stack.context
        for i, (layer, after) in enumerate(zip(chain, (*chain[1:], None))):
            # the step's windows as a C-contiguous copy, the im2col of the
            # positions, whose reshape in im2col is a view
            x = stack.layer_step(np.ascontiguousarray(self._windows[i][at]), layer, after)
            if after is None:
                feats.append(x)
            else:
                self.canvases[i + 1][at] = x
        return _gather_head(feats, stack)


def run_entropy_stack(latent_context, hyper_latent, stack):
    """Full entropy inference: hyperdecoder + context -> gather -> priors.

    For an EntropyStack the inputs must already be quantized at the first
    layers' input grids, and the GmmParams output is a pure function of
    the inputs and the stack bits.
    """
    hyper_feat = hyper_features(hyper_latent, stack)
    return priors_from_features(hyper_feat, latent_context, stack)
