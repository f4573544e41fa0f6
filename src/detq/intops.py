"""Fused integer convolution pipeline for the entropy subnetworks.

Activations enter the stack as (c, h, w) integer arrays, already on the
first layer's input grid (harness quantizes raw activations with
quantize.quantize_value, the one activation quantizer); each layer's spec
carries the grid 2^-p_in and the bit depth n_i of its input, and
check_topology holds that they chain.  A stack has two entry points,
and an activation's dtype, shape and range are checked once, at its own:
the hyper latent when a StepDecoder is built, and symbols in
StepDecoder.enter, a whole canvas (run_entropy_stack) or a decoder step's
own.  Inside a chain nothing is checked again, since every
later activation is in range by construction: requantize clamps to the
next layer's n_i bits, LeakyReLU never grows |x|, and fuse clamps the
gather input.  All arithmetic from the entry on is exact integer
arithmetic: int16-range operands, 32-bit accumulators whose overflow is
excluded statically by the shift derivation, and per-channel fused
rescaling by a power of two with half-away-from-zero rounding.  The
overflow bound is checked once, when a QConvLayer is built or loaded
(shifted_bound, left shifts included); no kernel step checks it again at
run time, since no input within a layer's n_i bits can pass it.

The stack topology exists once, here, in StepDecoder: built once per
latent, it runs the hyperdecoder once (as the hyperdecoder of Minnen et
al. 2018, "Joint Autoregressive and Hierarchical Priors for Learned Image
Compression", runs once per image), and StepDecoder.priors runs the
context chain, fuse, gather and head, for a decoder step and for a whole
canvas alike (run_entropy_stack is one step over every position).  Every
latent's priors come on its own (h, w) grid, and hyper features on
another grid are refused.  The stack passed in supplies the
arithmetic (entry, layer step, fuse, head decode): integer for
EntropyStack, float32 for harness.EntropyStackF.  Only the float32 stack
has an accumulation order, and it carries its own.

Inside a stack an activation is carried channels-last, as a C-contiguous
(h, w, c) array, from the entry to decode_head: the entry transposes it
once, and the head's (h, w, 9c) output already lists the positions, each
with its channels, in the order of GmmParams' prior rows.  EntropyStack
carries float64 arrays of whole numbers, and decode_head casts the head's
output to those int64 rows in one copy.  A layer step is one fused kernel
of three steps, each a module function: qconv_forward, the convolution
and bias as one GEMM on a (c, h, w) view of the carrier (or of the
(h, w, c, K, K) windows a context layer's step cuts), giving the (h*w, n)
accumulator; requantize, the per-channel scale, rounding and clamp, in
place on it; and leaky_relu_int, in place too.  A reshape, no copy, makes the result
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
position, with every symbol entered (run_entropy_stack).  A decoder's
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
from .quantize import QConvLayer, exceeds, round_half_away
from .tensors import ShapeError, check_conv_input, im2col, windows

__all__ = [
    "SUBNETS",
    "EntropyStack",
    "check_topology",
    "LEAKY_NUM",
    "LEAKY_SHIFT",
    "linear_softmax_field",
    "context_reach",
    "StepDecoder",
    "run_entropy_stack",
]

# The entropy subnetworks, in evaluation and serialization order.
SUBNETS = ("hyperdecoder", "context", "gather")

# LeakyReLU negative slope 41/4096 ~= 0.01 as a dyadic rational.
LEAKY_NUM = 41
LEAKY_SHIFT = 12
_LEAKY_SLOPE = LEAKY_NUM * 2.0**-LEAKY_SHIFT  # exact in float64

# axes from the channels-last carrier (h, w, c), or a context layer's
# windows (h, w, c, K, K), to the (c, h, w) edge layout, and back
_TO_EDGE = {3: (2, 0, 1), 5: (2, 0, 1, 3, 4)}
_TO_CARRIER = {3: (1, 2, 0), 5: (1, 2, 0, 3, 4)}


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
    rounded half away from zero and clamped to +-lim.  Nothing is checked
    here: QConvLayer, the only way weights and a spec reach the kernel,
    refuses a layer whose shifted_bound passes 2^31 - 1, so a left shift
    of an in-range input's accumulator stays within 32 bits.  float64
    does not wrap, so a direct call past that bound saturates at the
    clamp like any other value.
    """
    acc *= spec.scale
    round_half_away(acc, out=acc)
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
    if context and context[0][0].in_channels != latent_channels:
        # else the model is built and saved, and codes no latent
        raise ShapeError(
            f"context reads {context[0][0].in_channels} channels, the latent has {latent_channels}"
        )
    ends = (("hyperdecoder", hyper), ("context", context))
    fused = sum(chain[-1][0].out_channels for _, chain in ends if chain)
    if fused != gather[0][0].in_channels:
        raise ShapeError("gather input channels must equal hyperdecoder + context outputs")
    for name, chain in ends:
        if chain and chain[-1][1].p_out != gather[0][1].p_in:
            raise ShapeError(f"{name} p_out must match gather p_in")
    if context and any(lyr.kernel != 1 for lyr, _ in gather):
        # autoregressive decoding evaluates gather pointwise
        raise ShapeError("gather layers must be 1x1 when a context model is present")
    if gather[-1][0].out_channels != 9 * latent_channels:
        raise ShapeError("head must emit 9 channels per latent channel")
    if not 1 <= gather[-1][1].p_out <= 15:  # else every prior field is refused
        raise ShapeError("head p_out must lie in [1, 15], the GmmParams scale_exp range")


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
        """x, a (c, h, w) integer array within layer's n_i bits, as the
        float64 (h, w, c) activation carrier; the one check an activation
        gets.  An x of any other dtype is refused, not truncated."""
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise ValueError(f"input must be an integer array, got dtype {x.dtype}")
        check_conv_input(x, layer)
        n_i = layer.spec.n_i
        if exceeds(x, (1 << (n_i - 1)) - 1):
            raise ValueError(f"input entry exceeds the layer's {n_i}-bit range")
        return x.transpose(1, 2, 0).astype(np.float64, order="C")

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
        """GmmParams of the head's float64 (h, w, 9c) output on its (c, h, w)
        field: its (3, 3, n) prior rows, position then channel, cast to
        int64 in one copy, with the scales floored and the weight logits
        replaced by their linearized softmax in place, then checked once."""
        p_e = self.head_scale_exp
        rows = y.reshape(-1, 9).T.astype(np.int64, order="C").reshape(3, 3, -1)
        np.maximum(rows[2], sigma_min_for(p_e), out=rows[2])
        rows[0] = linear_softmax_field(rows[0], p_e)
        return GmmParams.from_rows(rows, (self.latent_channels, *y.shape[:2]), p_e)


def _run_chain(x, chain, stack, last_act=True):
    """Run layers in order; the last one skips its activation unless last_act."""
    for layer, after in zip(chain, (*chain[1:], None)):
        x = stack.layer_step(x, layer, after, after is not None or last_act)
    return x


def context_reach(stack) -> int:
    """How many rows and columns a context output reaches back: sum of K//2."""
    return sum(layer.kernel // 2 for layer in stack.context)


def _gather_head(feats, stack):
    """Fuse the chain outputs, run gather, decode the head."""
    return stack.decode_head(_run_chain(stack.fuse(feats), stack.gather, stack, last_act=False))


class StepDecoder:
    """Priors, step by step, from the symbols entered before each step.

    Built once per (c, h, w) latent of the stack's channel count: it
    enters the hyper latent, which must lie on the latent's (h, w) grid,
    and runs the hyperdecoder once; a stack without one does not read it.
    Each context layer's input is a zero-padded channels-last carrier,
    zero outside the canvas: the symbol canvas for the first layer, the
    previous layer's output cache for each later one; canvases holds each
    one's (h, w, m) view inside its padding.
    Positions index the (h, w) grid as numpy indexing does: the whole grid,
    or a decoder step's (P, 1) index arrays.  enter writes a step's symbols
    into the canvas, and priors computes a step's priors from what was
    entered before it (see the module docstring for why that is exact).  A
    decoder's steps must read only earlier steps, as the wavefront and
    raster orders do.
    """

    def __init__(self, hyper_latent, stack, shape):
        if len(shape) != 3:
            raise ShapeError(f"expected (c, h, w) input, got shape {tuple(shape)}")
        c, h, w = shape
        if c != stack.latent_channels:
            raise ShapeError(f"latent has {c} channels, the stack codes {stack.latent_channels}")
        self.stack, self.hyper_feat = stack, None
        chain = stack.hyperdecoder
        if chain:
            x = stack.enter(hyper_latent, chain[0])  # the (h, w, c) carrier
            # else positions read the hyper features of another grid
            if x.shape[:2] != (h, w):
                raise ShapeError(
                    f"hyper latent of (h, w) {x.shape[:2]} under a latent of (h, w) {(h, w)}"
                )
            self.hyper_feat = _run_chain(x, chain, stack)  # the one hyperdecoder run
        self.canvases, self._windows = [], []
        for layer in stack.context:
            r = layer.kernel // 2
            xp = np.zeros((h + 2 * r, w + 2 * r, layer.in_channels), stack.carrier)
            self.canvases.append(xp[r : r + h, r : r + w])
            self._windows.append(windows(xp, layer.kernel))

    def enter(self, at, symbols):
        """Enter the symbols of positions at, the latent at them on their
        grid, (c, h, w) or (c, P, 1), on the first context layer's input
        grid: the one way symbols enter the stack, checked there and
        written into the canvas."""
        if self.stack.context:
            self.canvases[0][at] = self.stack.enter(symbols, self.stack.context[0])

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
    """Full entropy inference: hyperdecoder + context -> gather -> priors of
    the whole latent, on its (h, w) grid: one StepDecoder step over every
    position, with every symbol entered through StepDecoder.enter.

    For an EntropyStack the inputs must already be quantized at the first
    layers' input grids, and the GmmParams output is a pure function of
    the inputs and the stack bits.  The stack's two entry points check
    them: the hyper latent where the StepDecoder is built, the latent's
    symbols in enter; without a context model only the latent's shape is
    read.
    """
    steps = StepDecoder(hyper_latent, stack, np.shape(latent_context))
    steps.enter(np.s_[:, :], latent_context)
    return steps.priors(np.s_[:, :])
