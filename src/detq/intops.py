"""Fused integer convolution pipeline for the entropy subnetworks.

Activations are plain (c, h, w) int64 arrays.  Inputs arrive already on
the first layer's input grid (harness quantizes raw activations with
quantize.quantize_value, the one activation quantizer); each layer's spec
carries the grid 2^-p_in and the bit depth n_i of its input, and
check_topology holds that they chain.  qconv_forward is the one place an
activation's range is checked.  All arithmetic from there on is exact
integer arithmetic: int16-range operands, 32-bit accumulators whose
overflow is excluded statically by the shift derivation, and per-channel
fused rescaling via arithmetic shifts with half-away-from-zero rounding.

The stack topology (hyper_features, priors_from_features) exists once,
here; the stack passed in supplies the arithmetic (layer step, fuse, head
decode): integer for EntropyStack, float32 for harness.EntropyStackF.
Only the float32 stack has an accumulation order, and it carries its own.

The convolution runs as one float64 BLAS GEMM, and that is exact too.
QConvLayer enforces sum|w| * x_max + |b| <= 2^31 - 1, so every product
and every partial sum, taken in any order, is an integer of magnitude
below 2^31 < 2^53: float64 represents each one exactly, whatever
summation order, blocking or FMA use the BLAS library picks.

Exactness also lets a decoder compute the priors of any set of positions
at once.  Every context layer is causal and gather is 1x1, so a position's
priors depend only on its hyper features and on its causal window of the
canvas; priors_from_features(..., at=(ys, xs)) is given the whole canvas,
cuts from it the band that the positions' windows span (_band, the one
place that geometry is written), runs the context chain on that band and
gather and head on the picked pixels, and the result equals the
whole-canvas priors at those positions bit for bit.  A position's window
reads only positions of smaller x + (R+1)*y, R = context_reach, so a
decoder can take all positions of one such anti-diagonal in one batched
step (the wavefront order of harness and rc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import GmmParams, apportion, sigma_min_for
from .quantize import QConvLayer, RoundingTerms, exceeds, rounding_terms
from .tensors import ShapeError, check_conv_input, im2col

__all__ = [
    "SUBNETS",
    "EntropyStack",
    "check_topology",
    "AccumulatorOverflowError",
    "LEAKY_NUM",
    "LEAKY_SHIFT",
    "round_shift",
    "qconv_forward",
    "requantize",
    "leaky_relu_int",
    "linear_softmax_field",
    "hyper_features",
    "context_reach",
    "pick_positions",
    "priors_from_features",
    "run_entropy_stack",
    "split_head",
]

# The entropy subnetworks, in evaluation and serialization order.
SUBNETS = ("hyperdecoder", "context", "gather")

# LeakyReLU negative slope 41/4096 ~= 0.01 as a dyadic rational.
LEAKY_NUM = 41
LEAKY_SHIFT = 12
_LEAKY_ROUNDING = rounding_terms(LEAKY_SHIFT)


class AccumulatorOverflowError(ArithmeticError):
    """A left shift pushed a value past the 32-bit range.  QConvLayer rules
    it out for any layer it accepts; it guards direct calls."""


def round_shift(v, s):
    """Scale by 2^-s with half-away rounding (s > 0) or left shift (s <= 0).

    s is an int or an integer array broadcast against v.  Left shifts that
    could push values past 31 bits raise, since a real 32-bit register
    would wrap.
    """
    return _apply_rounding(np.asarray(v, dtype=np.int64), rounding_terms(s))


def _apply_rounding(v, terms: RoundingTerms):
    """round_shift of an int64 array v by the shifts terms were built from."""
    right, half, tie, left = terms
    # floor((v + half) / 2^right) rounds ties up; v >> 63 is -1 below zero,
    # and one less added there rounds them down, so ties go away from zero
    out = (v + half + ((v >> 63) & tie)) >> right
    if left is not None:
        out = out << left
        if np.any((left > 0) & (np.abs(out) > (1 << 31) - 1)):
            raise AccumulatorOverflowError(
                f"left shift by up to {int(left.max())} exceeds the 32-bit range"
            )
    return out


def qconv_forward(x, layer: QConvLayer) -> np.ndarray:
    """Exact integer cross-correlation plus bias; returns (n, h, w) int64.

    x is a (c, h, w) integer array.  QConvLayer holds sum|w| * x_max + |b|
    within 32 bits, and the input is checked against x_max here, the one
    range check an activation gets, so no partial sum in any order can
    overflow, and each one is an integer below 2^53 that float64 holds
    exactly.  One float64 GEMM, im2col(x) @ layer.weight_matrix, sums all
    m*K*K taps, so the result is the same for any summation order the BLAS
    library picks.  Masked (causal) layers carry their zeroes in the
    weights.  An x of any other dtype is refused, not truncated.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"input must be an integer array, got dtype {x.dtype}")
    x = x.astype(np.int64, copy=False)
    _, h, w = check_conv_input(x, layer)
    n_i = layer.spec.n_i
    if exceeds(x, (1 << (n_i - 1)) - 1):
        raise ValueError(f"input entry exceeds the layer's {n_i}-bit range")
    cols = im2col(x.astype(np.float64), layer.kernel)  # (h*w, m*K*K)
    acc = (cols @ layer.weight_matrix).astype(np.int64) + layer.b_q
    return acc.reshape(h, w, layer.out_channels).transpose(2, 0, 1)


def requantize(acc: np.ndarray, layer: QConvLayer, *, out_bits: int = 16) -> np.ndarray:
    """Fused rescale of an (n, h, w) accumulator to the next layer's input grid.

    acc represents real values at scale 2^-(k_j + p_in) per channel j; the
    output is at 2^-p_out, so each channel shifts by k_j + p_in - p_out
    (round_shift, from the terms the spec built once), and is clamped to
    +-(2^(out_bits-1) - 1).
    """
    acc = np.asarray(acc, dtype=np.int64)
    if acc.ndim != 3:
        raise ShapeError(f"expected an (n, h, w) accumulator, got shape {acc.shape}")
    out = _apply_rounding(acc, layer.spec.rounding)
    lim = (1 << (out_bits - 1)) - 1
    return np.minimum(np.maximum(out, -lim), lim)


def leaky_relu_int(x: np.ndarray) -> np.ndarray:
    """Integer LeakyReLU with negative slope 41/4096; never grows |x|."""
    # the scaled value lies between 0 and x, so the larger of the two is x
    # at or above zero and the scaled value below it
    return np.maximum(x, _apply_rounding(x * LEAKY_NUM, _LEAKY_ROUNDING))


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

    def layer_step(self, x, layer, after, activation=True):
        """Convolve, requantize to `after`'s bit depth (16 if None), LeakyReLU.

        The output is at `after`'s input grid and within its n_i bits.
        """
        next_bits = after.spec.n_i if after is not None else 16
        q = requantize(qconv_forward(x, layer), layer, out_bits=next_bits)
        return leaky_relu_int(q) if activation else q

    def fuse(self, feats) -> np.ndarray:
        """Concatenated chain outputs, clamped to gather[0]'s n_i bits.

        Both chains end at the gather input grid (check_topology) in 16
        bits; the clamp comes after their last activation.
        """
        lim = (1 << (self.gather[0].spec.n_i - 1)) - 1
        return np.minimum(np.maximum(np.concatenate(feats, axis=0), -lim), lim)

    def decode_head(self, y: np.ndarray) -> GmmParams:
        p_e = self.head_scale_exp
        z, means, scales = split_head(y, self.latent_channels)
        scales = np.maximum(scales, sigma_min_for(p_e))
        return GmmParams(linear_softmax_field(z, p_e), means, scales, p_e)


def _run_chain(x, chain, stack, last_act=True):
    """Run layers in order; the last one skips its activation unless last_act."""
    for layer, after in zip(chain, (*chain[1:], None)):
        x = stack.layer_step(x, layer, after, after is not None or last_act)
    return x


def split_head(y: np.ndarray, latent_channels: int):
    """Weight logits, means and scales, each (3, c, h, w), of a (9c, h, w) head."""
    y = y.reshape(latent_channels, 9, *y.shape[1:]).transpose(1, 0, 2, 3)
    return y[0:3], y[3:6], y[6:9]


def hyper_features(hyper_latent, stack):
    """Hyperdecoder output, or None for a stack without a hyperdecoder.

    It does not depend on the latent, so a decoder computes it once.
    """
    if not stack.hyperdecoder:
        return None
    return _run_chain(hyper_latent, stack.hyperdecoder, stack)


def context_reach(stack) -> int:
    """How many rows and columns a context output reaches back: sum of K//2."""
    return sum(layer.kernel // 2 for layer in stack.context)


def _positions(at):
    """at = (ys, xs), a set of positions, as two int arrays; ints are a set of one."""
    return tuple(np.atleast_1d(a) for a in at)


def _band(canvas, at, r):
    """The band of a (c, h, w) canvas that the priors of positions at read
    at context reach r, and the positions' places in it.

    The band is rows min(ys) - r..max(ys) and columns min(xs) - r..max(xs)
    + r, clipped to the canvas: it holds each position's receptive field
    under a causal context chain, cut off below its row.
    """
    ys, xs = _positions(at)
    y0, x0 = max(ys.min() - r, 0), max(xs.min() - r, 0)
    return canvas[:, y0 : ys.max() + 1, x0 : xs.max() + r + 1], (ys - y0, xs - x0)


def pick_positions(t, at):
    """Positions at = (ys, xs) of a (..., c, h, w) array, as (..., c, P, 1)."""
    ys, xs = _positions(at)
    return np.asarray(t)[..., ys, xs, None]


def priors_from_features(hyper_feat, canvas, stack, at=None):
    """Context on the canvas -> fuse with hyper features -> gather -> GMM head.

    An EntropyStack's head gives Q15 mixture weights (linearized softmax),
    means, and scales floored at sigma_min_for, as GmmParams.

    With at = (ys, xs), a set of P positions (ints for one), only their
    priors are computed, as a (c, P, 1) field: this function cuts from the
    whole canvas the band their causal windows span (_band), runs the
    context chain on that band, and fuse, gather and head on the P pixels.
    The context layers are causal and every output position is summed on
    its own, so the result equals the whole-canvas priors at those
    positions bit for bit, in float32 too.  With both a hyperdecoder and a
    context model, hyper features on another (h, w) grid than the canvas
    are refused either way.
    """
    if hyper_feat is not None and stack.context:
        # else fuse fails with numpy's concatenation message, naming neither,
        # or picked positions read the hyper features of another grid
        hw, canvas_hw = hyper_feat.shape[-2:], np.shape(canvas)[-2:]
        if hw != canvas_hw:
            raise ShapeError(f"hyper latent of (h, w) {hw} under a latent of (h, w) {canvas_hw}")
    if at is not None and any(layer.kernel != 1 for layer in stack.gather):
        raise ShapeError("priors of picked positions need 1x1 gather layers")
    feats = []
    if hyper_feat is not None:
        feats.append(hyper_feat if at is None else pick_positions(hyper_feat, at))
    if stack.context:
        if at is None:
            feats.append(_run_chain(canvas, stack.context, stack))
        else:
            band, at_band = _band(canvas, at, context_reach(stack))
            feats.append(pick_positions(_run_chain(band, stack.context, stack), at_band))
    y = _run_chain(stack.fuse(feats), stack.gather, stack, last_act=False)
    return stack.decode_head(y)


def run_entropy_stack(latent_context, hyper_latent, stack):
    """Full entropy inference: hyperdecoder + context -> gather -> priors.

    For an EntropyStack the inputs must already be quantized at the first
    layers' input grids, and the GmmParams output is a pure function of
    the inputs and the stack bits.
    """
    hyper_feat = hyper_features(hyper_latent, stack)
    return priors_from_features(hyper_feat, latent_context, stack)
