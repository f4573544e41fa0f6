"""Seeded random entropy stacks and latents, the models the tests run.

Golden digests hash what these draw, so each call must draw the same
numbers in the same order: change them only with a called-out digest move.
"""

import math

import numpy as np

from detq.harness import DEFAULT_SYMBOL_BOUND, EntropyStackF, LayerCfg
from detq.tensors import ConvLayerF


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
