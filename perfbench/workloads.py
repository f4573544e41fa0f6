"""Seeded workloads for the detq benchmark, driven through the public API.

Every input -- the float entropy stack and each latent/hyper-latent pair --
is generated here from a seed, so edits to the library's own generators
(``random_stack``, ``random_latent``) cannot change a workload.  Like a
deployed codec, each workload has one model (its stack comes from the fixed
``MODEL_SEED``) and codes varying data (the latents come from the run's
seed); bits per symbol then depend on the data, not on which random model a
seed happened to draw.
All workloads use integer priors: the encoder evaluates the stack in
``seq`` order and the decoder in ``tree`` order, the paper's cross-device
setting.

Workloads and why each exists:

* ``ar-roundtrip`` -- desk-width stack with a 3x3 masked context model,
  1x8x8 latents, through ``roundtrip_experiment``.  The decoder reruns the
  whole stack at every latent position, so integer prior inference
  (``intops``) dominates and grows as O((hw)^2).
* ``hyperprior-roundtrip`` -- the same roundtrip through a stack without a
  context model, 4x16x16 latents (1024 symbols per stream).  Decoding is
  one shot, so building per-element CDF tables (``gmm``) dominates and
  the range coder (``rc``) sees long streams.  Bypasses the autoregressive
  path.
* ``wide-encode`` -- encoder side at codec channel width (hidden 192, 5x5
  masked context, 32 latent and 32 hyper channels, 32x8x8 latents):
  ``run_backend`` -> ``field_tables`` -> ``rc_encode``.  The (P, T, n)
  products tensor of ``qconv_forward`` dominates time and memory, and
  quantizing 192-wide layers is a visible share of set-up.

Deliberately left out:

* The 192->384 channel, 5x5, 16x16 codec-width layer: the current
  ``qconv_forward`` would build a 3.8 GB products tensor for it.  It can
  join as its own benchmark change once the convolution no longer
  materialises that tensor.
* Decoding at codec width: with a context model it costs about a minute
  per latent.
* Float-mode priors: they are the reference oracle whose decode failures
  the paper demonstrates, and would pollute the failure count.
* ``detq.cli`` (a thin argparse wrapper over the calls timed here) and
  shift calibration.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from detq import harness, manifest, rc
from detq.harness import BackendVariant, EntropyStackF, LayerCfg, StackPair
from detq.tensors import ConvLayerF

SYMBOL_BOUND = 8
MODEL_SEED = 0
ENC = BackendVariant("enc", "seq", "int")
DEC = BackendVariant("dec", "tree", "int")

# activation exponents and input bit depth, as in the reference codec
P_INNER, P_GATHER, N_I = 8, 10, 16


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "roundtrip" or "encode"
    latent_shape: tuple  # (c, h, w)
    hyper_channels: int
    hidden: int
    ctx_kernel: int  # 0: no context model
    setup_reps: int  # set-ups per run; setup_s is their median
    digest_latents: int  # fixed latent prefix hashed and used for bits/symbol

    @property
    def symbols(self) -> int:
        return int(np.prod(self.latent_shape))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ar-roundtrip", "roundtrip", (1, 8, 8), 2, 6, 3, 40, 128),
        Workload("hyperprior-roundtrip", "roundtrip", (4, 16, 16), 2, 6, 0, 40, 16),
        Workload("wide-encode", "encode", (32, 8, 8), 32, 192, 5, 5, 3),
    )
}


def make_float_stack(wl: Workload, seed: int = MODEL_SEED) -> EntropyStackF:
    """Float stack: two 3x3 hyperdecoder layers, an optional masked context
    layer, seven 1x1 gather layers ending in the 9-per-channel GMM head."""
    rng = np.random.default_rng([seed, 0])
    c_y, c_z, hid = wl.latent_shape[0], wl.hyper_channels, wl.hidden

    def conv(m, k, n, mask=False):
        w = rng.normal(0.0, 1.0 / math.sqrt(m * k * k), size=(m, k, k, n))
        return ConvLayerF(weights=w, bias=rng.normal(0.0, 0.05, size=n), mask=mask)

    hyper = [conv(c_z, 3, hid), conv(hid, 3, hid)]
    hyper_cfg = [LayerCfg(N_I, P_INNER, P_INNER), LayerCfg(N_I, P_INNER, P_GATHER)]
    if wl.ctx_kernel:
        context = [conv(c_y, wl.ctx_kernel, hid, mask=True)]
        context_cfg = [LayerCfg(N_I, P_INNER, P_GATHER)]
    else:
        context, context_cfg = [], []
    gather = [conv(hid * (1 + len(context)), 1, hid)]
    gather += [conv(hid, 1, hid) for _ in range(5)]
    head = conv(hid, 1, 9 * c_y)
    bias = np.zeros(9 * c_y)
    for i in range(c_y):
        bias[9 * i + 3 : 9 * i + 6] = rng.uniform(0.4, 1.2, 3) * rng.choice([-1.0, 1.0], 3)
        bias[9 * i + 6 : 9 * i + 9] = rng.uniform(0.8, 1.6, 3)
    gather.append(ConvLayerF(weights=head.weights, bias=bias))
    return EntropyStackF(
        hyperdecoder=hyper,
        context=context,
        gather=gather,
        hyper_cfg=hyper_cfg,
        context_cfg=context_cfg,
        gather_cfg=[LayerCfg(N_I, P_GATHER, P_GATHER) for _ in range(7)],
        latent_channels=c_y,
    )


def make_inputs(wl: Workload, seed: int, index: int):
    """Latent `index` of the seed's sequence: Laplacian symbols clipped to
    the coder alphabet, and a standard-normal hyper latent."""
    rng = np.random.default_rng([seed, 1, index])
    c, h, w = wl.latent_shape
    raw = np.rint(rng.laplace(0.0, SYMBOL_BOUND / 4.0, size=(c, h, w)))
    latent = np.clip(raw.astype(np.int64), -SYMBOL_BOUND, SYMBOL_BOUND)
    return latent, rng.normal(size=(wl.hyper_channels, h, w))


def setup(wl: Workload, workdir: pathlib.Path):
    """Float stack -> quantize -> save manifest -> load -> StackPair.

    Returns the pair built on the loaded stack and the in-memory quantized
    stack it must agree with.
    """
    fstack = make_float_stack(wl)
    quant = fstack.quantize()
    path = workdir / "stack.json"
    manifest.save_quantized_model(path, quant)
    return StackPair(fstack, manifest.load_quantized_model(path)), quant


def raster(latent: np.ndarray) -> list:
    """Symbols in coding order: raster position, then channel."""
    return [int(v) for v in latent.transpose(1, 2, 0).ravel()]


def encode(pair: StackPair, latent, hyper):
    params = harness.run_backend(pair, latent, hyper, ENC)
    tables = harness.field_tables(params, -SYMBOL_BOUND, SYMBOL_BOUND)
    stream = rc.rc_encode(raster(latent), tables, shape=latent.shape)
    return params, tables, stream


def run_op(wl: Workload, pair: StackPair, latent, hyper):
    """The timed operation.  Returns a callable performing the untimed
    correctness check (True when the output is correct)."""
    if wl.op == "roundtrip":
        r = harness.roundtrip_experiment(pair, latent, hyper, ENC, DEC)
        # reldiff 0 means the seq and tree priors hold identical integers
        ok = r.decoded_equal and r.prior_max_reldiff == 0.0
        return lambda: ok
    _, tables, stream = encode(pair, latent, hyper)
    return lambda: rc.rc_decode(stream, tables) == raster(latent)


def digest_pass(wl: Workload, seed: int, pair: StackPair, quant):
    """Untimed checks and the output digest over the fixed latent prefix.

    Returns (sha256 hex, payload bits, symbols, failed checks of 2).
    On latent 0 the priors are compared byte for byte across accumulation
    orders and against the in-memory (not manifest-loaded) stack.
    """
    sha = hashlib.sha256()
    bits = symbols = failed = 0
    for i in range(wl.digest_latents):
        latent, hyper = make_inputs(wl, seed, i)
        params, _, stream = encode(pair, latent, hyper)
        sha.update(params.tobytes())
        sha.update(stream.to_bytes())
        bits += 8 * len(stream.payload)
        symbols += stream.count
        if i == 0:
            ref = params.tobytes()
            tree = harness.run_backend(pair, latent, hyper, DEC).tobytes()
            mem = harness.run_backend(StackPair(pair.float_stack, quant), latent, hyper, ENC)
            failed += (tree != ref) + (mem.tobytes() != ref)
    return sha.hexdigest(), bits, symbols, failed
