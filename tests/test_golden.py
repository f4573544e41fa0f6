"""Golden vectors: SHA-256 of output bytes for fixed seeds.

Refactors must leave every digest unchanged.  A digest may only change in
a change that is called out as a format change.  Covered: quantized model
blobs at desk and codec width, integer priors under two accumulation
orders (of two random stacks and of a hand-built one whose requantize
shifts left, and right by 53 to 62) and of the manifest-loaded
codec-width model, per-element CDF tables, encoded bitstreams,
float-path discretized priors, the linearized softmax on a tie-heavy
field, decoder-side priors of both backend modes, both failure-demo
reports, the reports of the roundtrips whose decoder runs off the
payload in float mode (seed 25 only in raster order, so its v2 report is
pinned), and v2 (wavefront-order) bitstreams of a one- and a two-channel
context model.
"""

import hashlib

import numpy as np
import pytest

from detq import harness
from detq.harness import (
    BackendVariant,
    StackPair,
    boundary_failure_demo,
    discretize_priors,
    field_tables,
    make_stack_pair,
    roundtrip_experiment,
    run_backend,
)
from detq.intops import context_reach, linear_softmax_field, run_entropy_stack
from detq.manifest import load_quantized_model, save_quantized_model
from detq.rc import rc_encode

from models import random_latent, random_stack, shift_stack
from test_harness import off_payload_case

V_MIN, V_MAX = -8, 8

GOLDEN = {
    "ctx.bitstream": "4d60e94d477cb3b8d37f5067e1053ececbdf72ab69c932cc11a6a8957a109f9d",
    "ctx.bitstream.v2": "289df6c6137786bb3031f370f0cdffbfba0bf8b7adcb36a10a94843e80f71f18",
    "ctx.blob": "e30f6f28b272dc5808dc87f83c785642ab2514a39eef6cf59299f62c8a697fe1",
    "ctx.decoder.float": "588cd742b856ce2b4940b0d15053b0e18032706709669f7e99b78be025d4c539",
    "ctx.decoder.int": "578df50deb9ef3b29b8616778e7170b8a4782d9fa45d5eae90fc6d2c6d79afbd",
    "ctx.float_priors": "eb1ac7f50138a29b2768a14c89f526d9c3ae2fc2d5e179ad5c7e00a40abd5a44",
    "ctx.priors.seq": "a7185b01ac98ed062fbbbf894322f89ec59048c88e7ff47ce37904948efe9d86",
    "ctx.priors.tree": "a7185b01ac98ed062fbbbf894322f89ec59048c88e7ff47ce37904948efe9d86",
    "ctx.tables": "8939beea9e5b6d8a8a16e933fff1bb4ebf8ddbdb2892757aea62a7b2f0d49608",
    "demo.float": "7b779639190d57ff2e3137ea29115a3e2cec17e621629243db243339d08989e8",
    "demo.int": "0dc5ccf8de69f7eca872d12bf444f4cfa3eb0eff7bcbfd3a13a75fcea3cc2cc5",
    "hyper.bitstream": "c6acb21e1114b12adad7f64bf1c7672f9018b36d4a43cc211a0620c25b64ac0e",
    "hyper.blob": "a50be28774d9796019e3ee0a0b706d42d31721d59aa212dc2fe2b393419437ad",
    "hyper.decoder.float": "495d5caec257cb804bac8281e41c147d04ea8d44255e13416c0fe09001eb5ebd",
    "hyper.decoder.int": "adee4d3efd465042134281687514008d7d927e6d0caf904ca3e2e2fd247861ad",
    "hyper.float_priors": "495d5caec257cb804bac8281e41c147d04ea8d44255e13416c0fe09001eb5ebd",
    "hyper.priors.seq": "adee4d3efd465042134281687514008d7d927e6d0caf904ca3e2e2fd247861ad",
    "hyper.priors.tree": "adee4d3efd465042134281687514008d7d927e6d0caf904ca3e2e2fd247861ad",
    "hyper.tables": "d018101c4a8e5db2c32a193a7f969e3f32755bc6e75cf6256b68fc0b8210a6b4",
    "off_payload.190.float": "dfa7535cfaf7fd09b7be553ec122e9649a9a4d14008569276d6cad88d295f0f1",
    "off_payload.190.int": "0dc5ccf8de69f7eca872d12bf444f4cfa3eb0eff7bcbfd3a13a75fcea3cc2cc5",
    "off_payload.169.float": "9a85ffa5dee9175dfb6605b07feef63f5300747aeecc22e12da5aad6fbdb0bf7",
    "off_payload.169.int": "0dc5ccf8de69f7eca872d12bf444f4cfa3eb0eff7bcbfd3a13a75fcea3cc2cc5",
    "off_payload.25.bitstream.v2": "a04c9850f048dda28e7b6b7457d1d4182f3c7f4f36a21fb5ee9379824a5748fc",
    "off_payload.25.float": "543eb75a667f33f0a9e7b492ecd0871713be9389a3e4cc703989ade8c19743fd",
    "off_payload.25.int": "0dc5ccf8de69f7eca872d12bf444f4cfa3eb0eff7bcbfd3a13a75fcea3cc2cc5",
    "shifts.priors.seq": "1a62ea315b05e92729557785848af463f37d20bf2db12c3f11d675c88c1f6dbc",
    "shifts.priors.tree": "1a62ea315b05e92729557785848af463f37d20bf2db12c3f11d675c88c1f6dbc",
    "softmax.ties": "16430a0008660bd27f167b6908d6650f0f375a19b793bccecbccc8d560aa9e72",
    "wide.blob": "bfe653263614d827e1f37ae069485dfa4080ba02e93edef87fa5d48e6b52b6f7",
    "wide.priors": "8ceb8ba00ec4a25972b3544be5fe8999f0021ca7fa66d5b41206225c119b8500",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# name -> seed and random_stack keywords of the model cases
CASES = {"ctx": (2024, {}), "hyper": (2025, dict(latent_channels=2, with_context=False))}


def _inputs(name):
    """A model case's float stack, its stack pair, latent and hyper latent."""
    seed, kw = CASES[name]
    rng = np.random.default_rng(seed)
    fs = random_stack(rng, **kw)
    latent = random_latent(rng, (fs.latent_channels, 5, 6))
    hyper = rng.normal(size=(2, 5, 6))
    return fs, make_stack_pair(fs), latent, hyper


def _case(name, tmp):
    fs, pair, latent, hyper = _inputs(name)
    out = {}

    path = tmp / f"{name}.json"
    save_quantized_model(path, pair.quant_stack)
    out["blob"] = _sha((tmp / f"{name}.bin").read_bytes())

    for order in ("seq", "tree"):
        params = run_backend(pair, latent, hyper, BackendVariant(order, order, "int"))
        out[f"priors.{order}"] = _sha(params.tobytes())
    tables = field_tables(params, V_MIN, V_MAX)
    out["tables"] = _sha(*(t.tobytes() for t in tables))
    symbols = [int(v) for v in latent.transpose(1, 2, 0).ravel()]
    out["bitstream"] = _sha(rc_encode(symbols, tables, shape=latent.shape).to_bytes())
    if fs.context:
        v2 = harness._encode(params, latent, context_reach(pair.quant_stack))[0]
        out["bitstream.v2"] = _sha(v2.to_bytes())

    priors = run_entropy_stack(latent, hyper, fs)
    out["float_priors"] = _sha(discretize_priors(priors, fs.head_scale_exp).tobytes())

    # decoder-side prior regeneration on a partly decoded canvas
    canvas = latent.copy()
    canvas[:, 3:, :] = 0
    for mode in ("int", "float"):
        params = run_backend(pair, canvas, hyper, BackendVariant("d", "tree", mode))
        out[f"decoder.{mode}"] = _sha(params.tobytes())
    return {f"{name}.{k}": v for k, v in out.items()}


def _all_digests(tmp):
    out = {}
    for name in CASES:
        out.update(_case(name, tmp))

    # codec width: 192-wide layers, a 5x5 context kernel, 32 channels
    fs = random_stack(
        np.random.default_rng(2027), latent_channels=32, hyper_channels=32, hidden=192, ctx_kernel=5
    )
    save_quantized_model(tmp / "wide.json", fs.quantize())
    out["wide.blob"] = _sha((tmp / "wide.bin").read_bytes())
    # priors of the manifest-loaded model, whose weights are the blob's own
    rng = np.random.default_rng(2028)
    latent, hyper = random_latent(rng, (32, 3, 4)), rng.normal(size=(32, 3, 4))
    pair = StackPair(fs, load_quantized_model(tmp / "wide.json"))
    params = run_backend(pair, latent, hyper, BackendVariant("e", "seq", "int"))
    out["wide.priors"] = _sha(params.tobytes())

    # a hand-built stack with left shifts and right shifts of 53 to 62
    rng = np.random.default_rng(2029)
    pair = StackPair(None, shift_stack(rng))
    latent, hyper = random_latent(rng, (1, 5, 6)), rng.normal(size=(2, 5, 6)) * 3
    for order in ("seq", "tree"):
        params = run_backend(pair, latent, hyper, BackendVariant(order, order, "int"))
        out[f"shifts.priors.{order}"] = _sha(params.tobytes())

    rng = np.random.default_rng(2026)
    z = rng.choice([-2048, -1024, -1, 0, 0, 1, 512, 1024], size=(3, 4, 16, 16))
    out["softmax.ties"] = _sha(linear_softmax_field(z, 10).tobytes())

    for mode in ("float", "int"):
        rep = boundary_failure_demo(prior_mode=mode)
        out[f"demo.{mode}"] = _sha(rep.to_text().encode())

    # seq-encoded, decoded in another order: float mode runs off the payload
    cases = ((190, False, "tree"), (25, True, "rev"), (169, True, "rev"))
    for seed, with_context, dec_order in cases:
        fs, latent, hyper = off_payload_case(seed, with_context)
        pair = make_stack_pair(fs)
        for mode in ("float", "int"):
            enc, dec = BackendVariant("e", "seq", mode), BackendVariant("d", dec_order, mode)
            rep = roundtrip_experiment(pair, latent, hyper, enc, dec)
            out[f"off_payload.{seed}.{mode}"] = _sha(rep.to_text().encode())
    # two channels: a step's positions by ascending y, each with its channels
    fs, latent, hyper = off_payload_case(25, True)
    pair = make_stack_pair(fs)
    params = run_backend(pair, latent, hyper, BackendVariant("e", "seq", "int"))
    v2 = harness._encode(params, latent, context_reach(pair.quant_stack))[0]
    out["off_payload.25.bitstream.v2"] = _sha(v2.to_bytes())
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _all_digests(tmp_path_factory.mktemp("golden"))


def test_golden_names_complete(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_encoder_writes_the_golden_v1_bitstream(name):
    # the bitstream digests above come from field_tables and rc_encode; the
    # encoder's one path must write those v1 bytes too
    _, pair, latent, hyper = _inputs(name)
    params = run_backend(pair, latent, hyper, BackendVariant("e", "seq", "int"))
    stream = harness._encode(params, latent)[0]
    assert stream.version == 1
    assert _sha(stream.to_bytes()) == GOLDEN[f"{name}.bitstream"]
