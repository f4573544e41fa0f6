"""Golden vectors: SHA-256 of output bytes for fixed seeds.

Refactors must leave every digest unchanged.  A digest may only change in
a change that is called out as a format change.  Covered: quantized model
blobs, integer priors under two accumulation orders, per-element CDF
tables, encoded bitstreams, float-path discretized priors, the linearized
softmax on a tie-heavy field, decoder-side priors of both backend modes,
and both failure-demo reports.
"""

import hashlib

import numpy as np
import pytest

from detq.harness import (
    BackendVariant,
    boundary_failure_demo,
    discretize_priors,
    field_tables,
    make_stack_pair,
    random_latent,
    random_stack,
    run_backend,
    prior_fn,
)
from detq.intops import linear_softmax_field, run_entropy_stack
from detq.manifest import save_quantized_model
from detq.rc import rc_encode

V_MIN, V_MAX = -8, 8

GOLDEN = {
    "ctx.bitstream": "4d60e94d477cb3b8d37f5067e1053ececbdf72ab69c932cc11a6a8957a109f9d",
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
    "softmax.ties": "16430a0008660bd27f167b6908d6650f0f375a19b793bccecbccc8d560aa9e72",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _case(name, seed, tmp, **kw):
    rng = np.random.default_rng(seed)
    fs = random_stack(rng, **kw)
    c = fs.latent_channels
    latent = random_latent(rng, (c, 5, 6))
    hyper = rng.normal(size=(2, 5, 6))
    pair = make_stack_pair(fs)
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

    priors = run_entropy_stack(latent, hyper, fs)
    out["float_priors"] = _sha(discretize_priors(priors, fs.head_scale_exp).tobytes())

    # decoder-side prior regeneration on a partly decoded canvas
    canvas = latent.copy()
    canvas[:, 3:, :] = 0
    for mode in ("int", "float"):
        params_of = prior_fn(pair, hyper, BackendVariant("d", "tree", mode))
        out[f"decoder.{mode}"] = _sha(params_of(canvas).tobytes())
    return {f"{name}.{k}": v for k, v in out.items()}


def _all_digests(tmp):
    out = {}
    out.update(_case("ctx", 2024, tmp))
    out.update(_case("hyper", 2025, tmp, latent_channels=2, with_context=False))

    rng = np.random.default_rng(2026)
    z = rng.choice([-2048, -1024, -1, 0, 0, 1, 512, 1024], size=(3, 4, 16, 16))
    out["softmax.ties"] = _sha(linear_softmax_field(z, 10).tobytes())

    for mode in ("float", "int"):
        rep = boundary_failure_demo(prior_mode=mode)
        out[f"demo.{mode}"] = _sha(rep.to_text().encode())
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _all_digests(tmp_path_factory.mktemp("golden"))


def test_golden_names_complete(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]
