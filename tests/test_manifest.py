import numpy as np
import pytest

from detq.harness import (
    BackendVariant,
    make_stack_pair,
    random_latent,
    random_stack,
    run_backend,
)
from detq.manifest import (
    ManifestError,
    load_float_model,
    load_quantized_model,
    model_dtype,
    save_float_model,
    save_quantized_model,
)


@pytest.fixture
def fstack():
    return random_stack(np.random.default_rng(17))


def test_float_roundtrip_preserves_behavior(tmp_path, fstack):
    path = tmp_path / "model.json"
    save_float_model(path, fstack)
    assert model_dtype(path) == "float32"
    back = load_float_model(path)
    # float32 storage: parameters equal after one f32 roundtrip
    for (_, la, ca), (_, lb, cb) in zip(fstack.chains(), back.chains()):
        for a, b in zip(la, lb):
            np.testing.assert_array_equal(a.weights.astype(np.float32), b.weights)
            assert a.mask == b.mask
        assert ca == cb


def test_quantized_roundtrip_bit_exact(tmp_path, fstack):
    pair = make_stack_pair(fstack)
    path = tmp_path / "q.json"
    save_quantized_model(path, pair.quant_stack)
    back = load_quantized_model(path)
    rng = np.random.default_rng(0)
    latent = random_latent(rng, (1, 4, 4))
    hyper = rng.normal(size=(2, 4, 4))
    a = run_backend(pair, latent, hyper, BackendVariant("seq", "seq"))

    class P:
        quant_stack = back

    b = run_backend(P, latent, hyper, BackendVariant("seq", "seq"))
    assert a.tobytes() == b.tobytes()


def test_save_is_deterministic(tmp_path, fstack):
    save_float_model(tmp_path / "a.json", fstack)
    save_float_model(tmp_path / "b.json", fstack)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    a = (tmp_path / "a.json").read_text().replace("a.bin", "x.bin")
    b = (tmp_path / "b.json").read_text().replace("b.bin", "x.bin")
    assert a == b


def test_tampered_blob_rejected(tmp_path, fstack):
    path = tmp_path / "model.json"
    save_float_model(path, fstack)
    blob = tmp_path / "model.bin"
    raw = bytearray(blob.read_bytes())
    raw[10] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ManifestError):
        load_float_model(path)


def test_truncated_blob_rejected(tmp_path, fstack):
    path = tmp_path / "model.json"
    save_float_model(path, fstack)
    import hashlib, json

    blob = tmp_path / "model.bin"
    raw = blob.read_bytes()[:-8]
    blob.write_bytes(raw)
    doc = json.loads(path.read_text())
    doc["blob_sha256"] = hashlib.sha256(raw).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_float_model(path)


def test_wrong_dtype_rejected(tmp_path, fstack):
    path = tmp_path / "model.json"
    save_float_model(path, fstack)
    with pytest.raises(ManifestError):
        load_quantized_model(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        load_float_model(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ManifestError):
        load_float_model(path)
