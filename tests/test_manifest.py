import gc
import os
import tracemalloc

import numpy as np
import pytest

from detq.harness import BackendVariant, make_stack_pair, run_backend
from detq.manifest import (
    ManifestError,
    load_float_model,
    load_quantized_model,
    model_dtype,
    save_float_model,
    save_quantized_model,
)
from detq.quantize import quantize_layer
from detq.tensors import ConvLayerF, ShapeError

from models import random_latent, random_stack


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


def test_saving_a_float_stack_broken_after_it_was_built_raises(tmp_path, fstack):
    # a built EntropyStackF's lists stay mutable; saved unchecked, a broken
    # stack made a manifest that load_float_model then refused
    fstack.hyper_cfg[0].p_out = 11  # hyper_cfg[1].p_in stays 8
    with pytest.raises(ShapeError, match="hyperdecoder: p_out/p_in chain broken"):
        save_float_model(tmp_path / "p.json", fstack)
    fstack.hyper_cfg[0].p_out = fstack.hyper_cfg[1].p_in
    w = fstack.gather[1].weights
    fstack.gather[1] = ConvLayerF(np.zeros((w.shape[0] + 1, *w.shape[1:])), fstack.gather[1].bias)
    with pytest.raises(ShapeError, match="gather: channel mismatch"):
        save_float_model(tmp_path / "c.json", fstack)
    assert not list(tmp_path.iterdir())


def test_saving_a_float_stack_whose_context_reads_other_channels_raises(tmp_path, fstack):
    # a 1-channel stack's context layer swapped for one reading 2 channels
    # after the stack was built: saved, it made a model that codes no latent
    ctx = fstack.context[0]
    wide = np.concatenate([ctx.weights, ctx.weights])
    fstack.context[0] = ConvLayerF(wide, ctx.bias, ctx.mask)
    with pytest.raises(ShapeError, match="context reads 2 channels, the latent has 1"):
        save_float_model(tmp_path / "m.json", fstack)
    assert not list(tmp_path.iterdir())


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


@pytest.fixture(scope="module")
def wide_model(tmp_path_factory):
    """Manifest path of the codec-width model the wide.blob golden pins."""
    fs = random_stack(
        np.random.default_rng(2027), latent_channels=32, hyper_channels=32, hidden=192, ctx_kernel=5
    )
    path = tmp_path_factory.mktemp("wide") / "wide.json"
    save_quantized_model(path, fs.quantize())
    return path


def test_loaded_weights_are_views_of_the_blob(wide_model):
    for _, chain in load_quantized_model(wide_model).chains():
        for lyr in chain:
            assert lyr.w_q.dtype == np.int16
            assert not lyr.w_q.flags.writeable and not lyr.w_q.flags.owndata


def test_load_keeps_no_more_than_the_blob(wide_model):
    # a load holds the blob and small per-layer arrays; a widened copy of
    # the weights (int64: 4 times the blob) would show here
    blob = wide_model.with_suffix(".bin").stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stack = load_quantized_model(wide_model)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(kept - blob) <= 0.1 * blob, (kept, blob)
    layers = [lyr for _, chain in stack.chains() for lyr in chain]
    assert sum(lyr.w_q.nbytes for lyr in layers) == 2 * sum(lyr.w_q.size for lyr in layers)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced past what was held
    before it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def test_model_preparation_peaks_at_codec_width(tmp_path):
    # quantizing the 1728x192 hyperdecoder layer held 3.00 times its float64
    # weights, a save 2.1 times the blob (its tobytes copies) and a load 2.6
    # times (an int64 |w| of the widest layer); in place they take about
    # 1.5, 1.1 and 1.8 times
    fs = random_stack(
        np.random.default_rng(2027), latent_channels=32, hyper_channels=32, hidden=192, ctx_kernel=5
    )
    layer, cfg = fs.hyperdecoder[1], fs.hyper_cfg[1]
    assert layer.weights.shape == (192, 3, 3, 192)
    _, peak = _traced_peak(quantize_layer, layer, cfg.n_i, cfg.p_in, cfg.p_out)
    assert peak <= 2.25 * layer.weights.astype(np.float64).nbytes, peak
    path = tmp_path / "wide.json"
    _, save_peak = _traced_peak(save_quantized_model, path, fs.quantize())
    blob = path.with_suffix(".bin").stat().st_size
    assert save_peak <= 1.6 * blob, (save_peak, blob)
    _, load_peak = _traced_peak(load_quantized_model, path)
    assert load_peak <= 2.2 * blob, (load_peak, blob)


@pytest.mark.parametrize("save", [save_float_model, save_quantized_model])
def test_a_manifest_named_as_its_own_blob_is_refused(tmp_path, fstack, save):
    # q.bin's blob is q.bin: the manifest overwrote it, and the saved model
    # failed its digest check
    stack = fstack if save is save_float_model else fstack.quantize()
    with pytest.raises(ManifestError, match="would overwrite its own blob q.bin"):
        save(tmp_path / "q.bin", stack)
    assert not list(tmp_path.iterdir())


def test_a_save_over_a_model_writes_new_files(tmp_path, fstack):
    # the old files are unlinked, not truncated and rewritten: hard links to
    # them keep the old model, and the new one loads
    path = tmp_path / "m.json"
    save_quantized_model(path, fstack.quantize())
    old = {name: (tmp_path / name).read_bytes() for name in ("m.json", "m.bin")}
    for name in old:
        os.link(tmp_path / name, tmp_path / f"old-{name}")
    save_float_model(path, fstack)
    for name, data in old.items():
        assert (tmp_path / f"old-{name}").read_bytes() == data
        assert (tmp_path / name).read_bytes() != data
    back = load_float_model(path)
    for (_, la, _), (_, lb, _) in zip(fstack.chains(), back.chains()):
        for a, b in zip(la, lb):
            np.testing.assert_array_equal(a.weights.astype(np.float32), b.weights)


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
