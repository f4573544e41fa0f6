import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from detq import cli
from detq.cli import main
from detq.harness import (
    BackendVariant,
    calibrate_shifts,
    make_stack_pair,
    roundtrip_experiment,
)
from detq.intops import SUBNETS
from detq.manifest import (
    ManifestError,
    load_float_model,
    load_quantized_model,
    save_float_model,
)
from detq.quantize import WeightRangeError, accumulator_bound, quantize_layer
from detq.tensors import ConvLayerF

from models import random_latent, random_stack
from test_harness import off_payload_case, unquantizable_at_p15


@pytest.fixture
def model(tmp_path):
    fs = random_stack(np.random.default_rng(23))
    path = tmp_path / "model.json"
    save_float_model(path, fs)
    return path


@pytest.fixture
def data(tmp_path):
    rng = np.random.default_rng(24)
    path = tmp_path / "data.npz"
    np.savez(
        path,
        latent_0=random_latent(rng, (1, 4, 4)),
        hyper_0=rng.normal(size=(2, 4, 4)),
    )
    return path


def test_quantize_writes_model(model, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "k=[" in txt  # per-channel shift summary
    q = load_quantized_model(out)
    assert len(q.gather) == 7


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_quantize_to_a_path_that_cannot_be_written_is_input_error(model, tmp_path, where, capsys):
    # a missing directory used to end in a FileNotFoundError traceback
    out = tmp_path / "missing" / "q.json" if where == "missing directory" else tmp_path
    assert main(["quantize", str(model), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_quantize_write_that_fails_is_input_error(model, tmp_path, monkeypatch, capsys):
    def full(path, stack):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "save_quantized_model", full)
    out = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: [Errno 28] No space left on device\n"


def test_quantize_zero_model(tmp_path, capsys):
    fs = random_stack(np.random.default_rng(1))
    for _, layers, _ in fs.chains():
        for i, lyr in enumerate(layers):
            layers[i] = ConvLayerF(
                weights=np.zeros_like(lyr.weights),
                bias=np.zeros_like(lyr.bias),
                mask=lyr.mask,
            )
    path = tmp_path / "zero.json"
    save_float_model(path, fs)
    out = tmp_path / "qz.json"
    assert main(["quantize", str(path), "--out", str(out)]) == 0
    q = load_quantized_model(out)
    for chain in (q.hyperdecoder, q.context, q.gather):
        for lyr in chain:
            assert np.all(lyr.w_q == 0) and np.all(lyr.b_q == 0)


def test_quantize_idempotent_bytes(model, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["quantize", str(model), "--out", str(a)]) == 0
    assert main(["quantize", str(model), "--out", str(b)]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_quantize_unrepresentable_channel_diagnosed(tmp_path, capsys):
    fs = random_stack(np.random.default_rng(2))
    w = fs.hyperdecoder[0].weights.copy()
    w[0, 0, 0, 2] = 1e9  # pathological channel 2
    fs.hyperdecoder[0] = ConvLayerF(weights=w, bias=fs.hyperdecoder[0].bias)
    path = tmp_path / "bad.json"
    save_float_model(path, fs)
    rc = main(["quantize", str(path), "--out", str(tmp_path / "q.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hyperdecoder[0]" in err and "channel 2" in err


def test_quantize_lowers_the_shift_of_a_channel_past_int16(tmp_path):
    # alone in a bias-free channel, 3.0 gets shift 14, where it scales to
    # 49152; shift 13 holds it
    fs = random_stack(np.random.default_rng(2))
    w, b = fs.hyperdecoder[0].weights.copy(), fs.hyperdecoder[0].bias.copy()
    w[..., 2], b[2] = 0.0, 0.0
    w[0, 0, 0, 2] = 3.0
    fs.hyperdecoder[0] = ConvLayerF(weights=w, bias=b)
    path, out = tmp_path / "m.json", tmp_path / "q.json"
    save_float_model(path, fs)
    assert main(["quantize", str(path), "--out", str(out)]) == 0
    assert load_quantized_model(out).hyperdecoder[0].spec.k[2] == 13


def test_verify_pass(model, capsys):
    assert main(["verify", str(model)]) == 0
    out = capsys.readouterr().out
    for name, chain in load_float_model(model).quantize().chains():
        for i, lyr in enumerate(chain):
            worst = accumulator_bound(lyr.w_q, lyr.b_q, lyr.spec.n_i).max()
            assert f"{name}[{i}] headroom {31 - math.log2(worst):.2f} bits\n" in out


def test_verify_tampered_bound_fails(model, tmp_path, capsys):
    q = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(q)]) == 0
    doc = json.loads(q.read_text())
    first = doc["subnetworks"]["hyperdecoder"][0]
    n_w = first["m"] * first["k"] ** 2 * first["n"]
    blob = q.with_suffix(".bin")
    raw = bytearray(blob.read_bytes())
    raw[: 2 * n_w] = np.full(n_w, 32767, "<i2").tobytes()  # int16-max weights
    blob.write_bytes(raw)
    doc["blob_sha256"] = hashlib.sha256(raw).hexdigest()
    q.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(q)]) == 1
    out = capsys.readouterr().out
    assert "FAIL overflow bound" in out and "hyperdecoder[0]" in out


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "shift",
    [1.5, True, "3", None, 10**20, -1, "p_out - p_in + 63"],
)
def test_verify_malformed_channel_shift_is_input_error(model, tmp_path, shift, capsys):
    q = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(q)]) == 0

    def edit(doc):
        layer = doc["subnetworks"]["gather"][0]
        if shift == "p_out - p_in + 63":  # one past the widest exact right shift
            layer["channel_shifts"][0] = layer["p_out"] - layer["p_in"] + 63
        else:
            layer["channel_shifts"][0] = shift

    _rewrite(q, edit)
    with pytest.raises(ManifestError, match=r"gather\[0\]"):
        load_quantized_model(q)
    capsys.readouterr()
    assert main(["verify", str(q)]) == 2
    assert "gather[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc.update(n_a=16), lambda doc: doc.update(n_a="32"), lambda doc: doc.pop("n_a")],
    ids=["16", "string", "missing"],
)
def test_verify_wrong_accumulator_width_is_input_error(model, tmp_path, edit, capsys):
    q = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(q)]) == 0
    _rewrite(q, edit)
    with pytest.raises(ManifestError, match="n_a"):
        load_quantized_model(q)
    capsys.readouterr()
    assert main(["verify", str(q)]) == 2
    assert "n_a" in capsys.readouterr().err


def test_verify_non_causal_masked_layer_is_input_error(model, tmp_path, capsys):
    q = tmp_path / "q.json"
    assert main(["quantize", str(model), "--out", str(q)]) == 0
    doc = json.loads(q.read_text())
    entries = [e for name in ("hyperdecoder", "context") for e in doc["subnetworks"][name]]
    assert entries[-1]["mask"]  # context[0]
    w_off = sum(2 * e["m"] * e["k"] ** 2 * e["n"] + 4 * e["n"] for e in entries[:-1])
    centre = (entries[-1]["k"] ** 2 // 2) * entries[-1]["n"]  # (0, c, c, 0) in (m, k, k, n)
    blob = q.with_suffix(".bin")
    raw = bytearray(blob.read_bytes())
    raw[w_off + 2 * centre : w_off + 2 * centre + 2] = np.int16(1).tobytes()
    blob.write_bytes(raw)
    doc["blob_sha256"] = hashlib.sha256(raw).hexdigest()
    q.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=r"context\[0\].*non-causal"):
        load_quantized_model(q)
    capsys.readouterr()
    assert main(["verify", str(q)]) == 2
    assert "context[0]" in capsys.readouterr().err


def test_verify_layer_missing_key_is_input_error(model, capsys):
    _rewrite(model, lambda doc: doc["subnetworks"]["gather"][0].pop("p_in"))
    assert main(["verify", str(model)]) == 2
    assert "gather[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(dtype=[]), "dtype"),
        (lambda doc: doc["subnetworks"]["hyperdecoder"][0].update(p_in=32768), "p must be"),
        (lambda doc: doc.update(version=True), "not a recognized model manifest"),
    ],
    ids=["dtype-list", "p-in-huge", "version-true"],
)
def test_verify_fuzz_found_manifests_are_input_errors(model, edit, message, capsys):
    # a list dtype made the schema check raise TypeError, a huge p_in made
    # quantize_layer's bias scaling raise OverflowError, and True passed as
    # version 1
    _rewrite(model, edit)
    capsys.readouterr()
    assert main(["verify", str(model)]) == 2
    assert message in capsys.readouterr().err


def test_verify_malformed_subnetworks_is_input_error(model, capsys):
    _rewrite(model, lambda doc: doc.update(subnetworks=[1, 2]))
    assert main(["verify", str(model)]) == 2
    assert "subnetworks" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["int", "float"])
def test_roundtrip_matches_library_call(model, data, mode, capsys, monkeypatch):
    # the mode reaches the library only through the two variants
    seen = []

    def spy(stacks, latent, hyper, enc, dec):
        seen.append((enc.mode, dec.mode))
        return roundtrip_experiment(stacks, latent, hyper, enc, dec)

    monkeypatch.setattr(cli, "roundtrip_experiment", spy)
    rc = main(
        [
            "roundtrip",
            str(model),
            str(data),
            "--enc-variant",
            "seq",
            "--dec-variant",
            "tree",
            "--mode",
            mode,
        ]
    )
    out = capsys.readouterr().out
    fs = load_float_model(model)
    with np.load(data) as z:
        latent, hyper = z["latent_0"], z["hyper_0"]
    want = roundtrip_experiment(
        make_stack_pair(fs),
        latent,
        hyper,
        BackendVariant("e", "seq", mode),
        BackendVariant("d", "tree", mode),
    )
    assert seen == [(mode, mode)]
    assert want.to_text() in out
    assert rc == (0 if want.decoded_equal else 1)


def test_calibrate_matches_library_call(model, data, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(
        [
            "calibrate",
            str(model),
            str(data),
            "--out",
            str(report),
            "--grid",
            "8,9,10",
            "--passes",
            "1",
        ]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    fs = load_float_model(model)
    with np.load(data) as z:
        want = calibrate_shifts(
            fs, [(z["latent_0"], z["hyper_0"])], grid=(8, 9, 10), passes=1
        )
    assert doc["final_objective_bits"] == pytest.approx(want.final_objective)
    assert doc["layers"] == want.layers


def test_calibrate_writes_strict_json(data, tmp_path, capsys):
    # no layer quantizes at p = 15, so every junction's objective is inf
    fs = random_stack(np.random.default_rng(23))
    unquantizable_at_p15(fs)
    model = tmp_path / "model.json"
    save_float_model(model, fs)
    report = tmp_path / "report.json"
    argv = ["calibrate", str(model), str(data), "--out", str(report)]
    assert main(argv + ["--grid", "15", "--passes", "1"]) == 0

    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    doc = json.loads(report.read_text(), parse_constant=reject)
    assert [layer["objective"] for layer in doc["layers"]] == [None] * len(doc["layers"])
    assert math.isfinite(doc["final_objective_bits"])


@pytest.mark.parametrize(
    "where, says", [("missing directory", "no directory "), ("read-only directory", "directory ")]
)
def test_calibrate_to_a_path_that_cannot_be_written_fails_before_the_search(
    model, data, tmp_path, where, says, monkeypatch, capsys
):
    # it used to run the whole search, then end in a FileNotFoundError traceback
    searched = []
    monkeypatch.setattr(cli, "calibrate_shifts", lambda *args, **kw: searched.append(args))
    if where == "missing directory":
        out = tmp_path / "missing" / "c.json"
    else:  # os.access is faked: as root a read-only directory is writable
        out = tmp_path / "c.json"
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    argv = ["calibrate", str(model), str(data), "--grid", "8", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: {says}") and "Traceback" not in err
    if where == "read-only directory":
        assert err.endswith(" is not writable\n")
    assert searched == []
    assert not out.exists()


@pytest.mark.parametrize("grid", ["16", "8,-1"])
def test_calibrate_grid_outside_p_range_is_input_error(model, data, tmp_path, grid, capsys):
    # such a grid point used to score inf, and calibration exited 0
    out = tmp_path / "r.json"
    argv = ["calibrate", str(model), str(data), "--out", str(out), "--grid", grid]
    assert main(argv) == 2
    assert "grid values must lie in [0, 15]" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_negative_passes_is_input_error(model, data, tmp_path, capsys):
    # -1 used to exit 0 and write "passes": -1 with no decision made
    out = tmp_path / "r.json"
    argv = ["calibrate", str(model), str(data), "--out", str(out), "--grid", "8"]
    assert main([*argv, "--passes", "-1"]) == 2
    assert "passes must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--passes", "0"]) == 0
    doc = json.loads(out.read_text())
    assert doc["passes"] == 0 and doc["trace"] == []


@pytest.mark.parametrize("with_context", [True, False], ids=["context", "no-context"])
def test_hyper_latent_on_another_grid_names_both_shapes(tmp_path, with_context, capsys):
    # with a context model these used to exit with numpy's concatenation
    # message; without one, with the prior field's shape (in calibration,
    # with no shapes at all) in place of the hyper latent's
    message = "hyper latent of (h, w) (3, 3) under a latent of (h, w) (4, 4)"
    model = tmp_path / "model.json"
    save_float_model(model, random_stack(np.random.default_rng(23), with_context=with_context))
    bad = tmp_path / "bad.npz"
    rng = np.random.default_rng(24)
    np.savez(bad, latent_0=random_latent(rng, (1, 4, 4)), hyper_0=rng.normal(size=(2, 3, 3)))
    out = tmp_path / "r.json"
    calibrate = ["calibrate", str(model), str(bad), "--out", str(out), "--passes", "1"]
    for argv in [
        ["roundtrip", str(model), str(bad), "--mode", "int"],
        ["roundtrip", str(model), str(bad), "--mode", "float"],
        calibrate,
    ]:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "roundtrip"])
def test_layer_bit_depth_out_of_range_is_input_error(data, tmp_path, command, capsys):
    # calibration used to score the ValueError inf at every grid point
    fs = random_stack(np.random.default_rng(23))
    fs.gather_cfg[2].n_i = 17
    path = tmp_path / "bad.json"
    save_float_model(path, fs)
    out = tmp_path / "r.json"
    extra = ["--out", str(out), "--passes", "1"] if command == "calibrate" else []
    assert main([command, str(path), str(data), *extra]) == 2
    assert "n_i out of range: 17" in capsys.readouterr().err
    assert not out.exists()


def overflow_stack():
    """A float model whose hyperdecoder[0] fits the accumulator bound but
    shifts left by up to 15 - k at requantization (scaled by 200, moved
    from p 0 to p 15), which takes its worst case past 2^31 - 1, and a
    latent and hyper latent for it."""
    fs = random_stack(np.random.default_rng(0))
    first = fs.hyperdecoder[0]
    fs.hyperdecoder[0] = ConvLayerF(first.weights * 200, first.bias, first.mask)
    fs.hyper_cfg[0].p_in, fs.hyper_cfg[0].p_out = 0, 15
    fs.hyper_cfg[1].p_in = 15
    hyper = np.random.default_rng(1).normal(size=(2, 4, 4)) * 3000
    return fs, np.zeros((1, 4, 4), np.int64), hyper


@pytest.fixture
def overflow_case(tmp_path):
    fs, latent, hyper = overflow_stack()
    quantize_layer(fs.hyperdecoder[0], n_i=16, p_in=0, p_out=0)  # no left shift: fits
    with pytest.raises(WeightRangeError, match=r"hyperdecoder\[0\]: accumulator bound"):
        fs.quantize()
    model, data = tmp_path / "overflow.json", tmp_path / "overflow.npz"
    save_float_model(model, fs)
    np.savez(data, latent_0=latent, hyper_0=hyper)
    return model, data


def test_roundtrip_refuses_overflowing_left_shift(overflow_case, tmp_path, capsys):
    # refused where the model is built, before any latent is run
    model, data = overflow_case
    capsys.readouterr()
    assert main(["roundtrip", str(model), str(data)]) == 2
    assert main(["quantize", str(model), "--out", str(tmp_path / "q.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: hyperdecoder[0]: accumulator bound violated: channel") == 2
    assert main(["verify", str(model)]) == 1
    assert "FAIL overflow bound: hyperdecoder[0]: accumulator" in capsys.readouterr().out


def test_calibrate_scores_overflowing_left_shift_inf(overflow_case, tmp_path, capsys):
    # the refusal depends on the grid point, so it is no input error
    model, data = overflow_case
    report = tmp_path / "report.json"
    argv = ["calibrate", str(model), str(data), "--out", str(report)]
    assert main(argv + ["--grid", "6,8", "--passes", "1"]) == 0
    fs = load_float_model(model)
    with np.load(data) as z:
        want = calibrate_shifts(fs, [(z["latent_0"], z["hyper_0"])], grid=(6, 8), passes=1)
    # no grid point takes hyperdecoder[0] off its left shift
    assert want.layers[0]["objective"] == math.inf
    assert math.isfinite(want.final_objective)
    doc = json.loads(report.read_text())
    assert doc["final_objective_bits"] == pytest.approx(want.final_objective)
    assert doc["layers"] == [
        {**c, "objective": c["objective"] if math.isfinite(c["objective"]) else None}
        for c in want.layers
    ]


@pytest.mark.parametrize(
    "seed, with_context, dec_order",
    [(190, False, "tree"), (169, True, "rev")],
    ids=["no-context", "autoregressive"],
)
def test_roundtrip_decode_off_the_payload_fails(
    tmp_path, seed, with_context, dec_order, capsys
):
    # a divergence, not an input error: it used to exit 2 with "truncated payload"
    fs, latent, hyper = off_payload_case(seed, with_context)
    model, data = tmp_path / "model.json", tmp_path / "data.npz"
    save_float_model(model, fs)
    np.savez(data, latent_0=latent, hyper_0=hyper)
    argv = ["roundtrip", str(model), str(data), "--mode", "float", "--dec-variant", dec_order]
    assert main(argv) == 1
    enc, dec = BackendVariant("e", "seq", "float"), BackendVariant("d", dec_order, "float")
    want = roundtrip_experiment(make_stack_pair(load_float_model(model)), latent, hyper, enc, dec)
    assert capsys.readouterr().out == "case 0:\n" + want.to_text()
    assert "decoded_equal=false" in want.to_text()


def _break_p_tie(doc, blob):
    doc["subnetworks"]["hyperdecoder"][0]["p_out"] = 11  # hyperdecoder[1]'s p_in stays 8
    return blob


def _break_channels(doc, blob):
    # gather[1] gains an input channel of zero weights; in the blob's
    # (m, k, k, n) float32 order its weights follow the layer's own
    subnets = doc["subnetworks"]
    layers = [e for name in SUBNETS for e in subnets[name]]
    i = len(subnets["hyperdecoder"]) + len(subnets["context"]) + 1
    off = 4 * sum(e["m"] * e["k"] ** 2 * e["n"] + e["n"] for e in layers[:i])
    e = layers[i]
    off += 4 * e["m"] * e["k"] ** 2 * e["n"]
    e["m"] += 1
    return blob[:off] + bytes(4 * e["k"] ** 2 * e["n"]) + blob[off:]


def _edit_manifest(path, edit):
    """Rewrite a saved manifest and its blob by edit(doc, blob), which
    changes doc in place and returns the blob; the digest follows."""
    doc = json.loads(path.read_text())
    blob_path = path.with_name(doc["blob"])
    blob = edit(doc, blob_path.read_bytes())
    blob_path.write_bytes(blob)
    doc["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "brk, message",
    [(_break_p_tie, "p_out/p_in chain broken"), (_break_channels, "channel mismatch")],
    ids=["p-tie", "channels"],
)
@pytest.mark.parametrize("command", ["quantize", "calibrate", "verify", "roundtrip"])
def test_malformed_float_manifest_is_input_error(
    data, tmp_path, brk, message, command, capsys
):
    # calibration used to re-tie a broken p chain and exit 0
    path = tmp_path / "bad.json"
    save_float_model(path, random_stack(np.random.default_rng(23)))
    _edit_manifest(path, brk)
    with pytest.raises(ManifestError, match=message):
        load_float_model(path)
    out = ["--out", str(tmp_path / "out.json")]
    argv = {
        "quantize": [str(path), *out],
        "calibrate": [str(path), str(data), *out],
        "verify": [str(path)],
        "roundtrip": [str(path), str(data)],
    }[command]
    assert main([command, *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "array, value, message",
    [
        ("hyper_0", np.nan, "non-finite"),
        ("latent_0", np.nan, "latent_0 must hold finite integers"),
        ("latent_0", np.inf, "latent_0 must hold finite integers"),
        ("latent_0", 0.5, "latent_0 must hold finite integers"),
    ],
    ids=["hyper-nan", "latent-nan", "latent-inf", "latent-half"],
)
@pytest.mark.parametrize("command", ["roundtrip", "calibrate"])
def test_non_finite_or_fractional_data_is_input_error(
    model, data, tmp_path, command, array, value, message, capsys
):
    with np.load(data) as z:
        arrays = {k: z[k].astype(np.float64) for k in z.files}
    arrays[array][0, 1, 2] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    extra = ["--out", str(tmp_path / "r.json"), "--passes", "1"] if command == "calibrate" else []
    capsys.readouterr()
    assert main([command, str(model), str(bad), *extra]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [9, -9, 2**40])
def test_calibrate_latent_outside_the_alphabet_is_input_error(
    model, data, tmp_path, value, capsys
):
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["latent_0"][0, 2, 1] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["calibrate", str(model), str(bad), "--out", str(out), "--passes", "1"]) == 2
    assert "outside the coder alphabet" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e40])
def test_float_mode_hyper_latent_float32_cannot_hold_is_input_error(
    model, data, tmp_path, value, capsys
):
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["hyper_0"][1, 2, 0] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    assert main(["roundtrip", str(model), str(bad), "--mode", "float"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_float_mode_priors_past_fixed_point_are_input_error(model, data, tmp_path, capsys):
    # finite in float32, but the float stack turns it into priors that no
    # int64 fixed-point value holds
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["hyper_0"][0, 3, 1] = 3e38
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    assert main(["roundtrip", str(model), str(bad), "--mode", "float"]) == 2
    assert "float priors" in capsys.readouterr().err


def test_whole_valued_float_latents_run_as_integers(model, data, tmp_path, capsys):
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    capsys.readouterr()
    assert main(["roundtrip", str(model), str(data)]) == 0
    want = capsys.readouterr().out
    arrays["latent_0"] = arrays["latent_0"].astype(np.float64)
    floats = tmp_path / "floats.npz"
    np.savez(floats, **arrays)
    assert main(["roundtrip", str(model), str(floats)]) == 0
    assert capsys.readouterr().out == want
    arrays["latent_0"][0, 0, 0] = 2.0**63  # whole, but past int64
    np.savez(floats, **arrays)
    assert main(["roundtrip", str(model), str(floats)]) == 2
    assert "latent_0 must hold finite integers" in capsys.readouterr().err


def test_float16_latent_loads_without_warnings(data, tmp_path):
    # 2^63, the int64 bound, overflows float16: the check must not cast it there
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    want = arrays["latent_0"]
    arrays["latent_0"] = want.astype(np.float16)
    path = tmp_path / "f16.npz"
    np.savez(path, **arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((latent, _),) = cli._load_data(path)
        np.testing.assert_array_equal(latent, want)
        arrays["latent_0"][0, 0, 0] = np.inf
        np.savez(path, **arrays)
        with pytest.raises(ManifestError, match="latent_0 must hold finite integers"):
            cli._load_data(path)


@pytest.mark.parametrize(
    "value, ok",
    [(np.int64(-(2**63)), True), (np.uint64(2**63), False), (np.uint64(2**62), True)],
)
def test_integer_latent_int64_range_verdicts(data, tmp_path, value, ok):
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["latent_0"] = np.abs(arrays["latent_0"]).astype(value.dtype)
    arrays["latent_0"][0, 1, 1] = value
    path = tmp_path / "ints.npz"
    np.savez(path, **arrays)
    if ok:
        assert cli._load_data(path)[0][0][0, 1, 1] == int(value)
    else:
        with pytest.raises(ManifestError, match="within int64"):
            cli._load_data(path)


@pytest.mark.parametrize("mode", ["int", "float"])
def test_complex_hyper_latent_is_input_error(model, data, tmp_path, mode, capsys):
    with np.load(data) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["hyper_0"] = arrays["hyper_0"] + 5j
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    assert main(["roundtrip", str(model), str(bad), "--mode", mode]) == 2
    assert "complex" in capsys.readouterr().err
    # a 2-d latent or hyper latent: float mode used to fail on tuple unpacking
    for name in ("latent_0", "hyper_0"):
        with np.load(data) as z:
            arrays = {k: z[k] for k in z.files}
        arrays[name] = arrays[name][0]
        np.savez(bad, **arrays)
        assert main(["roundtrip", str(model), str(bad), "--mode", mode]) == 2
        assert "expected (c, h, w) input, got shape (4, 4)" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["int", "float"])
def test_latent_shapes_a_model_without_context_refuses(tmp_path, mode, capsys):
    # no context chain reads the latent before the encoder: these used to
    # fail on a raster axis out of bounds or on a count of tables
    model = tmp_path / "hyper.json"
    save_float_model(model, random_stack(np.random.default_rng(23), with_context=False))
    latent = np.zeros((1, 4, 4), np.int64)
    hyper = np.random.default_rng(24).normal(size=(2, 4, 4))
    bad = tmp_path / "bad.npz"
    grid = "hyper latent of (h, w) (3, 3) under a latent of (h, w) (4, 4)"
    for lat, hyp, message in [
        (latent[0], hyper, "expected (c, h, w) input, got shape (4, 4)"),
        (latent[None], hyper, "expected (c, h, w) input, got shape (1, 1, 4, 4)"),
        (latent, hyper[:, :3, :3], grid),
    ]:
        np.savez(bad, latent_0=lat, hyper_0=hyp)
        capsys.readouterr()
        assert main(["roundtrip", str(model), str(bad), "--mode", mode]) == 2
        assert message in capsys.readouterr().err


def test_demo_failure_exit_zero(capsys):
    assert main(["demo-failure"]) == 0
    out = capsys.readouterr().out
    assert "demo: PASS" in out


def test_missing_file_is_input_error(capsys):
    assert main(["verify", "no-such-file.json"]) == 2


def test_missing_data_arrays_is_input_error(model, tmp_path):
    empty = tmp_path / "empty.npz"
    np.savez(empty, nothing=np.zeros(1))
    assert main(["roundtrip", str(model), str(empty)]) == 2


def test_usage_error_on_missing_args():
    with pytest.raises(SystemExit) as exc:
        main(["quantize"])
    assert exc.value.code == 2
