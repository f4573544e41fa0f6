"""Bounded fuzzing of the untrusted inputs: bitstream bytes, model
manifests, model blobs and data files.  Every input gives a value or a
typed error, and every command an exit code, never a traceback."""

import contextlib
import functools
import hashlib
import io
import json
import math
import pathlib
import shutil
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detq.cli import main
from detq.gmm import CdfTable
from detq.manifest import save_float_model
from detq.rc import Bitstream, StreamFormatError, rc_decode, rc_encode

from models import random_stack
from test_cli import overflow_stack
from test_rc import random_table

FUZZ = settings(max_examples=200, deadline=None)

# --- stream bytes ------------------------------------------------------------

SHAPE = (1, 4, 4)


@functools.cache
def stream_case():
    """16 seeded tables over [-3, 4] and the bytes of a stream they coded."""
    rng = np.random.default_rng(31)
    rows = [random_table(rng, 8, v_min=-3).cf[0] for _ in range(math.prod(SHAPE))]
    tables = CdfTable(-3, 4, np.stack(rows))
    symbols = rng.integers(-3, 5, len(rows))
    return tables, rc_encode(symbols, tables, shape=SHAPE).to_bytes()


@st.composite
def mutated_stream(draw):
    data = bytearray(stream_case()[1])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["set", "cut", "append"]))
        if kind == "set":
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        elif kind == "cut":
            del data[draw(st.integers(0, len(data) - 1)) :]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
        if not data:
            break
    return bytes(data)


@FUZZ
@given(st.one_of(st.binary(max_size=64), mutated_stream()))
def test_stream_bytes_decode_or_raise_typed(data):
    tables, _ = stream_case()
    try:
        got = rc_decode(Bitstream.from_bytes(data), tables)
    except (StreamFormatError, ValueError):
        return
    assert isinstance(got, list) and len(got) == len(tables)
    assert all(tables.v_min <= v <= tables.v_max for v in got)


# --- manifests ---------------------------------------------------------------

# replacements: swapped types and out-of-range integers
VALUES = [None, True, False, 0, -1, 1, 17, 2**15, 2**31, 2**63, -(2**63), 2**70,
          1.5, -0.5, "", "x", "int16", "float32", [], [1], {}, {"m": 1}]


def run_cli(files, argv):
    """Exit code of main(argv) in a fresh directory holding files (name ->
    bytes, str, or a dict of arrays saved as .npz); an argument naming one
    of the files stands for its path.  Output is swallowed."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            path = paths[name] = pathlib.Path(tmp) / name
            if isinstance(content, dict):
                np.savez(path, **content)
            elif isinstance(content, str):
                path.write_text(content)
            else:
                path.write_bytes(content)
        argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)


def saved_model(fstack, dtype="float32"):
    """A float stack's manifest, or its quantized form: its JSON text, its
    blob's file name and the blob bytes."""
    tmp = pathlib.Path(tempfile.mkdtemp())
    try:
        path = tmp / "model.json"
        save_float_model(path, fstack)
        if dtype == "int16":
            assert main(["quantize", str(path), "--out", str(tmp / "q.json")]) == 0
            path = tmp / "q.json"
        doc = json.loads(path.read_text())
        return json.dumps(doc), doc["blob"], (tmp / doc["blob"]).read_bytes()
    finally:
        shutil.rmtree(tmp)


@functools.cache
def manifest_case(dtype, with_context=True):
    return saved_model(random_stack(np.random.default_rng(32), with_context=with_context), dtype)


def _paths(node, prefix=()):
    """Paths to every value below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_manifest(draw):
    dtype = draw(st.sampled_from(["float32", "int16"]))
    text, blob_name, blob = manifest_case(dtype)
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_keys, key = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda node, k: node[k], parent_keys, doc)
        kind = draw(st.sampled_from(["delete", "replace", "offset"]))
        if kind == "delete":
            del parent[key]
        elif kind == "replace":
            parent[key] = draw(st.sampled_from(VALUES))
        elif type(parent[key]) is int:
            parent[key] += draw(st.sampled_from([-1, 1, 2**31, -(2**31), 2**64]))
    return doc, blob_name, blob


@FUZZ
@given(mutated_manifest())
def test_mutated_manifest_verify_exits_with_a_code(case):
    doc, blob_name, blob = case
    # the blob under the name the unmutated manifest gives it
    files = {"model.json": json.dumps(doc), blob_name: blob}
    assert run_cli(files, ["verify", "model.json"]) in (0, 1, 2)


# --- model blobs -------------------------------------------------------------

# values written over a parameter: non-finite, extreme and tiny float32, and
# the int16 and int32 extremes of quantized weights and biases
BLOB_VALUES = {
    "float32": [np.float32(v) for v in (np.nan, np.inf, -np.inf, 3e38, -1e20, 1e-45, 0.0)],
    "int16": [np.int16(32767), np.int16(-32768), np.int32(2**31 - 1), np.int32(-(2**31))],
}


def seeded_data():
    rng = np.random.default_rng(33)
    latent = np.clip(np.rint(rng.laplace(0.0, 2.0, (1, 4, 4))), -8, 8).astype(np.int64)
    return {"latent_0": latent, "hyper_0": rng.normal(size=(2, 4, 4))}


@st.composite
def mutated_blob(draw, dtype):
    """A model whose blob bytes are mutated and whose blob_sha256 matches
    them, so the bytes reach parsing; with the data file a command reads."""
    text, blob_name, blob = manifest_case(dtype)
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        # a length change only reaches the blob size check
        kind = draw(st.sampled_from(["byte", "value"] * 3 + ["cut", "append"]))
        if kind == "byte":
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        elif kind == "value":
            raw = draw(st.sampled_from(BLOB_VALUES[dtype])).tobytes()
            slots = len(data) // len(raw)  # value-aligned positions
            if slots:
                at = draw(st.integers(0, slots - 1)) * len(raw)
                data[at : at + len(raw)] = raw
        elif kind == "cut":
            del data[draw(st.integers(0, len(data) - 1)) :]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
        if not data:
            break
    doc = json.loads(text)
    doc["blob_sha256"] = hashlib.sha256(data).hexdigest()
    return json.dumps(doc), blob_name, bytes(data), seeded_data()


def overflow_case():
    """The model and data of test_cli.overflow_stack, whose requantize left
    shift the static bound refuses when the model is built."""
    fs, latent, hyper = overflow_stack()
    return *saved_model(fs), {"latent_0": latent, "hyper_0": hyper}


@FUZZ
@given(
    st.one_of(
        st.tuples(mutated_blob("float32"), st.sampled_from(["verify", "roundtrip"])),
        # roundtrip reads float models only
        st.tuples(mutated_blob("int16"), st.just("verify")),
    )
)
@example((overflow_case(), "verify"))
@example((overflow_case(), "roundtrip"))
def test_mutated_blob_exits_with_a_code(run):
    (text, blob_name, blob, data), command = run
    files = {"model.json": text, blob_name: blob, "data.npz": data}
    argv = {"verify": ["model.json"], "roundtrip": ["model.json", "data.npz"]}
    assert run_cli(files, [command, *argv[command]]) in (0, 1, 2)


# --- data files --------------------------------------------------------------


@st.composite
def data_arrays(draw):
    """latent_i / hyper_i arrays: well-typed pairs of matching or random
    shapes, and arrays of any dtype, shape and value; a name may be missing."""
    arrays = {}
    for i in range(draw(st.integers(1, 2))):
        h, w = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        for name, shape, dtype, elements in (
            ("latent", (1, h, w), np.int64, st.integers(-9, 9)),
            ("hyper", (2, h, w), np.float64, st.floats(-1e3, 1e3)),
        ):
            if draw(st.booleans()):
                arr = hnp.arrays(dtype, shape, elements=elements)
            else:
                arr = hnp.arrays(
                    hnp.scalar_dtypes(), hnp.array_shapes(min_dims=0, max_dims=4, min_side=0)
                )
            if draw(st.integers(0, 9)):
                arrays[f"{name}_{i}"] = draw(arr)
    return arrays


@FUZZ
@given(
    data_arrays(),
    st.sampled_from(
        [
            ["roundtrip", "--mode", "int"],
            ["roundtrip", "--mode", "float"],
            ["calibrate", "--out", "report.json", "--grid", "8", "--passes", "1"],
        ]
    ),
    # without a context model nothing but the encoder reads the latent
    st.booleans(),
)
@example({"latent_0": np.array(0, np.int8), "hyper_0": np.zeros((2, 4, 4))},
         ["roundtrip", "--mode", "int"], False)
# quantize_value scaled this hyper latent before it clamped, and overflowed
@example({"latent_0": np.zeros((1, 0, 0), np.int64), "hyper_0": np.array(7.02223881e305)},
         ["roundtrip", "--mode", "int"], False)
def test_random_data_file_exits_with_a_code(arrays, command, with_context):
    text, blob_name, blob = manifest_case("float32", with_context)
    # report.json is listed so that its argument becomes a path; calibrate overwrites it
    files = {"model.json": text, blob_name: blob, "data.npz": arrays, "report.json": b""}
    argv = [command[0], "model.json", "data.npz", *command[1:]]
    assert run_cli(files, argv) in (0, 1, 2)
