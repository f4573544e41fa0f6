"""Bounded fuzzing of the two untrusted inputs: bitstream bytes and model
manifests.  Every input gives a value or a typed error, never a traceback."""

import contextlib
import functools
import io
import json
import math
import pathlib
import shutil
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from detq.cli import main
from detq.gmm import CdfTable
from detq.harness import random_stack
from detq.manifest import save_float_model
from detq.rc import Bitstream, StreamFormatError, rc_decode, rc_encode

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


@functools.cache
def manifest_case(dtype):
    """A saved float manifest or its quantized form: its JSON text, its
    blob's file name and the blob bytes."""
    tmp = pathlib.Path(tempfile.mkdtemp())
    try:
        path = tmp / "model.json"
        save_float_model(path, random_stack(np.random.default_rng(32)))
        if dtype == "int16":
            assert main(["quantize", str(path), "--out", str(tmp / "q.json")]) == 0
            path = tmp / "q.json"
        doc = json.loads(path.read_text())
        return json.dumps(doc), doc["blob"], (tmp / doc["blob"]).read_bytes()
    finally:
        shutil.rmtree(tmp)


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
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        # the blob under the name the unmutated manifest gives it
        (pathlib.Path(tmp) / blob_name).write_bytes(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
    assert code in (0, 1, 2)
