"""Model manifest: JSON layer descriptions plus a raw binary blob.

The manifest is a small JSON document listing subnetworks and per-layer
geometry and quantization parameters; the companion blob, a regular file
next to the manifest that the manifest names by its bare file name, holds
the raw parameter bytes in manifest order (per layer: weights, then biases).
Float models store little-endian float32 for both; quantized models store
little-endian int16 weights and int32 biases.  The manifest records a
SHA-256 digest of the blob so artifacts are bit-auditable.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

from .harness import CFG_FIELDS, EntropyStackF, LayerCfg
from .intops import SUBNETS, EntropyStack
from .quantize import ACCUM_BITS, LayerQuantSpec, QConvLayer, WeightRangeError
from .tensors import ConvLayerF, ShapeError

__all__ = [
    "ManifestError",
    "save_float_model",
    "load_float_model",
    "save_quantized_model",
    "load_quantized_model",
    "model_dtype",
]

FORMAT = "detq-model"
VERSION = 1

_INT_KEYS = ("m", "k", "n", "n_i", "p_in", "p_out")

# little-endian (weights, biases) blob dtypes of each model dtype
_BLOB_DTYPES = {"float32": ("<f4", "<f4"), "int16": ("<i2", "<i4")}


class ManifestError(ValueError):
    """Inconsistent, malformed, or missing manifest/blob data."""


def _check_schema(doc):
    """Types, ranges and subnetwork names of a manifest document."""
    # a list or an object as dtype would make the membership test raise
    if not isinstance(doc.get("dtype"), str) or doc["dtype"] not in _BLOB_DTYPES:
        raise ManifestError(f"dtype must be {' or '.join(_BLOB_DTYPES)}")
    if type(doc.get("n_a")) is not int or doc["n_a"] != ACCUM_BITS:
        raise ManifestError(f"n_a must be {ACCUM_BITS}, the accumulator width")
    if type(doc.get("latent_channels")) is not int or doc["latent_channels"] < 1:
        raise ManifestError("latent_channels must be a positive integer")
    subnets = doc.get("subnetworks")
    if not isinstance(subnets, dict) or not set(subnets) <= set(SUBNETS):
        raise ManifestError(f"subnetworks must be an object keyed by {SUBNETS}")
    for name, entries in subnets.items():
        if not isinstance(entries, list):
            raise ManifestError(f"{name}: expected a list of layers")
        for i, e in enumerate(entries):
            if not (
                isinstance(e, dict)
                and all(type(e.get(key)) is int for key in _INT_KEYS)
                and type(e.get("mask")) is bool
                and min(e["m"], e["k"], e["n"]) >= 1
            ):
                raise ManifestError(
                    f"{name}[{i}]: needs positive integer m, k, n, integer "
                    "n_i, p_in, p_out and boolean mask"
                )
            shifts = e.get("channel_shifts")
            if doc["dtype"] == "int16" and not (
                isinstance(shifts, list)
                and len(shifts) == e["n"]
                and all(type(v) is int for v in shifts)
            ):
                raise ManifestError(
                    f"{name}[{i}]: channel_shifts must be a list of {e['n']} integers"
                )


def _read(manifest_path):
    manifest_path = pathlib.Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ManifestError(f"cannot read manifest: {e}") from e
    if (
        not isinstance(doc, dict)
        or doc.get("format") != FORMAT
        or type(doc.get("version")) is not int
        or doc["version"] != VERSION
    ):
        raise ManifestError("not a recognized model manifest")
    _check_schema(doc)
    # the bare name of a regular file next to the manifest, as _save writes
    # it: reading a FIFO or a device would block or never end
    name = doc.get("blob")
    blob_path = manifest_path.parent / str(name)
    if not (isinstance(name, str) and pathlib.Path(name).name == name and blob_path.is_file()):
        raise ManifestError(f"blob must name a regular file next to the manifest, got {name!r}")
    try:
        blob = blob_path.read_bytes()
    except OSError as e:
        raise ManifestError(f"cannot read blob: {e}") from e
    if hashlib.sha256(blob).hexdigest() != doc.get("blob_sha256"):
        raise ManifestError("blob digest mismatch")
    return doc, blob


def model_dtype(manifest_path) -> str:
    """"float32" or "int16" from the manifest header."""
    doc, _ = _read(manifest_path)
    return doc["dtype"]


def _save(manifest_path, dtype: str, latent_channels: int, layers):
    """Write a manifest and its blob.

    layers yields (subnetwork, weights, bias, mask, cfg, extra) in SUBNETS
    order; cfg carries n_i, p_in and p_out, and extra holds any further
    JSON fields of the layer entry.  The blob is joined from the arrays'
    own buffers where they already hold the blob dtype, as a quantized
    layer's int16 weights do.  A manifest named as its own blob
    (manifest_path.stem + ".bin") would overwrite it, and raises
    ManifestError before anything is written.

    Both files are written as new files: an existing one is unlinked
    first, not truncated, since a filesystem may flush a file truncated
    to zero when it is closed (ext4's auto_da_alloc does).  So a symlink
    at either path is replaced, not followed, a hard link to an old file
    keeps the old bytes, and an old file's mode is not kept.
    """
    manifest_path = pathlib.Path(manifest_path)
    blob_name = manifest_path.stem + ".bin"
    if manifest_path.name == blob_name:
        raise ManifestError(
            f"manifest {manifest_path} would overwrite its own blob {blob_name}; "
            "give it another suffix"
        )
    w_dt, b_dt = _BLOB_DTYPES[dtype]
    subnets = {name: [] for name in SUBNETS}
    parts = []
    for name, w, b, mask, cfg, extra in layers:
        m, k, _, n = w.shape
        subnets[name].append(
            {"m": m, "k": k, "n": n, "mask": bool(mask), **extra}
            | {key: int(getattr(cfg, key)) for key in ("n_i", "p_in", "p_out")}
        )
        parts += [np.ascontiguousarray(w, w_dt), np.ascontiguousarray(b, b_dt)]
    blob = b"".join(parts)
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "dtype": dtype,
        "n_a": ACCUM_BITS,
        "latent_channels": latent_channels,
        "subnetworks": subnets,
        "blob": blob_name,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for path, data in ((manifest_path.parent / blob_name, blob), (manifest_path, text.encode())):
        path.unlink(missing_ok=True)
        path.write_bytes(data)


def _load(manifest_path, dtype: str):
    """Latent channels and {subnetwork: [(entry, weights, bias)]} of a model.

    Weights are (m, k, k, n) and biases (n,) views of the blob in its
    stored dtype; a quantized layer keeps its weights as these views.
    """
    doc, blob = _read(manifest_path)
    if doc["dtype"] != dtype:
        raise ManifestError(f"expected a {dtype} model, got {doc['dtype']}")
    w_dt, b_dt = (np.dtype(t) for t in _BLOB_DTYPES[dtype])
    off = 0
    chains = {}
    for name in SUBNETS:
        chains[name] = []
        for e in doc["subnetworks"].get(name, []):
            shape = (e["m"], e["k"], e["k"], e["n"])
            wn, bn = math.prod(shape) * w_dt.itemsize, e["n"] * b_dt.itemsize
            if off + wn + bn > len(blob):
                raise ManifestError("blob shorter than manifest shapes require")
            w = np.frombuffer(blob, w_dt, count=math.prod(shape), offset=off)
            b = np.frombuffer(blob, b_dt, count=e["n"], offset=off + wn)
            chains[name].append((e, w.reshape(shape), b))
            off += wn + bn
    if off != len(blob):
        raise ManifestError("blob longer than manifest shapes require")
    return doc["latent_channels"], chains


def save_float_model(manifest_path, stack: EntropyStackF):
    """Write a float stack's manifest and blob.  A stack whose wiring was
    broken after it was built raises ShapeError, and nothing is written."""
    stack.check()
    _save(
        manifest_path,
        "float32",
        stack.latent_channels,
        (
            (name, lyr.weights, lyr.bias, lyr.mask, cfg, {})
            for name, layers, cfgs in stack.chains()
            for lyr, cfg in zip(layers, cfgs)
        ),
    )


def load_float_model(manifest_path) -> EntropyStackF:
    latent_channels, chains = _load(manifest_path, "float32")
    fields = {}
    for name, entries in chains.items():
        fields[name] = [ConvLayerF(weights=w, bias=b, mask=e["mask"]) for e, w, b in entries]
        fields[CFG_FIELDS[name]] = [
            LayerCfg(n_i=e["n_i"], p_in=e["p_in"], p_out=e["p_out"]) for e, _, _ in entries
        ]
    try:
        return EntropyStackF(**fields, latent_channels=latent_channels)
    except ShapeError as e:
        raise ManifestError(str(e)) from e


def save_quantized_model(manifest_path, stack: EntropyStack):
    _save(
        manifest_path,
        "int16",
        stack.latent_channels,
        (
            (name, lyr.w_q, lyr.b_q, lyr.mask, lyr.spec,
             {"channel_shifts": [int(v) for v in lyr.spec.k]})
            for name, chain in stack.chains()
            for lyr in chain
        ),
    )


def load_quantized_model(manifest_path) -> EntropyStack:
    latent_channels, chains = _load(manifest_path, "int16")
    layers = {}
    for name, entries in chains.items():
        layers[name] = []
        for i, (e, w, b) in enumerate(entries):
            try:
                spec = LayerQuantSpec(
                    n_i=e["n_i"], p_in=e["p_in"], p_out=e["p_out"], k=e["channel_shifts"]
                )
                layers[name].append(QConvLayer(w_q=w, b_q=b, spec=spec, mask=e["mask"]))
            except WeightRangeError as err:
                raise WeightRangeError(f"{name}[{i}]: {err}") from err
            except ValueError as err:
                # a malformed shift or a masked layer that is not causal
                raise ManifestError(f"{name}[{i}]: {err}") from err
    return EntropyStack(**layers, latent_channels=latent_channels)
