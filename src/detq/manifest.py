"""Model manifest: JSON layer descriptions plus a raw binary blob.

The manifest is a small JSON document listing subnetworks and per-layer
geometry and quantization parameters; the companion blob holds the raw
parameter bytes in manifest order (per layer: weights, then biases).
Float models store little-endian float32 for both; quantized models store
little-endian int16 weights and int32 biases.  The manifest records a
SHA-256 digest of the blob so artifacts are bit-auditable.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from .harness import EntropyStackF, LayerCfg
from .intops import SUBNETS, EntropyStack
from .quantize import ACCUM_BITS, LayerQuantSpec, QConvLayer, WeightRangeError
from .tensors import ConvLayerF

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


class ManifestError(ValueError):
    """Inconsistent, malformed, or missing manifest/blob data."""


def _blob_path(manifest_path: pathlib.Path, entry: str) -> pathlib.Path:
    p = pathlib.Path(entry)
    return p if p.is_absolute() else manifest_path.parent / p


def _layer_entry(m, k, n, mask, cfg: LayerCfg, shifts=None):
    entry = {
        "m": int(m),
        "k": int(k),
        "n": int(n),
        "mask": bool(mask),
        "n_i": int(cfg.n_i),
        "p_in": int(cfg.p_in),
        "p_out": int(cfg.p_out),
    }
    if shifts is not None:
        entry["channel_shifts"] = [int(v) for v in shifts]
    return entry


def _write(manifest_path, doc, blob: bytes):
    manifest_path = pathlib.Path(manifest_path)
    blob_name = manifest_path.stem + ".bin"
    doc = dict(doc)
    doc["blob"] = blob_name
    doc["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    (manifest_path.parent / blob_name).write_bytes(blob)
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_schema(doc):
    """Types, ranges and subnetwork names of a manifest document."""
    if doc.get("dtype") not in ("float32", "int16"):
        raise ManifestError("dtype must be float32 or int16")
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
    if len(subnets.get("gather", [])) != 7:
        raise ManifestError("gather subnetwork must have exactly 7 layers")


def _read(manifest_path):
    manifest_path = pathlib.Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ManifestError(f"cannot read manifest: {e}") from e
    if (
        not isinstance(doc, dict)
        or doc.get("format") != FORMAT
        or doc.get("version") != VERSION
    ):
        raise ManifestError("not a recognized model manifest")
    _check_schema(doc)
    try:
        blob = _blob_path(manifest_path, doc["blob"]).read_bytes()
    except (OSError, KeyError, TypeError) as e:
        raise ManifestError(f"cannot read blob: {e}") from e
    if hashlib.sha256(blob).hexdigest() != doc.get("blob_sha256"):
        raise ManifestError("blob digest mismatch")
    return doc, blob


def model_dtype(manifest_path) -> str:
    """"float32" or "int16" from the manifest header."""
    doc, _ = _read(manifest_path)
    return doc["dtype"]


def save_float_model(manifest_path, stack: EntropyStackF):
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "dtype": "float32",
        "n_a": ACCUM_BITS,
        "latent_channels": stack.latent_channels,
        "subnetworks": {},
    }
    parts = []
    for name, layers, cfgs in stack.chains():
        entries = []
        for lyr, cfg in zip(layers, cfgs):
            entries.append(
                _layer_entry(lyr.in_channels, lyr.kernel, lyr.out_channels, lyr.mask, cfg)
            )
            parts.append(lyr.weights.astype("<f4").tobytes())
            parts.append(lyr.bias.astype("<f4").tobytes())
        doc["subnetworks"][name] = entries
    _write(manifest_path, doc, b"".join(parts))


def load_float_model(manifest_path) -> EntropyStackF:
    doc, blob = _read(manifest_path)
    if doc["dtype"] != "float32":
        raise ManifestError(f"expected a float32 model, got {doc['dtype']}")
    off = 0
    chains = {}
    cfgs = {}
    for name in SUBNETS:
        layers, layer_cfgs = [], []
        for e in doc["subnetworks"].get(name, []):
            m, k, n = e["m"], e["k"], e["n"]
            wn, bn = m * k * k * n * 4, n * 4
            if off + wn + bn > len(blob):
                raise ManifestError("blob shorter than manifest shapes require")
            w = np.frombuffer(blob, "<f4", count=m * k * k * n, offset=off)
            b = np.frombuffer(blob, "<f4", count=n, offset=off + wn)
            off += wn + bn
            layers.append(
                ConvLayerF(
                    weights=w.astype(np.float64).reshape(m, k, k, n),
                    bias=b.astype(np.float64),
                    mask=e["mask"],
                )
            )
            layer_cfgs.append(LayerCfg(n_i=e["n_i"], p_in=e["p_in"], p_out=e["p_out"]))
        chains[name] = layers
        cfgs[name] = layer_cfgs
    if off != len(blob):
        raise ManifestError("blob longer than manifest shapes require")
    return EntropyStackF(
        hyperdecoder=chains["hyperdecoder"],
        context=chains["context"],
        gather=chains["gather"],
        hyper_cfg=cfgs["hyperdecoder"],
        context_cfg=cfgs["context"],
        gather_cfg=cfgs["gather"],
        latent_channels=doc["latent_channels"],
    )


def save_quantized_model(manifest_path, stack: EntropyStack):
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "dtype": "int16",
        "n_a": ACCUM_BITS,
        "latent_channels": stack.latent_channels,
        "subnetworks": {},
    }
    parts = []
    for name, chain in stack.chains():
        entries = []
        for lyr in chain:
            cfg = LayerCfg(n_i=lyr.spec.n_i, p_in=lyr.spec.p_in, p_out=lyr.spec.p_out)
            entries.append(
                _layer_entry(
                    lyr.in_channels,
                    lyr.kernel,
                    lyr.out_channels,
                    lyr.mask,
                    cfg,
                    shifts=lyr.spec.k,
                )
            )
            parts.append(lyr.w_q.astype("<i2").tobytes())
            parts.append(lyr.b_q.astype("<i4").tobytes())
        doc["subnetworks"][name] = entries
    _write(manifest_path, doc, b"".join(parts))


def load_quantized_model(manifest_path) -> EntropyStack:
    doc, blob = _read(manifest_path)
    if doc["dtype"] != "int16":
        raise ManifestError(f"expected an int16 model, got {doc['dtype']}")
    off = 0
    chains = {}
    for name in SUBNETS:
        layers = []
        for i, e in enumerate(doc["subnetworks"].get(name, [])):
            m, k, n = e["m"], e["k"], e["n"]
            wn, bn = m * k * k * n * 2, n * 4
            if off + wn + bn > len(blob):
                raise ManifestError("blob shorter than manifest shapes require")
            w = np.frombuffer(blob, "<i2", count=m * k * k * n, offset=off)
            b = np.frombuffer(blob, "<i4", count=n, offset=off + wn)
            off += wn + bn
            shifts = e.get("channel_shifts")
            if not isinstance(shifts, list) or len(shifts) != n:
                raise ManifestError("quantized layer missing per-channel shifts")
            spec = LayerQuantSpec(
                n_i=e["n_i"], p_in=e["p_in"], p_out=e["p_out"], k=np.asarray(shifts)
            )
            try:
                layer = QConvLayer(
                    w_q=w.astype(np.int64).reshape(m, k, k, n),
                    b_q=b.astype(np.int64),
                    spec=spec,
                    mask=e["mask"],
                )
            except WeightRangeError as err:
                raise WeightRangeError(f"{name}[{i}]: {err}") from err
            layers.append(layer)
        chains[name] = layers
    if off != len(blob):
        raise ManifestError("blob longer than manifest shapes require")
    return EntropyStack(**chains, latent_channels=doc["latent_channels"])
