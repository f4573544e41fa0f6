"""Carry-less range coder over integer CDF tables.

State update (documented here because the byte output is part of the
interface; both ends must implement it identically):

    state: low, range, 32-bit; range starts at 0xFFFFFFFF.
    encode(cum_lo, cum_hi):
        r     = range // 2^16          # total frequency is always 2^16
        low   = low + r * cum_lo       # never wraps: low + range <= 2^32
        range = r * (cum_hi - cum_lo)
        renormalize
    renormalize:
        while top byte of low and low+range agree: emit it, shift both by 8
        else while range < 2^16: range = -low mod 2^16, then emit/shift
    finish: emit the 4 bytes of low (only if any symbol was coded).

The decoder mirrors the update with code = next 4 stream bytes, reading one
byte per renormalization step.  The "range < 2^16 -> clamp" branch is the
carry-less trick: it shrinks the interval so a carry can never propagate
into already-emitted bytes.

Symbol i is coded under row i of a CdfTable field; the encoder gathers all
intervals in one pass and runs the update over them in one loop, and the
decoder bisects rows read as lists, one call per symbol.  A v1
stream codes all c*h*w symbols of its header shape, and its payload ends
with them: reading 4 bytes first and one per renormalization shift, a
correct decode reads every byte the encoder wrote.
"""

from __future__ import annotations

import bisect
import numbers
import struct
from dataclasses import dataclass

from .gmm import CDF_TOTAL, CdfTable

__all__ = [
    "Bitstream",
    "StreamFormatError",
    "RangeDecoder",
    "rc_encode",
    "rc_decode",
]

MAGIC = b"DETQ"
VERSION = 1

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16


class StreamFormatError(ValueError):
    """Malformed or truncated bitstream."""


@dataclass(frozen=True)
class Bitstream:
    """Header (magic, version, count, latent shape) plus payload bytes."""

    count: int
    shape: tuple
    payload: bytes

    def to_bytes(self) -> bytes:
        if len(self.shape) != 3:
            raise StreamFormatError("shape must be (c, h, w)")
        fields = [("count", self.count, 32)]
        fields += [("dimension", d, 16) for d in self.shape]
        for name, v, bits in fields:
            if not (isinstance(v, numbers.Integral) and 0 <= v < 1 << bits):
                raise StreamFormatError(
                    f"{name} {v!r} does not fit the header's unsigned {bits}-bit field"
                )
        _check_shape(self.count, self.shape)
        head = MAGIC + struct.pack(">BI3H", VERSION, self.count, *self.shape)
        return head + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        head_len = 4 + struct.calcsize(">BI3H")
        if len(data) < head_len or data[:4] != MAGIC:
            raise StreamFormatError("bad magic or truncated header")
        version, count, c, h, w = struct.unpack(">BI3H", data[4:head_len])
        if version != VERSION:
            raise StreamFormatError(f"unsupported version {version}")
        _check_shape(count, (c, h, w))
        return cls(count=count, shape=(c, h, w), payload=data[head_len:])


def _check_shape(count: int, shape) -> None:
    c, h, w = shape
    if count != c * h * w:
        raise StreamFormatError(f"count {count} is not c*h*w of shape {tuple(shape)}")


class RangeDecoder:
    def __init__(self, payload: bytes, n_symbols: int):
        self.data = payload
        self.pos = 0
        self.low = 0
        self.range = _MASK
        self.code = 0
        if n_symbols:
            if len(payload) < 4:
                raise StreamFormatError("payload shorter than the coder flush")
            for _ in range(4):
                self.code = (self.code << 8) | self._byte()

    def _byte(self) -> int:
        if self.pos >= len(self.data):
            raise StreamFormatError("truncated payload")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cf: list, v_min: int) -> int:
        """Next symbol under one table row, given as a list of ints."""
        low, rng, code = self.low, self.range, self.code
        r = rng // CDF_TOTAL
        cum = max(0, min((code - low) // r, CDF_TOTAL - 1))
        i = bisect.bisect_right(cf, cum) - 1
        lo = cf[i]
        low += r * lo
        rng = r * (cf[i + 1] - lo)
        while True:  # renormalize
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = -low & (_BOT - 1)
            else:
                break
            code = ((code << 8) | self._byte()) & _MASK
            low = (low << 8) & _MASK
            rng <<= 8
        self.low, self.range, self.code = low, rng, code
        return v_min + i


def rc_encode(symbols, tables: CdfTable, shape) -> Bitstream:
    """Encode the symbols of a (c, h, w) latent, symbol i under row i of tables."""
    lo, hi = tables.intervals(symbols)
    low, rng, out = 0, _MASK, bytearray()
    for cum_lo, cum_hi in zip(lo.tolist(), hi.tolist()):
        r = rng // CDF_TOTAL
        low += r * cum_lo
        rng = r * (cum_hi - cum_lo)
        while True:  # renormalize
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = -low & (_BOT - 1)
            else:
                break
            out.append(low >> 24)
            low = (low << 8) & _MASK
            rng <<= 8
    if len(lo):
        out += low.to_bytes(4, "big")
    return Bitstream(count=len(lo), shape=tuple(shape), payload=bytes(out))


def rc_decode(stream: Bitstream, tables: CdfTable) -> list:
    """Inverse of rc_encode given bit-identical tables.

    Decodes stream.count symbols, refusing a payload that ends before or
    after them.  With a differing table at position t the output may
    diverge from t onward; that divergence is exactly the cross-device
    decode failure the interop harness measures.
    """
    if len(tables) != stream.count:
        raise ValueError(f"{stream.count} symbols but {len(tables)} tables; one table per symbol")
    dec = RangeDecoder(stream.payload, stream.count)
    got = [dec.decode(row, tables.v_min) for row in tables.cf.tolist()]
    unread = len(dec.data) - dec.pos
    if unread:
        raise StreamFormatError(f"{unread} payload bytes left unread")
    return got
