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
intervals in one pass and runs the update over them in one loop.  The
decoder takes one call per symbol, on the symbol's row read as a list.  It
bisects the row, keeps the state in locals, and enters the renormalization
loop only when a shift is due.  It reads the payload by position only:
the code starts as its first 4 bytes, and each shift reads the byte at
the next index.  A shift due once the index has reached the payload end
raises StreamFormatError("truncated payload").  Running off the payload
is not only a cut stream's fault: a decoder whose tables differ from the
encoder's reads another number of bytes, and the interop harness catches
the error to report the divergence where decoding stopped.  A stream
codes all c*h*w symbols of its header shape, and its payload ends with
them: reading 4 bytes first and one per renormalization shift, a correct
decode reads every byte the encoder wrote.

The header's version names the coding order, the order of the positions
whose symbols the payload holds (a position's channels follow each other):
v1 is raster order; v2 adds one byte, the context reach R, and is the
wavefront order of that reach, positions by ascending x + (R+1)*y, then
by ascending y.  The coder itself does not depend on the order.
"""

from __future__ import annotations

import numbers
import struct
from bisect import bisect_right
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
VERSION = 1  # raster coding order
VERSION_WAVEFRONT = 2  # the v1 header plus a context-reach byte
_HEAD = ">BI3H"

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16
_CUM_MAX = CDF_TOTAL - 1


class StreamFormatError(ValueError):
    """Malformed or truncated bitstream."""


@dataclass(frozen=True)
class Bitstream:
    """Header (magic, version, count, latent shape) plus payload bytes.

    reach None is a v1 stream, coded in raster order; an integer in
    [0, 255] makes it a v2 stream, coded in the wavefront order of that
    context reach, and is written as one byte after the v1 header.
    """

    count: int
    shape: tuple
    payload: bytes
    reach: int | None = None

    @property
    def version(self) -> int:
        return VERSION if self.reach is None else VERSION_WAVEFRONT

    def to_bytes(self) -> bytes:
        if len(self.shape) != 3:
            raise StreamFormatError("shape must be (c, h, w)")
        fields = [("count", self.count, 32)]
        fields += [("dimension", d, 16) for d in self.shape]
        if self.reach is not None:
            fields.append(("reach", self.reach, 8))
        for name, v, bits in fields:
            if not (isinstance(v, numbers.Integral) and 0 <= v < 1 << bits):
                raise StreamFormatError(
                    f"{name} {v!r} does not fit the header's unsigned {bits}-bit field"
                )
        _check_shape(self.count, self.shape)
        head = MAGIC + struct.pack(_HEAD, self.version, self.count, *self.shape)
        if self.reach is not None:
            head += bytes([self.reach])
        return head + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        head_len = 4 + struct.calcsize(_HEAD)
        if len(data) < head_len or data[:4] != MAGIC:
            raise StreamFormatError("bad magic or truncated header")
        version, count, c, h, w = struct.unpack(_HEAD, data[4:head_len])
        if version not in (VERSION, VERSION_WAVEFRONT):
            raise StreamFormatError(f"unsupported version {version}")
        _check_shape(count, (c, h, w))
        reach = None
        if version == VERSION_WAVEFRONT:
            if len(data) == head_len:
                raise StreamFormatError("v2 header without its reach byte")
            reach = data[head_len]
            head_len += 1
        return cls(count=count, shape=(c, h, w), payload=data[head_len:], reach=reach)


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
            self.code = int.from_bytes(payload[:4], "big")
            self.pos = 4

    def decode(self, cf: list, v_min: int) -> int:
        """Next symbol under one table row, given as a list of ints.

        The state lives in locals for the call and is written back once.
        Payload bytes are read by index; a shift due once the index has
        reached the payload end raises StreamFormatError("truncated
        payload"), and the decoder is not used after that.
        """
        low, rng, code = self.low, self.range, self.code
        r = rng >> 16
        # code - low leaves [0, 2^16 r) only in a stream not coded under
        # these tables, as a differing decoder's is: the clamp keeps cum in
        # the row
        cum = (code - low) // r
        if cum < 0:
            cum = 0
        elif cum > _CUM_MAX:
            cum = _CUM_MAX
        i = bisect_right(cf, cum) - 1
        lo = cf[i]
        low += r * lo
        rng = r * (cf[i + 1] - lo)
        if (low ^ (low + rng)) < _TOP or rng < _BOT:  # renormalize
            data, pos = self.data, self.pos
            end = len(data)
            while True:
                if (low ^ (low + rng)) < _TOP:
                    pass
                elif rng < _BOT:
                    rng = -low & (_BOT - 1)
                else:
                    break
                if pos == end:
                    raise StreamFormatError("truncated payload")
                code = ((code << 8) | data[pos]) & _MASK
                pos += 1
                low = (low << 8) & _MASK
                rng <<= 8
            self.pos = pos
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
