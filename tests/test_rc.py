import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detq.gmm import CDF_TOTAL, CdfTable
from detq.rc import (
    MAGIC,
    VERSION,
    VERSION_WAVEFRONT,
    Bitstream,
    RangeDecoder,
    StreamFormatError,
    rc_decode,
    rc_encode,
)

from oracles import range_decode_oracle, range_encode_oracle


def table_from_freqs(freqs, v_min=0):
    cf = np.concatenate([[0], np.cumsum(np.asarray(freqs, dtype=np.int64))])
    assert cf[-1] == CDF_TOTAL
    return CdfTable(v_min=v_min, v_max=v_min + len(freqs) - 1, cf=cf)


def random_table(rng, n_symbols, v_min=0):
    raw = rng.integers(1, 1000, size=n_symbols).astype(np.int64)
    freqs = np.ones(n_symbols, dtype=np.int64)
    extra = CDF_TOTAL - n_symbols
    # proportional split of the remaining mass, remainder to the first symbol
    add = raw * extra // raw.sum()
    freqs += add
    freqs[0] += extra - add.sum()
    return table_from_freqs(freqs, v_min)


def repeat(t, n):
    """A field of n copies of the one-row table t."""
    return CdfTable(t.v_min, t.v_max, np.repeat(t.cf, n, axis=0))


# --- header ---------------------------------------------------------------


def test_header_roundtrip():
    s = Bitstream(count=16, shape=(1, 4, 4), payload=b"\x01\x02")
    back = Bitstream.from_bytes(s.to_bytes())
    assert back == s


@pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2, 4), ()])
def test_header_refuses_a_shape_that_is_not_3d(shape):
    with pytest.raises(StreamFormatError, match="shape must be \\(c, h, w\\)"):
        Bitstream(count=16, shape=shape, payload=b"").to_bytes()


def test_header_field_ranges():
    top = Bitstream(count=65535 * 65535, shape=(65535, 1, 65535), payload=b"")
    assert Bitstream.from_bytes(top.to_bytes()) == top
    for count, shape in [
        (1, (1, 70000, 1)),
        (2**32, (1, 1, 1)),
        (-1, (1, 1, 1)),
        (1, (1, -1, 1)),
        (1, (1, 2.0, 1)),
    ]:
        with pytest.raises(StreamFormatError):
            Bitstream(count=count, shape=shape, payload=b"").to_bytes()


def test_bad_magic_and_truncation():
    s = Bitstream(count=1, shape=(1, 1, 1), payload=b"").to_bytes()
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(b"XXXX" + s[4:])
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(s[:6])
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(s[:4] + bytes([99]) + s[5:])  # bad version


@pytest.mark.parametrize("count", [0, 11, 13, 2**32 - 1])
def test_count_must_be_the_shape_product(count):
    # a v1 stream codes every element of its (c, h, w) latent, no more, no less
    data = MAGIC + struct.pack(">BI3H", VERSION, count, 2, 2, 3)
    with pytest.raises(StreamFormatError, match="c\\*h\\*w"):
        Bitstream.from_bytes(data)
    with pytest.raises(StreamFormatError, match="c\\*h\\*w"):
        Bitstream(count=count, shape=(2, 2, 3), payload=b"").to_bytes()
    assert Bitstream.from_bytes(data[:5] + struct.pack(">I", 12) + data[9:]).count == 12


@pytest.mark.parametrize("reach", [0, 1, 2, 255])
def test_v2_header_roundtrip(reach):
    # the v1 header with version 2, then one reach byte, then the payload
    s = Bitstream(count=6, shape=(2, 1, 3), payload=b"\x07\x08", reach=reach)
    data = s.to_bytes()
    head = MAGIC + struct.pack(">BI3HB", VERSION_WAVEFRONT, 6, 2, 1, 3, reach)
    assert data == head + b"\x07\x08"
    back = Bitstream.from_bytes(data)
    assert back == s and back.version == VERSION_WAVEFRONT
    v1 = Bitstream(count=6, shape=(2, 1, 3), payload=b"\x07\x08")
    assert v1.version == VERSION and len(v1.to_bytes()) == len(data) - 1


def test_v2_header_errors():
    v2 = Bitstream(count=1, shape=(1, 1, 1), payload=b"", reach=3).to_bytes()
    with pytest.raises(StreamFormatError, match="unsupported version 3"):
        Bitstream.from_bytes(v2[:4] + bytes([3]) + v2[5:])
    with pytest.raises(StreamFormatError, match="reach byte"):
        Bitstream.from_bytes(v2[:-1])
    # a v1 header read as v2 misses the byte too
    v1 = Bitstream(count=1, shape=(1, 1, 1), payload=b"").to_bytes()
    with pytest.raises(StreamFormatError, match="reach byte"):
        Bitstream.from_bytes(v1[:4] + bytes([VERSION_WAVEFRONT]) + v1[5:])
    for reach in (256, -1, 1.0):
        with pytest.raises(StreamFormatError, match="reach"):
            Bitstream(count=1, shape=(1, 1, 1), payload=b"", reach=reach).to_bytes()


# --- encode/decode basics -------------------------------------------------


def test_empty_sequence_header_only():
    empty = CdfTable(0, 0, np.zeros((0, 2), dtype=np.int64))
    s = rc_encode([], empty, shape=(0, 0, 0))
    assert s.count == 0 and s.payload == b""
    assert rc_decode(s, empty) == []


def test_float_symbols_are_refused_not_truncated():
    # cast to int64, 0.7 would be coded as 0 and decoded as 0
    t = repeat(table_from_freqs([CDF_TOTAL // 2, CDF_TOTAL // 2]), 16)
    with pytest.raises(ValueError, match="symbols must be integers"):
        rc_encode(np.full(16, 0.7), t, shape=(1, 4, 4))
    with pytest.raises(ValueError, match="symbols must be integers"):
        t.intervals(np.zeros(16))  # whole-valued floats too
    # an empty sequence is valid whatever its dtype
    empty = CdfTable(0, 0, np.zeros((0, 2), dtype=np.int64))
    assert rc_encode(np.array([]), empty, shape=(0, 0, 0)).count == 0


def test_certain_symbol_zero_extra_payload():
    t = table_from_freqs([CDF_TOTAL])
    s = rc_encode([0], t, shape=(1, 1, 1))
    assert len(s.payload) == 4  # nothing beyond the flush
    assert rc_decode(s, t) == [0]


def test_symbol_outside_table_rejected():
    t = table_from_freqs([CDF_TOTAL])
    with pytest.raises(ValueError):
        rc_encode([5], t, shape=(1, 1, 1))


@pytest.mark.parametrize("n_tables", [2, 4])
def test_encode_needs_one_table_per_symbol(n_tables):
    t = table_from_freqs([CDF_TOTAL // 2, CDF_TOTAL // 2])
    with pytest.raises(ValueError, match=f"3 symbols but {n_tables} tables"):
        rc_encode([0, 1, 0], repeat(t, n_tables), shape=(1, 1, 3))
    # as many symbols as tables, but not 1-d: the message gives their shape
    with pytest.raises(ValueError, match=rf"symbols of shape \(1, {n_tables}\) but"):
        rc_encode(np.zeros((1, n_tables), int), repeat(t, n_tables), shape=(1, 1, n_tables))


@pytest.mark.parametrize("n_tables", [2, 4])
def test_decode_needs_one_table_per_symbol(n_tables):
    t = table_from_freqs([CDF_TOTAL // 2, CDF_TOTAL // 2])
    s = rc_encode([0, 1, 0], repeat(t, 3), shape=(1, 1, 3))
    with pytest.raises(ValueError, match=f"3 symbols but {n_tables} tables"):
        rc_decode(s, repeat(t, n_tables))


def test_truncated_payload_raises():
    rng = np.random.default_rng(0)
    t = random_table(rng, 16)
    s = rc_encode(list(rng.integers(0, 16, 300)), repeat(t, 300), shape=(1, 1, 300))
    bad = Bitstream(count=s.count, shape=s.shape, payload=s.payload[:-3])
    with pytest.raises(StreamFormatError):
        rc_decode(bad, repeat(t, 300))


@pytest.mark.parametrize("n", [0, 1, 300])
def test_bytes_after_the_payload_end_are_refused(n):
    # a correct decode reads every byte, so anything appended is not a v1 stream
    rng = np.random.default_rng(3)
    t = repeat(random_table(rng, 16), n)
    s = rc_encode(list(rng.integers(0, 16, n)), t, shape=(1, 1, n))
    long = Bitstream(count=s.count, shape=s.shape, payload=s.payload + b"\x00\x01\x02")
    with pytest.raises(StreamFormatError, match="^3 payload bytes left unread$"):
        rc_decode(long, t)


def test_deterministic_bytes():
    rng = np.random.default_rng(1)
    t = random_table(rng, 9, v_min=-4)
    syms = list(rng.integers(-4, 5, 500))
    a = rc_encode(syms, repeat(t, 500), shape=(1, 1, 500)).to_bytes()
    b = rc_encode(syms, repeat(t, 500), shape=(1, 1, 500)).to_bytes()
    assert a == b


# --- roundtrip properties -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random_tables(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_tables = data.draw(st.integers(1, 5))
    n_symbols = data.draw(st.integers(0, 200))
    # one alphabet per stream, as in a field
    size = int(rng.integers(1, 40))
    rows = np.concatenate([random_table(rng, size).cf for _ in range(n_tables)])
    seq_tables = CdfTable(0, size - 1, rows[np.arange(n_symbols) % n_tables])
    syms = [int(rng.integers(0, size)) for _ in range(n_symbols)]
    s = rc_encode(syms, seq_tables, shape=(1, 1, n_symbols))
    assert rc_decode(s, seq_tables) == syms


def near_certain_rows(rng, n_rows):
    """Rows of one 4-symbol alphabet; about half give one symbol nearly all
    the mass and the other three widths of 1 or 2 out of 2^16."""
    freqs = 1 + rng.multinomial(CDF_TOTAL - 4, rng.dirichlet(np.ones(4), n_rows))
    rare = rng.integers(1, 3, (n_rows, 4))
    rare[np.arange(n_rows), rng.integers(0, 4, n_rows)] = 0
    rare[rare == 0] = CDF_TOTAL - rare.sum(axis=1)
    peaked = rng.random(n_rows) < 0.5
    freqs[peaked] = rare[peaked]
    return np.cumsum(np.pad(freqs, ((0, 0), (1, 0))), axis=1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 150))
def test_encoder_bytes_match_the_reference_coder(seed, n):
    rng = np.random.default_rng(seed)
    tables = CdfTable(-1, 2, near_certain_rows(rng, n))
    # half the symbols are the row's rarest: each shrinks the range by about 2^16
    rarest = np.diff(tables.cf, axis=1).argmin(axis=1)
    syms = np.where(rng.random(n) < 0.5, rarest, rng.integers(0, 4, n)) - 1
    s = rc_encode(syms, tables, shape=(1, 1, n))
    lo, hi = tables.intervals(syms)
    want, _ = range_encode_oracle(list(zip(lo.tolist(), hi.tolist())))
    assert s.payload == want
    assert rc_decode(s, tables) == syms.tolist()


def decode_until_it_stops(payload, tables):
    """RangeDecoder over one field of tables: the symbols it decoded, and
    the index of the symbol at which it raised StreamFormatError, or None."""
    got = []
    try:
        dec = RangeDecoder(payload, len(tables))
        for row in tables.cf.tolist():
            got.append(dec.decode(row, tables.v_min))
    except StreamFormatError:
        return got, len(got)
    return got, None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_decoder_matches_the_reference_decoder(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 120))
    if data.draw(st.booleans()):
        tables = CdfTable(-1, 2, near_certain_rows(rng, n))
    else:
        size = int(rng.integers(1, 40))
        rows = [random_table(rng, size).cf for _ in range(n)]
        rows = np.concatenate(rows) if n else np.zeros((0, size + 1), np.int64)
        tables = CdfTable(-3, size - 4, rows)
    syms = rng.integers(tables.v_min, tables.v_max + 1, n)
    payload = rc_encode(syms, tables, shape=(1, 1, n)).payload
    kinds = ["whole", "truncated", "one byte changed", "random bytes", "0xff bytes"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncated" and payload:
        payload = payload[: data.draw(st.integers(0, len(payload) - 1))]
    elif kind == "one byte changed" and payload:
        changed = bytearray(payload)
        changed[data.draw(st.integers(0, len(payload) - 1))] ^= data.draw(st.integers(1, 255))
        payload = bytes(changed)
    elif kind == "random bytes":
        payload = rng.bytes(data.draw(st.integers(0, len(payload) + 8)))
    elif kind == "0xff bytes":  # code past low + range: cum held to 2^16 - 1
        payload = b"\xff" * data.draw(st.integers(0, len(payload) + 8))
    got = decode_until_it_stops(payload, tables)
    assert got == range_decode_oracle(payload, tables.cf.tolist(), tables.v_min)
    if kind == "whole":
        assert got == (syms.tolist(), None)
    elif kind == "truncated" and n:
        assert got[1] is not None  # a correct decode reads every byte


def test_reference_coder_clamps_on_near_certain_symbols():
    # width-1 symbols under near-certain tables reach the carry-less branch,
    # and the encoder's bytes still equal the reference coder's
    t = table_from_freqs([1, CDF_TOTAL - 3, 2], v_min=-1)
    syms = [-1, 1, 0, -1, -1, 1, 0, 0, -1, 1] * 5
    tables = repeat(t, len(syms))
    lo, hi = tables.intervals(syms)
    want, clamps = range_encode_oracle(list(zip(lo.tolist(), hi.tolist())))
    assert clamps > 0
    s = rc_encode(syms, tables, shape=(1, 1, len(syms)))
    assert s.payload == want
    assert rc_decode(s, tables) == syms


def test_roundtrip_per_position_tables():
    rng = np.random.default_rng(2)
    n = 400
    rows = np.concatenate([random_table(rng, 25, v_min=-7).cf for _ in range(n)])
    tables = CdfTable(-7, 17, rows)
    syms = [int(rng.integers(-7, 18)) for _ in range(n)]
    s = rc_encode(syms, tables, shape=(1, 20, 20))
    assert rc_decode(s, tables) == syms


# --- compression quality --------------------------------------------------


def test_code_length_near_entropy_bound():
    rng = np.random.default_rng(4)
    n = 10_000
    t = random_table(rng, 12)
    freqs = np.diff(t.cf[0])
    p = freqs / CDF_TOTAL
    syms = rng.choice(12, size=n, p=p)
    s = rc_encode(list(syms), repeat(t, n), shape=(1, 1, n))
    bits = 8 * len(s.payload)
    bound = float(np.sum(-np.log2(p[syms])))
    assert bits <= 1.02 * bound + 64


def test_mismatched_table_diverges_from_change_point():
    # corrupting one bin boundary at position t: mismatches only at/after t
    rng = np.random.default_rng(5)
    t_good = random_table(rng, 10)
    n = 200
    change = 60
    cf = np.repeat(t_good.cf, n, axis=0)
    cf[change, 5] += 200  # move one interior boundary
    syms = list(rng.integers(0, 10, n))
    syms[change] = 4  # a symbol whose interval the corrupted boundary moves
    enc_tables = repeat(t_good, n)
    dec_tables = CdfTable(t_good.v_min, t_good.v_max, cf)
    s = rc_encode(syms, enc_tables, shape=(1, 1, n))
    dec = RangeDecoder(s.payload, n)
    got = [dec.decode(row, dec_tables.v_min) for row in dec_tables.cf.tolist()]
    mism = [i for i in range(n) if got[i] != syms[i]]
    assert mism and min(mism) >= change
    # the diverged decoder stops short of the payload's end, which rc_decode refuses
    assert dec.pos < len(s.payload)
    with pytest.raises(StreamFormatError, match="payload bytes left unread"):
        rc_decode(s, dec_tables)
