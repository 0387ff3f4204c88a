import functools
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqcipher.codec import (
    CONTAINER_MAGIC,
    KEY_MAGIC,
    CipherContainer,
    ContainerHeader,
    KeyFile,
    key_header,
    read_container,
    read_key,
    write_container,
    write_key,
)
from lsqcipher.errors import (
    BadChecksum,
    BadMagic,
    CodecError,
    LengthMismatch,
    NotLatin,
    OutOfRange,
    TruncatedFile,
    UnsupportedVersion,
)

from lsqcipher.latin import MAX_KEY_ORDER, symbol_dtype

from conftest import cyclic_automaton, random_automaton, traced

SEED = bytes(range(32))
NONCE = bytes(range(12))


def z3_keyfile():
    return KeyFile(key=cyclic_automaton(3), seed=SEED)


class TestKeyGolden:
    def test_z3_byte_layout(self):
        # layout pinned by hand: magic | order | seed | row-major table | crc32
        body = (
            b"LSQKEY\x00\x01"
            + struct.pack(">I", 3)
            + SEED
            + bytes([0, 1, 2, 1, 2, 0, 2, 0, 1])
        )
        expected = body + struct.pack(">I", zlib.crc32(body))
        assert write_key(z3_keyfile()) == expected

    def test_wide_symbol_layout(self):
        # order 300 uses 2-byte big-endian symbols
        kf = KeyFile(key=random_automaton(300), seed=SEED)
        blob = write_key(kf)
        assert len(blob) == 8 + 4 + 32 + 300 * 300 * 2 + 4
        table = np.frombuffer(blob[44:-4], dtype=">u2").reshape(300, 300)
        assert np.array_equal(table, kf.key.delta.entries)
        got = read_key(blob)
        assert got.key.delta == kf.key.delta

    def test_n256_file_size(self):
        blob = write_key(KeyFile(key=random_automaton(256), seed=SEED))
        assert len(blob) == 65584  # 8 + 4 + 32 + 65536 + 4

    @pytest.mark.parametrize("order", [2, 256, 1000])
    def test_key_header_round_trip(self, order):
        # the 44-byte header alone gives the order, the seed and the size
        kf = KeyFile(key=cyclic_automaton(order), seed=SEED)
        buf = write_key(kf)
        for head in (buf, buf[:44]):
            assert key_header(head) == (order, kf.seed, len(buf))

    def test_roundtrip_reserializes_identically(self):
        blob = write_key(z3_keyfile())
        assert write_key(read_key(blob)) == blob

    def test_load_copies_no_slice_of_the_key(self):
        # the square's copy of the table, its row inverse and validation's
        # block buffers; slices of the key body for the CRC and the table
        # would add 2x
        blob = write_key(KeyFile(key=random_automaton(1000), seed=SEED))
        with traced() as probe:
            read_key(blob)
        assert probe.peak <= 2.2 * len(blob)

    def test_write_builds_only_the_key_file(self):
        # one buffer for the whole file: no wire-order copy of the table and
        # no concatenation beside it, so keygen peaks at about 2x the table
        kf = KeyFile(key=random_automaton(1024), seed=SEED)
        with traced() as probe:
            blob = write_key(kf)
        assert probe.peak <= 1.1 * len(blob)
        assert read_key(blob).key.delta == kf.key.delta

    def test_write_rejects_short_seed(self):
        with pytest.raises(LengthMismatch):
            write_key(KeyFile(key=cyclic_automaton(3), seed=SEED[:-1]))


class TestKeyCorruption:
    def test_bad_magic(self):
        blob = bytearray(write_key(z3_keyfile()))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagic):
            read_key(bytes(blob))

    def test_flipped_table_byte_hits_checksum_first(self):
        blob = bytearray(write_key(z3_keyfile()))
        blob[44] ^= 0x01  # first table byte
        with pytest.raises(BadChecksum):
            read_key(bytes(blob))

    def test_not_latin_with_fixed_checksum(self):
        blob = bytearray(write_key(z3_keyfile()))
        blob[44] = blob[45]  # duplicate a symbol in row 0
        blob[-4:] = struct.pack(">I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(NotLatin):
            read_key(bytes(blob))

    def test_order_300_swapped_cells_not_latin(self):
        blob = bytearray(write_key(KeyFile(key=random_automaton(300), seed=SEED)))
        # swap the 2-byte symbols at (row 3, column 10) and (row 3, column 200):
        # every row stays a permutation, columns 10 and 200 repeat a symbol
        a, b = 44 + 2 * (3 * 300 + 10), 44 + 2 * (3 * 300 + 200)
        blob[a:a + 2], blob[b:b + 2] = blob[b:b + 2], blob[a:a + 2]
        blob[-4:] = struct.pack(">I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(NotLatin, match="column 10 repeats"):
            read_key(bytes(blob))

    def test_truncated(self):
        blob = write_key(z3_keyfile())
        for cut in (0, 4, 10, len(blob) - 1):
            with pytest.raises(TruncatedFile):
                read_key(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(LengthMismatch):
            read_key(write_key(z3_keyfile()) + b"x")

    def test_bad_checksum(self):
        blob = bytearray(write_key(z3_keyfile()))
        blob[-1] ^= 0xFF
        with pytest.raises(BadChecksum):
            read_key(bytes(blob))

    def test_order_above_ceiling_refused_from_header(self):
        # the header alone fixes the size, so no table need follow it
        head = KEY_MAGIC + struct.pack(">I", MAX_KEY_ORDER) + SEED
        assert key_header(head)[2] == 44 + 2 * MAX_KEY_ORDER ** 2 + 4
        head = KEY_MAGIC + struct.pack(">I", MAX_KEY_ORDER + 1) + SEED
        with pytest.raises(OutOfRange, match="key order"):
            key_header(head)
        with pytest.raises(OutOfRange, match="key order"):
            read_key(head)


def container(order=256, m=4, payload=None, crc=0xDEADBEEF):
    if payload is None:
        payload = np.arange(16) % order
    dtype = np.uint8 if order <= 256 else np.uint16
    return CipherContainer(order=order, m=m, nonce=NONCE,
                           payload=np.asarray(payload, dtype=dtype),
                           plaintext_crc=crc)


class TestContainer:
    def test_golden_layout(self):
        ct = container(order=256, m=4, payload=[1, 2, 3], crc=0x01020304)
        expected = (
            b"LSQCT\x00\x00\x01"
            + b"\x01"
            + struct.pack(">I", 256)
            + b"\x04"
            + NONCE
            + struct.pack(">Q", 3)
            + bytes([1, 2, 3])
            + b"\x01\x02\x03\x04"
        )
        assert write_container(ct) == expected

    def test_roundtrip(self):
        ct = container()
        got = read_container(write_container(ct))
        assert got.order == ct.order
        assert got.m == ct.m
        assert got.nonce == ct.nonce
        assert got.plaintext_crc == ct.plaintext_crc
        assert np.array_equal(got.payload, ct.payload)

    def test_empty_payload_roundtrip(self):
        got = read_container(write_container(container(payload=[])))
        assert len(got.payload) == 0

    def test_wide_payload_roundtrip(self):
        ct = container(order=1000, payload=[0, 999, 500])
        blob = write_container(ct)
        got = read_container(blob)
        assert np.array_equal(got.payload, ct.payload)
        assert blob[8 + 1 + 4 + 1 + 12 + 8:-4] == b"\x00\x00\x03\xe7\x01\xf4"

    def test_byte_payload_is_verbatim(self, rng):
        payload = rng.integers(0, 256, 10_000, dtype=np.uint8)
        blob = write_container(container(payload=payload))
        assert blob[8 + 1 + 4 + 1 + 12 + 8:-4] == payload.tobytes()

    @pytest.mark.parametrize("order", [256, 1000])
    def test_strided_payload_written_in_order(self, rng, order):
        payload = rng.integers(0, order, 2000).astype(symbol_dtype(order))[::2]
        blob = write_container(container(order=order, payload=payload))
        assert blob == write_container(container(order=order, payload=payload.copy()))

    def test_write_builds_only_the_container(self, rng):
        # one buffer for the whole container: no wire-order copy of the
        # payload and no concatenation beside it
        ct = container(order=1000, payload=rng.integers(0, 1000, 1 << 20))
        with traced() as probe:
            blob = write_container(ct)
        assert probe.peak <= 1.1 * len(blob)
        assert np.array_equal(read_container(blob).payload, ct.payload)

    @pytest.mark.parametrize("order", [256, 1000])
    def test_read_copies_no_payload(self, rng, order):
        # the payload is a wire-order view of the container bytes at every order
        blob = bytes(write_container(container(order=order,
                                               payload=rng.integers(0, order, 1 << 20))))
        with traced() as probe:
            payload = read_container(blob).payload
        assert probe.peak < 64 * 1024
        assert np.shares_memory(payload, np.frombuffer(blob, np.uint8))

    def test_m_zero_rejected_on_write(self):
        with pytest.raises(LengthMismatch):
            write_container(container(m=0))

    def test_m_zero_rejected_on_read(self):
        blob = bytearray(write_container(container(m=1)))
        blob[13] = 0  # m field
        with pytest.raises(LengthMismatch):
            read_container(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(write_container(container()))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagic):
            read_container(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(write_container(container()))
        blob[8] = 9  # version byte
        with pytest.raises(UnsupportedVersion):
            read_container(bytes(blob))

    def test_truncated(self):
        blob = write_container(container())
        for cut in (3, 12, len(blob) - 1):
            with pytest.raises(TruncatedFile):
                read_container(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(LengthMismatch):
            read_container(write_container(container()) + b"\x00")

    @pytest.mark.parametrize("order, stored", [(256, 0), (256, 1), (1000, 70000)])
    def test_order_out_of_range(self, order, stored):
        blob = bytearray(write_container(container(order=order)))
        blob[9:13] = struct.pack(">I", stored)  # order field
        with pytest.raises(OutOfRange):
            read_container(bytes(blob))

    def test_symbol_not_below_order(self):
        blob = bytearray(write_container(container(order=1000, payload=[0, 999, 5])))
        # write_container refuses 65000, so it is patched into the second symbol
        second = 8 + 1 + 4 + 1 + 12 + 8 + 2
        blob[second:second + 2] = struct.pack(">H", 65000)
        with pytest.raises(OutOfRange):
            read_container(bytes(blob))

    @pytest.mark.parametrize("order, payload", [
        (256, np.array([1, 300], dtype=np.uint16)),  # would be stored as 44
        (300, np.array([0, -1], dtype=np.int32)),    # would be stored as 65535
        (300, np.array([299, 300], dtype=np.uint16)),
        (256, np.array([1.5, 2.7])),                 # would be stored as [1, 2]
        (256, np.array([True, False])),
    ])
    def test_symbol_not_below_order_refused_on_write(self, order, payload):
        with pytest.raises(OutOfRange):
            write_container(CipherContainer(order=order, m=1, nonce=NONCE, payload=payload,
                                            plaintext_crc=0))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 0), ()])
    def test_payload_not_1d_refused_on_write(self, shape):
        # a (2, 3) payload would be written with count 2 and 6 symbols
        with pytest.raises(LengthMismatch, match="1-D"):
            write_container(CipherContainer(order=256, m=1, nonce=NONCE, plaintext_crc=0,
                                            payload=np.zeros(shape, dtype=np.uint8)))

    def test_short_nonce_refused(self):
        with pytest.raises(LengthMismatch, match="nonce"):
            ContainerHeader(order=256, m=1, nonce=bytes(11), count=0)

    @pytest.mark.parametrize("order", [0, 1, 65537])
    def test_order_out_of_range_refused_on_write(self, order):
        with pytest.raises(OutOfRange):
            ContainerHeader(order=order, m=1, nonce=NONCE, count=0).pack()


@functools.cache
def _valid_blob(kind, order):
    if kind == "key":
        return write_key(KeyFile(key=random_automaton(order), seed=SEED))
    return write_container(container(order=order, payload=np.arange(40) % order))


@given(kind=st.sampled_from(["key", "container"]), order=st.sampled_from([5, 300]),
       fix_crc=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_input_parses_or_raises_codec_error(kind, order, fix_crc, data):
    """Any mutation of a valid key file or container either parses or raises
    CodecError; no other exception escapes the parsers."""
    blob = bytearray(_valid_blob(kind, order))
    header = 64  # magic and header fields, where most format checks live
    edits = data.draw(st.lists(
        st.tuples(st.one_of(st.integers(0, header - 1), st.integers(0, len(blob) - 1)),
                  st.integers(0, 255)),
        max_size=6))
    for pos, value in edits:
        blob[pos] = value
    length = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob) + 8)))
    blob = blob[:length] + bytes(max(0, length - len(blob)))
    if fix_crc and kind == "key" and len(blob) >= 4:
        blob[-4:] = struct.pack(">I", zlib.crc32(blob[:-4]))
    parse = read_key if kind == "key" else read_container
    try:
        parse(bytes(blob))
    except CodecError:
        pass
