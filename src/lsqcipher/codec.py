"""Bit-exact file formats: key files and ciphertext containers.

All multi-byte integers are big-endian. Symbols are 1 byte for order <= 256
and 2 bytes otherwise. The key table is serialized row-major with rows
indexed by input and columns by state, which is exactly the in-memory
layout of the transition / Cayley table.

A key file's header is decoded in one place, `key_header`, which gives its
order, seed and size from the header's bytes alone; `read_key` and the
CLI's key reads take all three from it.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import latin
from .automaton import KeyAutomaton
from .errors import (
    BadChecksum,
    BadMagic,
    ColViolation,
    DimensionMismatch,
    LengthMismatch,
    NotLatin,
    OrderTooSmall,
    OutOfRange,
    RowViolation,
    TruncatedFile,
    UnsupportedVersion,
)
from .latin import MAX_KEY_ORDER, MAX_ORDER, require_symbols, symbol_dtype, symbol_wire_dtype
from .keystream import NONCE_BYTES, SEED_BYTES

KEY_MAGIC = b"LSQKEY\x00\x01"
# magic, order, keystream seed; the table and a CRC-32 of all before it follow
_KEY_HEADER = struct.Struct(f">{len(KEY_MAGIC)}sI{SEED_BYTES}s")
KEY_HEADER_BYTES = _KEY_HEADER.size
CONTAINER_MAGIC = b"LSQCT\x00\x00\x01"
CONTAINER_VERSION = 1
# magic, version, order, m, nonce, payload symbol count
_HEADER = struct.Struct(f">{len(CONTAINER_MAGIC)}sBIB{NONCE_BYTES}sQ")
HEADER_BYTES = _HEADER.size
# the CRC-32 that ends a key file (over all before it) and a container (the
# diagnostic plaintext CRC)
CRC_TRAILER = struct.Struct(">I")


@dataclass(frozen=True)
class KeyFile:
    """A key automaton plus the shared keystream seed."""

    key: KeyAutomaton
    seed: bytes

    @property
    def order(self) -> int:
        return self.key.order


@dataclass(frozen=True)
class CipherContainer:
    """A parsed or to-be-written ciphertext container.

    At every order the payload `read_container` returns is a view of the
    container bytes, not a copy, in wire byte order: big-endian `uint16`
    above order 256. It is read-only when the bytes are.
    """

    order: int
    m: int
    nonce: bytes
    payload: np.ndarray          # symbols, dtype matching the order's width
    plaintext_crc: int           # diagnostic only; NOT an integrity mechanism


@dataclass(frozen=True)
class ContainerHeader:
    """The fields ahead of a container's payload.

    A container is this header, `count` payload symbols and a CRC trailer,
    so the header alone fixes the size of the whole container. Its fields
    are checked when it is built, so the writer and the reader of a
    container apply one set of rules.
    """

    order: int
    m: int
    nonce: bytes
    count: int                   # payload symbols

    def __post_init__(self):
        if not 2 <= self.order <= MAX_ORDER:
            raise OutOfRange(f"container order {self.order} outside [2, {MAX_ORDER}]")
        if not 1 <= self.m <= 255:
            raise LengthMismatch("block length m must be in [1, 255]")
        if len(self.nonce) != NONCE_BYTES:
            raise LengthMismatch(f"nonce must be {NONCE_BYTES} bytes")

    @property
    def size(self) -> int:
        """Bytes in the whole container."""
        width = symbol_dtype(self.order).itemsize
        return HEADER_BYTES + self.count * width + CRC_TRAILER.size

    def pack(self) -> bytes:
        return _HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, self.order, self.m,
                            self.nonce, self.count)


def write_key(kf: KeyFile) -> bytearray:
    """Serialize a key file into one buffer, with no copy of the table
    beside it: the header, the seed and the wire-order table are written
    into the buffer, and the CRC into its last 4 bytes."""
    if len(kf.seed) != SEED_BYTES:
        raise LengthMismatch(f"seed must be {SEED_BYTES} bytes")
    order = kf.order
    wire = symbol_wire_dtype(order)
    body = KEY_HEADER_BYTES + order * order * wire.itemsize
    buf = bytearray(body + CRC_TRAILER.size)
    _KEY_HEADER.pack_into(buf, 0, KEY_MAGIC, order, kf.seed)
    table = np.frombuffer(buf, dtype=wire, count=order * order, offset=KEY_HEADER_BYTES)
    np.copyto(table.reshape(order, order), kf.key.delta.entries)
    CRC_TRAILER.pack_into(buf, body, zlib.crc32(memoryview(buf)[:body]))
    return buf


def key_header(head: bytes) -> tuple[int, bytes, int]:
    """The order, the keystream seed and the file size in the header of the
    key file whose first bytes are `head`. This is the one place a key
    header is decoded.

    `head` need hold no more than KEY_HEADER_BYTES, so a reader can refuse
    an order above MAX_KEY_ORDER, or one it cannot use, before it reads or
    allocates anything the size of the table.
    """
    if len(head) < len(KEY_MAGIC):
        raise TruncatedFile("key file shorter than magic")
    if head[:len(KEY_MAGIC)] != KEY_MAGIC:
        raise BadMagic("not a key file")
    if len(head) < KEY_HEADER_BYTES:
        raise TruncatedFile("key file truncated in header")
    _, order, seed = _KEY_HEADER.unpack_from(head)
    if order > MAX_KEY_ORDER:
        raise OutOfRange(f"key order {order} > {MAX_KEY_ORDER} unsupported")
    size = KEY_HEADER_BYTES + order * order * symbol_dtype(order).itemsize + CRC_TRAILER.size
    return order, seed, size


def read_key(data: bytes, inverse: bool = True) -> KeyFile:
    """Parse and certify a key file. Its checksum, seed and table are read
    through one memoryview of `data`, so no slice of the key body is copied.

    With `inverse`, the default, the certificate's row pass also builds the
    key's row inverse, which decryption runs on, so `key.invert()` is a
    cache lookup; a caller that will only encrypt or inspect passes False
    and keeps no n x n inverse."""
    view = memoryview(data)
    order, seed, total = key_header(view)
    end = total - CRC_TRAILER.size
    if len(view) < total:
        raise TruncatedFile(f"key file needs {total} bytes, got {len(view)}")
    if len(view) > total:
        raise LengthMismatch(f"key file has {len(view) - total} trailing bytes")
    (crc,) = CRC_TRAILER.unpack_from(view, end)
    if crc != zlib.crc32(view[:end]):
        raise BadChecksum("key file checksum mismatch")
    table = np.frombuffer(view[KEY_HEADER_BYTES:end], dtype=symbol_wire_dtype(order))
    try:
        # looked up on the module, so a wrapper patched onto it sees key loads
        square = latin.validate_latin(table.reshape(order, order), inverse=inverse)
    except (RowViolation, ColViolation, DimensionMismatch, OrderTooSmall) as exc:
        raise NotLatin(f"key table is not a Latin square: {exc}") from None
    return KeyFile(key=KeyAutomaton(order, square), seed=seed)


def key_fingerprint(data) -> str:
    """16 hex digits naming a key: the first 8 bytes of SHA-256 over the key
    file `data` up to its CRC trailer. Two files of one key share it, and
    keys that differ only in their keystream seed do not."""
    return hashlib.sha256(memoryview(data)[:-CRC_TRAILER.size]).hexdigest()[:16]


def write_container(ct: CipherContainer) -> bytearray:
    """Serialize a container into one buffer, as write_key does a key file:
    the header, the wire-order payload and the CRC are written into it, so
    no copy of the payload is made beside it. The payload may be an array,
    a list or a tuple of symbols, and a sequence is written as the equal
    array is. Raises LengthMismatch for a payload that is not 1-D and
    OutOfRange for an entry that is not a symbol of the container's order."""
    payload = latin.symbol_array(ct.payload, LengthMismatch, ndim=1)
    header = ContainerHeader(order=ct.order, m=ct.m, nonce=ct.nonce, count=len(payload))
    require_symbols(payload, ct.order, OutOfRange)
    buf = bytearray(header.size)
    buf[:HEADER_BYTES] = header.pack()
    # every entry is an integer symbol by now, so the unsafe cast narrows none
    np.copyto(np.frombuffer(buf, dtype=symbol_wire_dtype(ct.order), count=len(payload),
                            offset=HEADER_BYTES), payload, casting="unsafe")
    CRC_TRAILER.pack_into(buf, header.size - CRC_TRAILER.size, ct.plaintext_crc)
    return buf


def read_container_header(data: bytes, size: int) -> ContainerHeader:
    """Parse the header at the start of `data`, the first bytes of a
    container that is `size` bytes long, and check that size against it.

    `data` need hold no more than HEADER_BYTES, so a reader can check a
    container's framing before it reads the payload.
    """
    if len(data) < len(CONTAINER_MAGIC):
        raise TruncatedFile("container shorter than magic")
    if data[:len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
        raise BadMagic("not a ciphertext container")
    if len(data) < HEADER_BYTES:
        raise TruncatedFile("container truncated in header")
    _, version, order, m, nonce, count = _HEADER.unpack_from(data)
    if version != CONTAINER_VERSION:
        raise UnsupportedVersion(f"container version {version}")
    header = ContainerHeader(order=order, m=m, nonce=nonce, count=count)
    if size < header.size:
        raise TruncatedFile(f"container needs {header.size} bytes, got {size}")
    if size > header.size:
        raise LengthMismatch(f"container has {size - header.size} trailing bytes")
    return header


def read_container(data: bytes) -> CipherContainer:
    """Parse a container and check its framing and its payload's symbols.

    The payload is a view of `data` in wire byte order at every order, not
    a copy: a session decrypts it as it is. Above order 256 it is
    big-endian `uint16`, so it cannot be a session's `out`; nor can any
    view of read-only bytes."""
    header = read_container_header(data, len(data))
    end = header.size - CRC_TRAILER.size
    payload = np.frombuffer(memoryview(data)[HEADER_BYTES:end], dtype=symbol_wire_dtype(header.order))
    require_symbols(payload, header.order, OutOfRange)
    (crc,) = CRC_TRAILER.unpack_from(data, end)
    return CipherContainer(order=header.order, m=header.m, nonce=header.nonce,
                           payload=payload, plaintext_crc=crc)
