"""Bit-exact file formats: key files and ciphertext containers.

All multi-byte integers are big-endian. Symbols are 1 byte for order <= 256
and 2 bytes otherwise. The key table is serialized row-major with rows
indexed by input and columns by state, which is exactly the in-memory
layout of the transition / Cayley table.
"""

from __future__ import annotations

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
from .latin import MAX_ORDER, symbol_dtype, symbol_wire_dtype
from .keystream import NONCE_BYTES, SEED_BYTES

KEY_MAGIC = b"LSQKEY\x00\x01"
CONTAINER_MAGIC = b"LSQCT\x00\x00\x01"
CONTAINER_VERSION = 1


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

    At order <= 256 the payload `read_container` returns is a read-only
    view of the container bytes, not a copy.
    """

    order: int
    m: int
    nonce: bytes
    payload: np.ndarray          # symbols, dtype matching the order's width
    plaintext_crc: int           # diagnostic only; NOT an integrity mechanism


def _symbol_bytes(symbols: np.ndarray, order: int) -> bytes:
    return symbols.astype(symbol_wire_dtype(order), copy=False).tobytes()


def _symbols_from(data: bytes, order: int) -> np.ndarray:
    wire = np.frombuffer(data, dtype=symbol_wire_dtype(order))
    return wire.astype(symbol_dtype(order), copy=False)


def write_key(kf: KeyFile) -> bytes:
    body = (
        KEY_MAGIC
        + struct.pack(">I", kf.order)
        + kf.seed
        + _symbol_bytes(kf.key.delta.entries.reshape(-1), kf.order)
    )
    return body + struct.pack(">I", zlib.crc32(body))


def read_key(data: bytes) -> KeyFile:
    if len(data) < len(KEY_MAGIC):
        raise TruncatedFile("key file shorter than magic")
    if data[:len(KEY_MAGIC)] != KEY_MAGIC:
        raise BadMagic("not a key file")
    header_len = len(KEY_MAGIC) + 4
    if len(data) < header_len:
        raise TruncatedFile("key file truncated in header")
    (order,) = struct.unpack(">I", data[len(KEY_MAGIC):header_len])
    width = symbol_dtype(order).itemsize
    total = header_len + SEED_BYTES + order * order * width + 4
    if len(data) < total:
        raise TruncatedFile(f"key file needs {total} bytes, got {len(data)}")
    if len(data) > total:
        raise LengthMismatch(f"key file has {len(data) - total} trailing bytes")
    (crc,) = struct.unpack(">I", data[total - 4:total])
    if crc != zlib.crc32(data[:total - 4]):
        raise BadChecksum("key file checksum mismatch")
    seed = data[header_len:header_len + SEED_BYTES]
    table_bytes = data[header_len + SEED_BYTES:total - 4]
    table = np.frombuffer(table_bytes, dtype=symbol_wire_dtype(order))
    try:
        # looked up on the module, so a wrapper patched onto it sees key loads
        square = latin.validate_latin(table.reshape(order, order))
    except (RowViolation, ColViolation, DimensionMismatch, OrderTooSmall) as exc:
        raise NotLatin(f"key table is not a Latin square: {exc}") from None
    return KeyFile(key=KeyAutomaton(order, square), seed=seed)


def write_container(ct: CipherContainer) -> bytes:
    if ct.m < 1 or ct.m > 255:
        raise LengthMismatch("block length m must be in [1, 255]")
    if len(ct.nonce) != NONCE_BYTES:
        raise LengthMismatch(f"nonce must be {NONCE_BYTES} bytes")
    return (
        CONTAINER_MAGIC
        + struct.pack(">B", CONTAINER_VERSION)
        + struct.pack(">I", ct.order)
        + struct.pack(">B", ct.m)
        + ct.nonce
        + struct.pack(">Q", len(ct.payload))
        + _symbol_bytes(ct.payload, ct.order)
        + struct.pack(">I", ct.plaintext_crc)
    )


def read_container(data: bytes) -> CipherContainer:
    if len(data) < len(CONTAINER_MAGIC):
        raise TruncatedFile("container shorter than magic")
    if data[:len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
        raise BadMagic("not a ciphertext container")
    pos = len(CONTAINER_MAGIC)
    fixed = struct.calcsize(">BIB") + NONCE_BYTES + 8
    if len(data) < pos + fixed:
        raise TruncatedFile("container truncated in header")
    version = data[pos]
    pos += 1
    if version != CONTAINER_VERSION:
        raise UnsupportedVersion(f"container version {version}")
    (order,) = struct.unpack(">I", data[pos:pos + 4])
    pos += 4
    if not 2 <= order <= MAX_ORDER:
        raise OutOfRange(f"container order {order} outside [2, {MAX_ORDER}]")
    m = data[pos]
    pos += 1
    if m < 1:
        raise LengthMismatch("block length m must be >= 1")
    nonce = data[pos:pos + NONCE_BYTES]
    pos += NONCE_BYTES
    (count,) = struct.unpack(">Q", data[pos:pos + 8])
    pos += 8
    width = symbol_dtype(order).itemsize
    total = pos + count * width + 4
    if len(data) < total:
        raise TruncatedFile(f"container needs {total} bytes, got {len(data)}")
    if len(data) > total:
        raise LengthMismatch(f"container has {len(data) - total} trailing bytes")
    payload = _symbols_from(memoryview(data)[pos:total - 4], order)
    if payload.size and payload.max() >= order:
        raise OutOfRange(f"payload symbol {payload.max()} >= order {order}")
    (crc,) = struct.unpack(">I", data[total - 4:total])
    return CipherContainer(order=order, m=m, nonce=nonce, payload=payload,
                           plaintext_crc=crc)
