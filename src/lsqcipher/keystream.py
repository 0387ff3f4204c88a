"""Deterministic keystream: uniform symbols over [0, n) from a ChaCha20 byte source.

The long-term 32-byte seed keys ChaCha20; a 12-byte per-message nonce gives
each message its own stream. Every symbol comes from one generator word in
the symbol wire format. Non-power-of-two orders use rejection sampling on
the words, so no symbol carries modulo bias; power-of-two orders mask, and
the orders that fill the word, 256 and 65536, pass raw words through.

The remainder of an accepted word is taken as `w - (w // n) * n`, not as
`w % n`: NumPy divides an integer array by a scalar in SIMD but computes
`%` with one hardware division per element, about 40 times slower on
`uint16` words. For unsigned words the two are equal, and `(w // n) * n`
never exceeds `w`, so nothing wraps.

Reads are exact: a reader draws from ChaCha20 only the words behind the
symbols it returns, and counts those bytes against a per-nonce cap of
BYTE_CAP ChaCha20 bytes.

Reads are also copy-free: ChaCha20 encrypts slices of one shared block of
zeros straight into the array a read returns, and the wire-to-native
byteswap, the power-of-two mask and rejection's compaction run in place on
it. At power-of-two orders a read allocates nothing but its result; at
other orders it also holds the scratch of one block of compaction at a
time, whatever its count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .errors import InvalidSpec, StreamExhausted
from .latin import MAX_ORDER, symbol_dtype, symbol_wire_dtype

SEED_BYTES = 32
NONCE_BYTES = 12

# ChaCha20's 32-bit block counter covers 2^32 blocks of 64 bytes (RFC 8439
# 2.3); past that the counter carries into the nonce, and the stream would
# overlap a neighbouring nonce's.
BYTE_CAP = 1 << 38

# ChaCha20 input for every read: its output is the keystream itself. Reads
# longer than this run in slices of it.
_ZEROS = memoryview(bytes(1 << 20))

# Words per step of rejection's compaction: the scratch a read holds beside
# its result.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class KeystreamSpec:
    """Everything that determines the blocks r_1, r_2, ...

    A (seed, nonce) pair must never be reused across messages under the same
    key; the CLI's nonce policy enforces this, the library documents it.
    """

    seed: bytes
    nonce: bytes
    m: int
    order: int

    def __post_init__(self):
        if len(self.seed) != SEED_BYTES:
            raise InvalidSpec(f"seed must be {SEED_BYTES} bytes, got {len(self.seed)}")
        if len(self.nonce) != NONCE_BYTES:
            raise InvalidSpec(f"nonce must be {NONCE_BYTES} bytes, got {len(self.nonce)}")
        if self.m < 1:
            raise InvalidSpec("block length m must be >= 1")
        if not 2 <= self.order <= MAX_ORDER:
            raise InvalidSpec(f"order must be in [2, {MAX_ORDER}], got {self.order}")


class KeystreamReader:
    """Sequential reader over the symbol stream of one KeystreamSpec.

    Reading k then k' symbols yields the same symbols as one read of k + k';
    blocking is purely a view on the flat stream. The reader keeps no
    buffer: `bytes_read` counts the ChaCha20 bytes drawn so far, which end
    just past the word of the last symbol returned. A read that would take
    it past BYTE_CAP raises StreamExhausted. `rejected` counts the words
    drawn and dropped by rejection sampling; it stays 0 at power-of-two
    orders.
    """

    def __init__(self, spec: KeystreamSpec):
        self.spec = spec
        self.bytes_read = 0
        self.rejected = 0
        # cryptography's ChaCha20 nonce is 16 bytes: 4-byte counter || nonce
        chacha = algorithms.ChaCha20(spec.seed, b"\x00" * 4 + spec.nonce)
        self._enc = Cipher(chacha, mode=None).encryptor()
        n = spec.order
        self._dtype = symbol_dtype(n)
        self._wire = symbol_wire_dtype(n)
        space = 1 << (8 * self._dtype.itemsize)
        # words at or above the largest multiple of n the word space holds
        # are rejected; at power-of-two orders that is the whole space
        self._limit = space - space % n

    def take(self, count: int) -> np.ndarray:
        """The next `count` symbols of the flat stream, in a fresh array.

        Each pass draws one word per missing symbol into the result's
        unfilled tail, so no word past the last returned symbol is ever
        drawn, and a read allocates its result plus, at rejection orders,
        the scratch of one compaction block at a time.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = np.empty(count, dtype=self._dtype)
        have = 0
        while have < count:
            have += self._fill(out[have:])
        return out

    def _fill(self, tail: np.ndarray) -> int:
        """Draw one word into each slot of `tail` and move its symbols to the front.

        Returns how many symbols the front of `tail` now holds. Rejection
        compacts one _BLOCK of words at a time: a block's accepted words are
        copied out before their symbols land at or before the block's start,
        and the quotient of the remainder goes into those symbols' own
        slots, so a pass's scratch is a block's mask and accepted words,
        whatever the length of `tail`.
        """
        nbytes = tail.nbytes
        if self.bytes_read + nbytes > BYTE_CAP:
            raise StreamExhausted(f"per-nonce cap of {BYTE_CAP} ChaCha20 bytes reached")
        self.bytes_read += nbytes
        out = tail.view(np.uint8)
        for lo in range(0, nbytes, len(_ZEROS)):
            hi = min(nbytes, lo + len(_ZEROS))
            self._enc.update_into(_ZEROS[:hi - lo], out[lo:hi])
        if self._wire != self._dtype:
            # Big-endian words on a little-endian host. A casting copy onto
            # itself swaps in place, several times faster than byteswap.
            np.copyto(tail, tail.view(self._wire))
        n = self.spec.order
        if self._limit == 1 << (8 * tail.itemsize):
            # a power-of-two order rejects nothing; the mask takes a word to
            # its symbol, except at the orders that fill the word (256, 65536)
            if n < self._limit:
                tail &= n - 1
            return len(tail)
        kept = 0
        for lo in range(0, len(tail), _BLOCK):
            words = tail[lo:lo + _BLOCK]
            accepted = words[words < self._limit]
            sym = tail[kept:kept + len(accepted)]
            np.floor_divide(accepted, n, out=sym)
            sym *= n
            np.subtract(accepted, sym, out=sym)
            kept += len(accepted)
        self.rejected += len(tail) - kept
        return kept

    def next_block(self) -> np.ndarray:
        """The next keystream block r_i of length m."""
        return self.take(self.spec.m)
