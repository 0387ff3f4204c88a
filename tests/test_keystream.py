import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from lsqcipher.errors import InvalidSpec, StreamExhausted
from lsqcipher.keystream import (
    _ZEROS,
    BYTE_CAP,
    KeystreamReader,
    KeystreamSpec,
)

from conftest import traced

SEED = bytes(range(32))
NONCE = b"\x07" * 12


def spec(order=256, m=4, seed=SEED, nonce=NONCE):
    return KeystreamSpec(seed=seed, nonce=nonce, m=m, order=order)


class TestSpecValidation:
    def test_bad_seed_length(self):
        with pytest.raises(InvalidSpec):
            spec(seed=b"short")

    def test_bad_nonce_length(self):
        with pytest.raises(InvalidSpec):
            spec(nonce=b"short")

    def test_zero_block_length(self):
        with pytest.raises(InvalidSpec):
            spec(m=0)

    @pytest.mark.parametrize("order", [0, 1, 65537])
    def test_bad_order(self, order):
        with pytest.raises(InvalidSpec):
            spec(order=order)


class TestDeterminism:
    @pytest.mark.parametrize("order", [2, 3, 200, 256, 1000])
    def test_same_spec_same_stream(self, order):
        a = KeystreamReader(spec(order=order)).take(4096)
        b = KeystreamReader(spec(order=order)).take(4096)
        assert np.array_equal(a, b)

    def test_blocking_is_a_view(self):
        flat = KeystreamReader(spec(m=1)).take(64)
        blocked = KeystreamReader(spec(m=4))
        got = np.concatenate([blocked.next_block() for _ in range(16)])
        assert np.array_equal(flat, got)

    @pytest.mark.parametrize("order, sizes", [
        (256, [1, 3, 96]),
        # reads that straddle the 64Ki-word compaction block and need refill
        # passes
        (200, [65535, 2 * 65536 + 3, 7]),
        (1000, [65535, 2 * 65536 + 3, 7]),
    ])
    def test_interleaved_reads_concatenate(self, order, sizes):
        whole = KeystreamReader(spec(order=order))
        one = whole.take(sum(sizes))
        other = KeystreamReader(spec(order=order))
        chunks = [other.take(k) for k in sizes]
        assert np.array_equal(one, np.concatenate(chunks))
        assert other.bytes_read == whole.bytes_read
        assert other.rejected == whole.rejected

    def test_nonce_separation(self, rng):
        for _ in range(100):
            n1, n2 = rng.bytes(12), rng.bytes(12)
            if n1 == n2:
                continue
            a = KeystreamReader(spec(nonce=n1)).take(64)
            b = KeystreamReader(spec(nonce=n2)).take(64)
            assert not np.array_equal(a, b)


class TestSymbolExtraction:
    def test_order_256_passes_raw_chacha_bytes(self):
        # independent oracle: the raw ChaCha20 keystream for this seed/nonce
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(b"\x00" * 512)
        got = KeystreamReader(spec(order=256)).take(512)
        assert got.tobytes() == raw

    @pytest.mark.parametrize("order", [2, 16, 1024])
    def test_power_of_two_masks_raw_bytes(self, order):
        wire = ">u1" if order <= 256 else ">u2"
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(b"\x00" * 1024)
        words = np.frombuffer(raw, dtype=wire)
        got = KeystreamReader(spec(order=order)).take(len(words))
        assert np.array_equal(got, words & (order - 1))

    def test_rejection_matches_scalar_oracle(self):
        # independent scalar re-implementation of the rejection rule
        n = 200
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(b"\x00" * (1 << 16))
        limit = 256 - 256 % n
        expected = [b % n for b in raw if b < limit][:1000]
        got = KeystreamReader(spec(order=n)).take(1000)
        assert got.tolist() == expected

    def test_symbols_in_range(self):
        for order in (2, 3, 5, 200, 300, 1000):
            sym = KeystreamReader(spec(order=order)).take(10_000)
            assert sym.min() >= 0
            assert int(sym.max()) < order

    def test_wide_symbols_use_two_byte_words(self):
        got = KeystreamReader(spec(order=65536)).take(256)
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(b"\x00" * 512)
        assert np.array_equal(got, np.frombuffer(raw, dtype=">u2"))

    def test_uniformity_5_sigma(self):
        n = 200
        count = 200_000
        sym = KeystreamReader(spec(order=n)).take(count)
        freq = np.bincount(sym, minlength=n)
        p = 1 / n
        sigma = np.sqrt(count * p * (1 - p))
        assert np.all(np.abs(freq - count * p) < 5 * sigma)


class TestRejectionOracle:
    """`take` against a scalar re-implementation of the rejection rule, at
    every word width, over reads that cross the reader's 1 MiB ChaCha20
    slices."""

    @pytest.mark.parametrize("order", [3, 200, 255, 300, 1000, 40000, 65535])
    def test_take_bytes_read_and_rejected_match_oracle(self, order):
        width = 1 if order <= 256 else 2
        space = 1 << (8 * width)
        limit = space - space % order  # at order 65535 only the word 65535 is rejected
        count = len(_ZEROS) // width + 1000  # the first pass alone crosses a slice
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(bytes(2 * count * width))
        words = [w for (w,) in struct.iter_unpack(">B" if width == 1 else ">H", raw)]
        accepted = [i for i, w in enumerate(words) if w < limit][:count]
        expected = [words[i] % order for i in accepted]
        used = accepted[-1] + 1

        reader = KeystreamReader(spec(order=order))
        got = reader.take(count)
        assert got.tolist() == expected
        assert reader.bytes_read == used * width
        assert reader.rejected == sum(w >= limit for w in words[:used])

    @pytest.mark.parametrize("order", [2, 16, 256, 1024, 65536])
    def test_power_of_two_rejects_nothing(self, order):
        reader = KeystreamReader(spec(order=order))
        reader.take(10_000)
        assert reader.rejected == 0


def test_negative_take_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        KeystreamReader(spec()).take(-1)


class TestExactReads:
    @pytest.mark.parametrize("order, width", [(200, 1), (256, 1), (300, 2)])
    def test_bytes_read_ends_at_last_accepted_word(self, order, width):
        # independent scalar rejection rule over the raw ChaCha20 words
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(b"\x00" * 4096)
        space = 1 << (8 * width)
        limit = space - space % order
        words = [int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width)]
        accepted = [i for i, w in enumerate(words) if w < limit]
        reader = KeystreamReader(spec(order=order))
        reader.take(100)
        assert reader.bytes_read == (accepted[99] + 1) * width


class TestCap:
    @pytest.mark.parametrize("order, width", [(256, 1), (512, 2)])
    def test_byte_cap_enforced(self, order, width):
        reader = KeystreamReader(spec(order=order))
        reader.bytes_read = BYTE_CAP - width
        reader.take(1)
        with pytest.raises(StreamExhausted):
            reader.take(1)
        assert reader.bytes_read == BYTE_CAP


class TestCopyFree:
    @pytest.mark.parametrize("order", [16, 256, 65536])
    def test_power_of_two_read_allocates_only_its_result(self, order):
        # 2 MiB of ChaCha20 output at order 65536 crosses the 1 MiB slices
        # the reader encrypts its zeros in.
        reader = KeystreamReader(spec(order=order))
        with traced() as probe:
            got = reader.take(1 << 20)
        assert probe.peak <= 1.1 * got.nbytes
        chacha = algorithms.ChaCha20(SEED, b"\x00" * 4 + NONCE)
        raw = Cipher(chacha, mode=None).encryptor().update(bytes(got.nbytes))
        words = np.frombuffer(raw, dtype=">u2" if order > 256 else np.uint8)
        assert np.array_equal(got, words & (order - 1))

    @pytest.mark.parametrize("order", [3, 200, 1000, 40000])
    def test_rejection_read_peak_is_bounded(self, order):
        # every pass draws into the result and compacts it one 64Ki-word
        # block at a time, so beside the result a read holds one block's
        # acceptance mask and at most two blocks' accepted words (1.11-1.19x)
        reader = KeystreamReader(spec(order=order))
        with traced() as probe:
            got = reader.take(1 << 20)
        assert probe.peak <= 1.3 * got.nbytes
