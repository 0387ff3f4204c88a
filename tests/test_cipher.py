import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqcipher import cipher
from lsqcipher.automaton import KeyAutomaton
from lsqcipher.cipher import CipherSession
from lsqcipher.codec import CipherContainer, read_container, write_container
from lsqcipher.errors import NonceReuse
from lsqcipher.keystream import KeystreamReader, KeystreamSpec
from lsqcipher.latin import LatinSquare, fold_left_div, fold_mul, symbol_dtype

from conftest import ForcedStream, random_automaton

SEED = bytes(range(32))
NONCE = b"\x01" * 12


def session(key, m=4, engine="fa", nonce=NONCE):
    return CipherSession(key, SEED, nonce, m, engine=engine)


def forced_session(key, symbols, m, engine="fa"):
    s = session(key, m=m, engine=engine)
    s.stream = ForcedStream(symbols)
    return s


class TestGoldenZ3:
    """The hand-computed fixture: Z_3 key, r = (2,0,1), p = 1 => c = 1."""

    def modular_oracle(self, p, block):
        # independent re-derivation: delta(a, x) = (a + x) mod 3
        state = p
        for x in block:
            state = (state + x) % 3
        return state

    def test_fa_encrypt(self, z3):
        s = forced_session(z3, (2, 0, 1), 3)
        assert s.encrypt_message([1])[0] == z3.last_state(1, (2, 0, 1)) == 1
        assert self.modular_oracle(1, (2, 0, 1)) == 1

    def test_fa_decrypt(self, z3):
        s = forced_session(z3, (2, 0, 1), 3)
        assert s.decrypt_message([1])[0] == z3.invert().last_state(1, (1, 0, 2)) == 1

    def test_qg_encrypt(self, z3, z3_q):
        s = forced_session(z3, (2, 0, 1), 3, engine="qg")
        assert s.encrypt_message([1])[0] == fold_mul(z3_q, (2, 0, 1), 1) == 1

    def test_qg_decrypt(self, z3, z3_q):
        s = forced_session(z3, (2, 0, 1), 3, engine="qg")
        assert s.decrypt_message([1])[0] == fold_left_div(z3_q, (2, 0, 1), 1) == 1

    def test_message_level(self, z3):
        enc = forced_session(z3, (2, 0, 1), 3)
        assert enc.encrypt_message([1]).tolist() == [1]
        dec = forced_session(z3, (2, 0, 1), 3)
        assert dec.decrypt_message([1]).tolist() == [1]

    def test_oracle_agrees_everywhere(self, z3):
        for p in range(3):
            s = forced_session(z3, (2, 0, 1), 3)
            assert s.encrypt_message([p])[0] == self.modular_oracle(p, (2, 0, 1))


class TestSymbolKernels:
    def test_m1_is_single_step(self, key256, rng):
        for _ in range(50):
            k = int(rng.integers(0, 256))
            p = int(rng.integers(0, 256))
            s = forced_session(key256, [k], 1)
            assert s.encrypt_message([p])[0] == key256.step(p, k)
            s = forced_session(key256, [k], 1)
            assert s.decrypt_message([key256.step(p, k)])[0] == p

    def test_m1_qg_is_single_mul(self, key256, rng):
        q = key256.quasigroup()
        for _ in range(50):
            k = int(rng.integers(0, 256))
            p = int(rng.integers(0, 256))
            s = forced_session(key256, [k], 1, engine="qg")
            assert s.encrypt_message([p])[0] == fold_mul(q, [k], p) == q.mul(k, p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fixed_block_is_bijection(self, n, rng):
        key = random_automaton(n)
        block = rng.integers(0, n, 4).tolist()
        images = set()
        for p in range(n):
            s = forced_session(key, block, 4)
            images.add(s.encrypt_message([p])[0])
        assert images == set(range(n))


class TestMessages:
    @pytest.mark.parametrize("engine", ["fa", "qg"])
    def test_empty_message(self, key256, engine):
        assert len(session(key256, engine=engine).encrypt_message(b"")) == 0
        assert len(session(key256, engine=engine).decrypt_message(b"")) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 256])
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_roundtrip(self, n, m, rng):
        key = random_automaton(n)
        for _ in range(10):
            msg = rng.integers(0, n, rng.integers(0, 200))
            nonce = rng.bytes(12)
            ct = CipherSession(key, SEED, nonce, m).encrypt_message(msg)
            pt = CipherSession(key, SEED, nonce, m).decrypt_message(ct)
            assert np.array_equal(pt, msg)

    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_engine_equivalence(self, key256, m, rng):
        msg = rng.integers(0, 256, 500, dtype=np.uint8)
        nonce = rng.bytes(12)
        fa = CipherSession(key256, SEED, nonce, m).encrypt_message(msg)
        qg = CipherSession(key256, SEED, nonce, m, engine="qg").encrypt_message(msg)
        assert np.array_equal(fa, qg)
        fa_pt = CipherSession(key256, SEED, nonce, m).decrypt_message(fa)
        qg_pt = CipherSession(key256, SEED, nonce, m, engine="qg").decrypt_message(fa)
        assert np.array_equal(fa_pt, msg)
        assert np.array_equal(qg_pt, msg)

    def test_length_preserved(self, key256, rng):
        msg = rng.integers(0, 256, 12345, dtype=np.uint8)
        assert len(session(key256).encrypt_message(msg)) == len(msg)

    def test_megabyte_roundtrip(self, key256, rng):
        msg = rng.integers(0, 256, 1_000_000, dtype=np.uint8)
        ct = session(key256).encrypt_message(msg)
        assert np.array_equal(session(key256).decrypt_message(ct), msg)

    def test_message_matches_symbolwise(self, key256, rng):
        msg = rng.integers(0, 256, 40).tolist()
        whole = session(key256, m=4).encrypt_message(msg)
        one_by_one = session(key256, m=4)
        got = [one_by_one.encrypt_message([p], final=False)[0] for p in msg]
        assert whole.tolist() == got

    def test_m1_fast_path_matches_general(self, key256, rng):
        # one m=1 call equals the same message sent one symbol per part
        msg = rng.integers(0, 256, 100).tolist()
        whole = session(key256, m=1).encrypt_message(msg)
        per = session(key256, m=1)
        assert whole.tolist() == [per.encrypt_message([p], final=False)[0] for p in msg]

    def test_nonce_reuse_rejected(self, key256):
        s = session(key256)
        s.encrypt_message(b"one")
        with pytest.raises(NonceReuse):
            s.encrypt_message(b"two")
        s = session(key256)
        s.decrypt_message(b"one")
        with pytest.raises(NonceReuse):
            s.decrypt_message(b"two")

    def test_no_part_after_a_final_part(self, key256):
        for first, then in [("encrypt", "encrypt"), ("encrypt", "decrypt"),
                            ("decrypt", "decrypt"), ("decrypt", "encrypt")]:
            s = session(key256)
            getattr(s, f"{first}_message")(b"one")
            with pytest.raises(NonceReuse):
                getattr(s, f"{then}_message")(b"two", final=False)

    def test_open_message_keeps_its_direction(self, key256):
        s = session(key256)
        s.encrypt_message(b"one", final=False)
        with pytest.raises(NonceReuse):
            s.decrypt_message(b"two")
        s.encrypt_message(b"two")
        s = session(key256)
        s.decrypt_message(b"one", final=False)
        with pytest.raises(NonceReuse):
            s.encrypt_message(b"two", final=False)

    def test_out_of_range_symbols_rejected(self, z3):
        with pytest.raises(ValueError):
            session(z3).encrypt_message([0, 1, 3])

    @pytest.mark.parametrize("message", [np.array([0, -1], dtype=np.int8),
                                         np.array([0, 256], dtype=np.uint16)])
    def test_wider_or_signed_dtype_is_range_checked(self, key256, message):
        # only an unsigned dtype whose maximum is below the order skips the scan
        with pytest.raises(ValueError, match="integers"):
            session(key256).encrypt_message(message)
        with pytest.raises(ValueError, match="integers"):
            session(key256).decrypt_message(message)

    @pytest.mark.parametrize("message", [np.zeros((2, 3), dtype=np.uint8), [[0, 1], [1, 0]],
                                         np.uint8(3), np.zeros(0, dtype=np.uint8)[None],
                                         5, (s for s in (0, 1))])
    def test_message_not_1d_rejected(self, key256, message):
        # a 2-D array would broadcast against the keystream; a scalar, and an
        # iterator, which is not a sequence, convert to a 0-D array
        with pytest.raises(ValueError, match="1-D"):
            session(key256).encrypt_message(message)
        with pytest.raises(ValueError, match="1-D"):
            session(key256).decrypt_message(message)

    @pytest.mark.parametrize("message", [np.array([1.5, 2.9]), [1.5, 2.9]])
    def test_non_integer_symbols_rejected(self, key256, message):
        # a cast would truncate them to [1, 2] and encrypt that instead
        with pytest.raises(ValueError, match="integers"):
            session(key256).encrypt_message(message)
        with pytest.raises(ValueError, match="integers"):
            session(key256).decrypt_message(message)

    def test_one_inverse_table_per_key(self, rng, monkeypatch):
        key = random_automaton(20)
        s = session(key, engine="qg")
        s.encrypt_message(rng.integers(0, 20, 50))
        q = key.quasigroup()
        assert key.invert().delta.entries is q.cayley.row_inverse().entries
        tables = []
        chain = cipher._chain

        def spy(table, *args):
            tables.append(table)
            return chain(table, *args)
        monkeypatch.setattr(cipher, "_chain", spy)
        session(key).decrypt_message(rng.integers(0, 20, 50))
        assert len(tables) == 1 and tables[0] is q.cayley.row_inverse().entries
        assert q.left_inverse().cayley is key.invert().delta
        q.right_div(0, 1)

    def test_bad_engine_name(self, key256):
        with pytest.raises(ValueError):
            CipherSession(key256, SEED, NONCE, 4, engine="nope")


class TestScalarOracles:
    """The message kernel against the scalar FA and QG paths, block by block."""

    @pytest.mark.parametrize("n", [2, 3, 5, 200, 256, 300])
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_message_matches_scalar_oracles(self, n, m, rng):
        key = random_automaton(n)
        q = key.quasigroup()
        inv = key.invert()
        msg = rng.integers(0, n, 64)
        ct = CipherSession(key, SEED, NONCE, m).encrypt_message(msg)
        stream = KeystreamReader(KeystreamSpec(seed=SEED, nonce=NONCE, m=m, order=n))
        for p, c in zip(msg.tolist(), ct.tolist()):
            block = stream.next_block()
            assert c == key.last_state(p, block) == fold_mul(q, block, p)
            assert inv.last_state(c, block[::-1]) == fold_left_div(q, block, c) == p
        pt = CipherSession(key, SEED, NONCE, m).decrypt_message(ct)
        assert pt.tolist() == msg.tolist()


# SHA-256 of encrypt_message output (big-endian symbols) for a fixed key,
# keystream seed, nonce and message; ciphertexts must not change.
GOLDEN_SHA256 = {
    (3, 1): "1a621baba6285c9359336492c04cd0b2cba886c09bd41a3c0a654ee51217241c",
    (3, 4): "3c5735d5ba02ff683ec1e7d1203b6754a923b759afa0bc6c1313de5c936724e2",
    (200, 1): "67c624860c4efce76d01fcd9a010674ec49103ae75a01a0babb16a7c37c77be5",
    (200, 4): "62d0acb9e375fffcb52ee367f8327cf45094b6d0bece44fc5b31d9e7894560f5",
    (256, 1): "f9e6d9ed6f6bb0c4b175adf9e98a2cab4ed3c45dc01964ce1bbdba3529a12ab0",
    (256, 4): "10f90d999cd1536ad7eb184524c6e58eca5208b7b34fdce88e2289cc6d008747",
    (300, 1): "ef1cde1ea915908398515b78d8dc728085c3d27a1f374fc1a8368ead549481d4",
    (300, 4): "8e376365f1a52c743cc905f87b6ae960ba8ad14b9a7570c21e6fec7a135ae356",
}


@pytest.mark.parametrize("n, m", sorted(GOLDEN_SHA256))
@pytest.mark.parametrize("engine", ["fa", "qg"])
def test_golden_ciphertext(n, m, engine):
    key = random_automaton(n, seed=b"golden-vector-key")
    msg = np.random.default_rng(2022).integers(0, n, 1000)
    ct = CipherSession(key, SEED, NONCE, m, engine=engine).encrypt_message(msg)
    assert ct.dtype == symbol_dtype(n)
    digest = hashlib.sha256(ct.astype(">u2" if n > 256 else np.uint8).tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256[(n, m)]


# As GOLDEN_SHA256, for messages of 2 * 65536 + 3 symbols: long enough to
# cross every boundary of a kernel that works in chunks of up to 64Ki symbols.
LONG_LEN = 2 * 65536 + 3
LONG_SHA256 = {
    (5, 1): "7ecdfd7cf558833e349a0e0d3e24684762b812b00ee2fa64dc538ecb9d8597e0",
    (5, 3): "68449cbc2c9032860949d02575fb6c878389b355e87ff440090863c70499d0b5",
    (256, 1): "46123b19910d630bba7be5a10ba29bd4d35cd373bfd71aa76f0a719faadb7ebe",
    (256, 3): "90c71b54286c41f5904a1ecf4f50570278f9d330a9d0b60be925488612ab52c3",
    (300, 1): "4d39b0c3cb2efdb3b9dc4c67704b116f5187bc507971da7e566bd08219dd2350",
    (300, 3): "3921d23a348894c9873ddae69e8fa0211d53f56a412cd6a2bcc312ac48deb7c8",
}


@pytest.mark.parametrize("n, m", sorted(LONG_SHA256))
@pytest.mark.parametrize("engine", ["fa", "qg"])
def test_golden_ciphertext_across_chunks(n, m, engine):
    key = random_automaton(n, seed=b"golden-vector-key")
    q = key.quasigroup()
    msg = np.random.default_rng(2022).integers(0, n, LONG_LEN)
    ct = CipherSession(key, SEED, NONCE, m, engine=engine).encrypt_message(msg)
    assert ct.dtype == symbol_dtype(n)
    digest = hashlib.sha256(ct.astype(">u2" if n > 256 else np.uint8).tobytes())
    assert digest.hexdigest() == LONG_SHA256[(n, m)]
    for i in (65535, 65536, LONG_LEN - 1):
        stream = KeystreamReader(KeystreamSpec(seed=SEED, nonce=NONCE, m=m, order=n))
        stream.take(i * m)
        block = stream.next_block()
        p = int(msg[i])
        assert ct[i] == key.last_state(p, block) == fold_mul(q, block, p)
    pt = CipherSession(key, SEED, NONCE, m, engine=engine).decrypt_message(ct)
    assert np.array_equal(pt, msg)


@pytest.mark.parametrize("n", [256, 1000])
def test_working_memory_independent_of_length(n):
    # tracemalloc sees numpy buffers; the peak minus the output is the
    # kernel's working memory, which must not scale with the message.
    key = random_automaton(n)
    rng = np.random.default_rng(7)
    extra = []
    for length in (1 << 20, 4 << 20):
        msg = rng.integers(0, n, length).astype(symbol_dtype(n))
        s = CipherSession(key, SEED, NONCE, 16)
        tracemalloc.start()
        try:
            ct = s.encrypt_message(msg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - ct.nbytes)
    assert abs(extra[1] - extra[0]) < 1 << 20
    assert max(extra) < 16 << 20


def test_fortran_order_key_costs_no_table_copy():
    # The square holds a Fortran-order table in C order, so the kernel's
    # flat view of it copies nothing: a copy of this order-1000 table
    # would read 2,000,000 bytes.
    n = 1000
    square = random_automaton(n).delta
    key = KeyAutomaton(n, LatinSquare(n, np.asfortranarray(square.entries)))
    assert key.delta == square
    s = CipherSession(key, SEED, NONCE, 4)
    tracemalloc.start()
    try:
        s.encrypt_message(np.arange(100, dtype=np.uint16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


@pytest.mark.parametrize("m, length", [(16, 1 << 20), (500, 1 << 16)])
def test_kernel_holds_one_chunk_of_blocks(key256, m, length):
    # At order 256 a chunk's keystream and its (m, c) copy are at most
    # 1 MiB each, and with the index buffer the kernel's working memory
    # reads about 2.1 MiB; keeping the last chunk's copy alive while the
    # next one is made reads about 3.1 MiB. A chunk of 65536 symbols at
    # m=500 would read about 62 MiB.
    msg = np.random.default_rng(7).integers(0, 256, length).astype(np.uint8)
    s = CipherSession(key256, SEED, NONCE, m)
    tracemalloc.start()
    try:
        ct = s.encrypt_message(msg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - ct.nbytes < 2.5 * (1 << 20), (peak - ct.nbytes) / (1 << 20)


@pytest.mark.parametrize("n", [5, 256, 300, 1000])
@pytest.mark.parametrize("bad", ["n", -1])
@pytest.mark.parametrize("reverse", [False, True])
def test_keystream_symbol_outside_order_refused(n, bad, reverse):
    # Every flat index k * n + s must stay below n * n for the clip-mode
    # gather. At order 256, k = 256 or -1 would wrap inside the uint16 index
    # and give output; at the other orders NumPy would raise IndexError.
    bad = n if bad == "n" else bad
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    table = table.astype(symbol_dtype(n))
    m, start = 3, np.arange(4) % n
    stream = [1] * (len(start) * m)
    stream[7] = bad
    with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
        cipher._chain(table, start, ForcedStream(stream), m, reverse)


@pytest.mark.parametrize("method", ["encrypt_message", "decrypt_message"])
@pytest.mark.parametrize("m", [1, 3])
def test_caller_symbols_read_in_place_and_never_written(key256, method, m):
    # The kernel's first round reads the caller's array in place, across two
    # chunks here: a read-only or an int64 array gives the bytes of the
    # uint8 array and comes back as it was.
    msg = np.random.default_rng(11).integers(0, 256, 65536 + 3).astype(np.uint8)
    want = getattr(session(key256, m=m), method)(msg)
    for given in (np.frombuffer(msg.tobytes(), dtype=np.uint8), msg.astype(np.int64), msg):
        saved = given.copy()
        got = getattr(session(key256, m=m), method)(given)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(given, saved)


@pytest.mark.parametrize("method", ["encrypt_message", "decrypt_message"])
@pytest.mark.parametrize("form", ["ndarray", "bytes", "bytearray"])
def test_message_reaches_the_kernel_as_the_callers_buffer(key256, monkeypatch, method, form):
    # An array or a byte string is converted without a copy, in one call
    # and in final=False parts alike: the kernel's start symbols are the
    # caller's own buffer.
    data = np.random.default_rng(12).integers(0, 256, 1000).astype(np.uint8)
    wrap = {"ndarray": lambda a: a, "bytes": lambda a: a.tobytes(),
            "bytearray": lambda a: bytearray(a.tobytes())}[form]
    starts = []
    chain = cipher._chain

    def spy(table, start, *args):
        starts.append(start)
        return chain(table, start, *args)
    monkeypatch.setattr(cipher, "_chain", spy)
    whole = wrap(data)
    getattr(session(key256), method)(whole)
    parts = [wrap(data[:300]), wrap(data[300:])]
    process = getattr(session(key256), method)
    process(parts[0], final=False)
    process(parts[1])
    assert len(starts) == 3
    for given, start in zip([whole, *parts], starts):
        assert np.shares_memory(start, np.frombuffer(given, dtype=np.uint8))


@pytest.fixture(scope="module")
def out_keys():
    return {n: random_automaton(n) for n in (256, 1000)}


@pytest.mark.parametrize("n", [256, 1000])
@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("method", ["encrypt_message", "decrypt_message"])
@pytest.mark.parametrize("into", ["message", "view", "buffer"])
@pytest.mark.parametrize("cuts", [(), (65531, 100000)])
def test_out_gives_the_fresh_array_result(out_keys, n, m, method, into, cuts):
    # `out` is the message array itself, a second view of its memory or a
    # separate buffer, in one call or in final=False parts that cross the
    # kernel's 64Ki-symbol chunks; each gives the fresh array's symbols.
    key = out_keys[n]
    msg = np.random.default_rng(n + m).integers(0, n, LONG_LEN).astype(symbol_dtype(n))
    want = getattr(CipherSession(key, SEED, NONCE, m), method)(msg)
    process = getattr(CipherSession(key, SEED, NONCE, m), method)
    given = msg.copy()
    buf = np.zeros_like(given) if into == "buffer" else given
    bounds = [0, *cuts, LONG_LEN]
    for lo, hi in zip(bounds, bounds[1:]):
        part = given[lo:hi]
        out = {"message": part, "view": part[:], "buffer": buf[lo:hi]}[into]
        assert process(part, final=hi == LONG_LEN, out=out) is out
    assert np.array_equal(buf, want)
    if into == "buffer":
        assert np.array_equal(given, msg)


@pytest.mark.parametrize("method", ["encrypt_message", "decrypt_message"])
@pytest.mark.parametrize("bad", ["list", "dtype", "length", "2-D", "read-only", "overlap"])
def test_bad_out_refused_before_any_keystream(key256, method, bad):
    buf = np.random.default_rng(13).integers(0, 256, 1001).astype(np.uint8)
    msg = buf[:1000]
    out = {
        "list": lambda: [0] * 1000,
        "dtype": lambda: np.empty(1000, dtype=np.uint16),
        "length": lambda: np.empty(999, dtype=np.uint8),
        "2-D": lambda: np.empty((1000, 1), dtype=np.uint8),
        "read-only": lambda: np.frombuffer(bytes(1000), dtype=np.uint8),
        "overlap": lambda: buf[1:],
    }[bad]()
    saved = buf.copy()
    s = session(key256)
    with pytest.raises(ValueError, match="^out must"):
        getattr(s, method)(msg, out=out)
    assert s.stream.bytes_read == 0
    assert np.array_equal(buf, saved)
    # the refused call left the session as it was: it takes the message
    want = getattr(session(key256), method)(msg)
    assert np.array_equal(getattr(s, method)(msg), want)


def _order_1000_container(key, msg):
    ct = session(key).encrypt_message(msg)
    return write_container(CipherContainer(order=1000, m=4, nonce=NONCE, payload=ct,
                                           plaintext_crc=0))


@pytest.mark.parametrize("into", [None, "buffer"])
@pytest.mark.parametrize("cuts", [(), (65531, 131072)])
def test_wire_order_payload_decrypts(out_keys, into, cuts):
    # above order 256 read_container's payload is a big-endian view of the
    # container bytes; a session decrypts it as it is, in one call or in
    # final=False parts across the 64Ki-symbol chunks, into a fresh array
    # or a separate native buffer
    key = out_keys[1000]
    msg = np.random.default_rng(28).integers(0, 1000, LONG_LEN).astype(np.uint16)
    payload = read_container(_order_1000_container(key, msg)).payload
    assert payload.dtype == np.dtype(">u2")
    process = session(key).decrypt_message
    buf = np.zeros(LONG_LEN, dtype=np.uint16) if into == "buffer" else None
    bounds = [0, *cuts, LONG_LEN]
    back = []
    for lo, hi in zip(bounds, bounds[1:]):
        out = None if buf is None else buf[lo:hi]
        back.append(process(payload[lo:hi], final=hi == LONG_LEN, out=out))
        assert out is None or back[-1] is out
    assert np.array_equal(np.concatenate(back), msg)
    assert buf is None or np.array_equal(buf, msg)


def test_wire_order_payload_refused_as_out(out_keys):
    # a wire-order view of read-only bytes is neither native nor writable
    key = out_keys[1000]
    msg = np.random.default_rng(28).integers(0, 1000, LONG_LEN).astype(np.uint16)
    payload = read_container(bytes(_order_1000_container(key, msg))).payload
    s = session(key)
    with pytest.raises(ValueError, match="^out must"):
        s.decrypt_message(payload, out=payload)
    assert s.stream.bytes_read == 0
    assert np.array_equal(s.decrypt_message(payload), msg)


@given(msg=st.binary(max_size=300), m=st.integers(1, 8),
       nonce=st.binary(min_size=12, max_size=12),
       engine=st.sampled_from(["fa", "qg"]))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(key256_global, msg, m, nonce, engine):
    key = key256_global
    ct = CipherSession(key, SEED, nonce, m, engine=engine).encrypt_message(msg)
    pt = CipherSession(key, SEED, nonce, m, engine=engine).decrypt_message(ct)
    assert pt.tobytes() == msg


@pytest.fixture(scope="module")
def key256_global():
    return random_automaton(256)


@pytest.fixture(scope="module")
def split_keys():
    return {n: random_automaton(n) for n in (5, 256, 300)}


def _in_parts(process, message, cuts):
    """Run `message` through `process` as final=False parts split at `cuts`,
    then one final part."""
    parts = np.split(message, sorted(cuts))
    out = [process(p, final=False) for p in parts[:-1]] + [process(parts[-1])]
    return np.concatenate(out)


@given(data=st.data(), n=st.sampled_from([5, 256, 300]), m=st.sampled_from([1, 3]))
@settings(max_examples=80, deadline=None)
def test_any_split_gives_the_same_bytes(split_keys, data, n, m):
    key = split_keys[n]
    msg = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=300)),
                   dtype=symbol_dtype(n))
    cut = st.lists(st.integers(0, len(msg)), max_size=6)
    whole = CipherSession(key, SEED, NONCE, m).encrypt_message(msg)
    parts = _in_parts(CipherSession(key, SEED, NONCE, m).encrypt_message, msg, data.draw(cut))
    assert parts.dtype == whole.dtype and parts.tobytes() == whole.tobytes()
    plain = CipherSession(key, SEED, NONCE, m).decrypt_message(whole)
    back = _in_parts(CipherSession(key, SEED, NONCE, m).decrypt_message, whole, data.draw(cut))
    assert back.tobytes() == plain.tobytes() == msg.tobytes()
