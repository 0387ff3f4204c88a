"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
"""

import itertools
import os
import statistics
import struct
import time
import zlib

import numpy as np
import pytest

from lsqcipher.automaton import KeyAutomaton, reverse_run
from lsqcipher.cipher import CipherSession
from lsqcipher.classical import LeaderCipher, attack_decrypt, known_plaintext_learn
from lsqcipher.codec import (
    CipherContainer,
    KeyFile,
    read_container,
    read_key,
    write_container,
    write_key,
)
from lsqcipher.errors import (
    BadChecksum,
    BadMagic,
    InconsistentPairs,
    LengthMismatch,
    NotLatin,
    TruncatedFile,
    UnsupportedVersion,
)
from lsqcipher.keystream import KeystreamReader, KeystreamSpec
from lsqcipher.latin import Quasigroup, fold_left_div, fold_mul, generate_latin, validate_latin

SEED = bytes(range(32))

ORDERS = (2, 3, 5, 256)
BLOCKS = (1, 2, 4, 16)


def report(num, ok, desc):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def automaton(n, seed=b"acceptance"):
    sq = generate_latin(n, seed)
    return KeyAutomaton(sq.order, sq)


@pytest.fixture(scope="module")
def keys():
    return {n: automaton(n) for n in ORDERS}


def test_criterion_1_roundtrip(keys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    ok = True
    for n, m in itertools.product(ORDERS, BLOCKS):
        key = keys[n]
        for _ in range(1000):
            msg = rng.integers(0, n, rng.integers(0, 1025))
            nonce = rng.bytes(12)
            ct = CipherSession(key, SEED, nonce, m).encrypt_message(msg)
            pt = CipherSession(key, SEED, nonce, m).decrypt_message(ct)
            if not np.array_equal(pt, msg):
                ok = False
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 30,
           f"decrypt(encrypt(p)) = p for n in {ORDERS}, m in {BLOCKS}, "
           f"1000 msgs each ({elapsed:.1f}s)")


def test_criterion_2_engine_equivalence(keys):
    # The paper's claim: the ciphertext symbol is both the automaton's last
    # state on block r_i from state p_i and the quasigroup fold of r_i over
    # p_i. Both scalar readings check the kernel at the first, the last and
    # one random position of each message.
    rng = np.random.default_rng(2)
    ok = True
    for n, m in itertools.product(ORDERS, BLOCKS):
        key = keys[n]
        q = key.quasigroup()
        for _ in range(1000):
            msg = rng.integers(0, n, rng.integers(0, 1025))
            nonce = rng.bytes(12)
            ct = CipherSession(key, SEED, nonce, m).encrypt_message(msg)
            if not len(msg):
                continue
            spec = KeystreamSpec(seed=SEED, nonce=nonce, m=m, order=n)
            blocks = KeystreamReader(spec).take(len(msg) * m).reshape(-1, m)
            for i in (0, len(msg) - 1, int(rng.integers(len(msg)))):
                p, block = int(msg[i]), blocks[i].tolist()
                ok = ok and key.last_state(p, block) == fold_mul(q, block, p) == ct[i]
    report(2, ok, "FA-form and QG-form ciphertexts symbol-identical on all configs")


def test_criterion_3_inverse_automaton(keys):
    start = time.perf_counter()
    ok = True
    # exhaustive uniqueness for n <= 5: the defining equation forces each entry
    for n in (2, 3, 4, 5):
        aut = automaton(n, b"inv")
        inv = aut.invert()
        for b in range(n):
            for c in range(n):
                sols = [a for a in range(n) if aut.step(a, b) == c]
                ok = ok and len(sols) == 1 and inv.step(c, b) == sols[0]
    for n in ORDERS:
        aut = keys[n]
        inv = aut.invert()
        try:
            validate_latin(inv.delta.entries)
        except Exception:
            ok = False
        ok = ok and inv.invert().delta == aut.delta
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 5,
           f"inverse uniqueness (n<=5), double inverse, Latin inverse ({elapsed:.1f}s)")


def test_criterion_4_trajectory_reversal(keys):
    rng = np.random.default_rng(4)
    ok = True
    key = keys[256]
    inv = key.invert()
    for _ in range(10_000):
        w = rng.integers(0, 256, rng.integers(1, 65)).tolist()
        a = int(rng.integers(0, 256))
        states = key.run(a, w)
        back = inv.run(states[-1], list(reversed(w)))
        ok = ok and back == tuple(reversed(states[:-1])) + (a,)
        ok = ok and reverse_run(inv, states[-1], w) == a
    z3 = keys[3]
    z3i = z3.invert()
    for a in range(3):
        for length in range(1, 5):
            for w in itertools.product(range(3), repeat=length):
                states = z3.run(a, w)
                back = z3i.run(states[-1], tuple(reversed(w)))
                ok = ok and back == tuple(reversed(states[:-1])) + (a,)
    report(4, ok, "full trajectory reversal and last-state roundtrip")


def test_criterion_5_chain_inversion(keys):
    ok = True
    for n in range(2, 9):
        q = Quasigroup(generate_latin(n, b"chain"))
        for length in range(1, 4):
            for ks in itertools.product(range(n), repeat=length):
                for p in range(n):
                    ok = ok and fold_left_div(q, ks, fold_mul(q, ks, p)) == p
    rng = np.random.default_rng(5)
    q = keys[256].quasigroup()
    for _ in range(10_000):
        ks = rng.integers(0, 256, rng.integers(1, 33)).tolist()
        p = int(rng.integers(0, 256))
        ok = ok and fold_left_div(q, ks, fold_mul(q, ks, p)) == p
    report(5, ok, "fold_left_div inverts fold_mul (exhaustive n<=8, 10^4 at n=256)")


def test_criterion_6_hand_computed_fixture():
    table = [[(x + a) % 3 for a in range(3)] for x in range(3)]
    key = KeyAutomaton.from_table(table)

    def oracle(start, word):
        state = start
        for x in word:
            state = (state + x) % 3
        return state

    r = (2, 0, 1)
    c = key.last_state(1, r)
    ok = c == 1 == oracle(1, r)

    def inverse_oracle(start, word):
        state = start
        for x in word:
            state = (state - x) % 3
        return state

    p = reverse_run(key.invert(), c, r)
    ok = ok and p == 1 == inverse_oracle(c, tuple(reversed(r)))
    q = key.quasigroup()
    ok = ok and fold_mul(q, r, 1) == 1 and fold_left_div(q, r, 1) == 1
    report(6, ok, "Z_3 worked example pinned against the modular oracle")


def test_criterion_7_classical_cipher():
    ok = True
    for n in (2, 3, 4):
        q = Quasigroup(generate_latin(n, b"cls"))
        for leader in range(n):
            lc = LeaderCipher(q, leader)
            for length in range(0, 4):
                for msg in itertools.product(range(n), repeat=length):
                    ok = ok and lc.decrypt(lc.encrypt(list(msg))) == list(msg)

    rng = np.random.default_rng(7)
    n = 16
    lc = LeaderCipher(Quasigroup(generate_latin(n, b"attack")), int(rng.integers(n)))
    pairs = []
    for _ in range(200):
        p = rng.integers(0, n, 64).tolist()
        pairs.append((p, lc.encrypt(p)))
    know = known_plaintext_learn(n, pairs)
    held_out = rng.integers(0, n, 64).tolist()
    guess = attack_decrypt(know, lc.encrypt(held_out))
    accuracy = sum(g == t for g, t in zip(guess, held_out)) / 64
    ok = ok and accuracy >= 0.99

    key = automaton(4, b"contrast")
    transcripts = []
    for i in range(8):
        msg = [0] * 8
        ct = CipherSession(key, SEED, bytes([i]) * 12, 4).encrypt_message(msg)
        transcripts.append((msg, ct.tolist()))
    try:
        known_plaintext_learn(4, transcripts)
        contrast = False
    except InconsistentPairs:
        contrast = True
    report(7, ok and contrast,
           f"leader-cipher roundtrip, {accuracy:.1%} attack recovery, "
           "keystream transcripts inconsistent")


def test_criterion_8_keystream_quality():
    n = 200
    spec = KeystreamSpec(seed=SEED, nonce=b"\x08" * 12, m=1, order=n)
    a = KeystreamReader(spec).take(1_000_000)
    b = KeystreamReader(spec).take(1_000_000)
    ok = np.array_equal(a, b)
    freq = np.bincount(a, minlength=n)
    p = 1 / n
    sigma = np.sqrt(1_000_000 * p * (1 - p))
    ok = ok and bool(np.all(np.abs(freq - 1_000_000 * p) < 5 * sigma))
    blocked = KeystreamReader(KeystreamSpec(seed=SEED, nonce=b"\x08" * 12, m=7, order=n))
    view = np.concatenate([blocked.next_block() for _ in range(100)])
    ok = ok and np.array_equal(view, a[:700])
    report(8, ok, "keystream determinism, 5-sigma uniformity at n=200, blocking neutrality")


def test_criterion_9_formats():
    ok = True
    # byte-width-1 key golden
    z3 = KeyAutomaton.from_table([[(x + a) % 3 for a in range(3)] for x in range(3)])
    body = b"LSQKEY\x00\x01" + struct.pack(">I", 3) + SEED + bytes(
        [0, 1, 2, 1, 2, 0, 2, 0, 1])
    golden = body + struct.pack(">I", zlib.crc32(body))
    blob = write_key(KeyFile(key=z3, seed=SEED))
    ok = ok and blob == golden and write_key(read_key(blob)) == blob
    # width-2 key roundtrip
    wide = automaton(300, b"wide")
    wide_blob = write_key(KeyFile(key=wide, seed=SEED))
    ok = ok and read_key(wide_blob).key.delta == wide.delta
    # n=256 size pin
    ok = ok and len(write_key(KeyFile(key=automaton(256), seed=SEED))) == 65584
    # container goldens, both widths
    nonce = bytes(range(12))
    ct1 = CipherContainer(order=256, m=4, nonce=nonce,
                          payload=np.array([1, 2, 3], dtype=np.uint8),
                          plaintext_crc=0x01020304)
    golden_ct = (b"LSQCT\x00\x00\x01" + b"\x01" + struct.pack(">I", 256) + b"\x04"
                 + nonce + struct.pack(">Q", 3) + bytes([1, 2, 3]) + b"\x01\x02\x03\x04")
    ok = ok and write_container(ct1) == golden_ct
    ct2 = CipherContainer(order=300, m=1, nonce=nonce,
                          payload=np.array([299, 0], dtype=np.uint16), plaintext_crc=0)
    parsed = read_container(write_container(ct2))
    ok = ok and np.array_equal(parsed.payload, ct2.payload)
    # each distinct corruption error
    corrupt = bytearray(blob); corrupt[0] ^= 1
    ok = ok and _raises(BadMagic, read_key, bytes(corrupt))
    corrupt = bytearray(blob); corrupt[-1] ^= 1
    ok = ok and _raises(BadChecksum, read_key, bytes(corrupt))
    corrupt = bytearray(blob); corrupt[44] = corrupt[45]
    corrupt[-4:] = struct.pack(">I", zlib.crc32(bytes(corrupt[:-4])))
    ok = ok and _raises(NotLatin, read_key, bytes(corrupt))
    ok = ok and _raises(TruncatedFile, read_key, blob[:-1])
    corrupt = bytearray(golden_ct); corrupt[8] = 9
    ok = ok and _raises(UnsupportedVersion, read_container, bytes(corrupt))
    ok = ok and _raises(TruncatedFile, read_container, golden_ct[:-1])
    corrupt = bytearray(golden_ct); corrupt[13] = 0
    ok = ok and _raises(LengthMismatch, read_container, bytes(corrupt))
    ok = ok and _raises(BadMagic, read_container, b"\x00" + golden_ct[1:])
    report(9, ok, "golden byte layouts, size pins, distinct corruption errors")


def _raises(exc_type, fn, *args):
    try:
        fn(*args)
        return False
    except exc_type:
        return True
    except Exception:
        return False


def test_criterion_10_throughput(keys):
    key = keys[256]
    data = np.random.default_rng(10).integers(0, 256, 1 << 22, dtype=np.uint8)
    rates = {}
    for m in (1, 4, 16):
        times = []
        for _ in range(5):
            session = CipherSession(key, SEED, os.urandom(12), m)
            start = time.perf_counter()
            session.encrypt_message(data)
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        rates[m] = len(data) / seconds / 1e6
    ok = rates[1] > rates[16]
    report(10, ok, "throughput MB/s: " + ", ".join(
        f"m={m}: {r:.0f}" for m, r in rates.items()) + " (m=1 > m=16 required)")
