"""An exhaustive certificate of the paper's claims at small orders.

For every order n in 2..5, every block length m in 1..3, every keystream
block r in [0, n)^m and every plaintext symbol p, on several squares:

1. the message kernel's c = last_state(p, r) = fold_mul(r, p): the
   automaton cipher is the quasigroup cipher;
2. decryption returns fold_left_div(r, c) = p;
3. for each fixed block, p -> c is a permutation of the alphabet;
4. for each fixed p, every c occurs exactly n^(m-1) times over all blocks.

Property 4 says that under an ideal keystream every symbol is perfectly
masked for any m >= 1: a longer block multiplies the lookups but adds no
secrecy in that model.

The squares are the cyclic table, a seeded isotope of it, a
Jacobson-Matthews walk output and, at n = 4, the XOR table. At n = 4 and 5
they cover both isotopy classes of the order.
"""

import itertools

import numpy as np
import pytest

from lsqcipher.automaton import KeyAutomaton
from lsqcipher.cipher import CipherSession
from lsqcipher.latin import fold_left_div, fold_mul, generate_latin

from conftest import ForcedStream, cyclic_automaton, random_automaton

SEED = bytes(32)
NONCE = bytes(12)


def squares(n):
    keys = {
        "cyclic": cyclic_automaton(n),
        "isotope": random_automaton(n, seed=b"certificate"),
        "walk": KeyAutomaton(n, generate_latin(n, b"cert", walk_steps=20)),
    }
    if n == 4:
        keys["xor"] = KeyAutomaton.from_table([[x ^ a for a in range(4)] for x in range(4)])
    return keys


CASES = [(n, m, name) for n in range(2, 6) for m in (1, 2, 3) for name in squares(n)]


def intercalates(key):
    """The number of 2x2 Latin subsquares: an isotopy invariant."""
    t = key.delta.entries
    n = key.order
    return sum(t[r1, c1] == t[r2, c2] and t[r1, c2] == t[r2, c1]
               for r1, r2 in itertools.combinations(range(n), 2)
               for c1, c2 in itertools.combinations(range(n), 2))


@pytest.mark.parametrize("n, m, name", CASES)
def test_every_block_and_symbol(n, m, name):
    key = squares(n)[name]
    q = key.quasigroup()
    blocks = list(itertools.product(range(n), repeat=m))
    # Position b * n + p of the message carries plaintext p under block b.
    plain = np.tile(np.arange(n), len(blocks))
    stream = [k for block in blocks for _ in range(n) for k in block]

    enc = CipherSession(key, SEED, NONCE, m)
    enc.stream = ForcedStream(stream)
    cipher = enc.encrypt_message(plain)
    dec = CipherSession(key, SEED, NONCE, m)
    dec.stream = ForcedStream(stream)
    back = dec.decrypt_message(cipher)
    assert np.array_equal(back, plain)

    table = cipher.reshape(-1, n)
    for block, row, row_back in zip(blocks, table.tolist(), back.reshape(-1, n).tolist()):
        for p in range(n):
            c = row[p]
            assert c == key.last_state(p, block) == fold_mul(q, block, p)
            assert row_back[p] == fold_left_div(q, block, c) == p
        assert sorted(row) == list(range(n))
    for p in range(n):
        assert np.bincount(table[:, p], minlength=n).tolist() == [n ** (m - 1)] * n


@pytest.mark.parametrize("n", [4, 5])
def test_squares_cover_both_isotopy_classes(n):
    counts = {intercalates(key) for key in squares(n).values()}
    assert len(counts) == 2, counts
