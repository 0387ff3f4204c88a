import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqcipher.cipher import CipherSession
from lsqcipher.classical import (
    UNKNOWN,
    LeaderCipher,
    RecoveredKnowledge,
    attack_decrypt,
    known_plaintext_learn,
)
from lsqcipher.errors import InconsistentPairs
from lsqcipher.latin import Quasigroup, generate_latin

from conftest import cyclic_automaton, random_automaton


def leader_cipher(n, leader, seed=b"classical"):
    return LeaderCipher(Quasigroup(generate_latin(n, seed)), leader)


@pytest.fixture
def z3_leader(z3_q):
    return LeaderCipher(z3_q, 2)


class TestLeaderCipher:
    def test_encrypt_derived(self, z3_leader):
        # 2*1=0, 0*0=0, 0*2=2
        assert z3_leader.encrypt([1, 0, 2]) == [0, 0, 2]

    def test_decrypt_derived(self, z3_leader):
        # (0-2)%3=1, (0-0)%3=0, (2-0)%3=2
        assert z3_leader.decrypt([0, 0, 2]) == [1, 0, 2]

    def test_empty(self, z3_leader):
        assert z3_leader.encrypt([]) == []
        assert z3_leader.decrypt([]) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip_exhaustive(self, n):
        for leader in range(n):
            lc = leader_cipher(n, leader)
            for length in range(0, 4):
                for msg in itertools.product(range(n), repeat=length):
                    assert lc.decrypt(lc.encrypt(list(msg))) == list(msg)

    def test_roundtrip_random(self, rng):
        lc = leader_cipher(64, 17)
        for _ in range(50):
            msg = rng.integers(0, 64, rng.integers(0, 100)).tolist()
            assert lc.decrypt(lc.encrypt(msg)) == msg


class TestLearning:
    def test_single_pair_z3(self, z3_leader):
        know = known_plaintext_learn(3, [([1, 0, 2], z3_leader.encrypt([1, 0, 2]))])
        assert know.triples == {(0, 0): 0, (0, 2): 2}
        assert know.first_symbol == {1: 0}
        # leader 0 is ruled out (its row already sends 0 to 0); 2 survives
        cands = know.leader_candidates
        assert 2 in cands
        assert 0 not in cands

    def test_zero_pairs(self):
        know = known_plaintext_learn(5, [])
        assert know.triples == {}
        assert know.leader_candidates == set(range(5))

    def test_triple_count_matches_distinct_transitions(self, rng):
        lc = leader_cipher(8, 3)
        pairs = []
        transitions = set()
        for _ in range(20):
            p = rng.integers(0, 8, 30).tolist()
            c = lc.encrypt(p)
            pairs.append((p, c))
            transitions |= {(c[i - 1], p[i]) for i in range(1, len(p))}
        know = known_plaintext_learn(8, pairs)
        assert set(know.triples) == transitions

    def test_pairs_from_different_keys_conflict(self):
        a = leader_cipher(4, 0, seed=b"key-a")
        b = leader_cipher(4, 0, seed=b"key-b")
        msgs = [[0, 1, 2, 3, 0, 2, 1, 3], [3, 2, 1, 0, 1, 1, 2, 2]]
        pairs = [(m, a.encrypt(m)) for m in msgs] + [(m, b.encrypt(m)) for m in msgs]
        with pytest.raises(InconsistentPairs):
            known_plaintext_learn(4, pairs)

    def test_keystream_transcripts_are_inconsistent(self):
        # the leader-cipher learning rule breaks on the
        # keystream cipher because identical (prev-ciphertext, plaintext)
        # contexts encrypt differently at different positions
        key = random_automaton(4, b"contrast")
        seed = bytes(32)
        pairs = []
        for i in range(8):
            msg = [0, 0, 0, 0, 0, 0, 0, 0]
            ct = CipherSession(key, seed, bytes([i]) * 12, 4).encrypt_message(msg)
            pairs.append((msg, ct.tolist()))
        with pytest.raises(InconsistentPairs):
            known_plaintext_learn(4, pairs)

    def test_unequal_pair_lengths(self):
        with pytest.raises(InconsistentPairs, match="lengths differ"):
            known_plaintext_learn(3, [([0, 1, 2], [0, 1])])


class TestAttackDecrypt:
    def test_full_knowledge_equals_decrypt(self):
        n = 3
        lc = leader_cipher(n, 1)
        msgs = [list(m) for m in itertools.product(range(n), repeat=3)]
        know = known_plaintext_learn(n, [(m, lc.encrypt(m)) for m in msgs])
        for m in msgs:
            ct = lc.encrypt(m)
            assert attack_decrypt(know, ct) == lc.decrypt(ct)

    def test_empty_knowledge_all_unknown(self):
        know = known_plaintext_learn(4, [])
        assert attack_decrypt(know, [0, 1, 2, 3]) == [UNKNOWN] * 4

    def test_partial_row_coverage(self):
        # knowledge covering only row 0 decodes exactly the positions that
        # follow a 0 ciphertext symbol
        n = 4
        lc = leader_cipher(n, 2)
        know = known_plaintext_learn(n, [])
        for y in range(n):
            know.triples[(0, y)] = lc.q.mul(0, y)
        ct = [1, 0, 3, 0, 2, 2]
        got = attack_decrypt(know, ct)
        for i in range(len(ct)):
            if i > 0 and ct[i - 1] == 0:
                assert got[i] == lc.q.left_div(0, ct[i])
            else:
                assert got[i] == UNKNOWN

    def test_single_leader_candidate_decodes_position_one(self, z3_leader):
        # every pair starts 0 -> 2 * 0 = 2, which leaves leader 2 alone, and
        # together they teach every cell; a c_1 never seen first then
        # decodes through the leader's row
        msgs = [[0, *m] for m in itertools.product(range(3), repeat=2)]
        know = known_plaintext_learn(3, [(m, z3_leader.encrypt(m)) for m in msgs])
        assert know.leader_candidates == {2}
        ct = z3_leader.encrypt([1, 2])
        assert ct[0] not in know.first_symbol.values()
        assert attack_decrypt(know, ct) == [1, 2]

    def test_recovery_accuracy_n16(self, rng):
        n = 16
        lc = leader_cipher(n, int(rng.integers(0, n)))
        pairs = []
        for _ in range(200):
            p = rng.integers(0, n, 64).tolist()
            pairs.append((p, lc.encrypt(p)))
        know = known_plaintext_learn(n, pairs)
        held_out = rng.integers(0, n, 64).tolist()
        guess = attack_decrypt(know, lc.encrypt(held_out))
        accuracy = sum(g == t for g, t in zip(guess, held_out)) / 64
        assert accuracy >= 0.99


# Each caller-facing reading of the attack, with symbol s at one position of
# an order-5 sequence. An int() of the symbol would learn 1.7 as 1, and an
# unchecked one would record -1 or 5 as a cell or decode it to UNKNOWN.
ATTACK_READINGS = {
    "learn-plain-first": lambda s: known_plaintext_learn(5, [([s, 1, 2], [0, 1, 2])]),
    "learn-plain-later": lambda s: known_plaintext_learn(5, [([0, 1, s], [0, 1, 2])]),
    "learn-cipher-first": lambda s: known_plaintext_learn(5, [([0, 1, 2], [s, 1, 2])]),
    "learn-cipher-later": lambda s: known_plaintext_learn(5, [([0, 1, 2], [0, 1, s])]),
    "attack-first": lambda s: attack_decrypt(known_plaintext_learn(5, []), [s, 1]),
    "attack-later": lambda s: attack_decrypt(known_plaintext_learn(5, []), [1, s]),
}


@pytest.mark.parametrize("s", [-1, 5, 1.5])
@pytest.mark.parametrize("reading", ATTACK_READINGS)
def test_attack_refuses_non_symbols(reading, s):
    match = rf"symbol {s} is not in \[0, 5\)"
    if isinstance(s, float):
        match = r"symbols must be integers in \[0, 5\), got float64"
    with pytest.raises(ValueError, match=match):
        ATTACK_READINGS[reading](s)


def reference_leader_candidates(know):
    """leader_candidates as first written: a row dict rebuilt per candidate."""
    candidates = set()
    for x in range(know.order):
        row = {y: z for (rx, y), z in know.triples.items() if rx == x}
        ok = True
        for p1, c1 in know.first_symbol.items():
            if p1 in row:
                if row[p1] != c1:
                    ok = False
                    break
            elif c1 in row.values():
                ok = False
                break
        if ok:
            candidates.add(x)
    return candidates


def reference_attack_decrypt(know, ciphertext):
    """attack_decrypt as first written, one position at a time."""
    decode = {(x, z): y for (x, y), z in know.triples.items()}
    first_inv = {c1: p1 for p1, c1 in know.first_symbol.items()}
    out = []
    candidates = reference_leader_candidates(know)
    for i, c in enumerate(ciphertext):
        if i == 0:
            if c in first_inv:
                out.append(first_inv[c])
            elif len(candidates) == 1:
                (leader,) = candidates
                out.append(decode.get((leader, c), UNKNOWN))
            else:
                out.append(UNKNOWN)
        else:
            out.append(decode.get((ciphertext[i - 1], c), UNKNOWN))
    return out


@st.composite
def knowledge_and_ciphertext(draw):
    """Knowledge with arbitrary cells and first-symbol observations, which
    need not come from any Latin table: a row may hold one value twice, or
    contradict an observation. Then a ciphertext to decode with it.

    The cells are a drawn subset of a table of arbitrary values, so rows are
    often full enough to leave a single leader candidate."""
    order = draw(st.integers(2, 6))
    sym = st.integers(0, order - 1)
    cells = order * order
    values = draw(st.lists(sym, min_size=cells, max_size=cells))
    kept = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    triples = {divmod(i, order): z for i, (z, k) in enumerate(zip(values, kept)) if k}
    know = RecoveredKnowledge(order, triples, draw(st.dictionaries(sym, sym, max_size=order)))
    return know, draw(st.lists(sym, max_size=8))


@given(case=knowledge_and_ciphertext())
@settings(max_examples=500, deadline=None)
def test_attack_matches_reference(case):
    know, ciphertext = case
    assert know.leader_candidates == reference_leader_candidates(know)
    assert attack_decrypt(know, ciphertext) == reference_attack_decrypt(know, ciphertext)
