import itertools

import numpy as np
import pytest

from lsqcipher.cipher import CipherSession
from lsqcipher.classical import (
    UNKNOWN,
    LeaderCipher,
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
