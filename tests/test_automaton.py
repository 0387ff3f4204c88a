import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqcipher.automaton import KeyAutomaton, reverse_run
from lsqcipher.errors import DimensionMismatch, EmptyInput
from lsqcipher.latin import fold_mul, generate_latin, validate_latin

from conftest import all_words, cyclic_automaton, random_automaton


class TestStep:
    def test_derived_z3(self, z3):
        assert z3.step(1, 2) == 0  # (1+2) mod 3

    def test_zero_input_is_identity_for_cyclic(self):
        a5 = cyclic_automaton(5)
        for a in range(5):
            assert a5.step(a, 0) == a

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_step_bijective_in_each_argument(self, n):
        aut = random_automaton(n)
        for x in range(n):
            assert {aut.step(a, x) for a in range(n)} == set(range(n))
        for a in range(n):
            assert {aut.step(a, x) for x in range(n)} == set(range(n))


class TestRun:
    def test_derived_trajectory(self, z3):
        assert z3.run(1, (2, 0, 1)) == (0, 0, 1)
        assert z3.last_state(1, (2, 0, 1)) == 1

    def test_iterator_word_read_once(self, z3):
        # the states come from one pass over the word
        assert z3.run(0, iter([1, 2])) == z3.run(0, (1, 2))

    def test_empty_word(self, z3):
        assert z3.run(1, ()) == ()

    def test_last_state_empty_rejected(self, z3):
        with pytest.raises(EmptyInput):
            z3.last_state(1, ())

    def test_last_state_is_fold_of_word(self, rng):
        # last(run(a, w)) == w_k * ( ... * (w_1 * a))
        aut = random_automaton(7)
        q = aut.quasigroup()
        for _ in range(200):
            w = rng.integers(0, 7, rng.integers(1, 10)).tolist()
            a = int(rng.integers(0, 7))
            assert aut.last_state(a, w) == fold_mul(q, w, a)


class TestConstruction:
    @pytest.mark.parametrize("order", [2, 5])
    def test_order_must_match_table(self, order):
        # order 2 would emit symbol 2; order 5 would index past the table
        with pytest.raises(DimensionMismatch):
            KeyAutomaton(order, generate_latin(3, b"x"))


class TestInvert:
    def test_z3_inverse_table(self, z3):
        inv = z3.invert()
        expected = [[(a - x) % 3 for a in range(3)] for x in range(3)]
        assert inv.delta.entries.tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 256])
    def test_inverse_is_key_automaton(self, n):
        inv = random_automaton(n).invert()
        validate_latin(inv.delta.entries)

    @pytest.mark.parametrize("n", [2, 3, 5, 256])
    def test_double_inverse_is_identity(self, n):
        aut = random_automaton(n)
        assert aut.invert().invert().delta == aut.delta

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_unique_exhaustive(self, n):
        # the defining equation forces every entry: for each (input b, state c)
        # exactly one a satisfies delta(a, b) = c
        aut = random_automaton(n)
        inv = aut.invert()
        for b in range(n):
            for c in range(n):
                sols = [a for a in range(n) if aut.step(a, b) == c]
                assert len(sols) == 1
                assert inv.step(c, b) == sols[0]

    def test_perturbed_table_violates_equation(self, rng):
        aut = random_automaton(5)
        inv = aut.invert().delta.entries.copy()
        x, a = 2, 3
        inv[x, a] = (inv[x, a] + 1) % 5
        # the altered entry breaks delta^-1(delta(a0, x), x) = a0 for some a0
        broken = any(
            inv[x, aut.step(a0, x)] != a0 for a0 in range(5)
        )
        assert broken

    def test_defining_equation(self, rng):
        aut = random_automaton(32)
        inv = aut.invert()
        for a in range(32):
            for b in range(32):
                assert inv.step(aut.step(a, b), b) == a


class TestTrajectoryReversal:
    def test_derived_reverse_run(self, z3):
        assert reverse_run(z3.invert(), 1, (2, 0, 1)) == 1

    def test_reverse_run_empty_rejected(self, z3):
        with pytest.raises(EmptyInput):
            reverse_run(z3.invert(), 1, ())

    def test_full_reversal_exhaustive_z3(self, z3):
        inv = z3.invert()
        for a in range(3):
            for w in all_words(3, 4):
                states = z3.run(a, w)
                back = inv.run(states[-1], tuple(reversed(w)))
                assert back == tuple(reversed(states[:-1])) + (a,)

    def test_full_reversal_random_large(self, key256, rng):
        inv = key256.invert()
        for _ in range(300):
            w = rng.integers(0, 256, rng.integers(1, 65)).tolist()
            a = int(rng.integers(0, 256))
            states = key256.run(a, w)
            back = inv.run(states[-1], list(reversed(w)))
            assert back == tuple(reversed(states[:-1])) + (a,)

    def test_last_state_roundtrip(self, key256, rng):
        inv = key256.invert()
        for _ in range(300):
            w = rng.integers(0, 256, rng.integers(1, 65)).tolist()
            a = int(rng.integers(0, 256))
            assert reverse_run(inv, key256.last_state(a, w), w) == a


class TestInverseCorrespondence:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_inverse_automaton_computes_left_div(self, n):
        aut = random_automaton(n)
        q = aut.quasigroup()
        q_inv = aut.invert().quasigroup()
        for a in range(n):
            for c in range(n):
                assert q_inv.mul(a, c) == q.left_div(a, c)

    def test_sampled_at_256(self, key256, rng):
        q = key256.quasigroup()
        q_inv = key256.invert().quasigroup()
        for a, c in zip(rng.integers(0, 256, 2000), rng.integers(0, 256, 2000)):
            assert q_inv.mul(a, c) == q.left_div(a, c)


@given(n=st.integers(2, 10), seed=st.binary(max_size=8), data=st.data())
@settings(max_examples=50, deadline=None)
def test_last_state_roundtrip_property(n, seed, data):
    sq = generate_latin(n, seed)
    aut = KeyAutomaton(sq.order, sq)
    w = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    a = data.draw(st.integers(0, n - 1))
    assert reverse_run(aut.invert(), aut.last_state(a, w), w) == a
