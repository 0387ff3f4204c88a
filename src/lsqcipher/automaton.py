"""Key automata and inverse key automata.

Table orientation follows the serialized convention: rows are inputs,
columns are states, so step(a, x) reads delta.entries[x][a]. Under the
quasigroup correspondence x*y = delta(y, x) this is the same array as the
Cayley table, rows indexed by the left operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptyInput
from .latin import LatinSquare, Quasigroup, require_symbols, validate_latin


@dataclass(frozen=True)
class KeyAutomaton:
    """A finite automaton with A = Sigma whose transition table is Latin."""

    order: int
    delta: LatinSquare

    def __post_init__(self):
        if self.order != self.delta.order:
            raise DimensionMismatch(f"order {self.order} != table order {self.delta.order}")

    @classmethod
    def from_table(cls, table) -> "KeyAutomaton":
        sq = validate_latin(table)
        return cls(sq.order, sq)

    def step(self, a: int, x: int) -> int:
        """delta(a, x): next state from state a on input x, a one-symbol run."""
        return self.last_state(a, (x,))

    def run(self, a: int, w: Iterable[int]) -> tuple[int, ...]:
        """The states visited reading word w from state a, in order; the
        empty word visits none. The start state and the word are checked
        together by require_symbols before the first lookup: a float such
        as 1.7 is refused, not truncated.
        """
        t = self.delta.entries
        # one read of w, so an iterator word works
        cur, *inputs = require_symbols((a, *w), self.order).tolist()
        states = []
        for x in inputs:
            cur = int(t[x, cur])
            states.append(cur)
        return tuple(states)

    def last_state(self, a: int, w: Sequence[int]) -> int:
        """The last state of run(a, w); EmptyInput for the empty word."""
        states = self.run(a, w)
        if not states:
            raise EmptyInput("the last state of an empty word is undefined")
        return states[-1]

    def invert(self) -> "KeyAutomaton":
        """The unique automaton B with delta_B(delta(a, b), b) = a.

        Each input row of the table is a permutation of the states; the
        inverse automaton's row is its inverse permutation. The table is the
        square's cached row inverse, shared with the quasigroup's left
        division. A key read by codec.read_key, whose default keeps the
        inverse its certificate's row pass built, makes this a cache lookup.
        """
        return KeyAutomaton(self.order, self.delta.row_inverse())

    def quasigroup(self) -> Quasigroup:
        """The quasigroup with x*y = delta(y, x); a view of this table."""
        return Quasigroup(self.delta)


def reverse_run(a_inv: KeyAutomaton, b_n: int, w: Sequence[int]) -> int:
    """The paper's decryption: last state of running the reversed word on
    A^-1. A scalar oracle; messages decrypt through `cipher._chain`."""
    return a_inv.last_state(b_n, tuple(w)[::-1])
