"""Key automata, inverse key automata, and state trajectories.

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
class Trajectory:
    start: int
    inputs: tuple[int, ...]
    states: tuple[int, ...]

    def last(self) -> int:
        if not self.states:
            raise EmptyInput("last state of an empty trajectory is undefined")
        return self.states[-1]


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
        """delta(a, x): next state from state a on input x."""
        require_symbols(self.order, a, x)
        return int(self.delta.entries[x, a])

    def run(self, a: int, w: Iterable[int]) -> Trajectory:
        """The full state trajectory of reading word w from state a.

        An empty word yields an empty trajectory. The start state and the
        word's symbols are checked once, before the first lookup.
        """
        t = self.delta.entries
        inputs = tuple(int(x) for x in w)  # one read, so an iterator word works
        require_symbols(self.order, a, min(inputs, default=0), max(inputs, default=0))
        states = []
        cur = a
        for x in inputs:
            cur = int(t[x, cur])
            states.append(cur)
        return Trajectory(a, inputs, tuple(states))

    def last_state(self, a: int, w: Sequence[int]) -> int:
        """The last state of run(a, w); EmptyInput for the empty word."""
        return self.run(a, w).last()

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
