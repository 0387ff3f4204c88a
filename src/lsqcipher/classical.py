"""Classical leader-based quasigroup cipher and a known-plaintext attack on it.

In the leader cipher each ciphertext symbol depends only on the previous
ciphertext symbol and the current plaintext symbol, so observed
plaintext/ciphertext pairs directly leak Cayley-table cells. The attack
here harvests those cells; it is a demonstration of the weakness class,
not a reproduction of any published full cryptanalysis.

Every symbol read from a caller passes latin.require_symbols, once per
sequence, before it is used: a non-symbol such as 1.7, -1 or the order
raises ValueError, and none is truncated or recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .errors import InconsistentPairs
from .latin import Quasigroup, require_symbols

#: marker for an undecodable position in attack output (out of any alphabet)
UNKNOWN = -1


@dataclass(frozen=True)
class LeaderCipher:
    """The leader cipher over q. Each call checks the leader and its
    message together by require_symbols, then reads q's Cayley table, or
    its cached row inverse to decrypt, as fold_mul does."""

    q: Quasigroup
    leader: int

    def encrypt(self, plaintext: Sequence[int]) -> list[int]:
        """c_1 = leader * p_1, then c_i = c_{i-1} * p_i."""
        t = self.q.cayley.entries
        leader, *message = require_symbols((self.leader, *plaintext), self.q.order).tolist()
        return list(accumulate(message, lambda c, p: int(t[c, p]), initial=leader))[1:]

    def decrypt(self, ciphertext: Sequence[int]) -> list[int]:
        """p_1 = leader \\ c_1, then p_i = c_{i-1} \\ c_i: one gather, since
        every c_{i-1} is known."""
        c = require_symbols((self.leader, *ciphertext), self.q.order)
        return self.q.cayley.row_inverse().entries[c[:-1], c[1:]].tolist()


@dataclass
class RecoveredKnowledge:
    """Table cells and leader candidates learned from known pairs."""

    order: int
    #: (x, y) -> z meaning x*y = z
    triples: dict[tuple[int, int], int] = field(default_factory=dict)
    #: p_1 -> c_1 constraints (leader * p_1 = c_1)
    first_symbol: dict[int, int] = field(default_factory=dict)

    @property
    def leader_candidates(self) -> set[int]:
        """Leaders consistent with every observation so far.

        A candidate x survives unless some first-symbol constraint
        (p_1 -> c_1) is contradicted by what we know of row x: either the
        cell x*p_1 is known and differs from c_1, or c_1 already appears
        elsewhere in row x (rows are permutations).
        """
        held = {(x, z) for (x, _), z in self.triples.items()}
        return {x for x in range(self.order)
                if all(self.triples[x, p1] == c1 if (x, p1) in self.triples
                       else (x, c1) not in held
                       for p1, c1 in self.first_symbol.items())}


def known_plaintext_learn(
    order: int,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> RecoveredKnowledge:
    """Harvest x*y = z cells from (plaintext, ciphertext) pairs of one cipher.

    Each plaintext and ciphertext is checked by require_symbols before any
    of its pair is recorded. Raises InconsistentPairs for a pair of unequal
    lengths, or when two observations disagree on the same cell (or the
    same first plaintext symbol), which also happens by design when this
    learning rule is fed keystream-cipher transcripts.
    """
    know = RecoveredKnowledge(order=order)
    for plaintext, ciphertext in pairs:
        if len(plaintext) != len(ciphertext):
            raise InconsistentPairs("pair lengths differ")
        p, c = (require_symbols(s, order).tolist() for s in (plaintext, ciphertext))
        if p:
            seen = know.first_symbol.setdefault(p[0], c[0])
            if seen != c[0]:
                raise InconsistentPairs(
                    f"first symbol {p[0]} encrypted to both {seen} and {c[0]}")
        for cell, z in zip(zip(c, p[1:]), c[1:]):
            seen = know.triples.setdefault(cell, z)
            if seen != z:
                raise InconsistentPairs(f"cell {cell} observed as both {seen} and {z}")
    return know


def attack_decrypt(know: RecoveredKnowledge, ciphertext: Sequence[int]) -> list[int]:
    """Decrypt with learned cells only; undecodable positions get UNKNOWN.

    The ciphertext is checked by require_symbols. Position i > 1 decodes
    through the learned cell in row c_{i-1} that holds c_i. Position 1
    decodes from a first-symbol observation of c_1, or else through the
    leader's row when a single leader candidate remains.
    """
    c = require_symbols(ciphertext, know.order).tolist()
    leaders = know.leader_candidates
    # None, the row before c_1 while the leader is unsettled, heads no cell
    rows = [leaders.pop() if len(leaders) == 1 else None, *c]
    decode = {(x, z): y for (x, y), z in know.triples.items()}
    out = [decode.get(cell, UNKNOWN) for cell in zip(rows, c)]
    first = {c1: p1 for p1, c1 in know.first_symbol.items()}
    if c and c[0] in first:
        out[0] = first[c[0]]
    return out
