"""Classical leader-based quasigroup cipher and a known-plaintext attack on it.

In the leader cipher each ciphertext symbol depends only on the previous
ciphertext symbol and the current plaintext symbol, so observed
plaintext/ciphertext pairs directly leak Cayley-table cells. The attack
here harvests those cells; it is a demonstration of the weakness class,
not a reproduction of any published full cryptanalysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import InconsistentPairs
from .latin import Quasigroup

#: marker for an undecodable position in attack output (out of any alphabet)
UNKNOWN = -1


@dataclass(frozen=True)
class LeaderCipher:
    """The leader cipher over q. Its symbols and leader go to q.mul and
    q.left_div as given, so a non-symbol such as 1.9 raises ValueError."""

    q: Quasigroup
    leader: int

    def encrypt(self, plaintext: Sequence[int]) -> list[int]:
        """c_1 = leader * p_1, then c_i = c_{i-1} * p_i."""
        out = []
        prev = self.leader
        for p in plaintext:
            prev = self.q.mul(prev, p)
            out.append(prev)
        return out

    def decrypt(self, ciphertext: Sequence[int]) -> list[int]:
        """p_1 = leader \\ c_1, then p_i = c_{i-1} \\ c_i."""
        out = []
        prev = self.leader
        for c in ciphertext:
            out.append(self.q.left_div(prev, c))
            prev = c
        return out


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
        candidates = set()
        for x in range(self.order):
            row = {y: z for (rx, y), z in self.triples.items() if rx == x}
            ok = True
            for p1, c1 in self.first_symbol.items():
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

    def _decode_map(self) -> dict[tuple[int, int], int]:
        return {(x, z): y for (x, y), z in self.triples.items()}


def known_plaintext_learn(
    order: int,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> RecoveredKnowledge:
    """Harvest x*y = z cells from (plaintext, ciphertext) pairs of one cipher.

    Raises InconsistentPairs when two observations disagree on the same
    cell (or the same first plaintext symbol), which also happens by design
    when this learning rule is fed keystream-cipher transcripts.
    """
    know = RecoveredKnowledge(order=order)
    for plaintext, ciphertext in pairs:
        if len(plaintext) != len(ciphertext):
            raise InconsistentPairs("pair lengths differ")
        for i, (p, c) in enumerate(zip(plaintext, ciphertext)):
            p, c = int(p), int(c)
            if i == 0:
                seen = know.first_symbol.get(p)
                if seen is not None and seen != c:
                    raise InconsistentPairs(
                        f"first symbol {p} encrypted to both {seen} and {c}")
                know.first_symbol[p] = c
            else:
                cell = (int(ciphertext[i - 1]), p)
                seen = know.triples.get(cell)
                if seen is not None and seen != c:
                    raise InconsistentPairs(
                        f"cell {cell} observed as both {seen} and {c}")
                know.triples[cell] = c
    return know


def attack_decrypt(know: RecoveredKnowledge, ciphertext: Sequence[int]) -> list[int]:
    """Decrypt with learned cells only; undecodable positions get UNKNOWN.

    Position 1 decodes only when a single leader candidate remains and its
    row covers c_1.
    """
    decode = know._decode_map()
    first_inv = {c1: p1 for p1, c1 in know.first_symbol.items()}
    out = []
    candidates = know.leader_candidates
    for i, c in enumerate(ciphertext):
        c = int(c)
        if i == 0:
            if c in first_inv:
                out.append(first_inv[c])
            elif len(candidates) == 1:
                (leader,) = candidates
                out.append(decode.get((leader, c), UNKNOWN))
            else:
                out.append(UNKNOWN)
        else:
            out.append(decode.get((int(ciphertext[i - 1]), c), UNKNOWN))
    return out
