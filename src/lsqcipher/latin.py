"""Latin squares and quasigroups: validation, seeded generation, divisions, folds.

A Latin square of order n doubles as the transition table of a key automaton
and as the Cayley table of a quasigroup; both views share one array whose
rows are indexed by the left operand (= the automaton input).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ColViolation,
    DimensionMismatch,
    EmptyKeyBlock,
    OrderTooSmall,
    RowViolation,
)

# Containers and the keystream hold no table, so their order is bounded only
# by the two-byte symbol width. A key holds an n x n table, and keygen and
# key load peak at two to three times it, so keys stop at the order whose
# table is 512 MiB.
MAX_ORDER = 65536
MAX_KEY_ORDER = 16384

# A blocked pass over the lines of a table takes them in blocks of about
# _BLOCK_CELLS cells, whose intp offsets take 256 KiB, but of no fewer than
# _BLOCK_LINES lines: a column block reads that many adjacent entries of
# each row, and at 2-byte orders a narrower block would use only part of
# each 64-byte cache line it loads.
_BLOCK_CELLS = 1 << 15
_BLOCK_LINES = 32


def symbol_dtype(order: int) -> np.dtype:
    """Storage width for symbols: one byte up to order 256, two bytes beyond."""
    return np.dtype(np.uint8) if order <= 256 else np.dtype(np.uint16)


def symbol_wire_dtype(order: int) -> np.dtype:
    """Wire format of symbols in key files, containers and keystream words:
    the storage width, big-endian."""
    return symbol_dtype(order).newbyteorder(">")


def holds_only_symbols(dtype, order: int) -> bool:
    """True when no value of `dtype` lies outside [0, order): an unsigned
    type whose maximum is below the order, as one byte is at order 256.
    An array of such a type needs no range scan."""
    dtype = np.dtype(dtype)
    return dtype.kind == "u" and np.iinfo(dtype).max < order


def all_symbols(values: np.ndarray, order: int) -> bool:
    """True when every entry of the integer array `values` lies in
    [0, order). Scans only what the dtype does not already rule out: nothing
    under holds_only_symbols, and no minimum of an unsigned type."""
    if not values.size or holds_only_symbols(values.dtype, order):
        return True
    return (values.dtype.kind == "u" or values.min() >= 0) and values.max() < order


def _block_lines(n: int) -> int:
    """Lines per block of a blocked pass over an order-n table."""
    return min(n, max(_BLOCK_LINES, _BLOCK_CELLS // n))


def _line_offsets(entries: np.ndarray, columns: bool):
    """Walk the rows of a square table, or its columns if `columns`, in
    blocks of whole lines, and yield (lo, offsets) for each block.

    The block holds lines lo, lo + 1, ... and `offsets` holds
    (line - lo) * n + entry for each of its cells, in the block's C order, so
    a 1-D scatter through it lands in the block's own slots of a buffer of
    _block_lines(n) * n cells: line by line, n slots indexed by symbol. A
    column block is read in place, with no transposed copy. One intp buffer
    serves every block, so each block's offsets overwrite the last's.
    """
    n = entries.shape[0]
    lines = _block_lines(n)
    buf = np.empty(lines * n, dtype=np.intp)
    step = np.arange(0, lines * n, n, dtype=np.intp)
    for lo in range(0, n, lines):
        k = min(lines, n - lo)
        offsets = buf[:k * n]
        if columns:
            np.add(entries[:, lo:lo + k], step[:k], out=offsets.reshape(n, k))
        else:
            np.add(entries[lo:lo + k], step[:k, None], out=offsets.reshape(k, n))
        yield lo, offsets


@dataclass(frozen=True)
class LatinSquare:
    """An n x n table in which every row and every column is a permutation.

    Certified squares come from :func:`validate_latin` and
    :func:`generate_latin`. Direct construction checks that `entries` is an
    (order, order) array of symbol_dtype(order) with every entry in
    [0, order), so that no lookup through it leaves the table, and raises
    DimensionMismatch otherwise; it does not check the Latin property. The
    square owns its entries, read-only and in C order: an owned C-order
    array is adopted and frozen, and any other array is copied, so a view
    cannot change them after the check. A caller's other views of an
    adopted array are not protected.
    """

    order: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, entries = self.order, self.entries
        if not (isinstance(entries, np.ndarray) and entries.shape == (n, n)
                and entries.dtype == symbol_dtype(n) and all_symbols(entries, n)):
            raise DimensionMismatch(f"entries must be a ({n}, {n}) array of "
                                    f"{symbol_dtype(n)} in [0, {n})")
        entries = np.require(entries, requirements="CO")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.entries, other.entries)

    def row_inverse(self) -> "LatinSquare":
        """The square inv with inv[i, entries[i, j]] = j: each row's inverse
        permutation.

        Read as a transition table it is the inverse key automaton; read as
        a Cayley table it is left division. It is Latin by construction, so
        it is not re-validated. Built on first use, in blocks of rows, each
        scattering its column indices into its own rows, and cached.
        """
        cached = self.__dict__.get("_row_inverse")
        if cached is not None:
            return cached
        n = self.order
        inv = np.empty((n, n), dtype=self.entries.dtype)
        flat = inv.reshape(-1)
        # column indices j, repeated along a block's rows in C order
        cols = np.tile(np.arange(n, dtype=inv.dtype), _block_lines(n))
        for lo, offsets in _line_offsets(self.entries, columns=False):
            flat[lo * n:][offsets] = cols[:offsets.size]
        cached = LatinSquare(n, inv)
        object.__setattr__(self, "_row_inverse", cached)
        return cached


def validate_latin(table: Sequence[Sequence[int]] | np.ndarray) -> LatinSquare:
    """Certify a table as a Latin square, checking all 2n lines in blocks
    of whole lines, so that the check needs no n x n mask.

    Raises DimensionMismatch for ragged, non-square or out-of-range input
    and for an order above MAX_KEY_ORDER, OrderTooSmall for n < 2, and
    RowViolation/ColViolation naming the first bad line (rows before
    columns, lowest index first) and the first symbol it repeats in scan
    order. The square owns a copy of the table.
    """
    try:
        arr = np.asarray(table)
    except ValueError as exc:  # rows of unequal length
        raise DimensionMismatch(f"expected a square table: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square table, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    if n > MAX_KEY_ORDER:
        raise DimensionMismatch(f"key order {n} > {MAX_KEY_ORDER} unsupported")
    if not np.issubdtype(arr.dtype, np.integer):
        raise DimensionMismatch("entries must be integers")
    if not all_symbols(arr, n):
        raise DimensionMismatch(f"entries must lie in [0, {n})")
    entries = arr.astype(symbol_dtype(n), order="C")
    # one block-sized mask, reused by every block of both passes: n symbols
    # in [0, n) fill a line's n slots only if none repeats
    seen = np.empty(_block_lines(n) * n, dtype=bool)
    for columns, violation in ((False, RowViolation), (True, ColViolation)):
        for lo, offsets in _line_offsets(entries, columns):
            block = seen[:offsets.size]
            block.fill(False)
            block[offsets] = True
            if block.all():
                continue
            i = lo + int(np.argmin(block.reshape(-1, n).all(axis=1)))
            line = entries[:, i] if columns else entries[i]
            # the first repeat in scan order sits at the lowest position that
            # does not hold its symbol's first occurrence
            first = np.unique(line, return_index=True)[1]
            j = np.setdiff1d(np.arange(n), first)[0]
            raise violation(i, int(line[j]))
        del offsets  # frees this pass's buffer before the next pass takes one
    return LatinSquare(n, entries)


def _seeded_rng(order: int, seed: bytes, tag: bytes) -> random.Random:
    digest = hashlib.sha256(tag + order.to_bytes(4, "big") + seed).digest()
    return random.Random(int.from_bytes(digest, "big"))


def generate_latin(order: int, seed: bytes, walk_steps: int = 0) -> LatinSquare:
    """Deterministically derive a Latin square from (order, seed, walk_steps).

    Construction: a seeded isotopy of the cyclic table (x + a) mod n —
    independent permutations of rows, columns, and symbols — optionally
    followed by `walk_steps` moves of the Jacobson-Matthews walk ("Generating
    uniformly distributed random Latin squares", J. Combin. Des. 4(6), 1996)
    to widen the sampled class. The isotope is one gather from a sliding
    window over the doubled symbol permutation, and the walk runs on it in
    place, so the construction's peak memory is the table. Uniformity over
    all Latin squares is not claimed.
    """
    if order < 2:
        raise OrderTooSmall(f"order {order} < 2")
    if order > MAX_KEY_ORDER:
        raise DimensionMismatch(f"key order {order} > {MAX_KEY_ORDER} unsupported")
    if walk_steps < 0:
        raise ValueError("walk steps must be >= 0")
    rng = _seeded_rng(order, seed, b"lsq-isotopy")
    row_p = list(range(order))
    col_p = list(range(order))
    sym_p = list(range(order))
    rng.shuffle(row_p)
    rng.shuffle(col_p)
    rng.shuffle(sym_p)
    # window[r, c] = sym_p[(r + c) % order], a view of the doubled permutation
    window = sliding_window_view(np.asarray(sym_p + sym_p, dtype=symbol_dtype(order)), order)
    table = window[np.ix_(row_p, col_p)]
    if walk_steps > 0:
        _jacobson_matthews(table, walk_steps, _seeded_rng(order, seed, b"lsq-jm-walk"))
    return LatinSquare(order, table)


def _jacobson_matthews(table: np.ndarray, steps: int, rng: random.Random) -> None:
    """Run `steps` Jacobson-Matthews moves on a Latin square, in place.

    The walk (J. Combin. Des. 4(6), 1996) moves on the 0/1 incidence cube,
    where one cell may be improper: it holds two symbols, minus a third.
    `table` holds every proper cell, and the improper cell (r, c, s, t) holds
    table[r, c] and t, minus s, so the walk needs O(n^2) memory. It keeps
    moving past `steps` until the square is proper again. Candidates are
    drawn in the cube's ascending index order, which keeps keys reproducible.
    """
    n = table.shape[0]
    improper: tuple[int, int, int, int] | None = None
    done = 0
    while done < steps or improper is not None:
        if improper is None:
            r = rng.randrange(n)
            c = rng.randrange(n)
            s = rng.randrange(n)
            while table[r, c] == s:
                s = rng.randrange(n)
            r2 = int(np.argmax(table[:, c] == s))
            c2 = int(np.argmax(table[r] == s))
            s2 = int(table[r, c])
            keep = s
        else:
            # rows of column c and columns of row r that hold s come in pairs
            r, c, s, t = improper
            r2 = int(rng.choice(np.flatnonzero(table[:, c] == s)))
            c2 = int(rng.choice(np.flatnonzero(table[r] == s)))
            pair = sorted((int(table[r, c]), t))
            s2 = rng.choice(pair)
            keep = sum(pair) - s2
        table[r, c] = keep
        table[r, c2] = s2
        table[r2, c] = s2
        if table[r2, c2] == s2:
            table[r2, c2] = s
            improper = None
        else:
            improper = (r2, c2, s2, s)
        done += 1


class Quasigroup:
    """A quasigroup (A, *) with x*y read from a Latin Cayley table.

    Left division reads the table's cached row inverse, the same array the
    inverse key automaton runs on. Right division scans one column.
    """

    __slots__ = ("order", "cayley")

    def __init__(self, cayley: LatinSquare):
        self.order = cayley.order
        self.cayley = cayley

    def mul(self, x: int, y: int) -> int:
        """x * y"""
        return int(self.cayley.entries[x, y])

    def left_div(self, a: int, c: int) -> int:
        """a \\ c: the unique b with a*b = c."""
        return int(self.cayley.row_inverse().entries[a, c])

    def right_div(self, c: int, a: int) -> int:
        """c / a: the unique b with b*a = c."""
        return int(np.flatnonzero(self.cayley.entries[:, a] == c)[0])

    def left_inverse(self) -> "Quasigroup":
        """The quasigroup (A, \\) whose table is (a, c) -> a \\ c."""
        return Quasigroup(self.cayley.row_inverse())


def fold_mul(q: Quasigroup, ks: Sequence[int], p: int) -> int:
    """k_m * ( ... * (k_2 * (k_1 * p)) ... ) over a keystream block."""
    if len(ks) == 0:
        raise EmptyKeyBlock("fold over empty keystream block")
    acc = p
    for k in ks:
        acc = q.mul(k, acc)
    return acc


def fold_left_div(q: Quasigroup, ks: Sequence[int], c: int) -> int:
    """k_1 \\ ( ... \\ (k_m \\ c) ... ), inverting fold_mul: fold_mul in the
    left-division quasigroup over the mirrored block, as the kernel decrypts."""
    return fold_mul(q.left_inverse(), ks[::-1], c)
