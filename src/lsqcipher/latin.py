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
    type whose 2**bits values all fit below the order, as one byte's do at
    order 256. An array of such a type needs no range scan."""
    dtype = np.dtype(dtype)
    return dtype.kind == "u" and 1 << 8 * dtype.itemsize <= order


# The types of the entries that may be a bool: a 0-d bool array is one too.
_MAYBE_BOOL = frozenset((bool, np.bool_, np.ndarray))


def symbol_array(values, error: type[Exception] = ValueError,
                 ndim: int | None = None) -> np.ndarray:
    """`values` as an array, whose shape a boundary checks before
    require_symbols checks its entries: the one place where a caller's
    object turns into an array.

    An array comes back as itself and a bytes or bytearray as a uint8 view
    of it, so neither is copied or scanned. Ragged rows raise `error`, and
    so does an array that is not `ndim`-D when `ndim` is given, before any
    entry is checked.

    A bool is not a symbol, but NumPy promotes one among integers to 0 or
    1, and so does a 0-d bool array. So a list or tuple of integers, and
    each row of a 2-D one, is checked for a bool, and one that holds a bool
    comes back as that bool broadcast to its shape: the shape checks see
    the caller's shape, and require_symbols refuses the bool by name. A row
    that is an array is judged by its dtype alone; only a Python sequence
    is scanned item by item.
    """
    if isinstance(values, (bytes, bytearray)):
        values = np.frombuffer(values, dtype=np.uint8)
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise error(f"symbols must not come in ragged rows: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise error(f"symbols must form a {ndim}-D array, got shape {arr.shape}")
    if isinstance(values, (tuple, list)) and arr.dtype.kind in "iu":
        rows = [values] if arr.ndim < 2 else values
        bad = next(_bools(rows), None)
        if bad is not None:
            arr = np.broadcast_to(np.asarray(bad), arr.shape)
    return arr


def _bools(rows):
    """The bools in `rows`, 0-d bool arrays among them, lazily. A row that
    is an array is never iterated, so no NumPy scalar is made per entry: it
    yields its first entry if its dtype is bool. Any other row is scanned
    item by item, and only one that holds a bool or an array is scanned a
    second time."""
    for row in rows:
        if isinstance(row, np.ndarray):
            if row.dtype == bool and row.size:
                yield row.flat[0]
        elif not _MAYBE_BOOL.isdisjoint(map(type, row)):
            yield from (v for v in row
                        if type(v) in _MAYBE_BOOL and np.asarray(v).dtype == bool)


def require_symbols(values, order: int, error: type[Exception] = ValueError) -> np.ndarray:
    """`values`, one symbol, a sequence of them or an array, as an array
    whose entries are all symbols: integers in [0, order). This is the
    package's one rule for what a symbol is; each boundary passes its own
    `error`. The input becomes an array through symbol_array, so an array
    or a byte string is neither copied nor scanned for bools, and a bool in
    a list or tuple, or in a row of one, is refused.

    The boundaries, and what each takes:
    - CipherSession messages (ValueError): a 1-D array, bytes, list or
      tuple; the kernel's keystream symbols, an array per chunk;
    - validate_latin (DimensionMismatch): a square 2-D array, or a list or
      tuple of rows; LatinSquare (DimensionMismatch): an array alone;
    - write_container payloads: a 1-D array, list or tuple (LengthMismatch
      for the shape, OutOfRange for the entries); read_container and the
      CLI check wire arrays (OutOfRange);
    - the scalar readings, LeaderCipher and the attack (ValueError): single
      symbols and sequences of them.

    Raises `error` for a dtype that is not an integer type, naming the
    first entry, since every entry is refused: 2.0 is not a symbol, so no
    float is truncated into one. Otherwise raises it naming the first entry
    outside the range, which a lookup would wrap round or escape. Scans
    only what the dtype does not rule out: nothing for an empty array or
    under holds_only_symbols, and no minimum of an unsigned type.
    """
    arr = symbol_array(values, error)
    if not arr.size or holds_only_symbols(arr.dtype, order):
        return arr
    if arr.dtype.kind not in "iu":
        raise error(f"symbols must be integers in [0, {order}), "
                    f"got {arr.dtype} symbol {arr.flat[0]}")
    if (arr.dtype.kind == "u" or arr.min() >= 0) and arr.max() < order:
        return arr
    bad = arr.flat[np.argmax((arr < 0) | (arr >= order))]
    raise error(f"symbol {bad} is not in [0, {order}): "
                "symbols must be integers in that range")


def _block_lines(n: int) -> int:
    """Lines per block of a blocked pass over an order-n table."""
    return min(n, max(_BLOCK_LINES, _BLOCK_CELLS // n))


def _line_pass(table: np.ndarray, columns: bool,
               inverse: np.ndarray | None = None) -> None:
    """Check that every row of a square integer table whose entries are
    symbols is a permutation, or every column if `columns`, and write the
    rows' inverse permutations into `inverse`, an (n, n) array, if given.

    The lines are taken in blocks of _block_lines(n). A block from line lo
    has the flat intp offsets (line - lo) * n + entry. They are a cast copy
    and an in-place add, which allocate half the ufunc buffers of one
    mixed-dtype add, and a column block is read in place, with no
    transposed copy. A marks buffer filled with -1 takes a scatter through
    them, so a line is a permutation exactly when its n slots hold no -1
    afterwards.

    For a check alone the marks are int8 and the scatter writes 0: as fast
    as a bool mask, and faster than int16 in the column pass. For the
    inverse they are int16, which holds -1 and every column index below
    MAX_KEY_ORDER: the scatter writes each cell's column index j at the slot
    of row i and symbol table[i, j], and a row block that passes holds its
    rows' inverse and is cast-copied into `inverse`.

    Raises RowViolation or ColViolation naming the first line that is not a
    permutation and the first symbol it repeats.
    """
    n = table.shape[0]
    lines = _block_lines(n)
    offsets_buf = np.empty(lines * n, dtype=np.intp)
    step = np.arange(0, lines * n, n, dtype=np.intp)
    if inverse is None:
        marks, col_index = np.empty(lines * n, dtype=np.int8), None
    else:
        marks = np.empty(lines * n, dtype=np.int16)
        # column indices j, repeated along a block's rows in C order
        col_index = np.tile(np.arange(n, dtype=np.int16), lines)
    for lo in range(0, n, lines):
        k = min(lines, n - lo)
        offsets, part = offsets_buf[:k * n], marks[:k * n]
        if columns:
            cells, base = offsets.reshape(n, k), step[:k]
            np.copyto(cells, table[:, lo:lo + k])
        else:
            cells, base = offsets.reshape(k, n), step[:k, None]
            np.copyto(cells, table[lo:lo + k])
        cells += base
        part.fill(-1)
        part[offsets] = 0 if col_index is None else col_index[:k * n]
        if part.min() < 0:
            i = lo + int(np.argmin(part.reshape(k, n).min(axis=1) >= 0))
            if columns:
                raise ColViolation(i, _first_repeat(table[:, i]))
            raise RowViolation(i, _first_repeat(table[i]))
        if inverse is not None:
            np.copyto(inverse.reshape(-1)[lo * n:(lo + k) * n], part, casting="unsafe")


def _first_repeat(line: np.ndarray) -> int:
    """The first symbol of `line` that occurs a second time in scan order:
    the one at the lowest position that does not hold its first occurrence."""
    first = np.unique(line, return_index=True)[1]
    return int(line[np.setdiff1d(np.arange(line.size), first)[0]])


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
                and entries.dtype == symbol_dtype(n)):
            raise DimensionMismatch(f"entries must be a ({n}, {n}) array of {symbol_dtype(n)}")
        require_symbols(entries, n, DimensionMismatch)
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
        a Cayley table it is left division. It is Latin when this square is,
        so it is not re-validated. A square certified by
        validate_latin(table, inverse=True) holds it from the row half of its
        line pass; any other square builds it here by the same row pass,
        _line_pass with int16 marks, on first use, and raises RowViolation
        for a row that is not a permutation, as a directly built square may
        hold. It is cached either way.
        """
        cached = self.__dict__.get("_row_inverse")
        if cached is None:
            inv = np.empty_like(self.entries)
            _line_pass(self.entries, False, inv)
            cached = self._keep_row_inverse(inv)
        return cached

    def _keep_row_inverse(self, inv: np.ndarray) -> "LatinSquare":
        cached = LatinSquare(self.order, inv)
        object.__setattr__(self, "_row_inverse", cached)
        return cached


def validate_latin(table: Sequence[Sequence[int]] | np.ndarray,
                   inverse: bool = False) -> LatinSquare:
    """Certify a table as a Latin square, checking all 2n lines in blocks
    of whole lines, so that the check needs no n x n mask.

    Rows and columns go through the one line pass, _line_pass: rows on the
    table as given, columns on the square's copy. With `inverse` the row
    pass scatters column indices, so the square comes with its
    row_inverse() already built, at the cost of the inverse's n x n table;
    without it both passes scatter int8 marks and keep nothing.
    Raises DimensionMismatch for ragged or non-square input, for entries
    that are not symbols (require_symbols) and for an order above
    MAX_KEY_ORDER, OrderTooSmall for n < 2, and
    RowViolation/ColViolation naming the first bad line (rows before
    columns, lowest index first) and the first symbol it repeats in scan
    order. The square owns a copy of the table.
    """
    arr = symbol_array(table, DimensionMismatch, ndim=2)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square table, got shape {arr.shape}")
    n = arr.shape[0]
    _check_key_order(n)
    require_symbols(arr, n, DimensionMismatch)
    # the row pass reads the table as given, before the square's copy is
    # made, so the inverse and the copy meet only in the column pass
    inv = np.empty((n, n), dtype=symbol_dtype(n)) if inverse else None
    _line_pass(arr, False, inv)
    entries = arr.astype(symbol_dtype(n), order="C")
    _line_pass(entries, True)
    square = LatinSquare(n, entries)
    if inverse:
        square._keep_row_inverse(inv)
    return square


def _check_key_order(n: int) -> None:
    """Raise OrderTooSmall for a key order below 2, and DimensionMismatch
    for one above MAX_KEY_ORDER."""
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    if n > MAX_KEY_ORDER:
        raise DimensionMismatch(f"key order {n} > {MAX_KEY_ORDER} unsupported")


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
    _check_key_order(order)
    if walk_steps < 0:
        raise ValueError("walk steps must be >= 0")
    rng = _seeded_rng(order, seed, b"lsq-isotopy")
    row_p, col_p, sym_p = (list(range(order)) for _ in range(3))
    for perm in (row_p, col_p, sym_p):
        rng.shuffle(perm)
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
        """x * y, a one-symbol fold_mul."""
        return fold_mul(self, (x,), y)

    def left_div(self, a: int, c: int) -> int:
        """a \\ c: the unique b with a*b = c, a one-symbol fold_left_div."""
        return fold_left_div(self, (a,), c)

    def right_div(self, c: int, a: int) -> int:
        """c / a: the unique b with b*a = c."""
        c, a = require_symbols((c, a), self.order).tolist()
        return int(np.flatnonzero(self.cayley.entries[:, a] == c)[0])

    def left_inverse(self) -> "Quasigroup":
        """The quasigroup (A, \\) whose table is (a, c) -> a \\ c."""
        return Quasigroup(self.cayley.row_inverse())


def fold_mul(q: Quasigroup, ks: Sequence[int], p: int) -> int:
    """k_m * ( ... * (k_2 * (k_1 * p)) ... ) over a keystream block.

    p and the block are checked together by require_symbols before the
    first product, as KeyAutomaton.run checks its word."""
    if len(ks) == 0:
        raise EmptyKeyBlock("fold over empty keystream block")
    acc, *ks = require_symbols((p, *ks), q.order).tolist()
    for k in ks:
        acc = int(q.cayley.entries[k, acc])
    return acc


def fold_left_div(q: Quasigroup, ks: Sequence[int], c: int) -> int:
    """k_1 \\ ( ... \\ (k_m \\ c) ... ), inverting fold_mul: fold_mul in the
    left-division quasigroup over the mirrored block, as the kernel decrypts."""
    return fold_mul(q.left_inverse(), ks[::-1], c)
