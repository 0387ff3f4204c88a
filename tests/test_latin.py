import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lsqcipher.automaton import KeyAutomaton
from lsqcipher.classical import LeaderCipher
from lsqcipher.codec import KeyFile, read_key, write_key
from lsqcipher.errors import (
    ColViolation,
    DimensionMismatch,
    EmptyKeyBlock,
    OrderTooSmall,
    OutOfRange,
    RowViolation,
)
from lsqcipher.keystream import SEED_BYTES
from lsqcipher.latin import (
    MAX_KEY_ORDER,
    LatinSquare,
    Quasigroup,
    _block_lines,
    _seeded_rng,
    fold_left_div,
    fold_mul,
    generate_latin,
    require_symbols,
    validate_latin,
)

from conftest import cyclic_table, kept_row_inverse, scalar_row_inverse

# validate_latin names violations the same with and without the inverse
INVERSE = (False, True)


def qg(n):
    return Quasigroup(validate_latin(cyclic_table(n)))


def first_violation(table):
    """Reference naming, one line at a time: rows before columns, the lowest
    line first, and in that line the first symbol seen a second time."""
    t = np.asarray(table)
    for kind, lines in ((RowViolation, t), (ColViolation, t.T)):
        for i, line in enumerate(lines.tolist()):
            seen = set()
            for v in line:
                if v in seen:
                    return kind, i, v
                seen.add(v)
    return None


def raised_violation(table, inverse=False):
    try:
        validate_latin(table, inverse)
    except RowViolation as e:
        return RowViolation, e.row, e.symbol
    except ColViolation as e:
        return ColViolation, e.col, e.symbol
    return None


def cube_walk(square, steps, rng):
    """Reference Jacobson-Matthews walk on the n x n x n 0/1 incidence cube,
    with the improper cell as its one -1 entry."""
    n = square.shape[0]
    f = np.zeros((n, n, n), dtype=np.int8)
    for r in range(n):
        for c in range(n):
            f[r, c, square[r, c]] = 1
    improper = None
    done = 0
    while done < steps or improper is not None:
        if improper is None:
            r = rng.randrange(n)
            c = rng.randrange(n)
            s = rng.randrange(n)
            while f[r, c, s] == 1:
                s = rng.randrange(n)
            r2 = int(np.flatnonzero(f[:, c, s] == 1)[0])
            c2 = int(np.flatnonzero(f[r, :, s] == 1)[0])
            s2 = int(np.flatnonzero(f[r, c, :] == 1)[0])
        else:
            r, c, s = improper
            r2 = int(rng.choice(np.flatnonzero(f[:, c, s] == 1)))
            c2 = int(rng.choice(np.flatnonzero(f[r, :, s] == 1)))
            s2 = int(rng.choice(np.flatnonzero(f[r, c, :] == 1)))
        f[r, c, s] += 1
        f[r, c2, s2] += 1
        f[r2, c, s2] += 1
        f[r2, c2, s] += 1
        f[r, c, s2] -= 1
        f[r, c2, s] -= 1
        f[r2, c, s] -= 1
        f[r2, c2, s2] -= 1
        improper = (r2, c2, s2) if f[r2, c2, s2] < 0 else None
        done += 1
    return np.argmax(f, axis=2)


class TestValidate:
    def test_z2_ok(self):
        sq = validate_latin([[0, 1], [1, 0]])
        assert sq.order == 2

    def test_z3_ok(self):
        assert validate_latin(cyclic_table(3)).order == 3

    def test_column_violation(self):
        with pytest.raises(ColViolation) as exc:
            validate_latin([[0, 1], [0, 1]])
        assert exc.value.col == 0
        assert exc.value.symbol == 0

    def test_row_violation(self):
        with pytest.raises(RowViolation) as exc:
            validate_latin([[0, 0], [1, 1]])
        assert exc.value.row == 0

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_latin([[0, 1, 2], [1, 2, 0]])

    def test_out_of_range_entry(self):
        with pytest.raises(DimensionMismatch):
            validate_latin([[0, 2], [2, 0]])

    def test_order_one_rejected(self):
        with pytest.raises(OrderTooSmall):
            validate_latin([[0]])

    def test_float_table_refused(self):
        with pytest.raises(DimensionMismatch, match="integers"):
            validate_latin(np.array(cyclic_table(3), dtype=float))

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            validate_latin([[0, 1], [1]])

    def test_square_does_not_alias_input(self):
        base = np.array(cyclic_table(3), dtype=np.uint8)
        sq = validate_latin(base[:, :])
        base[0, 0] = 1
        assert sq.entries.tolist() == cyclic_table(3)
        assert sq.row_inverse().entries.tolist() == [
            [(c - a) % 3 for c in range(3)] for a in range(3)]

    def test_input_stays_writable(self):
        arr = np.array(cyclic_table(3), dtype=np.uint8)
        validate_latin(arr)
        assert arr.flags.writeable


class TestDirectConstruction:
    """LatinSquare(order, entries) checks shape, width and range, so a table
    lookup through any square stays inside the table; it does not check the
    Latin property."""

    @pytest.mark.parametrize("order, entries", [
        (2, np.array([[0, 5], [5, 0]], dtype=np.uint8)),     # an entry not below the order
        (300, np.full((300, 300), 300, dtype=np.uint16)),
        (3, np.array([[0, 1], [1, 0]], dtype=np.uint8)),     # not order x order
        (2, np.array([0, 1, 1, 0], dtype=np.uint8)),
        (2, np.array([[0, 1], [1, 0]], dtype=np.int64)),     # not the symbol width
        (300, np.zeros((300, 300), dtype=">u2")),
        (2, [[0, 1], [1, 0]]),                               # not an array
    ])
    def test_refused(self, order, entries):
        match = "array of"
        if isinstance(entries, np.ndarray) and entries.max() >= order:
            # named by latin.require_symbols, as every boundary names one
            match = rf"symbol {entries.max()} is not in \[0, {order}\)"
        with pytest.raises(DimensionMismatch, match=match):
            LatinSquare(order, entries)

    def test_checks_no_latin_property(self):
        sq = LatinSquare(2, np.zeros((2, 2), dtype=np.uint8))
        assert not sq.entries.flags.writeable

    def test_owned_c_order_array_adopted(self):
        arr = np.array(cyclic_table(3), dtype=np.uint8)
        sq = LatinSquare(3, arr)
        assert sq.entries is arr and not arr.flags.writeable

    def test_view_copied(self):
        # the view's base must not change the square after the check
        base = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        sq = LatinSquare(2, base.view())
        base[0, 0] = 9
        assert sq.entries.tolist() == [[0, 1], [1, 0]]

    def test_row_inverse_refuses_a_row_that_is_no_permutation(self):
        # its inverse would be no inverse: row 1 never reaches symbol 2
        sq = LatinSquare(3, np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]], dtype=np.uint8))
        with pytest.raises(RowViolation) as exc:
            sq.row_inverse()
        assert (exc.value.row, exc.value.symbol) == (1, 1)
        assert kept_row_inverse(sq) is None

    def test_unequal_to_a_non_square(self):
        sq = LatinSquare(2, np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert sq != [[0, 1], [1, 0]]


class TestViolationNaming:
    """Which line and symbol a violation names, on tables past the 2x2 case."""

    def test_order_300_first_repeat_mid_row(self):
        t = generate_latin(300, b"name").entries.astype(np.int64)
        row = np.arange(300)
        row[150] = 40  # 40 repeats at 150: the first repeat in scan order
        row[230] = 10  # 10 occurs first and is smaller, but repeats later
        t[200] = row
        for inverse in INVERSE:
            with pytest.raises(RowViolation) as exc:
                validate_latin(t, inverse)
            assert (exc.value.row, exc.value.symbol) == (200, 40)

    def test_row_reported_before_lower_column(self):
        t = generate_latin(300, b"name").entries.astype(np.int64)
        t[200, 5] = t[200, 6]  # breaks row 200 and column 5
        for inverse in INVERSE:
            with pytest.raises(RowViolation) as exc:
                validate_latin(t, inverse)
            assert (exc.value.row, exc.value.symbol) == (200, t[200, 6])

    def test_column_only_violation(self):
        t = generate_latin(300, b"name").entries.astype(np.int64)
        t[100, [7, 250]] = t[100, [250, 7]]  # row 100 stays a permutation
        x = t[100, 7]
        for inverse in INVERSE:
            with pytest.raises(ColViolation) as exc:
                validate_latin(t, inverse)
            assert (exc.value.col, exc.value.symbol) == (7, x)

    def test_mutated_tables_match_reference(self):
        rng = np.random.default_rng(2024)
        for n in (2, 3, 5, 17, 256, 300):
            base = generate_latin(n, b"mutate").entries.astype(np.int64)
            for inverse in INVERSE:
                assert raised_violation(base, inverse) is None
            for trial in range(8):
                t = base.copy()
                if trial % 4 == 0:  # swap two cells of a row: columns only
                    r, a, b = rng.integers(0, n, 3)
                    t[r, [a, b]] = t[r, [b, a]]
                elif trial % 4 == 1:  # swap two cells of a column: rows only
                    c, a, b = rng.integers(0, n, 3)
                    t[[a, b], c] = t[[b, a], c]
                else:
                    for _ in range(trial % 4):
                        r, c, v = rng.integers(0, n, 3)
                        t[r, c] = v
                for inverse in INVERSE:
                    assert raised_violation(t, inverse) == first_violation(t)


class TestBlockedPasses:
    """The one line pass walks the rows, with or without the row inverse,
    and the columns in blocks of whole lines; a line at any place in the
    block layout is checked and inverted as a scalar loop over that line
    would."""

    ORDERS = [2, 3, 31, 32, 33, 255, 257, 1000, 1025]

    @staticmethod
    def lines(n):
        # the last line of the first block, a line of a middle block and
        # the last line, which sits in a partial block where n is not a
        # multiple of the block
        return sorted({_block_lines(n) - 1, n // 2, n - 1})

    def test_orders_reach_partial_and_middle_blocks(self):
        for n in (255, 257, 1000, 1025):
            assert n % _block_lines(n), n
        for n in (257, 1000, 1025):
            assert _block_lines(n) <= n // 2 < n - n % _block_lines(n), n

    @pytest.mark.parametrize("n", ORDERS)
    def test_row_corruption_named_as_reference(self, n):
        base = generate_latin(n, b"blocks").entries.astype(np.int64)
        rng = np.random.default_rng(n)
        for r in self.lines(n):
            t = base.copy()
            a, b = rng.choice(n, 2, replace=False)
            t[r, a] = t[r, b]  # breaks row r and column a
            for inverse in INVERSE:
                got = raised_violation(t, inverse)
                assert got == first_violation(t)
                assert got[:2] == (RowViolation, r)

    @pytest.mark.parametrize("n", ORDERS)
    def test_column_corruption_named_as_reference(self, n):
        base = generate_latin(n, b"blocks").entries.astype(np.int64)
        rng = np.random.default_rng(n)
        for c in self.lines(n):
            # a swap in one row keeps every row a permutation and breaks two
            # columns, so the lower one is at most n - 2
            c = min(c, n - 2)
            t = base.copy()
            r, d = int(rng.integers(n)), int(rng.integers(c + 1, n))
            t[r, [c, d]] = t[r, [d, c]]
            for inverse in INVERSE:
                got = raised_violation(t, inverse)
                assert got == first_violation(t)
                assert got[:2] == (ColViolation, c)

    @pytest.mark.parametrize("n", ORDERS)
    def test_row_inverse_matches_scalar_inverse(self, n):
        sq = generate_latin(n, b"blocks", walk_steps=3)
        expect = scalar_row_inverse(sq.entries)
        inv = sq.row_inverse().entries
        assert inv.dtype == sq.entries.dtype
        assert inv.tolist() == expect

    @pytest.mark.parametrize("n", ORDERS + [256])
    def test_kept_inverse_matches_scalar_inverse(self, n):
        # the inverse the certificate's row pass keeps: from an integer
        # table, and from a key file, whose wire table is big-endian
        square = generate_latin(n, b"blocks", walk_steps=3)
        expect = scalar_row_inverse(square.entries)
        blob = write_key(KeyFile(KeyAutomaton(n, square), bytes(SEED_BYTES)))
        loads = [lambda inverse: validate_latin(square.entries.astype(np.int64), inverse),
                 lambda inverse: read_key(blob, inverse).key.delta]
        for load in loads:
            sq = load(True)
            inv = kept_row_inverse(sq)
            assert inv is not None and sq.row_inverse() is inv
            assert inv.entries.dtype == square.entries.dtype
            assert inv.entries.tolist() == expect
            assert kept_row_inverse(load(False)) is None

    def test_validate_peak_memory(self):
        # the square's copy of the table and one block of intp offsets; an
        # n x n mask beside the copy would read about 1.57x
        sq = generate_latin(1024, b"mem")
        for table in (sq.entries, sq.entries.astype(">u2")):
            tracemalloc.start()
            try:
                validate_latin(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.3 * sq.entries.nbytes, peak / sq.entries.nbytes


class TestKeyOrderCeiling:
    def test_generate_refuses_order_above_ceiling(self):
        with pytest.raises(DimensionMismatch, match="key order"):
            generate_latin(MAX_KEY_ORDER + 1, b"S")

    def test_validate_refuses_order_above_ceiling_before_copying(self):
        # a broadcast view holds one byte, so only a check ahead of the
        # square's copy keeps this from allocating the whole table
        table = np.broadcast_to(np.zeros(1, dtype=np.uint8), (MAX_KEY_ORDER + 1,) * 2)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="key order"):
                validate_latin(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGenerate:
    def test_isotopy_of_the_cyclic_table(self):
        # entry (r, c) is sym_p[(row_p[r] + col_p[c]) % n], for the row,
        # column and symbol permutations drawn in that order from the seed
        for n in (3, 7, 256):
            rng = _seeded_rng(n, b"S", b"lsq-isotopy")
            row_p, col_p, sym_p = list(range(n)), list(range(n)), list(range(n))
            for perm in (row_p, col_p, sym_p):
                rng.shuffle(perm)
            expect = [[sym_p[(row_p[r] + col_p[c]) % n] for c in range(n)] for r in range(n)]
            assert generate_latin(n, b"S").entries.tolist() == expect

    def test_big_order_is_latin(self):
        sq = generate_latin(256, b"S")
        validate_latin(sq.entries)

    def test_deterministic(self):
        a = generate_latin(256, b"S")
        b = generate_latin(256, b"S")
        assert a == b

    def test_seed_changes_table(self):
        assert generate_latin(16, b"a") != generate_latin(16, b"b")

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            generate_latin(1, b"S")

    @pytest.mark.parametrize("steps", [1, 17, 100])
    def test_jm_walk_stays_latin_and_deterministic(self, steps):
        sq = generate_latin(7, b"walk", walk_steps=steps)
        validate_latin(sq.entries)
        assert sq == generate_latin(7, b"walk", walk_steps=steps)

    @pytest.mark.parametrize("n, steps, digest", [
        (7, 100, "d9acf4e7366b46854d91d4b71f61f7000372f9b828aac4cd9c6ea2080f0c9ed8"),
        (16, 2000, "7de76ef62e21614440d4122abdc3126803275d9aafe75ca8ac593372ab203fee"),
        (64, 5000, "bf5234fe357f4f4d12dcc5a9591b4ef334fa7577f09a42e9dff433f3da373ec3"),
        (300, 500, "b75db6dca34abfdaef7a0ea2c5603ef99ce368318403c900f46570d37e534f9b"),
    ])
    def test_jm_walk_pinned(self, n, steps, digest):
        # SHA-256 of the entries as big-endian 16-bit symbols; a rewrite of
        # the walk must keep existing (order, seed, steps) keys reproducible
        entries = generate_latin(n, b"pin", walk_steps=steps).entries
        assert hashlib.sha256(entries.astype(">u2").tobytes()).hexdigest() == digest

    def test_jm_walk_moves_somewhere(self):
        assert generate_latin(7, b"walk", walk_steps=100) != generate_latin(7, b"walk")

    @pytest.mark.parametrize("n", range(2, 13))
    def test_jm_walk_matches_cube_walk(self, n):
        # reaches n = 2 and 3 and improper chains that the pinned cases miss
        for seed in (b"a", b"b", b"c"):
            start = generate_latin(n, seed).entries
            for steps in (1, 2, 3, 10, 57, 300):
                expect = cube_walk(start, steps, _seeded_rng(n, seed, b"lsq-jm-walk"))
                got = generate_latin(n, seed, walk_steps=steps).entries
                assert np.array_equal(got, expect), (seed, steps)

    def test_jm_walk_memory_is_quadratic(self):
        # an n^3 incidence cube alone would take 128 MiB at n = 512
        tracemalloc.start()
        try:
            generate_latin(512, b"mem", walk_steps=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    def test_isotopy_peak_memory_is_the_table(self):
        # two n^2 int64 index arrays (r + c and its % n) would peak at 8x
        tracemalloc.start()
        try:
            sq = generate_latin(1024, b"mem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sq.entries.nbytes

    def test_negative_walk_steps_rejected(self):
        with pytest.raises(ValueError, match="walk steps must be >= 0"):
            generate_latin(7, b"walk", walk_steps=-1)


class TestOperations:
    def test_mul_derived(self):
        assert qg(3).mul(2, 1) == 0  # (2+1) mod 3

    def test_mul_identity_row(self):
        q = qg(3)
        assert [q.mul(0, y) for y in range(3)] == [0, 1, 2]

    def test_mul_row_is_permutation(self):
        q = Quasigroup(generate_latin(9, b"row"))
        for x in range(9):
            assert sorted(q.mul(x, y) for y in range(9)) == list(range(9))

    def test_left_div_derived(self):
        assert qg(3).left_div(2, 0) == 1  # (0-2) mod 3

    def test_right_div_derived(self):
        assert qg(3).right_div(0, 2) == 1  # (0-2) mod 3

    @pytest.mark.parametrize("n", range(2, 17))
    def test_division_identities_exhaustive(self, n):
        q = Quasigroup(generate_latin(n, b"p7"))
        for x in range(n):
            for y in range(n):
                assert q.left_div(x, q.mul(x, y)) == y
                assert q.mul(x, q.left_div(x, y)) == y

    def test_division_identities_sampled_large(self, key256, rng):
        q = key256.quasigroup()
        xs = rng.integers(0, 256, 10_000)
        ys = rng.integers(0, 256, 10_000)
        for x, y in zip(xs, ys):
            assert q.left_div(x, q.mul(x, y)) == y
            assert q.mul(x, q.left_div(x, y)) == y

    def test_right_div_cancellation(self):
        q = Quasigroup(generate_latin(7, b"rd"))
        for x in range(7):
            for y in range(7):
                assert q.right_div(q.mul(y, x), x) == y
                assert q.mul(q.right_div(y, x), x) == y

    @pytest.mark.parametrize("n", range(2, 17))
    def test_cancellation_exhaustive(self, n):
        q = Quasigroup(generate_latin(n, b"cancel"))
        for a in range(n):
            row = [q.mul(a, b) for b in range(n)]
            col = [q.mul(b, a) for b in range(n)]
            assert len(set(row)) == n
            assert len(set(col)) == n


# Each scalar reading of an order-5 key, with symbol s in one argument:
# (q, key, s) -> value. Python and NumPy index with s, so -1 would wrap round
# to the table's far end, 5 would escape as an IndexError, and a float would
# escape as one too, or be truncated by a reading that cast it to int.
SCALAR_READINGS = {
    "mul-left": lambda q, key, s: q.mul(s, 0),
    "mul-right": lambda q, key, s: q.mul(0, s),
    "left_div": lambda q, key, s: q.left_div(s, 0),
    "left_div-quotient": lambda q, key, s: q.left_div(0, s),
    "right_div": lambda q, key, s: q.right_div(s, 0),
    "right_div-divisor": lambda q, key, s: q.right_div(0, s),
    "step-input": lambda q, key, s: key.step(0, s),
    "step-state": lambda q, key, s: key.step(s, 0),
    "run-input": lambda q, key, s: key.run(0, [1, s]),
    "run-start": lambda q, key, s: key.run(s, [0]),
    "run-start-empty-word": lambda q, key, s: key.run(s, []),
    "fold_mul-block": lambda q, key, s: fold_mul(q, [s, 2], 0),
    "fold_mul-plain": lambda q, key, s: fold_mul(q, [1], s),
    "fold_left_div": lambda q, key, s: fold_left_div(q, [2, s], 0),
    "leader-encrypt": lambda q, key, s: LeaderCipher(q, 0).encrypt([s, 3]),
    "leader-leader": lambda q, key, s: LeaderCipher(q, s).encrypt([1]),
    "leader-decrypt": lambda q, key, s: LeaderCipher(q, 0).decrypt([s]),
}


@pytest.mark.parametrize("s", [-1, 5, 1.5, 2.0, True])
@pytest.mark.parametrize("reading", SCALAR_READINGS)
def test_scalar_readings_refuse_non_symbols(reading, s):
    sq = generate_latin(5, b"range")
    match = rf"symbol {s} is not in \[0, 5\)"
    if isinstance(s, (float, bool)):
        # no float is a symbol, not even an integral one, and no bool is,
        # though NumPy promotes True among integers to 1
        match = rf"symbols must be integers in \[0, 5\), got {np.asarray(s).dtype}"
    with pytest.raises(ValueError, match=match):
        SCALAR_READINGS[reading](Quasigroup(sq), KeyAutomaton(5, sq), s)


SYMBOL_DTYPES = ["bool", "int8", "uint8", "int16", "uint16", "int64", "uint64", "float64",
                 "timedelta64[s]"]


@st.composite
def symbol_candidates(draw):
    """An order and a small array of one of SYMBOL_DTYPES, whose entries are
    drawn near the ends of [0, order) as often as across the whole dtype."""
    order = draw(st.sampled_from([2, 255, 256, 257, 1000, 65535, 65536]))
    dtype = np.dtype(draw(st.sampled_from(SYMBOL_DTYPES)))
    elements = hnp.from_dtype(dtype)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        edges = [v for v in (-1, 0, 1, order - 1, order) if info.min <= v <= info.max]
        elements = st.one_of(elements, st.sampled_from(edges))
    shape = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
    return order, draw(hnp.arrays(dtype, shape, elements=elements))


@given(case=symbol_candidates(), error=st.sampled_from([ValueError, DimensionMismatch, OutOfRange]))
@settings(max_examples=300, deadline=None)
def test_require_symbols_matches_reference(case, error):
    """require_symbols accepts exactly an empty array, or one of an integer
    dtype whose every entry is in [0, order); it returns the array itself,
    and otherwise raises `error` naming the first entry outside the range."""
    order, arr = case
    integer = arr.dtype.kind in "iu"
    bad = [int(v) for v in arr.flat if not 0 <= v < order] if integer else list(arr.flat)
    if arr.size == 0 or (integer and not bad):
        assert require_symbols(arr, order, error) is arr
        return
    with pytest.raises(error) as exc:
        require_symbols(arr, order, error)
    assert type(exc.value) is error
    if integer:
        assert str(exc.value).startswith(f"symbol {bad[0]} is not in [0, {order})")
    else:
        assert f"must be integers in [0, {order})" in str(exc.value)


class TestLeftInverse:
    def test_z3_left_inverse_table(self):
        li = qg(3).left_inverse()
        expected = [[(c - a) % 3 for c in range(3)] for a in range(3)]
        assert li.cayley.entries.tolist() == expected

    def test_z2_self_inverse(self):
        q = qg(2)
        assert q.left_inverse().cayley == q.cayley

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_defining_equation_small(self, n):
        q = Quasigroup(generate_latin(n, b"li"))
        li = q.left_inverse()
        for a in range(n):
            for c in range(n):
                assert q.mul(a, li.mul(a, c)) == c

    @pytest.mark.parametrize("n", range(2, 9))
    def test_double_left_inverse_restores_table(self, n):
        q = Quasigroup(generate_latin(n, b"double"))
        assert q.left_inverse().left_inverse().cayley == q.cayley


class TestFolds:
    def test_fold_mul_derived(self, z3_q):
        # 2*1=0, 0*0=0, 1*0=1
        assert fold_mul(z3_q, (2, 0, 1), 1) == 1

    def test_fold_left_div_derived(self, z3_q):
        # 1\1=0, 0\0=0, 2\0=1
        assert fold_left_div(z3_q, (2, 0, 1), 1) == 1

    def test_single_factor_is_mul(self):
        q = Quasigroup(generate_latin(11, b"one"))
        for k in range(11):
            for p in range(11):
                assert fold_mul(q, (k,), p) == q.mul(k, p)

    def test_empty_block_rejected(self, z3_q):
        with pytest.raises(EmptyKeyBlock):
            fold_mul(z3_q, (), 0)
        with pytest.raises(EmptyKeyBlock):
            fold_left_div(z3_q, (), 0)

    def test_fold_matches_stepwise_loop(self, rng):
        q = Quasigroup(generate_latin(5, b"loop"))
        for _ in range(200):
            ks = rng.integers(0, 5, rng.integers(1, 9)).tolist()
            p = int(rng.integers(0, 5))
            acc = p
            for k in ks:
                acc = q.mul(k, acc)
            assert fold_mul(q, ks, p) == acc

    @pytest.mark.parametrize("n", [2, 3, 5, 256])
    def test_chain_roundtrip(self, n, rng):
        q = Quasigroup(generate_latin(n, b"chain"))
        for _ in range(100):
            ks = rng.integers(0, n, rng.integers(1, 33)).tolist()
            p = int(rng.integers(0, n))
            assert fold_left_div(q, ks, fold_mul(q, ks, p)) == p

    def test_fold_bijective_in_p(self):
        q = Quasigroup(generate_latin(5, b"bij"))
        for ks in [(0,), (1, 2), (4, 4, 3)]:
            images = {fold_mul(q, ks, p) for p in range(5)}
            assert images == set(range(5))


@given(n=st.integers(2, 12), seed=st.binary(max_size=8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_chain_inversion_property(n, seed, data):
    q = Quasigroup(generate_latin(n, seed))
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16))
    p = data.draw(st.integers(0, n - 1))
    c = fold_mul(q, ks, p)
    assert fold_left_div(q, ks, c) == p


@given(n=st.integers(2, 12), seed=st.binary(max_size=8))
@settings(max_examples=40, deadline=None)
def test_generated_square_always_latin(n, seed):
    validate_latin(generate_latin(n, seed).entries)


@given(n=st.integers(2, 181) | st.integers(182, 300), seed=st.binary(max_size=4),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_overwritten_cells_named_as_reference(n, seed, data):
    # Above order 181 each pass takes two blocks or more, so one to three
    # edits can leave several repeats, and row and column violations in
    # different blocks. An edit overwrites cell (i, a) with the value of
    # (i, b), any symbol while row i is still a permutation, or swaps two
    # cells of row i (a column violation) or of column i (a row violation).
    # With a == b it leaves the table Latin, and then the certificate must
    # keep the inverse a scalar loop builds.
    t = generate_latin(n, seed).entries.astype(np.int64)
    # hypothesis favours small integers; the mirror reaches the last blocks
    line = st.integers(0, n - 1) | st.integers(0, n - 1).map(lambda i: n - 1 - i)
    edit = st.tuples(st.sampled_from(["cell", "row-swap", "col-swap"]), line, line, line)
    for kind, i, a, b in data.draw(st.lists(edit, min_size=1, max_size=3)):
        if kind == "cell":
            t[i, a] = t[i, b]
        elif kind == "row-swap":
            t[i, [a, b]] = t[i, [b, a]]
        else:
            t[[a, b], i] = t[[b, a], i]
    expect = first_violation(t)
    for inverse in INVERSE:
        assert raised_violation(t, inverse) == expect
    if expect is None:
        inv = kept_row_inverse(validate_latin(t, inverse=True))
        assert inv.entries.tolist() == scalar_row_inverse(t)
