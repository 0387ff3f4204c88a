"""One grid over every public entry that takes symbols: each refuses a
non-symbol, at the first position or a later one, in every form it takes,
with its own exception class. latin.require_symbols decides what a symbol
is, and latin.symbol_array is the one place where a caller's object turns
into an array, so no entry sees a bool among integers as 0 or 1."""

import copy

import numpy as np
import pytest

from lsqcipher.automaton import KeyAutomaton
from lsqcipher.cipher import CipherSession
from lsqcipher.classical import (LeaderCipher, RecoveredKnowledge, attack_decrypt,
                                 known_plaintext_learn)
from lsqcipher.codec import CipherContainer, read_container, write_container
from lsqcipher.errors import DimensionMismatch, LengthMismatch, OutOfRange
from lsqcipher.latin import (LatinSquare, Quasigroup, fold_left_div, fold_mul, generate_latin,
                             holds_only_symbols, validate_latin)

from conftest import cyclic_table

N = 5
SEED = bytes(range(32))
NONCE = bytes(range(12))
SQUARE = generate_latin(N, b"grid")
KEY = KeyAutomaton(N, SQUARE)
Q = Quasigroup(SQUARE)
WORD = [1, 3, 0, 2]
PAIR = [1, 3]


def container(payload):
    return CipherContainer(order=N, m=1, nonce=NONCE, payload=payload, plaintext_crc=0)


# name -> (exception class, valid input, forms taken, call)
ENTRIES = {
    "encrypt_message": (ValueError, WORD, "list tuple array",
                        lambda x: CipherSession(KEY, SEED, NONCE, 2).encrypt_message(x)),
    "decrypt_message": (ValueError, WORD, "list tuple array",
                        lambda x: CipherSession(KEY, SEED, NONCE, 2).decrypt_message(x)),
    "validate_latin": (DimensionMismatch, cyclic_table(N), "list tuple array", validate_latin),
    "LatinSquare": (DimensionMismatch, cyclic_table(N), "array", lambda x: LatinSquare(N, x)),
    "write_container": (OutOfRange, WORD, "list tuple array",
                        lambda x: write_container(container(x))),
    "step": (ValueError, PAIR, "list tuple array", lambda x: KEY.step(*x)),
    "mul": (ValueError, PAIR, "list tuple array", lambda x: Q.mul(*x)),
    "left_div": (ValueError, PAIR, "list tuple array", lambda x: Q.left_div(*x)),
    "right_div": (ValueError, PAIR, "list tuple array", lambda x: Q.right_div(*x)),
    "run": (ValueError, WORD, "list tuple array", lambda x: KEY.run(x[0], x[1:])),
    "fold_mul": (ValueError, WORD, "list tuple array", lambda x: fold_mul(Q, x[1:], x[0])),
    "fold_left_div": (ValueError, WORD, "list tuple array",
                      lambda x: fold_left_div(Q, x[1:], x[0])),
    "LeaderCipher.encrypt": (ValueError, WORD, "list tuple array",
                             lambda x: LeaderCipher(Q, 0).encrypt(x)),
    "LeaderCipher.decrypt": (ValueError, WORD, "list tuple array",
                             lambda x: LeaderCipher(Q, 0).decrypt(x)),
    "known_plaintext_learn-plaintext": (
        ValueError, WORD, "list tuple array",
        lambda x: known_plaintext_learn(N, [(x, WORD)])),
    "known_plaintext_learn-ciphertext": (
        ValueError, WORD, "list tuple array",
        lambda x: known_plaintext_learn(N, [(WORD, x)])),
    "attack_decrypt": (ValueError, WORD, "list tuple array",
                       lambda x: attack_decrypt(RecoveredKnowledge(N), x)),
}

# None of these is a symbol of order N = 5. A bool, or a 0-d bool array,
# is refused as the integer type NumPy promotes it to among integers is
# not; a timedelta64 is not an integer, though NumPy's type tree holds it
# under one.
VALUES = {"-1": -1, "n": N, "1.5": 1.5, "2.0": 2.0, "True": True, "np.True_": np.True_,
          "timedelta": np.timedelta64(2, "s"), "0-d True": np.array(True)}


def with_value(valid, value, position):
    """`valid`, a list or a list of rows, with `value` at its first entry
    or at its last one."""
    out = copy.deepcopy(valid)
    row = out if not isinstance(out[0], list) else out[0 if position == "first" else -1]
    row[0 if position == "first" else -1] = value
    return out


def in_form(nested, form, value):
    """A list of symbols, or a list of rows, as a list, a tuple or an
    array. The array takes the narrowest type that holds `value`, so a bool
    makes a bool array and n a uint8 one, the symbol type of order 5."""
    if form == "array":
        return np.array(nested, dtype=np.min_scalar_type(value))
    if form == "tuple":
        return tuple(tuple(r) if isinstance(r, list) else r for r in nested)
    return nested


GRID = [(entry, value, position, form)
        for entry, (_, _, forms, _) in ENTRIES.items()
        for value in VALUES
        for position in ("first", "later")
        for form in forms.split()]


@pytest.mark.parametrize("entry, value, position, form", GRID)
def test_every_boundary_refuses_a_non_symbol(entry, value, position, form):
    error, valid, _, call = ENTRIES[entry]
    call(in_form(valid, form, 0))  # the valid input is taken, as a uint8 array too
    given = in_form(with_value(valid, VALUES[value], position), form, VALUES[value])
    with pytest.raises(error) as exc:
        call(given)
    assert type(exc.value) is error


# name -> (exception class, the number of dimensions it takes, call)
SHAPED_ENTRIES = {
    "encrypt_message": (ValueError, 1,
                        lambda x: CipherSession(KEY, SEED, NONCE, 2).encrypt_message(x)),
    "decrypt_message": (ValueError, 1,
                        lambda x: CipherSession(KEY, SEED, NONCE, 2).decrypt_message(x)),
    "write_container": (LengthMismatch, 1, lambda x: write_container(container(x))),
    "validate_latin": (DimensionMismatch, 2, validate_latin),
}

# Each holds a non-symbol too, which must not be what is reported.
SHAPES = {
    "ragged": lambda ndim: [[0, 1.5], [True]],
    "ragged-tuple": lambda ndim: ((0, 1.5), (True,)),
    "wrong-ndim": lambda ndim: [[0, True], [1.5, 0]] if ndim == 1 else [0, True, 1.5],
    "wrong-ndim-array": lambda ndim: np.full((2, 2) if ndim == 1 else 2, 1.5),
    "scalar": lambda ndim: 1.5,
    "generator": lambda ndim: (s for s in (0, 1.5)),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("entry", SHAPED_ENTRIES)
def test_shape_is_refused_before_the_symbols(entry, shape):
    error, ndim, call = SHAPED_ENTRIES[entry]
    with pytest.raises(error) as exc:
        call(SHAPES[shape](ndim))
    assert type(exc.value) is error
    assert "shape" in str(exc.value) and "integers" not in str(exc.value)


@pytest.mark.parametrize("form", [list, tuple])
@pytest.mark.parametrize("order", [5, 256, 1000])
def test_sequence_payload_written_as_the_equal_array(form, order):
    symbols = [0, order - 1, 3, 1]
    want = write_container(CipherContainer(order=order, m=2, nonce=NONCE, plaintext_crc=7,
                                           payload=np.array(symbols)))
    got = write_container(CipherContainer(order=order, m=2, nonce=NONCE, plaintext_crc=7,
                                          payload=form(symbols)))
    assert got == want
    assert read_container(got).payload.tolist() == symbols


class NoIter(np.ndarray):
    """An array that may not be iterated, to show a row is judged by dtype."""

    def __iter__(self):
        raise AssertionError("an array row was iterated")


def test_array_rows_are_judged_by_their_dtype():
    rows = [row.view(NoIter) for row in SQUARE.entries]
    assert validate_latin(rows) == SQUARE
    rows = [np.array(row, dtype=np.int64) for row in cyclic_table(N)]
    rows[2] = rows[2].astype(bool)
    with pytest.raises(DimensionMismatch, match="got bool symbol True"):
        validate_latin(rows)


@pytest.mark.parametrize("dtype", [np.dtype(c) for c in "?d" + np.typecodes["AllInteger"]]
                         + [np.dtype(">u2")], ids=str)
@pytest.mark.parametrize("order", [2, 255, 256, 257, 65535, 65536, 65537])
def test_holds_only_symbols_by_width(dtype, order):
    want = dtype.kind == "u" and np.iinfo(dtype).max < order
    assert holds_only_symbols(dtype, order) is want
