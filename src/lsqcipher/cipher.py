"""Stream-cipher sessions over a Latin-square key.

Each ciphertext symbol c_i is the last state reached by running keystream
block r_i from state p_i on the key automaton; read as a quasigroup, the
same lookups fold the block through the product. Decryption runs the
mirrored block on the key's row inverse, which is also left division.
Messages go through one vectorised kernel, `_chain`; the scalar readings
(`KeyAutomaton.last_state`, `fold_mul`, `fold_left_div`) are its test
oracles. Since c_i depends only on p_i and r_i, the kernel runs in fixed
chunks of message symbols with narrow table indices, so its working memory
does not grow with the message length; a chunk also holds at most
_CHUNK_KEYSTREAM keystream symbols, so it does not grow with m either. For
the same reason a message may arrive in parts:
`encrypt_message(part, final=False)` keeps the session open, and symbol i
consumes block i however the message is split, so the parts concatenate to
the ciphertext of one call.

Every flat index k * n + s the kernel gathers through is below n * n: each
input passes latin.require_symbols, the one rule for what a symbol is, so
message symbols on entry, table entries when the key's square is built,
and keystream symbols once per chunk are integers in [0, n). So the gather
runs in NumPy's "clip" mode, which never clamps here; its default "raise"
mode would gather into a fresh copy of the output and copy it back on
every round.
"""

from __future__ import annotations

import numpy as np

from .automaton import KeyAutomaton
from .errors import NonceReuse
from .keystream import KeystreamReader, KeystreamSpec
from .latin import require_symbols, symbol_array

ENGINES = ("fa", "qg")

# Message symbols per pass of the kernel: bounds its working memory.
_CHUNK = 1 << 16
# Keystream symbols per pass at most: bounds that memory for every m.
_CHUNK_KEYSTREAM = 1 << 20


class CipherSession:
    """Single-message cipher state: a key and a keystream reader. Decrypt
    calls run on the key's row inverse: a key from codec.read_key holds it
    already, and any other square builds it on the first call and caches it.

    A session is sequential: its stream position advances with every symbol.
    Message-level calls claim the whole session for one message in one
    direction; starting a second message on the same (seed, nonce), or
    switching direction mid-message, raises NonceReuse.

    `engine` names a reading of the table, "fa" (automaton) or "qg"
    (quasigroup). It is validated but selects no code: both readings are
    the same lookups.
    """

    def __init__(self, key: KeyAutomaton, seed: bytes, nonce: bytes, m: int,
                 engine: str = "fa"):
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        self.key = key
        self.m = m
        self.stream = KeystreamReader(KeystreamSpec(seed, nonce, m, key.order))
        self._open = None   # direction of a message still taking parts
        self._done = False  # a final part has been processed

    def encrypt_message(self, plaintext, final: bool = True, out=None) -> np.ndarray:
        """Encrypt a symbol sequence; symbol i consumes stream block i.

        With `final=False` the sequence is one part of a longer message: the
        session stays open for the next encrypt part, and the parts' outputs
        concatenate to what one call on the whole message returns. The part
        with `final=True` ends the message; any later call raises NonceReuse,
        as does a decrypt call while an encrypt message is open.

        The ciphertext goes into a fresh array, or into `out`, which is
        returned. `out` is either the message array itself, so that the
        ciphertext is written over the plaintext, or a writable 1-D array
        of the key's symbol dtype and the message's length that shares no
        memory with it. Anything else raises ValueError before any
        keystream is drawn.
        """
        return self._message(plaintext, self.key.delta.entries, False, final, out)

    def decrypt_message(self, ciphertext, final: bool = True, out=None) -> np.ndarray:
        """Invert encrypt_message: the mirrored blocks on the row inverse.

        `final` splits a message into parts and `out` takes the output as
        for encrypt_message.
        """
        return self._message(ciphertext, self.key.invert().delta.entries, True, final, out)

    def _message(self, seq, table: np.ndarray, reverse: bool, final: bool,
                 out) -> np.ndarray:
        if self._done or self._open not in (None, reverse):
            raise NonceReuse("session already processed a message; use a fresh nonce")
        # an array or a byte string reaches _chain as the caller's buffer
        msg = symbol_array(seq, ndim=1)
        require_symbols(msg, self.key.order)
        if out is not None:
            _check_out(out, msg, table.dtype)
        self._open, self._done = reverse, final
        return _chain(table, msg, self.stream, self.m, reverse, out)


def _check_out(out, msg: np.ndarray, dtype: np.dtype) -> None:
    """Raise ValueError unless the kernel can write `msg`'s output into
    `out`: a writable 1-D array of `dtype` and msg's length that is either
    msg itself, the same elements of the same memory, or shares no memory
    with it. A partial overlap would let one chunk's output overwrite
    start symbols that a later chunk has still to read."""
    if not (isinstance(out, np.ndarray) and out.ndim == 1 and out.dtype == dtype
            and len(out) == len(msg) and out.flags.writeable):
        raise ValueError(f"out must be a writable 1-D {dtype} array of "
                         f"{len(msg)} symbols")
    same = (out.dtype == msg.dtype and out.strides == msg.strides
            and out.__array_interface__["data"][0] == msg.__array_interface__["data"][0])
    if not same and np.shares_memory(out, msg):
        raise ValueError("out must be the message array itself or share no memory with it")


def _index_dtype(n: int) -> np.dtype:
    """The narrowest type that holds every flat table index k * n + s.

    Key orders stop at MAX_KEY_ORDER = 16384, whose largest index
    n * n - 1 fits uint32.
    """
    return np.dtype(np.uint16) if n <= 256 else np.dtype(np.uint32)


def _chain(table: np.ndarray, start: np.ndarray, stream, m: int,
           reverse: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Run each keystream block from the matching start state, vectorized
    across message positions: state = table[k, state] for each block symbol
    k. `reverse` feeds blocks mirrored (decryption).

    Symbol i depends only on start[i] and block i, so the message goes
    through in chunks of c = min(_CHUNK, _CHUNK_KEYSTREAM // m) symbols (at
    least one), each reading its c * m keystream symbols in one `take` and
    laying them out as (m, c), which at m = 1 is the keystream array itself.
    Each round builds its flat indices k * n + state in one reused buffer of
    the narrowest type that holds them and gathers into the output slice, so
    working memory is bounded by the chunk, not by the message length or m.
    The output is a fresh array, or `out`, which is `start` itself or
    shares no memory with it (CipherSession._message checks this). The
    first round reads the caller's symbols in place, and writes them only
    when `out` is `start`: each chunk's first round has read its start
    symbols into the index before its gather writes that slice.

    Invariant: every index is below n * n. The caller's symbols and the
    table's entries lie in [0, n), and each chunk's keystream symbols pass
    require_symbols before its first round; the check scans nothing
    for one-byte symbols at order 256. This check is also what catches a bad
    keystream symbol: at order 256, k * 256 would wrap inside the uint16
    index unseen. With the invariant the gather runs in "clip" mode, which
    then never clamps, and which writes straight into `out`: the default
    "raise" mode gathers into a temporary copy of `out` and copies it back.
    """
    n = table.shape[0]
    flat = table.reshape(-1)
    idx_dtype = _index_dtype(n)
    width = idx_dtype.type(n)
    chunk = min(_CHUNK, max(1, _CHUNK_KEYSTREAM // m))
    if out is None:
        out = np.empty(len(start), dtype=table.dtype)
    index_buf = np.empty(min(chunk, len(start)), dtype=idx_dtype)
    rounds = range(m - 1, -1, -1) if reverse else range(m)
    for lo in range(0, len(start), chunk):
        state = start[lo:lo + chunk]
        c = len(state)
        # rebinding drops the last chunk's blocks before this chunk's copy
        blocks = require_symbols(stream.take(c * m), n)
        blocks = np.ascontiguousarray(blocks.reshape(c, m).T)
        index = index_buf[:c]
        for j in rounds:
            # The loop type is pinned: NumPy 1.x would pick it from the
            # value of `width` (uint8 at n = 200) and wrap k * n.
            np.multiply(blocks[j], width, out=index, dtype=idx_dtype,
                        casting="unsafe")
            np.add(index, state, out=index, casting="unsafe")
            state = np.take(flat, index, out=out[lo:lo + c], mode="clip")
    return out
