"""Exception hierarchy shared by all lsqcipher modules."""


class LsqError(Exception):
    """Base class for all lsqcipher errors."""


# --- Latin square / quasigroup construction ---

class DimensionMismatch(LsqError):
    """Input table is not square (or rows have unequal lengths)."""


class OrderTooSmall(LsqError):
    """Alphabet order below 2 is rejected; a 1-symbol cipher is vacuous."""


class RowViolation(LsqError):
    def __init__(self, row: int, symbol: int):
        self.row = row
        self.symbol = symbol
        super().__init__(f"row {row} repeats symbol {symbol}")


class ColViolation(LsqError):
    def __init__(self, col: int, symbol: int):
        self.col = col
        self.symbol = symbol
        super().__init__(f"column {col} repeats symbol {symbol}")


class EmptyKeyBlock(LsqError):
    """A fold over an empty keystream block is undefined."""


class EmptyInput(LsqError):
    """The last-state of an empty input word is undefined."""


# --- keystream ---

class InvalidSpec(LsqError):
    """Keystream spec fails validation (block length, order, seed/nonce sizes)."""


class StreamExhausted(LsqError):
    """Per-nonce symbol cap reached; rekey with a fresh nonce."""


# --- cipher sessions ---

class NonceReuse(LsqError):
    """A session already consumed for one message was reused for another."""


# --- classical cipher attack ---

class InconsistentPairs(LsqError):
    """Observed plaintext/ciphertext pairs contradict a single fixed table."""


# --- serialization ---

class CodecError(LsqError):
    """Base class for key-file and container parse failures."""


class BadMagic(CodecError):
    pass


class BadChecksum(CodecError):
    pass


class NotLatin(CodecError):
    pass


class TruncatedFile(CodecError):
    pass


class UnsupportedVersion(CodecError):
    pass


class LengthMismatch(CodecError):
    pass


class OutOfRange(CodecError):
    """A container order outside [2, MAX_ORDER], a key order above
    MAX_KEY_ORDER, or a symbol outside [0, order)."""
