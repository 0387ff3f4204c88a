"""Latin-square stream cipher toolkit.

A symmetric stream cipher whose key is a Latin square, usable either as a
finite key automaton or as a quasigroup; plus the classical leader-based
quasigroup cipher for contrast, binary key/container formats, and a CLI.
"""

from .automaton import KeyAutomaton, reverse_run
from .cipher import CipherSession
from .classical import (
    UNKNOWN,
    LeaderCipher,
    RecoveredKnowledge,
    attack_decrypt,
    known_plaintext_learn,
)
from .codec import (
    CipherContainer,
    KeyFile,
    read_container,
    read_key,
    write_container,
    write_key,
)
from .keystream import KeystreamReader, KeystreamSpec
from .latin import (
    LatinSquare,
    Quasigroup,
    fold_left_div,
    fold_mul,
    generate_latin,
    validate_latin,
)
from . import errors

__all__ = [
    "KeyAutomaton", "reverse_run",
    "CipherSession",
    "UNKNOWN", "LeaderCipher", "RecoveredKnowledge",
    "attack_decrypt", "known_plaintext_learn",
    "CipherContainer", "KeyFile",
    "read_container", "read_key", "write_container", "write_key",
    "KeystreamReader", "KeystreamSpec",
    "LatinSquare", "Quasigroup",
    "fold_left_div", "fold_mul", "generate_latin", "validate_latin",
    "errors",
]
