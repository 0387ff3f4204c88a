"""Command-line surface: keygen, encrypt, decrypt, inspect, attack-demo.

Exit codes: 0 success, 2 usage or out-of-range flag, 3 malformed key or
container, 4 I/O failure, 5 decrypt diagnostic checksum mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib

import numpy as np

from .automaton import KeyAutomaton
from .cipher import CipherSession
from .classical import UNKNOWN, LeaderCipher, attack_decrypt, known_plaintext_learn
from .codec import CipherContainer, KeyFile, read_container, read_key, write_container, write_key
from .errors import CodecError, InconsistentPairs, LsqError
from .keystream import NONCE_BYTES, SEED_BYTES
from .latin import MAX_ORDER, Quasigroup, generate_latin

EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_IO = 4
EXIT_CHECKSUM = 5

FORCE_NONCE_ENV = "LSQ_FORCE_NONCE"  # hex, test-only


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def _load_key(path: str) -> KeyFile:
    return read_key(_read_bytes(path))


def _fresh_nonce() -> bytes:
    forced = os.environ.get(FORCE_NONCE_ENV)
    if forced:
        nonce = bytes.fromhex(forced)
        if len(nonce) != NONCE_BYTES:
            raise ValueError(f"{FORCE_NONCE_ENV} must be {NONCE_BYTES} hex-encoded bytes")
        return nonce
    return os.urandom(NONCE_BYTES)


def cmd_keygen(args) -> int:
    if not 2 <= args.order <= MAX_ORDER:
        return _fail(EXIT_USAGE, f"order must be in [2, {MAX_ORDER}]")
    if args.walk_steps < 0:
        return _fail(EXIT_USAGE, "walk steps must be >= 0")
    table_seed = bytes.fromhex(args.table_seed) if args.table_seed else os.urandom(32)
    ks_seed = bytes.fromhex(args.keystream_seed) if args.keystream_seed else os.urandom(SEED_BYTES)
    if len(ks_seed) != SEED_BYTES:
        return _fail(EXIT_USAGE, f"keystream seed must be {SEED_BYTES} bytes")
    square = generate_latin(args.order, table_seed, walk_steps=args.walk_steps)
    kf = KeyFile(key=KeyAutomaton(square.order, square), seed=ks_seed)
    _write_bytes(args.out, write_key(kf))
    print(f"wrote key: order={args.order} walk_steps={args.walk_steps} -> {args.out}")
    return 0


def cmd_encrypt(args) -> int:
    kf = _load_key(args.key)
    if kf.order != 256:
        return _fail(EXIT_USAGE, "encrypt/decrypt operate on byte files and need an order-256 key")
    if not 1 <= args.block <= 255:
        return _fail(EXIT_USAGE, "block length must be in [1, 255]")
    plaintext = _read_bytes(getattr(args, "in"))
    nonce = _fresh_nonce()
    session = CipherSession(kf.key, kf.seed, nonce, args.block, engine=args.engine)
    payload = session.encrypt_message(plaintext)
    container = CipherContainer(order=256, m=args.block, nonce=nonce,
                                payload=payload, plaintext_crc=zlib.crc32(plaintext))
    _write_bytes(args.out, write_container(container))
    print(f"encrypted {len(plaintext)} bytes (m={args.block}, engine={args.engine}) -> {args.out}")
    return 0


def cmd_decrypt(args) -> int:
    kf = _load_key(args.key)
    container = read_container(_read_bytes(getattr(args, "in")))
    if container.order != kf.order:
        return _fail(EXIT_FORMAT, f"container order {container.order} != key order {kf.order}")
    if kf.order != 256:
        return _fail(EXIT_USAGE, "encrypt/decrypt operate on byte files and need an order-256 key")
    session = CipherSession(kf.key, kf.seed, container.nonce, container.m, engine=args.engine)
    plaintext = session.decrypt_message(container.payload).tobytes()
    _write_bytes(args.out, plaintext)
    if zlib.crc32(plaintext) != container.plaintext_crc:
        print("warning: diagnostic plaintext checksum mismatch (wrong key, "
              "tampering, or corruption); output written anyway", file=sys.stderr)
        return EXIT_CHECKSUM
    print(f"decrypted {len(plaintext)} bytes -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    data = _read_bytes(args.path)
    from .codec import CONTAINER_MAGIC, KEY_MAGIC
    if data[:len(KEY_MAGIC)] == KEY_MAGIC:
        kf = read_key(data)
        print("type: key file")
        print(f"order: {kf.order}")
        print("latin: valid")
        print("checksum: ok")
    elif data[:len(CONTAINER_MAGIC)] == CONTAINER_MAGIC:
        ct = read_container(data)
        print("type: ciphertext container")
        print(f"order: {ct.order}")
        print(f"block length m: {ct.m}")
        print(f"nonce: {ct.nonce.hex()}")
        print(f"payload symbols: {len(ct.payload)}")
        print(f"plaintext crc (diagnostic): {ct.plaintext_crc:#010x}")
    else:
        raise CodecError("BadMagic: file is neither a key file nor a container")
    return 0


def cmd_attack_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.order
    square = generate_latin(n, rng.bytes(16))
    q = Quasigroup(square)

    if args.contrast:
        # feed keystream-cipher transcripts to the leader-cipher learning rule
        key = KeyAutomaton(square.order, square)
        seed = rng.bytes(SEED_BYTES)
        pairs = []
        for _ in range(max(args.messages, 2)):
            p = rng.integers(0, n, args.length)
            s = CipherSession(key, seed, rng.bytes(NONCE_BYTES), 4)
            pairs.append((p.tolist(), s.encrypt_message(p).tolist()))
        try:
            known_plaintext_learn(n, pairs)
        except InconsistentPairs as exc:
            print(f"keystream-cipher transcripts: InconsistentPairs ({exc})")
            print("the leader-cipher learning rule does not transfer; "
                  "transitions are position-dependent")
            return 0
        print("no inconsistency observed (try more/longer messages)")
        return 0

    leader = int(rng.integers(0, n))
    lc = LeaderCipher(q, leader)
    pairs = []
    for _ in range(args.messages):
        p = rng.integers(0, n, args.length).tolist()
        pairs.append((p, lc.encrypt(p)))
    know = known_plaintext_learn(n, pairs)
    held_out = rng.integers(0, n, args.length).tolist()
    truth = held_out
    guess = attack_decrypt(know, lc.encrypt(held_out))
    correct = sum(g == t for g, t in zip(guess, truth))
    unknown = sum(g == UNKNOWN for g in guess)
    print(f"order: {n}, known pairs: {args.messages} x {args.length} symbols")
    print(f"learned table cells: {len(know.triples)} / {n * n}")
    cands = know.leader_candidates
    print(f"leader candidates: {sorted(cands)} (true leader: {leader})")
    acc = correct / len(truth) if truth else 0.0
    print(f"held-out recovery: {correct}/{len(truth)} symbols "
          f"({acc:.1%}), {unknown} marked unknown")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsqcipher",
                                     description="Latin-square stream cipher toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("-n", "--order", type=int, default=256)
    p.add_argument("--walk-steps", type=int, default=0)
    p.add_argument("--table-seed", help="hex seed for the table (default: random)")
    p.add_argument("--keystream-seed", help="hex 32-byte keystream seed (default: random)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file")
    p.add_argument("--key", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-m", "--block", type=int, default=4)
    p.add_argument("--engine", choices=("fa", "qg"), default="fa")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a container")
    p.add_argument("--key", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--engine", choices=("fa", "qg"), default="fa")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("inspect", help="describe a key file or container")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("attack-demo", help="known-plaintext attack on the leader cipher")
    p.add_argument("-n", "--order", type=int, default=16)
    p.add_argument("--messages", type=int, default=200)
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--contrast", action="store_true",
                   help="run the learning rule against keystream-cipher transcripts")
    p.set_defaults(func=cmd_attack_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodecError as exc:
        return _fail(EXIT_FORMAT, f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except (LsqError, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
