"""Command-line surface: keygen, encrypt, decrypt, inspect, attack-demo.

`encrypt` and `decrypt` stream: each reads its input in IO_CHUNK parts
through one multi-part message of a CipherSession, so their memory does not
grow with the file. The input must be a regular file, whose size fixes the
container header before any output is written, and the output must be
neither the input nor the key file. A run that needs more keystream than
one nonce covers is refused before the output is opened.

Every command that writes `--out`, keygen as well as encrypt and decrypt,
writes a temporary file beside the file `--out` resolves to and renames it
over that file only when the output is complete, so a run that fails leaves
`--out` as it was; an `--out` that exists and is not a regular file, such
as /dev/null, is written directly.

A key, named by `--key` or given to `inspect`, is read from a file or a
pipe only after its header: the size the header gives must match a regular
file's, and no more than one byte past it is read from a pipe.
`encrypt` and `decrypt` refuse a key whose header gives an order other
than 256 before they read its table, and only `decrypt` keeps the row
inverse that key load can build. `inspect` prints a key's fingerprint, to
tell keys apart by. It reads a container in parts; a container must be a
regular file, whose size frames it.

Exit codes: 0 success, 2 usage or out-of-range flag, 3 malformed key or
container, 4 I/O failure, 5 decrypt diagnostic checksum mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import zlib

import numpy as np

from . import keystream
from .automaton import KeyAutomaton
from .cipher import ENGINES, CipherSession
from .classical import UNKNOWN, LeaderCipher, attack_decrypt, known_plaintext_learn
# read_container and write_container are unused here, but perfbench's tracer
# patches both in this module's namespace, as it does read_key and zlib.
from .codec import (
    CONTAINER_MAGIC,
    CRC_TRAILER,
    HEADER_BYTES,
    KEY_HEADER_BYTES,
    KEY_MAGIC,
    ContainerHeader,
    KeyFile,
    key_file_size,
    key_fingerprint,
    key_order,
    read_container,
    read_container_header,
    read_key,
    write_container,
    write_key,
)
from .errors import CodecError, InconsistentPairs, LengthMismatch, LsqError, OutOfRange
from .keystream import NONCE_BYTES, SEED_BYTES
from .latin import (Quasigroup, generate_latin, holds_only_symbols, require_symbols,
                    symbol_wire_dtype)

EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_IO = 4
EXIT_CHECKSUM = 5

FORCE_NONCE_ENV = "LSQ_FORCE_NONCE"  # hex, test-only

# Bytes per read when encrypt and decrypt stream a file.
IO_CHUNK = 1 << 20


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _open_input(path: str, out: str, key: str):
    """Open the input of a streaming run that reads `key` and writes `out`.

    The input must be a regular file, so that its size is known before any
    output is written. `out` must be neither the input nor the key file:
    the finished output replaces `out`, so an in-place run would replace
    its own input or key with its output. All three are usage errors.
    """
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        raise ValueError(f"input must be a regular file: {path}")
    try:
        dst = os.stat(out)
    except FileNotFoundError:
        pass
    else:
        for name, other in (("input", st), ("key", os.stat(key))):
            if (dst.st_dev, dst.st_ino) == (other.st_dev, other.st_ino):
                raise ValueError(f"output is the {name} file: {out}")
    return open(path, "rb")


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a binary file that becomes `path` only if the block ends without
    an exception; otherwise `path` is left as it was and nothing is left
    behind.

    The file is a new one beside the file `path` resolves to, so a
    symlinked `path` keeps its link, and it takes the permission bits of the
    file it replaces. An existing `path` that is not a regular file, such as
    /dev/null, is opened and written directly.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as dst:
            yield dst
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    # "xb" gives a new file the mode open(path, "wb") would give it
    dst = open(tmp, "xb")
    try:
        with dst:
            if old is not None:
                os.fchmod(dst.fileno(), stat.S_IMODE(old.st_mode))
            yield dst
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _parts(src, count: int, dtype):
    """Read the next `count` items of `dtype` from `src` in parts of at most
    IO_CHUNK bytes, all in one buffer: each part is overwritten by the next.

    Raises OSError if `src` ends early.
    """
    buf = np.empty(min(count, IO_CHUNK // np.dtype(dtype).itemsize), dtype=dtype)
    while count:
        part = buf[:min(count, len(buf))]
        if src.readinto(part) != part.nbytes:
            raise OSError("input shrank while it was read")
        count -= len(part)
        yield part


def _stream(src, dst, count: int, message, plain_in: bool) -> int:
    """Run the next `count` bytes of `src` through the session method
    `message` into `dst`, one IO_CHUNK part at a time.

    Returns the CRC-32 of the plaintext side: the input when `plain_in`,
    else the output. Raises OSError if `src` ends early.
    """
    crc = 0
    for part in _parts(src, count, np.uint8):
        count -= len(part)
        out = message(part, final=not count)
        dst.write(out)
        crc = zlib.crc32(part if plain_in else out, crc)
    return crc


def _check_payload(src, header: ContainerHeader):
    """Raise OutOfRange, as read_container does, if a payload symbol read
    from `src` in IO_CHUNK parts is not below the order. Reads nothing at
    orders that fill the symbol width, where every value is a symbol."""
    wire = symbol_wire_dtype(header.order)
    if holds_only_symbols(wire, header.order):
        return
    for part in _parts(src, header.count, wire):
        require_symbols(part, header.order, OutOfRange)


def _read_to_end(src, n: int) -> bytes:
    """The last `n` bytes of `src`; raises OSError if it does not end there."""
    tail = src.read(n + 1)
    if len(tail) != n:
        raise OSError("input changed size while it was read")
    return tail


def _key_bytes(fh, head: bytes = b"") -> memoryview:
    """The bytes of the key file open on `fh`, whose first bytes `head` have
    already been read, for read_key to certify.

    The body is read only after the header: a regular file must be the size
    the header gives, and no more than one byte past that size is read from
    a pipe, so a large file that is not a key costs no more than its header.
    """
    head += fh.read(KEY_HEADER_BYTES - len(head))
    size = key_file_size(head)
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size != size:
        raise LengthMismatch(f"key file has {st.st_size} bytes, its header gives {size}")
    # one byte past the size shows a pipe that runs on; the buffer is not
    # zeroed, so a pipe that ends early never touches most of it
    buf = memoryview(np.empty(size + 1, dtype=np.uint8))
    buf[:len(head)] = head
    got = len(head) + fh.readinto(buf[len(head):])
    return buf[:got]


def _load_byte_key(path: str, inverse: bool) -> KeyFile:
    """The key at `path` for encrypt or decrypt, which operate on byte
    files and need an order-256 key: a key of any other order is refused
    from its header, before its table is read. `inverse` goes to read_key:
    only decrypt runs on the row inverse."""
    with open(path, "rb") as fh:
        head = fh.read(KEY_HEADER_BYTES)
        if key_order(head) != 256:
            raise ValueError("encrypt/decrypt operate on byte files and need an order-256 key")
        return read_key(_key_bytes(fh, head), inverse=inverse)


def _fresh_nonce() -> bytes:
    forced = os.environ.get(FORCE_NONCE_ENV)
    if forced:
        nonce = bytes.fromhex(forced)
        if len(nonce) != NONCE_BYTES:
            raise ValueError(f"{FORCE_NONCE_ENV} must be {NONCE_BYTES} hex-encoded bytes")
        return nonce
    return os.urandom(NONCE_BYTES)


def cmd_keygen(args) -> int:
    table_seed = bytes.fromhex(args.table_seed) if args.table_seed else os.urandom(32)
    ks_seed = bytes.fromhex(args.keystream_seed) if args.keystream_seed else os.urandom(SEED_BYTES)
    if len(ks_seed) != SEED_BYTES:
        return _fail(EXIT_USAGE, f"keystream seed must be {SEED_BYTES} bytes")
    square = generate_latin(args.order, table_seed, walk_steps=args.walk_steps)
    kf = KeyFile(key=KeyAutomaton(square.order, square), seed=ks_seed)
    with _replacing(args.out) as dst:
        dst.write(write_key(kf))
    print(f"wrote key: order={args.order} walk_steps={args.walk_steps} -> {args.out}")
    return 0


def cmd_encrypt(args) -> int:
    kf = _load_byte_key(args.key, inverse=False)
    if not 1 <= args.block <= 255:
        return _fail(EXIT_USAGE, "block length must be in [1, 255]")
    with _open_input(getattr(args, "in"), args.out, args.key) as src:
        size = os.fstat(src.fileno()).st_size
        # At order 256 each symbol draws one ChaCha20 byte and none is
        # rejected, so size * m is exactly the keystream of this one nonce.
        if size * args.block > keystream.BYTE_CAP:
            return _fail(EXIT_USAGE, f"{size} bytes at m={args.block} need more keystream "
                                     f"than one nonce covers ({keystream.BYTE_CAP} bytes)")
        nonce = _fresh_nonce()
        header = ContainerHeader(order=256, m=args.block, nonce=nonce, count=size).pack()
        session = CipherSession(kf.key, kf.seed, nonce, args.block, engine=args.engine)
        with _replacing(args.out) as dst:
            dst.write(header)
            crc = _stream(src, dst, size, session.encrypt_message, plain_in=True)
            _read_to_end(src, 0)
            dst.write(CRC_TRAILER.pack(crc))
    print(f"encrypted {size} bytes (m={args.block}, engine={args.engine}) -> {args.out}")
    return 0


def cmd_decrypt(args) -> int:
    kf = _load_byte_key(args.key, inverse=True)
    with _open_input(getattr(args, "in"), args.out, args.key) as src:
        header = read_container_header(src.read(HEADER_BYTES), os.fstat(src.fileno()).st_size)
        if header.order != kf.order:
            return _fail(EXIT_FORMAT, f"container order {header.order} != key order {kf.order}")
        if header.count * header.m > keystream.BYTE_CAP:  # exact, as in encrypt
            return _fail(EXIT_FORMAT, f"container needs more keystream than one nonce "
                                      f"covers ({keystream.BYTE_CAP} bytes)")
        session = CipherSession(kf.key, kf.seed, header.nonce, header.m, engine=args.engine)
        with _replacing(args.out) as dst:
            crc = _stream(src, dst, header.count, session.decrypt_message, plain_in=False)
            (stored_crc,) = CRC_TRAILER.unpack(_read_to_end(src, CRC_TRAILER.size))
    if crc != stored_crc:
        print("warning: diagnostic plaintext checksum mismatch (wrong key, "
              "tampering, or corruption); output written anyway; "
              "`lsqcipher inspect KEY` prints a fingerprint to compare keys by",
              file=sys.stderr)
        return EXIT_CHECKSUM
    print(f"decrypted {header.count} bytes -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    with open(args.path, "rb") as fh:
        head = fh.read(HEADER_BYTES)
        if head[:len(KEY_MAGIC)] == KEY_MAGIC:
            data = _key_bytes(fh, head)
            kf = read_key(data, inverse=False)
            print("type: key file")
            print(f"order: {kf.order}")
            print("latin: valid")
            print("checksum: ok")
            print(f"fingerprint: {key_fingerprint(data)}")
        elif head[:len(CONTAINER_MAGIC)] == CONTAINER_MAGIC:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):  # a pipe has no size to frame it by
                raise ValueError(f"container must be a regular file: {args.path}")
            header = read_container_header(head, st.st_size)
            _check_payload(fh, header)
            fh.seek(header.size - CRC_TRAILER.size)
            (crc,) = CRC_TRAILER.unpack(_read_to_end(fh, CRC_TRAILER.size))
            print("type: ciphertext container")
            print(f"order: {header.order}")
            print(f"block length m: {header.m}")
            print(f"nonce: {header.nonce.hex()}")
            print(f"payload symbols: {header.count}")
            print(f"plaintext crc (diagnostic): {crc:#010x}")
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

    # the flags encrypt and decrypt share
    streaming = argparse.ArgumentParser(add_help=False)
    streaming.add_argument("--key", required=True)
    streaming.add_argument("--in", required=True)
    streaming.add_argument("--out", required=True)
    streaming.add_argument("--engine", choices=ENGINES, default="fa")

    p = sub.add_parser("encrypt", help="encrypt a file", parents=[streaming])
    p.add_argument("-m", "--block", type=int, default=4)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a container", parents=[streaming])
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
