"""The four benchmark workloads: input generation, timed ops and output checks.

Every workload is a closed loop with one client: round trip i encrypts one
input under a nonce derived from (workload, seed, i), then decrypts the
result. `encrypt` and `decrypt` are the timed calls; `check_encrypt` and
`check_decrypt` run outside the timed region and raise `CheckFailed` when an
output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from lsqcipher import cli
from lsqcipher.automaton import KeyAutomaton
from lsqcipher.cipher import CipherSession
from lsqcipher.codec import (
    CONTAINER_MAGIC,
    CipherContainer,
    KeyFile,
    read_container,
    read_key,
    write_container,
    write_key,
)
from lsqcipher.keystream import KeystreamReader, KeystreamSpec
from lsqcipher.latin import fold_mul, generate_latin

DEFAULT_SEED = 0
ORACLE_POSITIONS = 8
_CHUNK = 1 << 20
# magic, version, order, m, nonce, symbol count
CONTAINER_HEADER = struct.Struct(">8sBIB12sQ")

# SHA-256 of round trip 0's ciphertext container at DEFAULT_SEED. A change to
# the ciphertext bytes makes that op fail.
PINNED_SHA256 = {
    "bulk-m1": "05a9e1f26144510f20c6a1c6e788d72da2e120399782424f05a2eca82d6a2f1d",
    "bulk-m16": "e75e17edc0db3ef49f42e9576b902b6bdb3334c165cacf35b607377251f95f26",
    "small-msgs": "33fb1578b3ef39eb55f162eb93bc52fcdea741f9a5629dfd5c95215d7020b4c9",
    "wide-order": "3dce5693312137e7fba8d128b4276501511cc3710e58cce13dbe1740b23781d3",
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def op_nonce(name: str, seed: int, i) -> bytes:
    return hashlib.sha256(f"perfbench/{name}/{seed}/{i}".encode()).digest()[:12]


def make_key(rng: np.random.Generator, order: int) -> KeyFile:
    square = generate_latin(order, rng.bytes(16))
    return KeyFile(key=KeyAutomaton(order, square), seed=rng.bytes(32))


def load_session(key_bytes: bytes, nonce: bytes, m: int) -> KeyFile:
    """Key-file bytes to a ready CipherSession: the span `setup_s` times."""
    kf = read_key(key_bytes)
    kf.key.invert()
    kf.key.quasigroup()
    CipherSession(kf.key, kf.seed, nonce, m)
    return kf


def oracle_check(key: KeyAutomaton, seed: bytes, ct: CipherContainer,
                 plain: np.ndarray, positions) -> None:
    """Recompute sampled ciphertext symbols with the scalar oracles.

    A fresh KeystreamReader on the op's seed and nonce supplies the blocks;
    `KeyAutomaton.last_state` and `fold_mul` must both give the stored
    ciphertext symbol.
    """
    reader = KeystreamReader(KeystreamSpec(seed=seed, nonce=ct.nonce, m=ct.m,
                                           order=ct.order))
    q = key.quasigroup()
    done = 0
    for pos in positions:
        skip = (pos - done) * ct.m
        while skip:
            step = min(skip, _CHUNK)
            reader.take(step)
            skip -= step
        block = reader.next_block()
        done = pos + 1
        p, got = int(plain[pos]), int(ct.payload[pos])
        fa, qg = key.last_state(p, block), fold_mul(q, block.tolist(), p)
        if not fa == qg == got:
            raise CheckFailed(f"symbol {pos}: ciphertext {got}, last_state {fa}, fold_mul {qg}")


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def file_equals(path: str, expected: np.ndarray) -> bool:
    want = memoryview(expected).cast("B")
    buf = memoryview(bytearray(_CHUNK))
    pos = 0
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            if buf[:n] != want[pos:pos + n]:
                return False
            pos += n
    return pos == len(want)


class Workload:
    """Inputs and ops of one workload at one seed.

    Subclasses set `name`, `order` and `m`, generate their inputs in
    `make_inputs`, and implement `encrypt`, `decrypt`, `check_encrypt`,
    `check_decrypt` and `nbytes` (plaintext bytes of round trip i).
    """

    name: str
    order: int
    m: int
    setup_reps = 25

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.key = make_key(self.rng, self.order)
        self.key_bytes = write_key(self.key)
        self.kf: KeyFile | None = None  # the key as loaded by the last set-up
        self.pin_checked = False
        self.make_inputs()

    def nonce(self, i) -> bytes:
        return op_nonce(self.name, self.seed, i)

    def make_inputs(self):
        """Generate this workload's inputs from `self.rng`."""

    def warm_up(self):
        """One untimed, unchecked round trip, so that lazy set-up and the
        allocator's first growth to an op's working set are not timed."""
        self.decrypt(-1, self.encrypt(-1))

    def close(self):
        """Undo any process-wide state the ops set."""

    def _check_ciphertext(self, i: int, ct: CipherContainer, plain: np.ndarray, sha256):
        """Check round trip i's ciphertext; `sha256()` hashes the container."""
        if (ct.order, ct.m, ct.nonce) != (self.order, self.m, self.nonce(i)):
            raise CheckFailed(f"container header {(ct.order, ct.m, ct.nonce.hex())}")
        if len(ct.payload) != len(plain):
            raise CheckFailed(f"{len(ct.payload)} ciphertext symbols for {len(plain)}")
        pick = np.random.default_rng([self.seed, i]).integers(0, len(plain), ORACLE_POSITIONS)
        positions = sorted({0, len(plain) - 1, *pick.tolist()})
        oracle_check(self.key.key, self.key.seed, ct, plain, positions)
        if i == 0 and self.seed == DEFAULT_SEED:
            digest = sha256()
            if digest != PINNED_SHA256[self.name]:
                raise CheckFailed(f"first ciphertext sha256 {digest} != pinned "
                                  f"{PINNED_SHA256[self.name]}")
            self.pin_checked = True


class CliWorkload(Workload):
    """`lsqcipher.cli.main` in process on one random file, order 256."""

    order = 256
    size: int
    engines: tuple[str, ...]

    def make_inputs(self):
        self.plain = self.rng.integers(0, 256, self.size, dtype=np.uint8)
        self.key_path = str(self.workdir / "key.lsq")
        self.plain_path = str(self.workdir / "plain.bin")
        self.ct_path = str(self.workdir / "cipher.lsqct")
        self.out_path = str(self.workdir / "out.bin")
        (self.workdir / "key.lsq").write_bytes(self.key_bytes)
        self.plain.tofile(self.plain_path)
        self._sink = io.StringIO()

    def _cli(self, argv) -> int:
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink):
            return cli.main(argv)

    def _engine(self, i: int, decrypt: bool) -> str:
        return self.engines[(i + decrypt) % len(self.engines)]

    def encrypt(self, i):
        os.environ[cli.FORCE_NONCE_ENV] = self.nonce(i).hex()
        return self._cli(["encrypt", "--key", self.key_path, "--in", self.plain_path,
                          "--out", self.ct_path, "-m", str(self.m),
                          "--engine", self._engine(i, False)])

    def decrypt(self, i, code):
        return self._cli(["decrypt", "--key", self.key_path, "--in", self.ct_path,
                          "--out", self.out_path, "--engine", self._engine(i, True)])

    def nbytes(self, i) -> int:
        return self.size

    # The checks read the files in place or in small chunks: a whole-file
    # copy here would sit in the heap beside the ops' buffers and move
    # peak_rss_mib from run to run.

    def check_encrypt(self, i, code):
        if code != 0:
            raise CheckFailed(f"encrypt exit code {code}")
        with open(self.ct_path, "rb") as fh:
            magic, version, order, m, nonce, count = CONTAINER_HEADER.unpack(
                fh.read(CONTAINER_HEADER.size))
        if magic != CONTAINER_MAGIC or version != 1:
            raise CheckFailed(f"container magic {magic!r}, version {version}")
        payload = np.memmap(self.ct_path, dtype=np.uint8, mode="r",
                            offset=CONTAINER_HEADER.size, shape=(count,))
        ct = CipherContainer(order=order, m=m, nonce=nonce, payload=payload, plaintext_crc=0)
        self._check_ciphertext(i, ct, self.plain, lambda: file_sha256(self.ct_path))

    def check_decrypt(self, i, code):
        if code != 0:
            raise CheckFailed(f"decrypt exit code {code}")
        if not file_equals(self.out_path, self.plain):
            raise CheckFailed("round trip mismatch")

    def close(self):
        os.environ.pop(cli.FORCE_NONCE_ENV, None)


class BulkM1(CliWorkload):
    # The lookup chain is one step, so codec, CRC, file I/O, dtype widening
    # and memory are a large share of an op; streaming and codec changes show.
    name = "bulk-m1"
    size = 16 << 20
    m = 1
    engines = ("fa",)


class BulkM16(CliWorkload):
    # Keystream and lookup kernel are nearly all of an op; the control where
    # codec changes must show no change. Ops alternate fa and qg, and each
    # round trip decrypts with the other engine than it encrypted with.
    name = "bulk-m16"
    size = 4 << 20
    m = 16
    engines = ("fa", "qg")


class LibraryWorkload(Workload):
    """The library API: session, encrypt_message, container codec, CRC."""

    encrypt_engine = decrypt_engine = "fa"

    def message(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def nbytes(self, i) -> int:
        msg = self.message(i)
        return msg.size * msg.itemsize

    def encrypt(self, i):
        p = self.message(i)
        nonce = self.nonce(i)
        session = CipherSession(self.kf.key, self.kf.seed, nonce, self.m,
                                engine=self.encrypt_engine)
        payload = session.encrypt_message(p)
        return write_container(CipherContainer(order=self.order, m=self.m, nonce=nonce,
                                               payload=payload, plaintext_crc=zlib.crc32(p)))

    def decrypt(self, i, blob):
        ct = read_container(blob)
        session = CipherSession(self.kf.key, self.kf.seed, ct.nonce, ct.m,
                                engine=self.decrypt_engine)
        out = session.decrypt_message(ct.payload)
        return out, zlib.crc32(out) == ct.plaintext_crc

    def check_encrypt(self, i, blob):
        self._check_ciphertext(i, read_container(blob), self.message(i),
                               lambda: hashlib.sha256(blob).hexdigest())

    def check_decrypt(self, i, result):
        out, crc_ok = result
        if not crc_ok:
            raise CheckFailed("diagnostic plaintext CRC mismatch")
        if not np.array_equal(out, self.message(i)):
            raise CheckFailed("round trip mismatch")


class SmallMsgs(LibraryWorkload):
    # Fixed per-message costs dominate: session init, ChaCha set-up and the
    # keystream refill, which is sized for 64 KiB whatever the message.
    name = "small-msgs"
    order = 256
    m = 4
    count = 6000

    def make_inputs(self):
        lo, hi = np.log(64), np.log(4096)
        sizes = np.exp(self.rng.uniform(lo, hi, self.count)).astype(np.int64)
        data = self.rng.integers(0, 256, int(sizes.sum()), dtype=np.uint8)
        ends = np.cumsum(sizes)
        self.messages = np.split(data, ends[:-1])

    def message(self, i: int) -> np.ndarray:
        return self.messages[i % self.count]


class WideOrder(LibraryWorkload):
    # The only workload with a large-order key: key load dominated by
    # validation, 2-byte symbols, the uint16 codec and rejection sampling in
    # the keystream. Decryption uses the qg engine.
    name = "wide-order"
    order = 1000
    m = 4
    symbols = 1 << 20
    decrypt_engine = "qg"
    setup_reps = 7

    def make_inputs(self):
        self.plain = self.rng.integers(0, self.order, self.symbols).astype(np.uint16)

    def message(self, i: int) -> np.ndarray:
        return self.plain


WORKLOADS = {w.name: w for w in (BulkM1, BulkM16, SmallMsgs, WideOrder)}
