import hashlib
import os
import signal
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import lsqcipher
from lsqcipher import cli, keystream
from lsqcipher.cli import (
    EXIT_CHECKSUM,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_USAGE,
    FORCE_NONCE_ENV,
    main,
)
from lsqcipher.codec import (
    KEY_MAGIC,
    CipherContainer,
    ContainerHeader,
    read_container,
    read_key,
    write_container,
)
from lsqcipher.latin import MAX_KEY_ORDER, LatinSquare

from conftest import kept_row_inverse

FORCED_NONCE = "0102030405060708090a0b0c"
MIB = 1 << 20


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "test.key"
    assert main(["keygen", "-n", "256", "--table-seed", "aa55",
                 "--keystream-seed", "00" * 32, "--out", str(path)]) == 0
    return path


def key_header(order: int) -> bytes:
    """The 44 bytes that open a key file of this order."""
    return KEY_MAGIC + struct.pack(">I", order) + bytes(32)


@pytest.fixture
def forced_nonce(monkeypatch):
    monkeypatch.setenv(FORCE_NONCE_ENV, FORCED_NONCE)
    return bytes.fromhex(FORCED_NONCE)


class TestKeygen:
    def test_produces_valid_key(self, keyfile):
        kf = read_key(keyfile.read_bytes())
        assert kf.order == 256
        assert keyfile.stat().st_size == 65584

    def test_order_one_is_usage_error(self, tmp_path):
        assert main(["keygen", "-n", "1", "--out", str(tmp_path / "k")]) == EXIT_USAGE

    def test_table_seed_pins_table_only(self, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        for p in (a, b):
            assert main(["keygen", "-n", "16", "--table-seed", "beef",
                         "--out", str(p)]) == 0
        ka, kb = read_key(a.read_bytes()), read_key(b.read_bytes())
        assert ka.key.delta == kb.key.delta
        assert ka.seed != kb.seed  # keystream seed stays random

    def test_fully_seeded_keygen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        for p in (a, b):
            assert main(["keygen", "-n", "16", "--table-seed", "beef",
                         "--keystream-seed", "11" * 32, "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_walk_steps(self, tmp_path):
        out = tmp_path / "w.key"
        assert main(["keygen", "-n", "8", "--walk-steps", "25", "--out", str(out)]) == 0
        read_key(out.read_bytes())

    def test_order_above_ceiling_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "k"
        assert main(["keygen", "-n", str(MAX_KEY_ORDER + 1), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert f"key order {MAX_KEY_ORDER + 1} > {MAX_KEY_ORDER}" in capsys.readouterr().err

    def test_negative_walk_steps_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.key"
        assert main(["keygen", "-n", "4", "--walk-steps", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "walk steps" in capsys.readouterr().err
        assert not out.exists()

    def test_short_keystream_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "k"
        assert main(["keygen", "--keystream-seed", "11" * 31, "--out", str(out)]) == EXIT_USAGE
        assert "keystream seed must be 32 bytes" in capsys.readouterr().err
        assert not out.exists()


class TestEncryptDecrypt:
    def roundtrip(self, tmp_path, keyfile, data, extra=()):
        src = tmp_path / "plain.bin"
        ct = tmp_path / "ct.bin"
        out = tmp_path / "out.bin"
        src.write_bytes(data)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", str(ct), *extra]) == 0
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(out)]) == 0
        return ct, out

    def test_roundtrip(self, tmp_path, keyfile):
        data = os.urandom(10_000)
        _, out = self.roundtrip(tmp_path, keyfile, data)
        assert out.read_bytes() == data

    def test_empty_input(self, tmp_path, keyfile):
        ct, out = self.roundtrip(tmp_path, keyfile, b"")
        assert out.read_bytes() == b""
        assert len(read_container(ct.read_bytes()).payload) == 0

    def test_payload_length_preserved(self, tmp_path, keyfile):
        data = os.urandom(1 << 20)
        ct, _ = self.roundtrip(tmp_path, keyfile, data, extra=["-m", "4"])
        assert len(read_container(ct.read_bytes()).payload) == 1 << 20

    def test_engines_agree_under_forced_nonce(self, tmp_path, keyfile, forced_nonce):
        src = tmp_path / "p"
        src.write_bytes(b"engine equivalence check" * 10)
        outs = []
        for engine in ("fa", "qg"):
            dst = tmp_path / f"ct-{engine}"
            assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                         "--out", str(dst), "--engine", engine]) == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]
        assert read_container(outs[0]).nonce == forced_nonce

    def test_wrong_key_reports_checksum_mismatch(self, tmp_path, keyfile):
        data = b"secret payload"
        ct, _ = self.roundtrip(tmp_path, keyfile, data)
        other = tmp_path / "other.key"
        assert main(["keygen", "-n", "256", "--out", str(other)]) == 0
        out = tmp_path / "wrong.bin"
        code = main(["decrypt", "--key", str(other), "--in", str(ct),
                     "--out", str(out)])
        assert code == EXIT_CHECKSUM
        assert out.read_bytes() != data

    def test_truncated_container(self, tmp_path, keyfile):
        ct, _ = self.roundtrip(tmp_path, keyfile, b"hello world")
        (tmp_path / "trunc").write_bytes(ct.read_bytes()[:-3])
        assert main(["decrypt", "--key", str(keyfile), "--in",
                     str(tmp_path / "trunc"), "--out",
                     str(tmp_path / "x")]) == EXIT_FORMAT

    @pytest.mark.parametrize("m", ["0", "256"])
    def test_block_length_out_of_range(self, tmp_path, keyfile, m):
        src, out = tmp_path / "p", tmp_path / "ct"
        src.write_bytes(b"x")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", str(out), "-m", m]) == EXIT_USAGE
        assert not out.exists()

    def test_short_forced_nonce_is_usage_error(self, tmp_path, keyfile, monkeypatch, capsys):
        monkeypatch.setenv(FORCE_NONCE_ENV, FORCED_NONCE[:-2])
        src, ct = tmp_path / "plain", tmp_path / "ct"
        src.write_bytes(b"abc")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", str(ct)]) == EXIT_USAGE
        assert f"{FORCE_NONCE_ENV} must be 12 hex-encoded bytes" in capsys.readouterr().err
        assert not ct.exists()

    def test_encrypt_needs_order_256_key(self, tmp_path):
        key, src, out = tmp_path / "k16", tmp_path / "p", tmp_path / "ct"
        assert main(["keygen", "-n", "16", "--out", str(key)]) == 0
        src.write_bytes(b"x")
        assert main(["encrypt", "--key", str(key), "--in", str(src),
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("key_order, ct_order, code",
                             [(16, 16, EXIT_USAGE), (256, 300, EXIT_FORMAT)])
    def test_decrypt_order_checks(self, tmp_path, key_order, ct_order, code):
        key, ct, out = tmp_path / "k", tmp_path / "ct", tmp_path / "out"
        assert main(["keygen", "-n", str(key_order), "--out", str(key)]) == 0
        dtype = np.uint8 if ct_order <= 256 else np.uint16
        ct.write_bytes(write_container(CipherContainer(
            order=ct_order, m=1, nonce=bytes(12), payload=np.arange(5, dtype=dtype),
            plaintext_crc=0)))
        assert main(["decrypt", "--key", str(key), "--in", str(ct),
                     "--out", str(out)]) == code
        assert not out.exists()

    def test_corrupt_key_is_format_error(self, tmp_path, keyfile):
        blob = bytearray(keyfile.read_bytes())
        blob[100] ^= 0xFF
        bad = tmp_path / "bad.key"
        bad.write_bytes(bytes(blob))
        src = tmp_path / "p"
        src.write_bytes(b"x")
        assert main(["encrypt", "--key", str(bad), "--in", str(src),
                     "--out", str(tmp_path / "ct")]) == EXIT_FORMAT


class TestKeyHeaderFirst:
    """`--key` and `inspect` read a key's body only after its header."""

    def test_order_above_ceiling_refused(self, tmp_path, capsys):
        key, src = tmp_path / "k", tmp_path / "p"
        key.write_bytes(key_header(MAX_KEY_ORDER + 1))
        src.write_bytes(b"x")
        assert main(["inspect", str(key)]) == EXIT_FORMAT
        assert main(["encrypt", "--key", str(key), "--in", str(src),
                     "--out", str(tmp_path / "ct")]) == EXIT_FORMAT
        assert capsys.readouterr().err.count(f"key order {MAX_KEY_ORDER + 1}") == 2

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_file_size_not_the_headers_refused(self, tmp_path, keyfile, capsys, extra):
        blob = keyfile.read_bytes()
        key = tmp_path / "k"
        key.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
        assert main(["inspect", str(key)]) == EXIT_FORMAT
        assert f"key file has {len(blob) + extra} bytes, its header gives {len(blob)}" \
            in capsys.readouterr().err

    def test_pipe_read_one_byte_past_the_key(self, tmp_path, capsys):
        # an order-16 key and what follows it fit in the pipe's buffer, so
        # the writer never waits on a reader that has stopped
        key, fifo = tmp_path / "k16", tmp_path / "fifo"
        assert main(["keygen", "-n", "16", "--out", str(key)]) == 0
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(key.read_bytes() + bytes(100),))
        writer.start()
        try:
            assert main(["inspect", str(fifo)]) == EXIT_FORMAT
        finally:
            writer.join()
        assert "key file has 1 trailing bytes" in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_flat_in_file_size(self, tmp_path):
        # A child process names a sparse file that opens with a key header
        # as a key, to inspect and to encrypt, and reports its own peak RSS;
        # reading the file would peak higher by its size.
        child = ("import os, resource, sys\n"
                 "from lsqcipher.cli import main\n"
                 "key, src = sys.argv[1:]\n"
                 "assert main(['inspect', key]) == 3\n"
                 "assert main(['encrypt', '--key', key, '--in', src, '--out', os.devnull]) == 3\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(lsqcipher.__file__).parents[1]))
        key, src = tmp_path / "k", tmp_path / "p"
        src.write_bytes(b"x")
        peak_kib = []
        for mib in (1, 256):
            with open(key, "wb") as fh:
                fh.write(key_header(256))
                fh.truncate(mib * MIB)
            proc = subprocess.run([sys.executable, "-c", child, str(key), str(src)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.count("its header gives 65584") == 2, proc.stderr
            peak_kib.append(int(proc.stdout.split()[-1]))
            key.unlink()
        assert abs(peak_kib[1] - peak_kib[0]) <= 8 << 10, peak_kib


class TestStreamingInput:
    """encrypt and decrypt stream a regular input file into another file."""

    def encrypt(self, keyfile, src, dst):
        return main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(dst)])

    def test_in_place_encrypt_refused(self, tmp_path, keyfile):
        src = tmp_path / "plain"
        src.write_bytes(b"do not truncate me" * 100)
        assert self.encrypt(keyfile, src, src) == EXIT_USAGE
        assert src.read_bytes() == b"do not truncate me" * 100

    def test_in_place_decrypt_refused(self, tmp_path, keyfile):
        src, ct = tmp_path / "plain", tmp_path / "ct"
        src.write_bytes(b"payload" * 100)
        assert self.encrypt(keyfile, src, ct) == 0
        blob = ct.read_bytes()
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(ct)]) == EXIT_USAGE
        assert ct.read_bytes() == blob

    def test_hard_link_to_input_refused(self, tmp_path, keyfile):
        src, link = tmp_path / "plain", tmp_path / "link"
        src.write_bytes(b"abc")
        os.link(src, link)
        assert self.encrypt(keyfile, src, link) == EXIT_USAGE
        assert src.read_bytes() == b"abc"

    def test_encrypt_over_key_refused(self, tmp_path, keyfile):
        src = tmp_path / "plain"
        src.write_bytes(b"abc")
        blob = keyfile.read_bytes()
        assert self.encrypt(keyfile, src, keyfile) == EXIT_USAGE
        assert keyfile.read_bytes() == blob

    def test_decrypt_over_key_through_symlink_refused(self, tmp_path, keyfile):
        src, ct, link = tmp_path / "plain", tmp_path / "ct", tmp_path / "link"
        src.write_bytes(b"abc")
        assert self.encrypt(keyfile, src, ct) == 0
        link.symlink_to(keyfile)
        blob = keyfile.read_bytes()
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(link)]) == EXIT_USAGE
        assert keyfile.read_bytes() == blob

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_input_refused_before_output_opens(self, tmp_path, keyfile):
        fifo, out = tmp_path / "fifo", tmp_path / "out"
        os.mkfifo(fifo)

        def opened_the_fifo(signum, frame):
            # Opening a FIFO with no writer blocks: fail instead of hanging.
            raise TimeoutError("the CLI opened the FIFO")
        previous = signal.signal(signal.SIGALRM, opened_the_fifo)
        signal.alarm(10)
        try:
            assert self.encrypt(keyfile, fifo, out) == EXIT_USAGE
            assert main(["decrypt", "--key", str(keyfile), "--in", str(fifo),
                         "--out", str(out)]) == EXIT_USAGE
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not out.exists()

    @pytest.mark.parametrize("drift", [-5, 5])
    def test_input_size_change_is_io_error(self, tmp_path, keyfile, monkeypatch, drift):
        # The input yields `drift` more (or fewer) bytes than its fstat size;
        # the key file's fstat size is left alone, as the key is checked by it.
        src = tmp_path / "plain"
        src.write_bytes(os.urandom(1000))
        real_fstat = os.fstat

        def fstat(fd):
            st = real_fstat(fd)
            if st.st_ino != src.stat().st_ino:
                return st
            return os.stat_result((*st[:6], st.st_size - drift, *st[7:10]))
        monkeypatch.setattr(os, "fstat", fstat)
        assert self.encrypt(keyfile, src, tmp_path / "ct") == EXIT_IO

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_flat_in_file_size(self, tmp_path, keyfile):
        # A child process encrypts and decrypts one file at m=1 and reports
        # its own peak RSS; a whole-file CLI would peak several times the
        # file size higher on the larger file.
        child = ("import os, resource, sys\n"
                 "from lsqcipher.cli import main\n"
                 "key, src, ct = sys.argv[1:]\n"
                 "assert main(['encrypt', '--key', key, '--in', src, '--out', ct, '-m', '1']) == 0\n"
                 "assert main(['decrypt', '--key', key, '--in', ct, '--out', os.devnull]) == 0\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(lsqcipher.__file__).parents[1]))
        rng = np.random.default_rng(5)
        peak_kib = []
        for mib in (16, 64):
            src, ct = tmp_path / "plain", tmp_path / "ct"
            with open(src, "wb") as fh:
                for _ in range(mib):
                    fh.write(rng.bytes(1 << 20))
            proc = subprocess.run([sys.executable, "-c", child, str(keyfile), str(src), str(ct)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            peak_kib.append(int(proc.stdout.split()[-1]))
            src.unlink()
            ct.unlink()
        assert abs(peak_kib[1] - peak_kib[0]) <= 8 << 10, peak_kib


class TestNonceCap:
    """A run that needs more keystream than one nonce covers is refused
    before --out is opened. At order 256 a symbol at block length m draws m
    ChaCha20 bytes, so a cap of 1000 bytes covers 500 symbols at m=2."""

    CAP = 1000

    def encrypt(self, keyfile, src, out):
        return main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(out),
                     "-m", "2"])

    @pytest.mark.parametrize("size, code", [(500, 0), (501, EXIT_USAGE)])
    def test_encrypt(self, tmp_path, keyfile, monkeypatch, size, code):
        src, ct = tmp_path / "p", tmp_path / "ct"
        src.write_bytes(os.urandom(size))
        monkeypatch.setattr(keystream, "BYTE_CAP", self.CAP)
        assert self.encrypt(keyfile, src, ct) == code
        assert ct.exists() == (code == 0)

    @pytest.mark.parametrize("size, code", [(500, 0), (501, EXIT_FORMAT)])
    def test_decrypt(self, tmp_path, keyfile, monkeypatch, size, code):
        src, ct, out = tmp_path / "p", tmp_path / "ct", tmp_path / "out"
        src.write_bytes(os.urandom(size))
        assert self.encrypt(keyfile, src, ct) == 0
        monkeypatch.setattr(keystream, "BYTE_CAP", self.CAP)
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# A child process that runs the CLI but may write no file past 1 MiB, so
# writing a larger output raises OSError (EFBIG) partway, as a full disk would.
FSIZE_LIMITED_CLI = ("import resource, signal, sys\n"
                     "from lsqcipher.cli import main\n"
                     "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                     "resource.setrlimit(resource.RLIMIT_FSIZE,\n"
                     "                   (1 << 20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
                     "sys.exit(main(sys.argv[1:]))\n")


def run_fsize_limited(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(lsqcipher.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", FSIZE_LIMITED_CLI, *argv],
                          env=env, capture_output=True, text=True, timeout=300)


class TestOutputReplaced:
    """keygen, encrypt and decrypt write a new file beside --out and rename
    it over --out when the output is complete, so a run that fails leaves
    --out as it was: the old file, or no file."""

    OLD = b"the previous output" * 50

    @pytest.fixture(params=["existing", "new"])
    def out(self, request, tmp_path):
        out = tmp_path / "out"
        if request.param == "existing":
            out.write_bytes(self.OLD)
        return out

    @pytest.mark.parametrize("drift", [-5, 5])
    def test_input_size_change_leaves_out(self, tmp_path, keyfile, monkeypatch, out, drift):
        # the fake of TestStreamingInput::test_input_size_change_is_io_error
        src = tmp_path / "plain"
        src.write_bytes(os.urandom(3 * MIB))
        real_fstat = os.fstat

        def fstat(fd):
            st = real_fstat(fd)
            if st.st_ino != src.stat().st_ino:
                return st
            return os.stat_result((*st[:6], st.st_size - drift, *st[7:10]))
        before = files(tmp_path)
        monkeypatch.setattr(os, "fstat", fstat)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", str(out)]) == EXIT_IO
        assert files(tmp_path) == before

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_FSIZE and SIGXFSZ")
    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_failed_write_leaves_out(self, tmp_path, keyfile, out, command):
        src = tmp_path / "plain"
        src.write_bytes(os.urandom(3 * MIB))
        if command == "decrypt":
            ct = tmp_path / "ct"
            assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                         "--out", str(ct)]) == 0
            src = ct
        before = files(tmp_path)
        proc = run_fsize_limited([command, "--key", str(keyfile), "--in", str(src),
                                  "--out", str(out)])
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "File too large" in proc.stderr
        assert files(tmp_path) == before

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_FSIZE and SIGXFSZ")
    def test_failed_keygen_write_leaves_out(self, tmp_path, out):
        # an order-1024 key file is 2 MiB
        before = files(tmp_path)
        proc = run_fsize_limited(["keygen", "-n", "1024", "--out", str(out)])
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "File too large" in proc.stderr
        assert files(tmp_path) == before

    def test_keygen_failing_to_build_the_key_leaves_out(self, tmp_path, out, monkeypatch):
        def write_key(kf):
            raise MemoryError
        monkeypatch.setattr("lsqcipher.cli.write_key", write_key)
        before = files(tmp_path)
        with pytest.raises(MemoryError):
            main(["keygen", "--out", str(out)])
        assert files(tmp_path) == before

    def test_checksum_mismatch_output_is_complete(self, tmp_path, keyfile, out, capsys):
        src, ct, other = tmp_path / "plain", tmp_path / "ct", tmp_path / "other.key"
        src.write_bytes(os.urandom(200_003))
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(ct)]) == 0
        assert main(["keygen", "-n", "256", "--out", str(other)]) == 0
        names = set(files(tmp_path)) | {out.name}
        capsys.readouterr()
        assert main(["decrypt", "--key", str(other), "--in", str(ct),
                     "--out", str(out)]) == EXIT_CHECKSUM
        assert "`lsqcipher inspect KEY` prints a fingerprint" in capsys.readouterr().err
        assert set(files(tmp_path)) == names
        assert len(out.read_bytes()) == 200_003

    def test_symlinked_out_keeps_its_link(self, tmp_path, keyfile):
        src, target, link = tmp_path / "plain", tmp_path / "target", tmp_path / "link"
        src.write_bytes(b"abc")
        target.write_bytes(self.OLD)
        link.symlink_to(target)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert read_container(target.read_bytes()).payload.size == 3
        assert sorted(files(tmp_path)) == ["link", "plain", "target", "test.key"]

    def test_modes(self, tmp_path, keyfile):
        # a new --out gets the mode open(path, "wb") gives; a replaced one
        # keeps its permission bits
        src, new, old, ref = (tmp_path / name for name in ("plain", "new", "old", "ref"))
        src.write_bytes(b"abc")
        ref.write_bytes(b"")
        old.write_bytes(self.OLD)
        old.chmod(0o640)
        for out in (new, old):
            assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                         "--out", str(out)]) == 0
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
        assert stat.S_IMODE(old.stat().st_mode) == 0o640

    def test_hard_link_keeps_the_old_content(self, tmp_path, keyfile):
        src, out, link = tmp_path / "plain", tmp_path / "out", tmp_path / "link"
        src.write_bytes(b"abc")
        out.write_bytes(self.OLD)
        os.link(out, link)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(out)]) == 0
        assert link.read_bytes() == self.OLD
        assert read_container(out.read_bytes()).payload.size == 3

    def test_devnull_is_written_directly(self, tmp_path, keyfile):
        src = tmp_path / "plain"
        src.write_bytes(b"abc")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def loaded_keys(monkeypatch):
    """The list of every KeyFile the CLI's read_key returns from now on."""
    loaded = []

    def recording(*args, **kwargs):
        loaded.append(read_key(*args, **kwargs))
        return loaded[-1]
    monkeypatch.setattr(cli, "read_key", recording)
    return loaded


def test_encrypt_builds_no_inverse(tmp_path, keyfile, monkeypatch):
    def row_inverse(self):
        raise AssertionError("encrypt built a row inverse")
    monkeypatch.setattr(LatinSquare, "row_inverse", row_inverse)
    loaded = loaded_keys(monkeypatch)
    src = tmp_path / "plain"
    src.write_bytes(os.urandom(1000))
    assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                 "--out", str(tmp_path / "ct")]) == 0
    # nor does its key load keep the one validation can build
    assert [kept_row_inverse(kf.key.delta) for kf in loaded] == [None]


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_key_of_another_order_refused_from_its_header(tmp_path, capsys, command):
    # an order-1024 key file is 2 MiB; its header alone shows it is not 256
    key, src, out = tmp_path / "k1024", tmp_path / "in", tmp_path / "out"
    assert main(["keygen", "-n", "1024", "--out", str(key)]) == 0
    src.write_bytes(b"x")
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main([command, "--key", str(key), "--in", str(src), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert "need an order-256 key" in capsys.readouterr().err
    assert peak < MIB, peak
    assert not out.exists()


class TestInspect:
    def test_key_report(self, keyfile, capsys):
        assert main(["inspect", str(keyfile)]) == 0
        out = capsys.readouterr().out
        assert "key file" in out
        assert "order: 256" in out
        assert "latin: valid" in out

    def test_key_fingerprint_pinned(self, keyfile, capsys):
        assert main(["inspect", str(keyfile)]) == 0
        assert "fingerprint: ae2c8c6eb627ef8a\n" in capsys.readouterr().out

    def test_keeps_no_inverse(self, keyfile, monkeypatch):
        loaded = loaded_keys(monkeypatch)
        assert main(["inspect", str(keyfile)]) == 0
        assert [kept_row_inverse(kf.key.delta) for kf in loaded] == [None]

    def test_keystream_seed_changes_fingerprint(self, tmp_path, keyfile, capsys):
        other = tmp_path / "other.key"
        assert main(["keygen", "-n", "256", "--table-seed", "aa55",
                     "--keystream-seed", "11" * 32, "--out", str(other)]) == 0
        prints = []
        for key in (keyfile, other):
            capsys.readouterr()
            assert main(["inspect", str(key)]) == 0
            prints += [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("fingerprint: ")]
        assert len(prints) == 2 and prints[0] != prints[1]

    def test_corrupt_key_has_no_fingerprint(self, tmp_path, keyfile, capsys):
        blob = bytearray(keyfile.read_bytes())
        blob[100] ^= 0xFF
        bad = tmp_path / "bad.key"
        bad.write_bytes(bytes(blob))
        assert main(["inspect", str(bad)]) == EXIT_FORMAT
        assert "fingerprint" not in capsys.readouterr().out

    def test_key_through_pipe(self, tmp_path, keyfile, capsys):
        # a FIFO cannot seek back to the header inspect has already read
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(keyfile.read_bytes(),))
        writer.start()
        try:
            assert main(["inspect", str(fifo)]) == 0
        finally:
            writer.join()
        out = capsys.readouterr().out
        assert "key file" in out and "order: 256" in out

    @pytest.mark.parametrize("through_pipe", [False, True])
    def test_key_peak_memory(self, tmp_path, through_pipe, capsys):
        # The key bytes, read into one buffer, plus validation's copy of the
        # table and one block of offsets read about 2.2x the key file at
        # order 1024; one more whole copy of the file kept alive would read
        # about 3.2x, and an n x n mask about 2.6x.
        key = tmp_path / "k1024"
        assert main(["keygen", "-n", "1024", "--out", str(key)]) == 0
        blob = key.read_bytes()
        path, writer = key, None
        if through_pipe:
            path = tmp_path / "fifo"
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(blob,))
            writer.start()
        tracemalloc.start()
        try:
            assert main(["inspect", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if writer:
                writer.join()
        assert "order: 1024" in capsys.readouterr().out
        assert peak <= 2.4 * len(blob), peak / len(blob)

    def test_container_through_pipe_refused(self, tmp_path, keyfile, capsys):
        # a pipe has no size to check the header's framing against
        src, ct, fifo = tmp_path / "p", tmp_path / "ct", tmp_path / "fifo"
        src.write_bytes(b"abc")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(ct)]) == 0
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(ct.read_bytes(),))
        writer.start()
        try:
            assert main(["inspect", str(fifo)]) == EXIT_USAGE
        finally:
            writer.join()
        assert "container must be a regular file" in capsys.readouterr().err

    def test_container_report(self, tmp_path, keyfile, forced_nonce, capsys):
        src = tmp_path / "p"
        src.write_bytes(b"abc")
        ct = tmp_path / "ct"
        main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(ct)])
        capsys.readouterr()
        assert main(["inspect", str(ct)]) == 0
        out = capsys.readouterr().out
        assert "container" in out
        assert FORCED_NONCE in out
        assert "payload symbols: 3" in out

    def test_corrupt_file(self, tmp_path, capsys):
        p = tmp_path / "junk"
        p.write_bytes(b"not a real file")
        assert main(["inspect", str(p)]) == EXIT_FORMAT

    def test_order_zero_container(self, tmp_path, keyfile, forced_nonce):
        src, ct = tmp_path / "p", tmp_path / "ct"
        src.write_bytes(b"abc")
        main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(ct)])
        blob = bytearray(ct.read_bytes())
        blob[9:13] = bytes(4)  # order field
        ct.write_bytes(bytes(blob))
        assert main(["inspect", str(ct)]) == EXIT_FORMAT

    def test_order_300_payload_range_checked(self, tmp_path, capsys):
        # Two-byte symbols can hold values >= 300; the last one sits past
        # the first IO_CHUNK of the payload.
        # write_container refuses 300, so it is patched into the written bytes.
        payload = np.random.default_rng(3).integers(0, 300, 600_000).astype(np.uint16)
        blob = bytearray(write_container(CipherContainer(
            order=300, m=2, nonce=bytes(12), payload=payload, plaintext_crc=0xdeadbeef)))
        path = tmp_path / "ct"
        for last, code in ((299, 0), (300, EXIT_FORMAT)):
            blob[-6:-4] = last.to_bytes(2, "big")  # the last symbol, ahead of the CRC
            path.write_bytes(blob)
            assert main(["inspect", str(path)]) == code
        out, err = capsys.readouterr()
        assert "order: 300" in out and "payload symbols: 600000" in out
        assert "plaintext crc (diagnostic): 0xdeadbeef" in out
        assert "OutOfRange: symbol 300 is not in [0, 300)" in err

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    @pytest.mark.parametrize("order", [256, 300])
    def test_peak_memory_flat_in_container_size(self, tmp_path, order):
        # A child process inspects one container and reports its own peak
        # RSS; reading the whole file would peak higher by its size.
        child = ("import resource, sys\n"
                 "from lsqcipher.cli import main\n"
                 "assert main(['inspect', sys.argv[1]]) == 0\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(lsqcipher.__file__).parents[1]))
        width = 1 if order == 256 else 2
        chunk = np.random.default_rng(order).integers(0, order, MIB // width)
        chunk = chunk.astype(">u2" if width == 2 else np.uint8).tobytes()
        peak_kib = []
        for mib in (1, 64):
            path = tmp_path / "ct"
            header = ContainerHeader(order=order, m=1, nonce=bytes(12), count=mib * MIB // width)
            with open(path, "wb") as fh:
                fh.write(header.pack())
                for _ in range(mib):
                    fh.write(chunk)
                fh.write(bytes(4))
            proc = subprocess.run([sys.executable, "-c", child, str(path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            peak_kib.append(int(proc.stdout.split()[-1]))
            path.unlink()
        assert abs(peak_kib[1] - peak_kib[0]) <= 8 << 10, peak_kib


class TestAttackDemo:
    def test_default_report(self, capsys):
        assert main(["attack-demo", "-n", "16", "--messages", "50",
                     "--length", "32"]) == 0
        out = capsys.readouterr().out
        assert "learned table cells" in out
        assert "held-out recovery" in out

    def test_zero_messages(self, capsys):
        assert main(["attack-demo", "-n", "8", "--messages", "0"]) == 0
        out = capsys.readouterr().out
        assert "0/64" in out

    def test_contrast_mode(self, capsys):
        assert main(["attack-demo", "-n", "8", "--messages", "4",
                     "--length", "32", "--contrast"]) == 0
        assert "InconsistentPairs" in capsys.readouterr().out

    def test_contrast_mode_without_contradiction(self, capsys):
        # two one-symbol messages give the rule two first-symbol observations,
        # which at seed 0 do not clash
        assert main(["attack-demo", "--contrast", "--messages", "2",
                     "--length", "1", "--seed", "0"]) == 0
        assert "no inconsistency observed" in capsys.readouterr().out


# SHA-256 of the container the CLI writes for a fixed key, forced nonce and
# plaintext, keyed by (plaintext bytes, m). The sizes sit on and around
# 1 MiB boundaries, so they cross the CLI's I/O chunks.
PINNED_CONTAINERS = {
    (0, 1): "76bd06357b92c4aada390c22a4d8ff24cc243a9b49ecc6ee054bdf676daa0720",
    (0, 16): "2b103122f0fb6f6197b20b1600381f416c43abaeae394197664ff92ebdd595c6",
    (1, 1): "a65fdd79db84e051fc7bf406308d8a626ed61936c896f5058d1b325e90f7db6d",
    (1, 16): "139e0f02d0f07fa42163a9baa5fafd9d1a4f9037d337dbaea38411176319e823",
    (MIB - 1, 1): "8cb1b6d72040e5bd01f1fe3e6554a00f8c61945ccb4ca15b46c4699e1375586c",
    (MIB - 1, 16): "82403bb75b6ec72dd1e6439ece775b6e3b9fa65b624ff8c6041d7d1c8f4bfc98",
    (MIB, 1): "e55312cdf443b25485b9ae911a21b2c6ad5d059ebf7d1e2303d37648a0317a83",
    (MIB, 16): "cced5d12e432732ee06f0bfc44d25fe71247fe3f2a028c8cbf178e230b1b1434",
    (MIB + 1, 1): "0ec0db53e8a1bb3d7b061c9cfe78a18d0af1147bf9fa8134b61498d12f5b74c9",
    (MIB + 1, 16): "fc9ed8341363e4748725a383047731ee4218a6e9e1b90ff08b1be37e9322535b",
    (3 * MIB + 5, 1): "35345b0ec13b65de5b3377be2de7102c5f3b2ea3cecb2dbcbf206380ffd06f67",
    (3 * MIB + 5, 16): "d69658daca7c3a023ed1f0de685f42cbf280bb1042d224196741b27399a20500",
}


@pytest.mark.parametrize("size, m", sorted(PINNED_CONTAINERS))
def test_pinned_container_digest(tmp_path, keyfile, forced_nonce, size, m):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    src, ct, out = tmp_path / "plain", tmp_path / "ct", tmp_path / "out"
    src.write_bytes(data)
    assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(ct),
                 "-m", str(m)]) == 0
    blob = ct.read_bytes()
    assert len(blob) == 34 + size + 4  # header, one byte per symbol, CRC
    assert hashlib.sha256(blob).hexdigest() == PINNED_CONTAINERS[(size, m)]
    assert main(["decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_bytes() == data
