import os
import zlib

import numpy as np
import pytest

from lsqcipher.cli import (
    EXIT_CHECKSUM,
    EXIT_FORMAT,
    EXIT_USAGE,
    FORCE_NONCE_ENV,
    main,
)
from lsqcipher.codec import read_container, read_key

FORCED_NONCE = "0102030405060708090a0b0c"


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "test.key"
    assert main(["keygen", "-n", "256", "--table-seed", "aa55",
                 "--keystream-seed", "00" * 32, "--out", str(path)]) == 0
    return path


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

    def test_negative_walk_steps_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.key"
        assert main(["keygen", "-n", "4", "--walk-steps", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "walk steps" in capsys.readouterr().err
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

    def test_corrupt_key_is_format_error(self, tmp_path, keyfile):
        blob = bytearray(keyfile.read_bytes())
        blob[100] ^= 0xFF
        bad = tmp_path / "bad.key"
        bad.write_bytes(bytes(blob))
        src = tmp_path / "p"
        src.write_bytes(b"x")
        assert main(["encrypt", "--key", str(bad), "--in", str(src),
                     "--out", str(tmp_path / "ct")]) == EXIT_FORMAT


class TestInspect:
    def test_key_report(self, keyfile, capsys):
        assert main(["inspect", str(keyfile)]) == 0
        out = capsys.readouterr().out
        assert "key file" in out
        assert "order: 256" in out
        assert "latin: valid" in out

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
