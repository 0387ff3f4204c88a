"""Tests of the benchmark itself: metric names, checks and failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import lsqcipher.codec
import run
import workloads
from spans import Tracer

from conftest import ROOT

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_two_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_config_names_known_workloads():
    assert {w["name"] for w in CONFIG["workloads"]} <= set(WORKLOADS)
    assert sorted(WORKLOADS) == sorted(workloads.PINNED_SHA256)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_round_trip_reports_every_end_to_end_metric(name):
    meta, result = last_two_lines(bench("--workload", name, "--seed", "0",
                                        "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert meta["error_rate"] == 0 and meta["pinned_sha256_checked"]
    want = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer(name):
    meta, result = last_two_lines(bench("--workload", name, "--seed", "1",
                                        "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    want = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not meta["pinned_sha256_checked"]
    record = json.loads((ROOT / ".perfbench_out" / f"{name}-seed1-trace1.json").read_text())
    assert record["result"] == result and record["spans"]["rows"]


def test_benchmark_alone_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "small-msgs", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def wrong_key_on(wl, i_bad):
    """Make round trip `i_bad` decrypt under a different key."""
    wrong = workloads.make_key(np.random.default_rng(99), wl.order)
    if isinstance(wl, workloads.CliWorkload):
        wrong_path = wl.workdir / "wrong.lsq"
        wrong_path.write_bytes(lsqcipher.codec.write_key(wrong))
        attr, value = "key_path", str(wrong_path)
    else:
        attr, value = "kf", wrong
    decrypt = wl.decrypt

    def patched(i, ct):
        if i != i_bad:
            return decrypt(i, ct)
        saved = getattr(wl, attr)
        setattr(wl, attr, value)
        try:
            return decrypt(i, ct)
        finally:
            setattr(wl, attr, saved)
    wl.decrypt = patched


def raise_on(wl, i_bad):
    encrypt = wl.encrypt

    def patched(i, *args):
        if i == i_bad:
            raise RuntimeError("injected")
        return encrypt(i, *args)
    wl.encrypt = patched


@pytest.mark.parametrize("name,fault", [
    ("small-msgs", wrong_key_on), ("small-msgs", raise_on), ("bulk-m1", wrong_key_on),
])
@pytest.mark.parametrize("trace", [False, True])
def test_failed_op_is_counted_and_the_run_goes_on(tmp_path, name, fault, trace):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    original = lsqcipher.codec.read_key
    bench_run = run.Run(wl, Tracer(run.package_modules(workloads)), 0, trace,
                        workloads.load_session)
    bench_run.warm_up()
    bench_run.set_up()
    fault(wl, 1)
    for _ in range(4):
        bench_run.round_trip()
    wl.close()
    assert bench_run.failed == 1
    assert bench_run.attempted == 8 - (fault is raise_on)
    assert bench_run.passed().tolist() == [0, 2, 3]
    assert lsqcipher.codec.read_key is original
    metrics, _ = bench_run.per_layer() if trace else bench_run.end_to_end()
    assert all(np.isfinite(value) for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["small-msgs", "bulk-m1"])
def test_oracle_check_catches_a_wrong_symbol(tmp_path, name):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.kf = workloads.load_session(wl.key_bytes, wl.nonce("setup"), wl.m)
    out = wl.encrypt(5)
    wl.check_encrypt(5, out)
    first_symbol = workloads.CONTAINER_HEADER.size
    if isinstance(wl, workloads.CliWorkload):
        with open(wl.ct_path, "r+b") as fh:
            fh.seek(first_symbol)
            flipped = fh.read(1)[0] ^ 1
            fh.seek(first_symbol)
            fh.write(bytes([flipped]))
    else:
        out = bytearray(out)
        out[first_symbol] ^= 1
        out = bytes(out)
    with pytest.raises(workloads.CheckFailed):
        wl.check_encrypt(5, out)
    wl.close()
