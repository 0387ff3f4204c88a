#!/usr/bin/env python3
"""Run one benchmark workload against the lsqcipher sources of this checkout.

    python3 perfbench/run.py --workload bulk-m1 --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: one untimed key load
and warm-up round trip, then round trips until `--seconds` have passed, with
the timed set-ups (key load to ready session) spread evenly among them.
Every op's output is checked outside the timed region; a wrong output or an
exception counts as a failed op and the run goes on. `--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones from spans recorded around the package's public calls.

Stdout ends with one line of run metadata and then one result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The same, plus the spans of a traced run, is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
MAX_TRACEBACKS = 3
CAPACITY = 1 << 20  # round trips one run can hold

# Per-round-trip self time of each span name, in seconds. The key-load calls
# also run inside every CLI op, which loads the key file each time.
ROUND_TRIP_TIMES = {
    "app": "app.self_s",
    "cipher.session_init": "cipher.session_init_s",
    "cipher.kernel": "cipher.kernel_s",
    "keystream.open": "keystream.open_s",
    "keystream.take": "keystream.take_s",
    "codec.write_container": "codec.write_container_s",
    "codec.read_container": "codec.read_container_s",
    "crc": "crc.s",
    "codec.read_key": "key_load.op_s",
    "latin.validate": "key_load.op_s",
    "automaton.invert": "key_load.op_s",
    "latin.quasigroup": "key_load.op_s",
}
ROUND_TRIP_COUNTS = {
    "keystream.take": "keystream.symbols",
    "cipher.kernel": "cipher.lookups",
    "codec.write_container": "codec.bytes",
    "codec.read_container": "codec.bytes",
}
# Per-set-up self time of the key-load calls, in seconds.
SETUP_TIMES = {
    "codec.read_key": "codec.read_key_s",
    "latin.validate": "latin.validate_s",
    "automaton.invert": "automaton.invert_s",
    "latin.quasigroup": "latin.quasigroup_s",
}


def import_package():
    """Import lsqcipher from this checkout's src/, and nothing else, and
    return the workloads module built on it."""
    src = ROOT / "src"
    if not (src / "lsqcipher" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lsqcipher sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lsqcipher
    if Path(lsqcipher.__file__).resolve().parent != src / "lsqcipher":
        raise SystemExit(f"perfbench: imported lsqcipher from {lsqcipher.__file__}, not {src}")
    import workloads
    return workloads


def package_modules(workloads) -> dict:
    from lsqcipher import automaton, cipher, cli, codec, keystream, latin
    return {"cli": cli, "codec": codec, "latin": latin, "automaton": automaton,
            "keystream": keystream, "cipher": cipher, "bench": workloads}


class Run:
    """One workload run: set-up, warm-up, the timed loop and its tallies."""

    def __init__(self, wl, tracer, seconds: float, trace: bool, load_session):
        self.wl = wl
        self.tracer = tracer
        self.seconds = seconds
        self.trace = trace
        self.load_session = load_session
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.count = 0
        # Encrypt and decrypt time of each round trip in microseconds, NaN if
        # it failed. Written up front, so that the harness's own memory does
        # not grow with the op count while peak_rss_mib is measured.
        self.times_us = np.full((CAPACITY, 2), np.nan, dtype=np.float32)

    def traced(self, i: int) -> bool:
        # A traced run alternates traced and untraced round trips, so that the
        # tracing overhead is measured on the same inputs in the same run.
        return self.trace and i % 2 == 1

    def warm_up(self):
        """Load the key and run one round trip, untimed, so that lazy set-up
        and the allocator's first growth to an op's working set are not timed."""
        wl = self.wl
        wl.kf = self.load_session(wl.key_bytes, wl.nonce("warm-up"), wl.m)
        wl.warm_up()

    def set_up(self):
        """One timed set-up: key-file bytes to a ready session."""
        wl, r = self.wl, len(self.setup_s)
        if self.trace:
            self.tracer.install()
            self.tracer.op = f"setup{r}"
        try:
            t0 = time.perf_counter_ns()
            wl.kf = self.load_session(wl.key_bytes, wl.nonce(f"setup{r}"), wl.m)
            self.setup_s.append((time.perf_counter_ns() - t0) / 1e9)
        finally:
            self.tracer.op = None
            self.tracer.uninstall()

    def _op(self, op_id, fn, *args):
        self.attempted += 1
        self.tracer.op = op_id
        try:
            t0 = time.perf_counter_ns()
            out = self.tracer.call("app", fn, *args)
            return out, (time.perf_counter_ns() - t0) / 1e3
        finally:
            self.tracer.op = None

    def round_trip(self):
        """Run and check round trip number `count`."""
        wl, i = self.wl, self.count
        self.count += 1
        traced = self.traced(i)
        op_id = f"rt{i}" if traced else None
        if traced:
            self.tracer.install()
        try:
            ct, enc_us = self._op(op_id, wl.encrypt, i)
            wl.check_encrypt(i, ct)
            out, dec_us = self._op(op_id, wl.decrypt, i, ct)
            wl.check_decrypt(i, out)
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.failed += 1
            print(f"perfbench: {wl.name} round trip {i} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            if self.failed <= MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            return
        finally:
            self.tracer.uninstall()
        self.times_us[i] = enc_us, dec_us

    def loop(self):
        # The timed set-ups are spread evenly over the run, so that their
        # median sees the same machine as the round trips: on a shared host
        # one second can run 25% slower than the next.
        least = 2 if self.trace else 1
        reps = self.wl.setup_reps
        start = time.perf_counter()
        while self.count < CAPACITY:
            elapsed = time.perf_counter() - start
            if self.count >= least and elapsed >= self.seconds:
                break
            if len(self.setup_s) < reps and elapsed >= len(self.setup_s) * self.seconds / reps:
                self.set_up()
            self.round_trip()
        while len(self.setup_s) < reps:
            self.set_up()

    def passed(self) -> np.ndarray:
        """Indices of the round trips whose ops and checks all passed."""
        return np.flatnonzero(~np.isnan(self.times_us[:self.count, 1]))

    def end_to_end(self) -> tuple[dict, dict]:
        idx = self.passed()
        times = self.times_us[idx].astype(np.float64)
        nbytes = np.array([self.wl.nbytes(i) for i in idx], dtype=np.float64)
        latency = times.sum(axis=1)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "encrypt_MBps": (float(np.median(nbytes / times[:, 0])), "MB/s"),  # bytes/us
            "decrypt_MBps": (float(np.median(nbytes / times[:, 1])), "MB/s"),
            "msg_p50_us": (float(np.median(latency)), "us"),
            "msg_p90_us": (float(np.percentile(latency, 90)), "us"),
            "msgs_per_s": (len(latency) / latency.sum() * 1e6, "1/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
        }
        samples = {name: len(idx) for name in metrics}
        samples["setup_s"] = len(self.setup_s)
        samples["peak_rss_mib"] = 1
        return metrics, samples

    def per_layer(self) -> tuple[dict, dict]:
        from spans import self_times
        spans = self.tracer.spans
        own = self_times(spans)
        idx = self.passed()
        traced = {f"rt{i}" for i in idx if self.traced(i)}
        n_traced = len(traced)
        totals: dict[str, float] = defaultdict(float)
        setup: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, op, count), self_ns in zip(spans, own):
            if op in traced:
                if name in ROUND_TRIP_TIMES:
                    totals[ROUND_TRIP_TIMES[name]] += self_ns / 1e9
                if name in ROUND_TRIP_COUNTS:
                    totals[ROUND_TRIP_COUNTS[name]] += count
            elif op.startswith("setup") and name in SETUP_TIMES:
                setup[SETUP_TIMES[name]][op] += self_ns / 1e9
        metrics = {}
        for name in sorted(set(ROUND_TRIP_TIMES.values())):
            metrics[name] = (totals[name] / n_traced, "s")
        for name in sorted(set(ROUND_TRIP_COUNTS.values())):
            metrics[name] = (totals[name] / n_traced, "count")
        metrics["keystream.Msym_per_s"] = (
            totals["keystream.symbols"] / totals["keystream.take_s"] / 1e6, "Msym/s")
        metrics["cipher.ns_per_lookup"] = (
            totals["cipher.kernel_s"] * 1e9 / totals["cipher.lookups"], "ns")
        for name in SETUP_TIMES.values():
            metrics[name] = (statistics.median(setup[name].values()), "s")
        latency = self.times_us[idx].astype(np.float64).sum(axis=1)
        mask = np.array([self.traced(i) for i in idx])
        on, off = np.median(latency[mask]), np.median(latency[~mask])
        metrics["trace.overhead_us"] = (float(on - off), "us")
        metrics["trace.overhead_pct"] = (float((on - off) / off * 100), "%")
        samples = {name: n_traced for name in metrics}
        samples.update({name: len(self.setup_s) for name in SETUP_TIMES.values()})
        samples["trace.overhead_us"] = samples["trace.overhead_pct"] = len(idx)
        return metrics, samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, run, samples) -> dict:
    import cryptography
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "round_trips": run.count, "setup_reps": len(run.setup_s),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "pinned_sha256_checked": run.wl.pin_checked,
        "samples": samples,
    }


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; at least one round trip runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    workloads = import_package()
    args = parse_args(argv, list(workloads.WORKLOADS))
    from spans import Tracer
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = Run(wl, Tracer(package_modules(workloads)), args.seconds, bool(args.trace),
                  workloads.load_session)
        try:
            run.warm_up()
            run.loop()
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds = {run.traced(i) for i in run.passed()}
    if kinds != ({False, True} if args.trace else {False}):
        print(f"perfbench: too few round trips passed their checks ({run.failed} failed)",
              file=sys.stderr)
        return 1
    metrics, samples = run.per_layer() if args.trace else run.end_to_end()
    meta = run_metadata(args, run, samples)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result}
    if args.trace:
        record["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "count"],
                           "rows": run.tracer.spans}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
