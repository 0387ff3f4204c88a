import contextlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lsqcipher
from lsqcipher.automaton import KeyAutomaton
from lsqcipher.latin import generate_latin, validate_latin

# A child Python imports the package from this checkout.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(lsqcipher.__file__).parents[1]))


def cyclic_table(n):
    """The Z_n table: entry [x][a] = (x + a) mod n."""
    return [[(x + a) % n for a in range(n)] for x in range(n)]


def cyclic_automaton(n):
    return KeyAutomaton.from_table(cyclic_table(n))


def random_automaton(n, seed=b"test-key"):
    sq = generate_latin(n, seed)
    return KeyAutomaton(sq.order, sq)


def kept_row_inverse(square):
    """The row inverse `square` already holds, or None when row_inverse()
    would have to build it."""
    return square.__dict__.get("_row_inverse")


def scalar_row_inverse(entries):
    """inv[i][entries[i][j]] = j, one cell at a time."""
    rows = np.asarray(entries).tolist()
    inv = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            inv[i][v] = j
    return inv


class ForcedStream:
    """Test stub replaying a fixed symbol sequence instead of ChaCha20."""

    def __init__(self, symbols):
        self.symbols = list(symbols)
        self.pos = 0

    def take(self, count):
        out = self.symbols[self.pos:self.pos + count]
        assert len(out) == count, "forced stream ran dry"
        self.pos += count
        return np.asarray(out, dtype=np.int64)


@contextlib.contextmanager
def traced():
    """Trace allocations over the block. tracemalloc sees NumPy buffers too;
    when the block ends, the probe's `peak` is its traced peak in bytes."""
    probe = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield probe
        probe.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_peak_kib(script, *argv):
    """Run `script` with `argv` in a child Python that must exit 0, and
    return the child's peak RSS (KiB on Linux) with the completed process."""
    script += "import resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]), proc


def all_words(alphabet, max_len):
    """Every word over range(alphabet) of length 1..max_len."""
    for length in range(1, max_len + 1):
        yield from itertools.product(range(alphabet), repeat=length)


@pytest.fixture
def z3():
    return cyclic_automaton(3)


@pytest.fixture
def z3_q(z3):
    return z3.quasigroup()


@pytest.fixture(scope="session")
def key256():
    return random_automaton(256)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
