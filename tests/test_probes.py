import tracemalloc

import pytest

from conftest import child_peak_kib, traced

MIB = 1 << 20


def test_traced_stops_when_the_block_raises():
    with pytest.raises(ZeroDivisionError):
        with traced():
            1 / 0
    assert not tracemalloc.is_tracing()


def test_traced_counts_what_the_block_allocates():
    with traced() as probe:
        inside = bytearray(4 * MIB)
    assert probe.peak >= len(inside)


def test_traced_leaves_out_what_was_allocated_before():
    before = bytearray(4 * MIB)
    with traced() as probe:
        before[0] = 1
    assert probe.peak < MIB, probe.peak


def test_child_that_fails_shows_its_stderr():
    with pytest.raises(AssertionError, match="no such key"):
        child_peak_kib("import sys\nsys.exit('no such key')\n")
