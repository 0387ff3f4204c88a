"""Span recording for the traced benchmark run.

Spans are recorded from outside the package: `Tracer.install` swaps the
public functions and methods named in `targets` for wrappers that time each
call, and `Tracer.uninstall` puts the originals back, so an untraced op runs
the package exactly as shipped. A wrapper records only while `Tracer.op` is
set, which the harness does around the timed calls of a traced op and
nowhere else.
"""

from __future__ import annotations

import functools
import time
import types
import zlib


def _first_arg_len(args, result):
    return len(args[0])


def _message_lookups(args, result):
    session, message = args[0], args[1]
    return len(message) * session.m


def _container_len(args, result):
    return len(result)


def _take_count(args, result):
    return args[1]


def targets(modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count function) for every traced call.

    `modules` maps short names to the imported lsqcipher modules plus
    "bench", the benchmark module whose own calls should be traced. A name
    bound by `from x import y` lives in several namespaces, so each one is
    patched.
    """
    cli, codec, latin = modules["cli"], modules["codec"], modules["latin"]
    automaton, keystream, cipher = (modules["automaton"], modules["keystream"],
                                    modules["cipher"])
    out = []
    for owner in (codec, cli, modules["bench"]):
        out.append((owner, "read_key", "codec.read_key", None))
        out.append((owner, "write_container", "codec.write_container", _container_len))
        out.append((owner, "read_container", "codec.read_container", _first_arg_len))
    out += [
        (latin, "validate_latin", "latin.validate", None),
        (latin.Quasigroup, "__init__", "latin.quasigroup", None),
        (automaton.KeyAutomaton, "invert", "automaton.invert", None),
        (keystream.KeystreamReader, "__init__", "keystream.open", None),
        (keystream.KeystreamReader, "take", "keystream.take", _take_count),
        (cipher.CipherSession, "__init__", "cipher.session_init", None),
        (cipher.CipherSession, "encrypt_message", "cipher.kernel", _message_lookups),
        (cipher.CipherSession, "decrypt_message", "cipher.kernel", _message_lookups),
    ]
    return out


class Tracer:
    """In-memory span list: [name, start_ns, end_ns, parent index, op id, count].

    Calls nest on one thread, so a stack of open spans gives each span its
    parent, and the children of a span lie inside its interval.
    """

    def __init__(self, modules):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, _count=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name` when recording.

        `_count(args, result)` gives the span's work count, if any.
        """
        if self.op is None:
            return fn(*args, **kwargs)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
        if _count is not None:
            rec[5] = _count(args, result)
        return result

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _count=count, **kwargs)
        return traced

    def install(self):
        if self._saved:
            return
        crc = types.SimpleNamespace(crc32=self._wrap("crc", zlib.crc32, None))
        for owner in (self._modules["cli"], self._modules["bench"]):
            self._saved.append((owner, "zlib", vars(owner)["zlib"]))
            owner.zlib = crc
        for owner, attr, name, count in targets(self._modules):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
