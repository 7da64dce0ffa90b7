"""Span recording for the traced run.

The benchmark replaces public engine callables with timing wrappers that
record one span per call and forward to the original. A span holds its
name, start and end (``perf_counter_ns``), its parent (the enclosing span
on the same thread) and a group id shared by all spans of one transaction
attempt or one DDL. Spans stay in per-thread columns in memory and are
written out once, after the run.
"""

from __future__ import annotations

import json
import math
import threading
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Optional

COLUMNS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "q"),
           ("group", "q"))


class SpanBuffer:
    """Spans of one thread in start order, as parallel columns."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group = array("q")
        self.stack: list[int] = []
        # None: the thread's spans join the tracer's current DDL group
        self.group_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self.name)

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]


class Tracer:
    """Owns the span buffers of every thread and the patched callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[SpanBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # group for threads that set none: the engine's scan and CDC
        # workers, which only run while the benchmark's one DDL runs
        self.ddl_group = 0
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def buffer(self) -> SpanBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = SpanBuffer(threading.current_thread().name)
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def set_group(self, group_id: Optional[int]) -> None:
        self.buffer().group_id = group_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that records one span around each call of ``fn``."""
        nid = self.name_id(name)
        local = self._local
        tracer = self

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None)
            if buf is None:
                buf = tracer.buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            gid = buf.group_id
            buf.group.append(tracer.ddl_group if gid is None else gid)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its timing wrapper until ``unpatch``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append((owner, attr, original, had_own))

    def unpatch(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def self_times(buf: SpanBuffer) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run on the span's own thread, one after the
    other, so the time they cover is the sum of their durations."""
    dur = buf.durations()
    covered = [0] * len(dur)
    for i, p in enumerate(buf.parent):
        if p >= 0:
            covered[p] += dur[i]
    return [d - c for d, c in zip(dur, covered)]


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    rank = min(len(sorted_vals), max(1, math.ceil(len(sorted_vals) * q)))
    return float(sorted_vals[rank - 1])


def write_spans(tracer: Tracer, path: str) -> int:
    """One JSON header line, then each thread's columns as raw arrays.
    Returns the number of spans written."""
    header = {"names": tracer.names,
              "columns": [f"{c}:{t}" for c, t in COLUMNS],
              "threads": [{"thread": b.thread, "count": len(b)}
                          for b in tracer.buffers]}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for buf in tracer.buffers:
            for col, _ in COLUMNS:
                getattr(buf, col).tofile(f)
    return sum(len(b) for b in tracer.buffers)


def read_spans(path: str) -> tuple[list[str], list[SpanBuffer]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        buffers = []
        for entry in header["threads"]:
            buf = SpanBuffer(entry["thread"])
            for col, _ in COLUMNS:
                getattr(buf, col).fromfile(f, entry["count"])
            buffers.append(buf)
    return header["names"], buffers

