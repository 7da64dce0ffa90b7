"""Append-only redo log; the replay source for change data capture.

Appends happen inside the engine's pre-commit critical section, so LSN
order equals commit-timestamp order and a scan bounded by an LSN snapshot
taken in that section is complete for every earlier timestamp.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .core_store import Rid, Timestamp

Lsn = int


@dataclass(frozen=True)
class LogRecord:
    lsn: Lsn
    table_id: int
    rid: Rid
    payload: Any
    commit_ts: Timestamp
    txn_id: int


class RedoLog:
    """Multi-producer append buffer with lock-free indexed reads.

    Scans tail-follow: records appended while an iterator is live are
    yielded if they fall inside the requested bounds. A caught-up reader
    waits in ``wait_for_tail``, woken by the append that reaches the
    length it asked for rather than by every commit.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._grown = threading.Condition(threading.Lock())
        self._wake_at: Optional[Lsn] = None  # lowest length a reader awaits

    def append_commit(self, txn) -> Lsn:
        """Append one record per write-set entry; returns the first LSN of
        the batch (or the current tail for an empty write set)."""
        with self._grown:
            base = len(self._records)
            for table_id, rid, version in txn.iter_log_writes():
                self._records.append(LogRecord(
                    lsn=len(self._records),
                    table_id=table_id,
                    rid=rid,
                    payload=version.payload,
                    commit_ts=version.commit_ts,
                    txn_id=txn.txn_id,
                ))
            if self._wake_at is not None and len(self._records) >= self._wake_at:
                self._wake_at = None
                self._grown.notify_all()
            return base

    def wait_for_tail(self, length: Lsn, stop: threading.Event) -> None:
        """Block until the log holds ``length`` records or ``stop`` is set;
        whoever sets ``stop`` then calls ``wake``."""
        with self._grown:
            while not (stop.is_set() or len(self._records) >= length):
                if self._wake_at is None or length < self._wake_at:
                    self._wake_at = length
                self._grown.wait()

    def wake(self) -> None:
        with self._grown:
            self._grown.notify_all()

    def current_lsn(self) -> Lsn:
        """Tail LSN: total records appended so far."""
        return len(self._records)

    def record(self, lsn: Lsn) -> LogRecord:
        return self._records[lsn]

    def scan(self, start: Lsn, table_id: Optional[int] = None,
             end_lsn: Optional[Lsn] = None) -> Iterator[LogRecord]:
        """Yield records from ``start`` in LSN order.

        Filters by ``table_id`` when given. Stops at ``end_lsn`` when
        given, else at the momentary tail. Every record is fetched through
        ``record``, so a wrapper on it sees each read.
        """
        i = start
        while True:
            bound = len(self._records) if end_lsn is None else min(end_lsn, len(self._records))
            if i >= bound:
                return
            rec = self.record(i)
            i += 1
            if table_id is not None and rec.table_id != table_id:
                continue
            yield rec
