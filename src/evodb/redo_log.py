"""Append-only redo log; the replay source for change data capture.

Appends happen inside the engine's pre-commit critical section, so LSN
order equals commit-timestamp order and a scan bounded by an LSN snapshot
taken in that section is complete for every earlier timestamp.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .core_store import TOMBSTONE, Rid, Timestamp, is_tombstone

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
             upto_ts: Optional[Timestamp] = None,
             end_lsn: Optional[Lsn] = None) -> Iterator[LogRecord]:
        """Yield records from ``start`` in LSN order.

        Filters by ``table_id`` when given. Stops at ``end_lsn`` when
        given, else at the momentary tail; also stops early at the first
        record with commit_ts > upto_ts, which is sound because appends
        are timestamp-ordered. Every record is fetched through ``record``,
        so a wrapper on it sees each read.
        """
        i = start
        while True:
            bound = len(self._records) if end_lsn is None else min(end_lsn, len(self._records))
            if i >= bound:
                return
            rec = self.record(i)
            i += 1
            if upto_ts is not None and rec.commit_ts > upto_ts:
                return
            if table_id is not None and rec.table_id != table_id:
                continue
            yield rec

    def dump_binary(self, path: str) -> int:
        """Debug dump: little-endian fixed header + length-prefixed payload
        per record. Not a compatibility surface."""
        n = 0
        with open(path, "wb") as f:
            for rec in list(self._records):
                body = _encode_payload(rec.payload)
                f.write(struct.pack("<QQQQQI", rec.lsn, rec.table_id, rec.rid,
                                    rec.commit_ts, rec.txn_id, len(body)))
                f.write(body)
                n += 1
        return n


def _encode_payload(payload: Any) -> bytes:
    if is_tombstone(payload):
        return b"\x00"
    if not isinstance(payload, tuple):
        # catalog records carry schema objects; dump their repr
        raw = repr(payload).encode("utf-8")
        return b"\x02" + struct.pack("<I", len(raw)) + raw
    parts = [b"\x01", struct.pack("<I", len(payload))]
    for v in payload:
        if v is None:
            parts.append(b"n")
        elif isinstance(v, bool):
            parts.append(b"i" + struct.pack("<q", int(v)))
        elif isinstance(v, int):
            parts.append(b"i" + struct.pack("<q", v))
        elif isinstance(v, float):
            parts.append(b"f" + struct.pack("<d", v))
        else:
            raw = str(v).encode("utf-8")
            parts.append(b"s" + struct.pack("<I", len(raw)) + raw)
    return b"".join(parts)


def decode_payload(body: bytes) -> Any:
    """Inverse of the dump encoding (debug tooling); schema records come
    back as their repr string."""
    if body[:1] == b"\x00":
        return TOMBSTONE
    if body[:1] == b"\x02":
        (ln,) = struct.unpack_from("<I", body, 1)
        return body[5:5 + ln].decode("utf-8")
    (count,) = struct.unpack_from("<I", body, 1)
    out = []
    off = 5
    for _ in range(count):
        tag = body[off:off + 1]
        off += 1
        if tag == b"n":
            out.append(None)
        elif tag == b"i":
            (v,) = struct.unpack_from("<q", body, off)
            off += 8
            out.append(v)
        elif tag == b"f":
            (v,) = struct.unpack_from("<d", body, off)
            off += 8
            out.append(v)
        else:
            (ln,) = struct.unpack_from("<I", body, off)
            off += 4
            out.append(body[off:off + ln].decode("utf-8"))
            off += ln
    return tuple(out)
