"""Test-only oracle: engine trace capture, a serial reference executor,
and a snapshot-isolation history checker.

The engine emits one event per observable action when a Trace is
attached. The checker replays the committed transactions into a serial
oracle keyed by commit timestamp and validates every read, write pair,
and schema attribution against it. Accesses made under a pending schema
are tagged in the trace and validated against the relaxed-admission
rules instead of being ignored.
"""

from __future__ import annotations

import ast
import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .core_store import TOMBSTONE, is_tombstone

BEGIN = "begin"
READ = "read"
WRITE = "write"
SCHEMA_READ = "schema_read"
COMMIT = "commit"
ABORT = "abort"
SCHEMA_INIT = "schema_init"
SCHEMA_PENDING = "schema_pending"
SCHEMA_COMMIT = "schema_commit"
SCHEMA_REVOKE = "schema_revoke"


@dataclass
class Event:
    wall: int
    kind: str
    txn: Optional[int] = None
    ts: Optional[int] = None
    table: Optional[int] = None
    rid: Optional[int] = None
    observed_ts: Optional[int] = None
    nvals: Optional[int] = None
    tombstone: bool = False
    admitted: bool = False
    schema_version: Optional[int] = None
    ncols: Optional[int] = None
    payload: Any = None

    def to_text(self) -> str:
        parts = [f"w={self.wall}", f"k={self.kind}"]
        for name, val in (("txn", self.txn), ("ts", self.ts),
                          ("table", self.table), ("rid", self.rid),
                          ("obs", self.observed_ts), ("nvals", self.nvals),
                          ("sv", self.schema_version), ("ncols", self.ncols)):
            if val is not None:
                parts.append(f"{name}={val}")
        if self.tombstone:
            parts.append("tomb=1")
        if self.admitted:
            parts.append("adm=1")
        if self.payload is not None:
            if is_tombstone(self.payload):
                parts.append("payload=#")
            else:
                parts.append("payload=" + "|".join(repr(v) for v in self.payload))
        return "\t".join(parts)


def parse_trace(text: str) -> list[Event]:
    """Parse the newline-delimited text trace form (inverse of to_text)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict[str, str] = {}
        for part in line.split("\t"):
            key, _, val = part.partition("=")
            fields[key] = val
        ev = Event(wall=int(fields["w"]), kind=fields["k"])
        for name, attr in (("txn", "txn"), ("ts", "ts"), ("table", "table"),
                           ("rid", "rid"), ("obs", "observed_ts"),
                           ("nvals", "nvals"), ("sv", "schema_version"),
                           ("ncols", "ncols")):
            if name in fields:
                setattr(ev, attr, int(fields[name]))
        ev.tombstone = fields.get("tomb") == "1"
        ev.admitted = fields.get("adm") == "1"
        if "payload" in fields:
            raw = fields["payload"]
            if raw == "#":
                ev.payload = TOMBSTONE
            elif raw == "":
                ev.payload = ()
            else:
                ev.payload = tuple(ast.literal_eval(v) for v in raw.split("|"))
        events.append(ev)
    return events


def dump_trace(events: Iterable[Event]) -> str:
    return "\n".join(ev.to_text() for ev in events) + "\n"


class Trace:
    """Thread-safe event collector with a global wall-order sequence."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()
        self._wall = 0

    def emit(self, kind: str, **kw: Any) -> None:
        with self._lock:
            self._wall += 1
            self.events.append(Event(wall=self._wall, kind=kind, **kw))

    def snapshot(self) -> list[Event]:
        with self._lock:
            return list(self.events)


@dataclass
class Violation:
    rule: str
    detail: str
    event: Optional[Event] = None
    expected: Any = None
    observed: Any = None

    def __str__(self) -> str:
        loc = f" @wall={self.event.wall} txn={self.event.txn}" if self.event else ""
        return (f"[{self.rule}]{loc} {self.detail} "
                f"(expected={self.expected!r}, observed={self.observed!r})")


@dataclass
class SerialOracleState:
    """Deterministic replay of the committed transactions in commit-ts
    order: per-record version history and per-table schema history."""

    records: dict[tuple[int, int], list[tuple[int, Any]]] = field(default_factory=dict)
    schemas: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)

    def visible_ts(self, table: int, rid: int, begin_ts: int) -> Optional[int]:
        hist = self.records.get((table, rid))
        if not hist:
            return None
        keys = [ts for ts, _ in hist]
        i = bisect.bisect_left(keys, begin_ts)
        return keys[i - 1] if i else None

    def latest(self, table: int, rid: int) -> Optional[tuple[int, Any]]:
        hist = self.records.get((table, rid))
        return hist[-1] if hist else None

    def schema_for(self, table: int, begin_ts: int) -> Optional[tuple[int, int, int]]:
        hist = self.schemas.get(table)
        if not hist:
            return None
        keys = [ts for ts, _, _ in hist]
        i = bisect.bisect_left(keys, begin_ts)
        return hist[i - 1] if i else None

    def ncols(self, table: int, version_no: int) -> Optional[int]:
        for _, vno, nc in self.schemas.get(table, ()):
            if vno == version_no:
                return nc
        return None


@dataclass
class _TxnView:
    txn_id: int
    begin_ts: Optional[int] = None
    begin_wall: Optional[int] = None
    commit_ts: Optional[int] = None
    resolution_wall: Optional[int] = None
    aborted: bool = False
    reads: list[Event] = field(default_factory=list)
    writes: list[Event] = field(default_factory=list)
    schema_reads: list[Event] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.commit_ts is not None and not self.aborted


def _group_txns(events: list[Event]) -> dict[int, _TxnView]:
    txns: dict[int, _TxnView] = {}
    for ev in events:
        if ev.txn is None:
            continue
        t = txns.setdefault(ev.txn, _TxnView(ev.txn))
        if ev.kind == BEGIN:
            t.begin_ts = ev.ts
            t.begin_wall = ev.wall
        elif ev.kind == READ:
            t.reads.append(ev)
        elif ev.kind == WRITE:
            t.writes.append(ev)
        elif ev.kind == SCHEMA_READ:
            t.schema_reads.append(ev)
        elif ev.kind == COMMIT:
            t.commit_ts = ev.ts
            t.resolution_wall = ev.wall
        elif ev.kind == ABORT:
            t.aborted = True
            t.resolution_wall = ev.wall
    return txns


def serial_replay(committed: Iterable[_TxnView],
                  schema_events: Iterable[Event] = ()) -> SerialOracleState:
    """Build the oracle state from committed transactions sorted by
    commit timestamp, plus catalog-level schema events."""
    state = SerialOracleState()
    seen_ts: set[int] = set()
    for t in sorted(committed, key=lambda t: t.commit_ts):
        if t.commit_ts in seen_ts:
            raise ValueError(f"duplicate commit timestamp {t.commit_ts}")
        seen_ts.add(t.commit_ts)
        last_write: dict[tuple[int, int], Event] = {}
        for w in t.writes:
            last_write[(w.table, w.rid)] = w
        for (table, rid), w in last_write.items():
            payload = TOMBSTONE if w.tombstone else w.payload
            state.records.setdefault((table, rid), []).append((t.commit_ts, payload))
    for (table, rid), hist in state.records.items():
        hist.sort(key=lambda p: p[0])
    for ev in schema_events:
        if ev.kind in (SCHEMA_INIT, SCHEMA_COMMIT):
            state.schemas.setdefault(ev.table, []).append(
                (ev.ts, ev.schema_version, ev.ncols))
    for hist in state.schemas.values():
        hist.sort(key=lambda p: p[0])
    return state


def check_si_history(events: list[Event]) -> list[Violation]:
    """Validate a complete trace against snapshot-isolation semantics.

    Checks, in order: timestamp sanity, read visibility against the
    serial oracle, intra-transaction read stability, first-updater-wins
    over committed writer pairs, exclusive uncommitted ownership windows,
    schema attribution, and schema/data arity coupling. Returns all
    violations found (empty list means the history is accepted).
    """
    events = sorted(events, key=lambda e: e.wall)
    violations: list[Violation] = []
    txns = _group_txns(events)
    schema_events = [e for e in events if e.kind in
                     (SCHEMA_INIT, SCHEMA_PENDING, SCHEMA_COMMIT, SCHEMA_REVOKE)]

    committed = [t for t in txns.values() if t.committed]

    # timestamp sanity: commit_ts == begin_ts is legitimate (the first
    # committer after a begin point), going backwards is not
    seen_commit_ts: dict[int, int] = {}
    for t in committed:
        if t.begin_ts is None:
            violations.append(Violation("sanity", f"txn {t.txn_id} committed without begin"))
            continue
        if t.commit_ts < t.begin_ts:
            violations.append(Violation(
                "sanity", f"txn {t.txn_id} commit_ts < begin_ts",
                expected=f">= {t.begin_ts}", observed=t.commit_ts))
        if t.commit_ts in seen_commit_ts:
            violations.append(Violation(
                "duplicate-commit-ts",
                f"txns {seen_commit_ts[t.commit_ts]} and {t.txn_id} share commit ts",
                observed=t.commit_ts))
        else:
            seen_commit_ts[t.commit_ts] = t.txn_id

    try:
        oracle = serial_replay(committed, schema_events)
    except ValueError:
        # duplicate commit ts already reported; drop duplicates and continue
        dedup: dict[int, _TxnView] = {}
        for t in committed:
            dedup.setdefault(t.commit_ts, t)
        oracle = serial_replay(dedup.values(), schema_events)

    # pending schema windows per table: (t_pre, version_no, revoked_wall|final)
    pending_spans: dict[int, list[Event]] = {}
    for ev in schema_events:
        if ev.kind == SCHEMA_PENDING:
            pending_spans.setdefault(ev.table, []).append(ev)

    def pending_version_for(table: int, begin_ts: int) -> Optional[Event]:
        best = None
        for ev in pending_spans.get(table, ()):
            if ev.ts is not None and ev.ts < begin_ts:
                if best is None or ev.ts > best.ts:
                    best = ev
        return best

    # (a) read visibility + (d) arity coupling
    for t in txns.values():
        if t.begin_ts is None:
            continue
        for r in t.reads:
            expected = oracle.visible_ts(r.table, r.rid, t.begin_ts)
            if r.observed_ts != expected:
                violations.append(Violation(
                    "read-visibility",
                    f"read of table {r.table} rid {r.rid} by txn {t.txn_id} "
                    f"(begin {t.begin_ts})",
                    event=r, expected=expected, observed=r.observed_ts))
            if r.nvals is not None and not r.tombstone and r.schema_version is not None:
                ncols = oracle.ncols(r.table, r.schema_version)
                if ncols is None:
                    for ev in pending_spans.get(r.table, ()):
                        if ev.schema_version == r.schema_version:
                            ncols = ev.ncols
                if ncols is not None and r.nvals != ncols:
                    violations.append(Violation(
                        "schema-data-coupling",
                        f"payload arity mismatch for table {r.table} rid {r.rid}",
                        event=r, expected=ncols, observed=r.nvals))

    # intra-transaction read stability
    for t in txns.values():
        first_seen: dict[tuple[int, int], int] = {}
        for r in t.reads:
            key = (r.table, r.rid)
            if key in first_seen:
                if r.observed_ts != first_seen[key]:
                    violations.append(Violation(
                        "read-stability",
                        f"txn {t.txn_id} re-read table {r.table} rid {r.rid}",
                        event=r, expected=first_seen[key], observed=r.observed_ts))
            else:
                first_seen[key] = r.observed_ts

    # (c) first-updater-wins among committed writers
    by_record: dict[tuple[int, int], list[_TxnView]] = {}
    for t in committed:
        seen: set[tuple[int, int]] = set()
        for w in t.writes:
            key = (w.table, w.rid)
            if key not in seen:
                seen.add(key)
                by_record.setdefault(key, []).append(t)
    for (table, rid), writers in by_record.items():
        writers.sort(key=lambda t: t.commit_ts)
        for earlier, later in zip(writers, writers[1:]):
            if later.begin_ts <= earlier.commit_ts:
                violations.append(Violation(
                    "first-updater-wins",
                    f"txns {earlier.txn_id} (commit {earlier.commit_ts}) and "
                    f"{later.txn_id} (begin {later.begin_ts}) both updated "
                    f"table {table} rid {rid} with overlapping windows",
                    expected=f"begin > {earlier.commit_ts}",
                    observed=later.begin_ts))

    # (c2) exclusive uncommitted ownership: write wall-windows on one record
    # may not overlap unless the writers ran under different schema
    # versions (out-of-place migration keeps those on separate
    # indirection arrays).
    spans: dict[tuple[int, int],
                list[tuple[int, float, int, bool, Optional[int]]]] = {}
    for t in txns.values():
        firsts: dict[tuple[int, int], Event] = {}
        for w in t.writes:
            firsts.setdefault((w.table, w.rid), w)
        end = t.resolution_wall if t.resolution_wall is not None else float("inf")
        for key, w in firsts.items():
            spans.setdefault(key, []).append(
                (w.wall, end, t.txn_id, w.admitted, w.schema_version))
    for (table, rid), ivals in spans.items():
        ivals.sort()
        active: list[tuple[int, float, int, bool, Optional[int]]] = []
        for cur in ivals:
            s2, _e2, id2, adm2, sv2 = cur
            active = [iv for iv in active if iv[1] > s2]
            for _s1, _e1, id1, adm1, sv1 in active:
                if adm1 == adm2 and sv1 == sv2:
                    violations.append(Violation(
                        "concurrent-uncommitted-writes",
                        f"txns {id1} and {id2} held uncommitted versions of "
                        f"table {table} rid {rid} simultaneously",
                        expected="exclusive ownership",
                        observed=f"overlap at wall {s2}"))
            active.append(cur)

    # (b)/schema attribution: every schema resolution matches the oracle
    # (or a pending version the transaction was legitimately admitted to).
    for t in txns.values():
        if t.begin_ts is None:
            continue
        for sr in t.schema_reads:
            if sr.admitted:
                pend = pending_version_for(sr.table, t.begin_ts)
                if pend is None or pend.schema_version != sr.schema_version:
                    violations.append(Violation(
                        "pending-admission",
                        f"txn {t.txn_id} claimed admission to a pending schema "
                        f"of table {sr.table} it could not see",
                        event=sr,
                        expected=pend.schema_version if pend else None,
                        observed=sr.schema_version))
                continue
            expected_schema = oracle.schema_for(sr.table, t.begin_ts)
            if expected_schema is None:
                continue
            if sr.schema_version != expected_schema[1]:
                violations.append(Violation(
                    "schema-visibility",
                    f"txn {t.txn_id} used the wrong schema version for "
                    f"table {sr.table}",
                    event=sr, expected=expected_schema[1],
                    observed=sr.schema_version))

    # schema/data commit ordering: a committed write made under a
    # non-pending schema must not straddle a newer schema commit.
    for t in committed:
        used: dict[int, Event] = {}
        for sr in t.schema_reads:
            used.setdefault(sr.table, sr)
        wrote_tables = {w.table for w in t.writes}
        for table in wrote_tables:
            sr = used.get(table)
            if sr is None or sr.admitted:
                continue
            hist = oracle.schemas.get(table, ())
            for ts, vno, _ in hist:
                if vno != sr.schema_version and ts < t.commit_ts:
                    sr_ts = next((s for s, v, _ in hist if v == sr.schema_version), None)
                    if sr_ts is not None and sr_ts < ts:
                        violations.append(Violation(
                            "schema-set-validation",
                            f"txn {t.txn_id} wrote table {table} under schema "
                            f"v{sr.schema_version} but committed after schema "
                            f"v{vno} (ts {ts})",
                            expected=f"commit < {ts}", observed=t.commit_ts))
                        break
    return violations
