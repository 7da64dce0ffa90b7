"""Transaction lifecycle under snapshot isolation.

Commit-timestamp acquisition, schema-set validation, version stamping,
index application, and redo-log append all happen inside one global
pre-commit critical section; begin timestamps are read under the same
lock. That discipline is what makes strict ``commit_ts < begin_ts``
visibility race-free and keeps the log timestamp-ordered, which the
change-data-capture phase relies on.

A commit finalizes in the thread that runs it: the engine keeps no
durable log, so there is no flush to overlap. Only a transaction
admitted under an in-flight schema-evolution job's pending schema is
held back, with a barrier on the job, in the commit queue; later commits
queue behind it, so finalize order stays commit order. The thread that
resolves the job finalizes the queue's drainable prefix, aborting the
entries whose pending schema the job revoked.

Nothing polls: ``wait_for``/``drain_now``/``quiesce``/``close`` wait on
one condition, ``Engine._queue_cv``. ``Engine.wake`` drains the queue
and notifies it; a DDL job resolving calls it, as do a held-back commit
and, while one of those calls waits, the last active transaction
ending. Their timeouts are deadlines only. Change-data-capture workers
wait on the redo log instead (``RedoLog.wait_for_tail``), which wakes
them once a whole step is logged rather than on every commit.
"""

from __future__ import annotations

import itertools
import struct
import threading
from enum import Enum
from typing import Any, Iterator, Optional

from . import core_store, verifier
from .catalog import (
    CATALOG_TABLE_ID,
    Catalog,
    SchemaState,
    SchemaVersion,
)
from .core_store import (
    TOMBSTONE,
    IndirectionArray,
    Rid,
    TableHandle,
    Timestamp,
    Version,
    is_tombstone,
)
from .redo_log import RedoLog


class TxnStatus(Enum):
    ACTIVE = "active"
    PRE_COMMITTED = "pre_committed"
    COMMITTED = "committed"
    ABORTED = "aborted"


class OverlapAbort(Exception):
    """A read under a pending schema hit a record that is not yet
    migrated (or updated-but-not-replayed); the transaction must abort."""

    def __init__(self, table_id: int, rid: Rid):
        super().__init__(f"overlap check failed: table {table_id} rid {rid}")
        self.table_id = table_id
        self.rid = rid


class GlobalClock:
    """Central 64-bit counter; ``read`` never advances it.

    It advances through the two-phase ``reserve``/``publish`` pair: the
    committer (already serialized by the commit mutex) reserves the next
    timestamp, stamps its versions, and publishes the increment as its
    very last step. A reader can thus only obtain a begin timestamp that
    admits a version after that version is fully stamped, which makes
    lock-free begins safe."""

    def __init__(self, start: Timestamp = 1) -> None:
        self._value = start

    def read(self) -> Timestamp:
        return self._value  # single word, atomic under the GIL

    def reserve(self) -> Timestamp:
        """The timestamp the next commit will use. Caller must hold the
        engine's commit mutex."""
        return self._value

    def publish(self, reserved: Timestamp) -> None:
        """Make a reserved timestamp visible to new begins."""
        self._value = reserved + 1


class TxnContext:
    __slots__ = ("txn_id", "begin_ts", "commit_ts", "status", "write_set",
                 "schema_set", "schema_cache", "admitted", "index_ops",
                 "abort_reason", "held_locks")

    def __init__(self, txn_id: int, begin_ts: Timestamp) -> None:
        self.txn_id = txn_id
        self.begin_ts = begin_ts
        self.commit_ts: Optional[Timestamp] = None
        self.status = TxnStatus.ACTIVE
        # (table_id, array, rid, version) per installed write
        self.write_set: list[tuple[int, IndirectionArray, Rid, Version]] = []
        # table_id -> schema version the write path used
        self.schema_set: dict[int, SchemaVersion] = {}
        # table_id -> (schema, is_latest); SI read stability for the catalog
        self.schema_cache: dict[int, Optional[tuple[SchemaVersion, bool]]] = {}
        # table_id -> DdlJob whose pending schema admitted this txn
        self.admitted: dict[int, Any] = {}
        # ("insert"|"delete", index, key, rid), derived at commit
        self.index_ops: list[tuple[str, Any, bytes, Rid]] = []
        self.abort_reason: Optional[str] = None
        # table reader locks held for the txn's lifetime (blocking policy)
        self.held_locks: list[Any] = []

    def iter_log_writes(self) -> Iterator[tuple[int, Rid, Version]]:
        for table_id, _array, rid, version in self.write_set:
            yield table_id, rid, version

    def __repr__(self) -> str:
        return f"<Txn {self.txn_id} begin={self.begin_ts} {self.status.value}>"


def encode_key(values: tuple) -> bytes:
    """Deterministic key encoding for index lookups."""
    parts = []
    for v in values:
        if isinstance(v, int):
            parts.append(b"i" + struct.pack(">q", v))
        elif isinstance(v, float):
            parts.append(b"f" + struct.pack(">d", v))
        else:
            raw = str(v).encode("utf-8")
            parts.append(b"s" + struct.pack(">I", len(raw)) + raw)
    return b"".join(parts)


def _key_of(payload: Optional[tuple], key_cols: tuple[int, ...]
            ) -> Optional[tuple]:
    if payload is None or max(key_cols, default=-1) >= len(payload):
        return None
    return tuple(payload[i] for i in key_cols)


def _undo_index_ops(ops: list) -> None:
    for op, index, key, rid in reversed(ops):
        if op == "insert":
            index.delete(key)
        else:
            index.insert(key, rid)


class Engine:
    """Embedded storage engine: catalog + clock + redo log, and a commit
    queue that holds only commits waiting on a schema-evolution job.

    ``locking_dml=True`` routes every DML operation through the table's
    reader/writer lock in reader mode; that is the blocking-migration
    baseline and costs throughput even with no DDL running.
    """

    def __init__(self, *, trace: Optional[verifier.Trace] = None,
                 locking_dml: bool = False) -> None:
        self.catalog = Catalog()
        self.clock = GlobalClock()
        self.log = RedoLog()
        self.trace = trace
        self.locking_dml = locking_dml
        self._commit_mutex = threading.Lock()
        self._txn_ids = itertools.count(1)
        self._active: dict[int, TxnContext] = {}
        self._active_lock = threading.Lock()
        self._queue: list[TxnContext] = []
        self._queue_cv = threading.Condition()
        self._waiting = 0  # callers blocked in wait_for/drain_now/quiesce

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Give commits held behind a DDL job up to 5 s to finalize."""
        with self._queue_cv:
            self._queue_cv.wait_for(lambda: not self._queue, 5)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- table setup --------------------------------------------------------

    def create_table(self, name: str, columns, constraints=(),
                     key_cols: tuple[str, ...] = ()) -> TableHandle:
        """Register a table with its initial schema (committed through a
        system transaction so it carries a real timestamp)."""
        handle = self.catalog.new_table_handle(name)
        schema = SchemaVersion(handle.table_id, name, tuple(columns),
                               tuple(constraints), data_array=handle.live_array)
        txn = self.begin()
        if not self.catalog.install_schema_version(txn, handle.table_id, schema):
            raise RuntimeError(f"could not install initial schema for {name}")
        status = self.commit(txn)
        assert status in (TxnStatus.PRE_COMMITTED, TxnStatus.COMMITTED)
        if key_cols:
            positions = tuple(schema.col_index(c) for c in key_cols)
            handle.indexes["primary"] = core_store.KeyIndex("primary", positions)
        if self.trace:
            head = self.catalog.head_version(handle.table_id)
            self.trace.emit(verifier.SCHEMA_INIT, table=handle.table_id,
                            ts=head.commit_ts, schema_version=schema.version_no,
                            ncols=schema.ncols)
        return handle

    # -- transaction lifecycle ----------------------------------------------

    def begin(self) -> TxnContext:
        txn_id = next(self._txn_ids)
        begin_ts = self.clock.read()
        if self.trace:
            self.trace.emit(verifier.BEGIN, txn=txn_id, ts=begin_ts)
        txn = TxnContext(txn_id, begin_ts)
        with self._active_lock:
            self._active[txn_id] = txn
        return txn

    def _resolve_schema(self, txn: TxnContext, table: TableHandle
                        ) -> Optional[tuple[SchemaVersion, bool]]:
        tid = table.table_id
        if tid in txn.schema_cache:
            return txn.schema_cache[tid]
        got = self.catalog.get_visible_schema(txn, tid)
        if got is not None and got[0].state is SchemaState.PENDING:
            job = table.active_ddl
            if job is not None and job.pending_schema is got[0]:
                txn.admitted[tid] = job
        txn.schema_cache[tid] = got
        if self.trace and got is not None:
            schema = got[0]
            # a transaction that began in the pending window but resolves
            # the schema after finalize still uses the version it was
            # admitted to, not one committed before its begin
            admitted = tid in txn.admitted or \
                self.catalog.was_pending_at(tid, schema, txn.begin_ts)
            self.trace.emit(verifier.SCHEMA_READ, txn=txn.txn_id, table=tid,
                            schema_version=schema.version_no,
                            admitted=admitted)
        return got

    def _lock_table(self, txn: TxnContext, table: TableHandle) -> None:
        """Blocking policy: take the table's reader lock on first access
        and hold it until the transaction resolves. Reader locks held
        across table switches cannot deadlock: only DDL jobs take the
        writer side, and a DDL never waits for another table's lock."""
        if table.rwlock not in txn.held_locks:
            table.rwlock.acquire_read()
            txn.held_locks.append(table.rwlock)

    def _release_locks(self, txn: TxnContext) -> None:
        for lock in txn.held_locks:
            lock.release_read()
        txn.held_locks.clear()

    def resolve_schema(self, txn: TxnContext, table: TableHandle
                       ) -> Optional[tuple[SchemaVersion, bool]]:
        """The schema version this transaction operates under for
        ``table`` (cached for the transaction's lifetime), plus whether it
        is the latest committed one."""
        if self.locking_dml:
            self._lock_table(txn, table)
        return self._resolve_schema(txn, table)

    def read(self, txn: TxnContext, table: TableHandle, rid: Rid,
             ) -> Optional[tuple]:
        """Visible payload for ``rid`` under the transaction's schema, or
        None for absent/tombstoned records. Raises OverlapAbort when the
        relaxed-admission rules forbid the read."""
        assert txn.status is TxnStatus.ACTIVE
        if self.locking_dml:
            self._lock_table(txn, table)
        return self._read_inner(txn, table, rid)

    def _read_inner(self, txn, table, rid):
        got = self._resolve_schema(txn, table)
        if got is None:
            return None
        schema, _ = got
        tid = table.table_id
        admitted = tid in txn.admitted
        job = txn.admitted.get(tid)
        if job is not None and job.new_array is not None:
            version = self._admitted_read(txn, table, job, rid)
        else:
            arr = schema.data_array
            if not arr.covers(rid):
                version = None
            else:
                found = core_store.read_visible(txn.begin_ts, arr, rid)
                version = found[0] if found else None
        if version is None:
            if self.trace:
                self.trace.emit(verifier.READ, txn=txn.txn_id, table=tid,
                                rid=rid, observed_ts=None,
                                schema_version=schema.version_no,
                                admitted=admitted)
            return None
        if version.is_tombstone:
            if self.trace:
                self.trace.emit(verifier.READ, txn=txn.txn_id, table=tid,
                                rid=rid, observed_ts=version.commit_ts,
                                tombstone=True,
                                schema_version=schema.version_no,
                                admitted=admitted)
            return None
        payload = self._adapt_payload(table, schema, rid, version)
        if self.trace:
            self.trace.emit(verifier.READ, txn=txn.txn_id, table=tid,
                            rid=rid, observed_ts=version.commit_ts,
                            nvals=len(payload),
                            schema_version=schema.version_no,
                            admitted=admitted)
        return payload

    def _admitted_read(self, txn, table, job, rid) -> Optional[Version]:
        """Fused overlap check + read for transactions admitted under a
        pending schema with out-of-place migration: proceed only when the
        new array already holds a version at least as fresh as the old
        array's latest committed one."""
        new_arr = job.new_array
        found = None
        if new_arr.covers(rid):
            found = core_store.read_visible(txn.begin_ts, new_arr, rid)
        old_v = None
        if job.old_array.covers(rid):
            old_v = core_store.latest_committed(job.old_array, rid)
        if found is None:
            if old_v is None:
                return None  # record exists nowhere: a clean miss
            raise OverlapAbort(table.table_id, rid)
        version = found[0]
        if old_v is not None and old_v.commit_ts > version.commit_ts:
            raise OverlapAbort(table.table_id, rid)
        return version

    def _adapt_payload(self, table, schema, rid, version) -> tuple:
        payload = version.payload
        n = schema.ncols
        if len(payload) == n:
            return payload
        if len(payload) > n:
            # written under a wider (newer) schema; project down
            return payload[:n]
        lazy = table.lazy_state
        if lazy is not None and lazy.schema is schema:
            migrated = lazy.migrate_on_access(rid, version)
            if migrated is not None:
                return migrated
        return payload + schema.defaults()[len(payload):]

    def write(self, txn: TxnContext, table: TableHandle, rid: Rid,
              values: Any) -> bool:
        """Install a new version (``values`` may be TOMBSTONE). False on
        any visibility or race failure; the caller is expected to abort."""
        assert txn.status is TxnStatus.ACTIVE
        if self.locking_dml:
            self._lock_table(txn, table)
        return self._write_inner(txn, table, rid, values)

    def _write_inner(self, txn, table, rid, values) -> bool:
        got = self._resolve_schema(txn, table)
        if got is None:
            return False
        schema, is_latest = got
        tid = table.table_id
        job = txn.admitted.get(tid)
        admitted = job is not None
        if not admitted and not is_latest:
            return False
        if not is_tombstone(values):
            values = tuple(values)
            if len(values) != schema.ncols:
                raise ValueError(
                    f"payload arity {len(values)} != schema arity {schema.ncols} "
                    f"for table {schema.table_name}")
        if admitted:
            # like the job's scan and replay, verify the constraints the
            # DDL adds (earlier ones are not enforced on ordinary writes)
            added = job.spec.constraints
            if added and not is_tombstone(values):
                from . import ddl  # local import to avoid a cycle
                if not ddl.verify_record(values, schema, added,
                                         ddl.LookupContext(self)):
                    job.fail("incompatible_data")
                    return False
            arr = job.new_array if job.new_array is not None else schema.data_array
            arr.ensure(rid)
        else:
            arr = schema.data_array
            if not arr.covers(rid):
                arr.ensure(rid)
        version = Version(values, owner_txn=txn.txn_id)
        ok = core_store.install_version(txn, arr, rid, version, tid)
        if ok:
            txn.schema_set[tid] = schema
            if self.trace:
                self.trace.emit(verifier.WRITE, txn=txn.txn_id, table=tid,
                                rid=rid, payload=values,
                                tombstone=is_tombstone(values),
                                admitted=admitted,
                                schema_version=schema.version_no)
        return ok

    def insert(self, txn: TxnContext, table: TableHandle,
               values: tuple) -> Optional[Rid]:
        """Allocate a fresh RID and install the first version; index
        entries are derived and applied at commit. Returns the RID or
        None on failure."""
        rid = table.allocate_rid()
        if not self.write(txn, table, rid, values):
            return None
        return rid

    def delete(self, txn: TxnContext, table: TableHandle, rid: Rid) -> bool:
        """Tombstone a record; index entries are removed at commit."""
        return self.write(txn, table, rid, TOMBSTONE)

    def lookup(self, txn: TxnContext, table: TableHandle, key_values: tuple,
               index_name: str = "primary") -> Optional[tuple]:
        index = table.indexes.get(index_name)
        if index is None:
            return None
        rid = index.lookup(encode_key(key_values))
        if rid is None:
            return None
        return self.read(txn, table, rid)

    # -- commit / abort -----------------------------------------------------

    def commit(self, txn: TxnContext) -> TxnStatus:
        assert txn.status is TxnStatus.ACTIVE
        with self._commit_mutex:
            conflict = self._validate_schema_set(txn)
            if conflict is not None:
                txn.abort_reason = conflict
            else:
                self._derive_index_ops(txn)
                if self._apply_index_ops(txn):
                    txn.abort_reason = "duplicate_key"
            failed = txn.abort_reason is not None
            if not failed:
                self._precommit(txn)
        if failed:
            self._abort_internal(txn)
            return TxnStatus.ABORTED
        self._release_locks(txn)
        self._deactivate(txn)
        return txn.status

    def _derive_index_ops(self, txn: TxnContext) -> None:
        """Index maintenance is derived inside the commit section so it
        always runs against the index set current at commit time (an
        index published mid-transaction still gets this txn's keys)."""
        deletes: list[tuple[str, Any, bytes, Rid]] = []
        inserts: list[tuple[str, Any, bytes, Rid]] = []
        for tid, _arr, rid, version in txn.write_set:
            if tid == CATALOG_TABLE_ID or tid < 0:
                continue
            try:
                table = self.catalog.handle(tid)
            except Exception:
                continue
            if not table.indexes:
                continue
            prior = None
            for v in (version.next.chain() if version.next is not None else ()):
                if v.is_committed:
                    prior = v
                    break
            old = None if prior is None or prior.is_tombstone else prior.payload
            new = None if version.is_tombstone else version.payload
            same_shape = old is not None and new is not None \
                and len(old) == len(new)
            for index in table.indexes.values():
                cols = index.key_cols
                if same_shape:
                    # most updates keep the key: compare before building it
                    for i in cols:
                        if i >= len(new) or old[i] != new[i]:
                            break
                    else:
                        continue
                old_key = _key_of(old, cols)
                new_key = _key_of(new, cols)
                if old_key == new_key:
                    continue
                if old_key is not None:
                    deletes.append(("delete", index, encode_key(old_key), rid))
                if new_key is not None:
                    inserts.append(("insert", index, encode_key(new_key), rid))
        # deletes first: a key that moves between records in one
        # transaction is free again before it is re-inserted
        txn.index_ops = deletes + inserts

    def _validate_schema_set(self, txn: TxnContext) -> Optional[str]:
        """Alg.-2-style commit check: for every table written, the schema
        version used must still be the head, with policy-aware treatment
        of in-flight schema-evolution installs (see module docstring)."""
        for tid, used in txn.schema_set.items():
            head = self.catalog.head_version(tid)
            if head is None:
                return "schema_conflict"
            head_schema: SchemaVersion = head.payload
            if head_schema is used:
                continue  # still the head (committed, pending, or own install)
            if not head.is_committed:
                # uncommitted schema install sits on top of the one we used
                job = self.catalog.handle(tid).active_ddl
                relaxed = job is not None and job.relaxed
                if relaxed and head.next is not None and head.next.payload is used:
                    continue  # relaxed scan phase: old-array writers may commit
            return "schema_conflict"
        return None

    def _apply_index_ops(self, txn: TxnContext) -> bool:
        """Apply the derived index ops in order; on a duplicate key undo
        the ones applied and return True."""
        ops = txn.index_ops
        for i, (op, index, key, rid) in enumerate(ops):
            if op == "delete":
                index.delete(key)
            elif not index.insert(key, rid):
                _undo_index_ops(ops[:i])
                return True
        return False

    def abort(self, txn: TxnContext) -> None:
        assert txn.status is TxnStatus.ACTIVE
        self._abort_internal(txn)

    def _abort_internal(self, txn: TxnContext) -> None:
        self._unlink(txn)
        txn.write_set.clear()
        txn.index_ops.clear()
        self._release_locks(txn)
        self._deactivate(txn)

    def _unlink(self, txn: TxnContext) -> None:
        """Mark ``txn`` aborted and unlink its versions, newest first."""
        # the abort event precedes the unlinks so a competing writer's
        # success can never appear to overlap our ownership window
        txn.status = TxnStatus.ABORTED
        if self.trace:
            self.trace.emit(verifier.ABORT, txn=txn.txn_id)
        for _tid, arr, rid, version in reversed(txn.write_set):
            core_store.unlink_version(arr, rid, version)

    def _deactivate(self, txn: TxnContext) -> None:
        with self._active_lock:
            self._active.pop(txn.txn_id, None)
            idle = not self._active
        # a waiter counts itself before it reads _active, so it either
        # sees this removal or is seen here
        if idle and self._waiting:
            self.wake()

    # -- commit queue --------------------------------------------------------

    def _drainable(self) -> int:
        """Length of the queue's prefix whose admitting jobs have resolved."""
        n = 0
        for txn in self._queue:
            if not all(job.resolved.is_set() for job in txn.admitted.values()):
                break
            n += 1
        return n

    def _finalize_entry(self, txn: TxnContext) -> None:
        if any(j.outcome == "aborted" for j in txn.admitted.values()):
            # the pending schema this transaction depended on was revoked
            txn.abort_reason = "ddl_aborted"
            self._unlink(txn)
            _undo_index_ops(txn.index_ops)
        else:
            txn.status = TxnStatus.COMMITTED

    def wake(self) -> None:
        """Finalize the queue's drainable prefix in commit order (what a
        resolved DDL job released), then notify every waiter."""
        with self._queue_cv:
            n = self._drainable()
            for txn in self._queue[:n]:
                self._finalize_entry(txn)
            del self._queue[:n]
            self._queue_cv.notify_all()

    def _precommit(self, txn: TxnContext) -> None:
        """Stamp and log ``txn`` at the reserved timestamp, finalize it or
        queue it behind a barrier, then publish it. The caller holds the
        commit mutex (``commit()`` and the relaxed DDL finalize path)."""
        cts = self.clock.reserve()
        txn.commit_ts = cts
        for _tid, _arr, _rid, version in txn.write_set:
            version.commit_ts = cts
        self.log.append_commit(txn)
        if self.trace:
            self.trace.emit(verifier.COMMIT, txn=txn.txn_id, ts=cts)
        # only this section appends, and ``wake`` removes entries after
        # finalizing them, so an empty queue means every earlier commit
        # is final
        if txn.admitted or self._queue:
            txn.status = TxnStatus.PRE_COMMITTED
            with self._queue_cv:
                self._queue.append(txn)
            self.wake()
        else:
            txn.status = TxnStatus.COMMITTED
        # publish last: begins obtaining a timestamp that admits these
        # versions can only exist once they are stamped
        self.clock.publish(cts)

    def _wait(self, ready, timeout: float, what: str) -> None:
        with self._queue_cv:
            self._waiting += 1
            try:
                if not self._queue_cv.wait_for(ready, timeout):
                    raise TimeoutError(what)
            finally:
                self._waiting -= 1

    def wait_for(self, txn: TxnContext, timeout: float = 30.0) -> TxnStatus:
        """Block until the transaction is finalized."""
        self._wait(lambda: txn.status is not TxnStatus.PRE_COMMITTED, timeout,
                   f"txn {txn.txn_id} stuck pre-committed")
        return txn.status

    def drain_now(self, timeout: float = 30.0) -> None:
        """Wait until the queue is empty and finalized (barriers must resolve)."""
        self._wait(lambda: not self._queue, timeout, "commit queue did not drain")

    def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until no transaction is active and every queued entry is
        finalized; after this, superseded arrays/versions are reclaimable
        (the minimal epoch scheme used at desk scale)."""
        self._wait(lambda: not (self._active or self._queue), timeout,
                   "engine did not quiesce")

    def oldest_active_begin(self) -> Optional[Timestamp]:
        with self._active_lock:
            if not self._active:
                return None
            return min(t.begin_ts for t in self._active.values())

    # -- helpers for tests and the benchmark ---------------------------------

    def run_system_txn(self, fn) -> TxnStatus:
        """Run ``fn(txn)``, committing on truthy return, aborting otherwise."""
        txn = self.begin()
        try:
            ok = fn(txn)
        except Exception:
            self.abort(txn)
            raise
        if ok is False:
            self.abort(txn)
            return TxnStatus.ABORTED
        return self.commit(txn)

    def load_rows(self, table: TableHandle, rows: Iterator[tuple]) -> int:
        """Bulk-load rows in one system transaction; returns the count."""
        count = 0

        def loader(txn):
            nonlocal count
            for values in rows:
                if self.insert(txn, table, values) is None:
                    return False
                count += 1
            return True

        status = self.run_system_txn(loader)
        if status is TxnStatus.ABORTED:
            raise RuntimeError(f"bulk load of {table.name} failed")
        return count

    def materialize(self, table: TableHandle) -> dict[Rid, tuple]:
        """Latest committed logical contents (tombstones excluded),
        independent of which array versions live in."""
        txn = self.begin()
        try:
            got = self.catalog.get_visible_schema(txn, table.table_id,
                                                  include_pending=False)
            if got is None:
                return {}
            schema = got[0]
            arr = schema.data_array
            out: dict[Rid, tuple] = {}
            for rid in range(table.next_rid):
                if not arr.covers(rid):
                    continue
                v = core_store.latest_committed(arr, rid)
                if v is None or v.is_tombstone:
                    continue
                payload = v.payload
                if len(payload) < schema.ncols:
                    payload = payload + schema.defaults()[len(payload):]
                elif len(payload) > schema.ncols:
                    payload = payload[:schema.ncols]
                out[rid] = payload
            return out
        finally:
            self._deactivate(txn)
