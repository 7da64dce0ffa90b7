"""Schema-evolution execution under four policies.

* blocking  - table-level writer lock around the basic runner (baseline)
* basic     - strict per-record snapshot-isolation writes with full
              write-set tracking on the shared array; aborts on any
              write-write conflict with concurrent DML
* relaxed   - out-of-place scan/transform/install into a fresh
              indirection array with inherited commit timestamps, change
              data capture from the redo log, a pending schema state at
              the pre-commit timestamp, and the overlap ("sneak peek")
              admission rules for early access
* lazy      - commit the schema immediately, migrate records on access
              and in the background (``add_column`` only)

Every policy but lazy migrates through one ``_Plan`` per job, made once
from the spec and the old schema. The plan owns the sink (the source
array, a fresh array, output tables or an index builder), the key
positions and the constraints the DDL adds, and one per-record step,
``apply``, which transforms, verifies and writes to the sink. The
in-place runner, the relaxed scan and change-data-capture replay all
call that step, so no loop dispatches on the DDL kind. Basic rejects the
kinds whose sink is not the source array: with no lock and no change
data capture nothing would carry concurrent writes into it.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from . import core_store, verifier
from .catalog import (
    ColumnDef,
    ConstraintDef,
    ConstraintKind,
    SchemaState,
    SchemaVersion,
)
from .core_store import (
    TOMBSTONE,
    DType,
    IndirectionArray,
    KeyIndex,
    Rid,
    TableHandle,
    Version,
)
from .txn import Engine, TxnContext, TxnStatus, encode_key

INCOMPATIBLE = object()

SCAN_CHUNK = 512
# log records per CDC step: short enough (well under 1 ms of replay) to
# fit between foreground threads' turns on the GIL, so CDC keeps up
CDC_STEP = 128


class Policy(Enum):
    BLOCKING = "blocking"
    LAZY = "lazy"
    BASIC = "basic"
    RELAXED = "relaxed"


class DdlOp(Enum):
    ADD_COLUMN = "add_column"
    DROP_COLUMN = "drop_column"
    MODIFY_COLUMN = "modify_column"
    ADD_CONSTRAINT = "add_constraint"
    ADD_COLUMN_WITH_CONSTRAINT = "add_column_with_constraint"
    CREATE_INDEX = "create_index"
    CREATE_TABLE_AS = "create_table_as"
    SPLIT_TABLE = "split_table"
    PREAGGREGATE = "preaggregate"
    JOIN_TABLE = "join_table"
    CREATE_TABLE = "create_table"
    DROP_TABLE = "drop_table"


@dataclass
class DdlSpec:
    """Declarative description of one schema-evolution operation."""

    kind: DdlOp
    table: str = ""
    column: Optional[ColumnDef] = None          # add/modify target
    drop_column: str = ""
    constraints: tuple[ConstraintDef, ...] = ()
    index_cols: tuple[str, ...] = ()
    index_name: str = "primary"
    out_table: str = ""                         # create_table_as / join
    out_split: tuple[tuple[str, tuple[str, ...]], ...] = ()
    select_cols: tuple[str, ...] = ()
    source_table: str = ""                      # join / preaggregate
    local_keys: tuple[str, ...] = ()
    foreign_keys: tuple[str, ...] = ()
    agg_source_col: str = ""                    # preaggregate summed column
    join_cols: tuple[str, ...] = ()
    columns: tuple[ColumnDef, ...] = ()         # create_table definition


@dataclass
class DdlResult:
    status: str                  # "committed" | "aborted"
    reason: str = ""
    commit_ts: Optional[int] = None
    job: Optional["DdlJob"] = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"


class DdlJob:
    """Mutable state of one running schema-evolution operation."""

    def __init__(self, engine: Engine, spec: DdlSpec, policy: Policy,
                 scan_workers: int, cdc_workers: int) -> None:
        self.engine = engine
        self.spec = spec
        self.policy = policy
        self.scan_workers = max(1, scan_workers)
        self.cdc_workers = max(1, cdc_workers)
        self.relaxed = policy is Policy.RELAXED
        self.txn: Optional[TxnContext] = None
        self.table: Optional[TableHandle] = None
        self.old_schema: Optional[SchemaVersion] = None
        self.pending_schema: Optional[SchemaVersion] = None
        self.old_array: Optional[IndirectionArray] = None
        self.new_array: Optional[IndirectionArray] = None
        self.scan_bound: int = 0
        self.cdc_start_lsn: int = 0
        self.cdc_end_lsn: Optional[int] = None
        # per scan chunk, the log tail read just before the scan started it
        # (inf until then): change data capture skips a record logged below
        # it, since the scan read that version or a newer one
        self.chunk_lsn: list[float] = []
        # next log position of each change-data-capture worker
        self.worker_pos: list[int] = []
        self.t_pre: Optional[int] = None
        self.wall_pre: Optional[float] = None
        # set once t_pre is published: new transactions see the pending
        # schema (or, for index and new-table kinds, the pre-commit point)
        self.t_pre_published = threading.Event()
        self.commit_ts: Optional[int] = None
        self.scan_visits = 0
        self.cdc_installs = 0
        self.failure: Optional[str] = None
        self._fail_lock = threading.Lock()
        self.resolved = threading.Event()
        self.outcome: Optional[str] = None
        self.sweep_done = threading.Event()
        self.out_tables: list[TableHandle] = []
        self.out_schemas: list[SchemaVersion] = []

    def fail(self, reason: str) -> None:
        with self._fail_lock:
            if self.failure is None:
                self.failure = reason

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def resolve(self, outcome: str) -> None:
        self.outcome = outcome
        self.resolved.set()
        self.engine.wake()


class LookupContext:
    """Latest-committed keyed access to foreign tables, used by
    cross-table constraint checks and aggregate/join transforms."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def _table(self, name: str) -> tuple[TableHandle, SchemaVersion]:
        handle = self.engine.catalog.handle_by_name(name)
        schema = self.engine.catalog.latest_committed_schema(handle.table_id)
        if schema is None:
            raise LookupError(f"table {name} has no committed schema")
        return handle, schema

    def latest_by_key(self, table_name: str, key_values: tuple
                      ) -> Optional[tuple[tuple, SchemaVersion]]:
        handle, schema = self._table(table_name)
        index = handle.indexes.get("primary")
        if index is None:
            return None
        rid = index.lookup(encode_key(key_values))
        if rid is None:
            return None
        v = core_store.latest_committed(schema.data_array, rid)
        if v is None or v.is_tombstone:
            return None
        return v.payload, schema

    def sum_probe(self, table_name: str, prefix_values: tuple,
                  value_col: str) -> float:
        """Sum ``value_col`` over rows whose primary key is the prefix
        plus a 1..n counter (contiguous line numbers)."""
        handle, schema = self._table(table_name)
        value_idx = schema.col_index(value_col)
        total = 0.0
        n = 1
        while True:
            got = self.latest_by_key(table_name, prefix_values + (n,))
            if got is None:
                return total
            payload, _ = got
            if value_idx < len(payload) and payload[value_idx] is not None:
                total += payload[value_idx]
            n += 1


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def verify_record(payload: tuple, schema: SchemaVersion,
                  constraints: tuple[ConstraintDef, ...],
                  lookup_ctx: Optional[LookupContext]) -> bool:
    """True iff the payload satisfies every constraint. Null operands and
    unresolvable foreign keys count as violations."""
    for c in constraints:
        if c.kind is ConstraintKind.NOT_NULL:
            if payload[schema.col_index(c.column)] is None:
                return False
            continue
        val = payload[schema.col_index(c.column)]
        if c.kind is ConstraintKind.COLUMN_VS_CONST:
            if val is None or not _OPS[c.op](val, c.const):
                return False
        elif c.kind is ConstraintKind.COLUMN_VS_COLUMN:
            other = payload[schema.col_index(c.other_column)]
            if val is None or other is None or not _OPS[c.op](val, other):
                return False
        else:  # CROSS_TABLE_LOOKUP
            if lookup_ctx is None:
                return False
            key = tuple(payload[schema.col_index(k)] for k in c.local_key_cols)
            got = lookup_ctx.latest_by_key(c.foreign_table, key)
            if got is None:
                return False
            foreign_payload, foreign_schema = got
            target = foreign_payload[foreign_schema.col_index(c.foreign_col)]
            if val is None or target is None or not _OPS[c.op](val, target):
                return False
    return True


def _convert(value: Any, dtype: DType) -> Any:
    if value is None:
        return None
    try:
        if dtype is DType.INT64:
            if isinstance(value, float):
                if not value.is_integer():
                    return INCOMPATIBLE
                return int(value)
            return int(value)
        if dtype is DType.FLOAT64:
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        return INCOMPATIBLE


def transform_record(payload: tuple, old_schema: SchemaVersion,
                     new_schema: SchemaVersion, spec: DdlSpec,
                     lookup_ctx: Optional[LookupContext] = None) -> Any:
    """Convert one record from the old format to the new one; returns
    INCOMPATIBLE when the data cannot be represented."""
    kind = spec.kind
    if kind in (DdlOp.ADD_COLUMN, DdlOp.ADD_COLUMN_WITH_CONSTRAINT):
        return payload + (spec.column.default,)
    if kind is DdlOp.DROP_COLUMN:
        i = old_schema.col_index(spec.drop_column)
        return payload[:i] + payload[i + 1:]
    if kind is DdlOp.MODIFY_COLUMN:
        i = old_schema.col_index(spec.column.name)
        converted = _convert(payload[i], spec.column.dtype)
        if converted is INCOMPATIBLE:
            return INCOMPATIBLE
        return payload[:i] + (converted,) + payload[i + 1:]
    if kind is DdlOp.PREAGGREGATE:
        if lookup_ctx is None:
            return INCOMPATIBLE
        prefix = tuple(payload[old_schema.col_index(k)] for k in spec.local_keys)
        total = lookup_ctx.sum_probe(spec.source_table, prefix, spec.agg_source_col)
        return payload + (total,)
    if kind is DdlOp.CREATE_TABLE_AS:
        return tuple(payload[old_schema.col_index(c)] for c in spec.select_cols)
    if kind is DdlOp.JOIN_TABLE:
        if lookup_ctx is None:
            return INCOMPATIBLE
        key = tuple(payload[old_schema.col_index(k)] for k in spec.local_keys)
        got = lookup_ctx.latest_by_key(spec.source_table, key)
        if got is None:
            extra = tuple(None for _ in spec.join_cols)
        else:
            fpayload, fschema = got
            extra = tuple(fpayload[fschema.col_index(c)] for c in spec.join_cols)
        return payload + extra
    # verify-only / index kinds keep the payload as is
    return payload


def build_new_schema(old: SchemaVersion, spec: DdlSpec,
                     data_array: IndirectionArray) -> SchemaVersion:
    kind = spec.kind
    columns = old.columns
    constraints = old.constraints
    if kind in (DdlOp.ADD_COLUMN, DdlOp.ADD_COLUMN_WITH_CONSTRAINT):
        columns = old.columns + (spec.column,)
    elif kind is DdlOp.DROP_COLUMN:
        columns = tuple(c for c in old.columns if c.name != spec.drop_column)
    elif kind is DdlOp.MODIFY_COLUMN:
        columns = tuple(spec.column if c.name == spec.column.name else c
                        for c in old.columns)
    elif kind is DdlOp.PREAGGREGATE:
        columns = old.columns + (spec.column,)
    if kind in (DdlOp.ADD_CONSTRAINT, DdlOp.ADD_COLUMN_WITH_CONSTRAINT):
        constraints = old.constraints + spec.constraints
    return SchemaVersion(old.table_id, old.table_name, columns, constraints,
                         state=SchemaState.COMMITTED, data_array=data_array)


class _IndexBuilder:
    """Staging map for online index construction: rid -> newest
    ``(commit_ts, key)``, the key None once the record is deleted.

    Scan workers and change-data-capture workers stage in any order; the
    newest version of each record wins, so a key the record has moved
    away from drops out. Uniqueness is checked once, when ``materialize``
    inverts the map.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._map: dict[Rid, tuple[int, Optional[bytes]]] = {}

    def apply(self, rid: Rid, ts: int, key: Optional[bytes]) -> None:
        with self._lock:
            cur = self._map.get(rid)
            if cur is None or cur[0] < ts:
                self._map[rid] = (ts, key)

    def materialize(self, name: str, key_cols: tuple[int, ...]
                    ) -> Optional[KeyIndex]:
        """The index, or None when two live records share a key."""
        index = KeyIndex(name, key_cols)
        with self._lock:
            for rid, (_ts, key) in self._map.items():
                if key is not None and not index.insert(key, rid):
                    return None
        return index


class _Plan:
    """One job's migration, made once from the spec and the old schema:
    the new schema (None for kinds that only make output tables), the
    constraints the DDL adds, and the sink. ``apply`` is the per-record
    step of every policy's scan and of change-data-capture replay.

    The sink is chosen here, once per job: the source array under the DDL
    transaction (blocking, basic), a fresh array with inherited timestamps
    (relaxed copies), the output tables of split/join/create-as, an index
    builder, or none (verify-only kinds)."""

    def __init__(self, job: DdlJob, in_place: bool) -> None:
        engine, spec, table, txn = job.engine, job.spec, job.table, job.txn
        old = engine.catalog.latest_committed_schema(table.table_id)
        job.old_schema, job.old_array = old, table.live_array
        self.job, self.spec, self.old = job, spec, old
        self.ctx = LookupContext(engine)
        self.schema: Optional[SchemaVersion] = None
        self.constraints: tuple[ConstraintDef, ...] = ()
        self.index: Optional[_IndexBuilder] = None
        self.built: Optional[KeyIndex] = None
        self.key_positions: tuple[int, ...] = ()
        # (output array, column positions or None for the whole payload)
        self.outs: list[tuple[IndirectionArray, Optional[tuple[int, ...]]]] = []
        # the sink takes no admitted writes, so replay runs to the log tail
        self.to_tail = False
        self._put, self._delete = self._skip, self._skip
        kind = spec.kind
        if kind in (DdlOp.SPLIT_TABLE, DdlOp.CREATE_TABLE_AS, DdlOp.JOIN_TABLE):
            # (name, columns, positions projected from the transformed row)
            if kind is DdlOp.SPLIT_TABLE:
                targets = []
                for name, cols in spec.out_split:
                    pos = tuple(old.col_index(c) for c in cols)
                    targets.append((name, tuple(old.columns[i] for i in pos),
                                    pos))
            elif kind is DdlOp.CREATE_TABLE_AS:
                targets = [(spec.out_table, tuple(
                    old.columns[old.col_index(c)] for c in spec.select_cols),
                    None)]
            else:
                src = engine.catalog.latest_committed_schema(
                    engine.catalog.handle_by_name(spec.source_table).table_id)
                targets = [(spec.out_table, old.columns + tuple(
                    src.columns[src.col_index(c)] for c in spec.join_cols),
                    None)]
            for name, cols, pos in targets:
                handle = engine.catalog.new_table_handle(name)
                schema = SchemaVersion(handle.table_id, name, cols,
                                       data_array=handle.live_array)
                if not engine.catalog.install_schema_version(
                        txn, handle.table_id, schema):
                    job.fail("conflict")
                    return
                job.out_tables.append(handle)
                job.out_schemas.append(schema)
                self.outs.append((handle.live_array, pos))
            self._put = self._delete = self._to_out_tables
            self.to_tail = True
            return
        if kind is DdlOp.DROP_COLUMN:
            dropped = old.col_index(spec.drop_column)
            if any(dropped <= max(ix.key_cols, default=-1)
                   for ix in table.indexes.values()):
                # an index keeps its key positions, and writers admitted
                # in the pending window commit new-format rows against them
                job.fail("indexed_column")
                return
        verify_only = kind is DdlOp.ADD_CONSTRAINT
        if not in_place and not verify_only and kind is not DdlOp.CREATE_INDEX:
            job.new_array = IndirectionArray()
            self._put = self._delete = self._to_new_array
        self.schema = build_new_schema(
            old, spec, table.live_array if job.new_array is None
            else job.new_array)
        if not engine.catalog.install_schema_version(txn, table.table_id,
                                                     self.schema):
            job.fail("conflict")
            return
        job.pending_schema = self.schema
        self.constraints = spec.constraints
        if kind is DdlOp.CREATE_INDEX:
            self.index = _IndexBuilder()
            self.key_positions = tuple(old.col_index(c) for c in spec.index_cols)
            self._put = self._delete = self._to_index
            self.to_tail = True
        elif in_place and not verify_only:
            self._put = self._in_place

    def apply(self, rid: Rid, v: Version) -> bool:
        """Migrate source version ``v`` of ``rid`` into the sink; True when
        the sink took it. A record that cannot be migrated fails the job."""
        if v.is_tombstone:
            return self._delete(rid, v, TOMBSTONE)
        payload = transform_record(v.payload, self.old, self.schema,
                                   self.spec, self.ctx)
        if payload is INCOMPATIBLE or (self.constraints and not verify_record(
                payload, self.schema, self.constraints, self.ctx)):
            self.job.fail("incompatible_data")
            return False
        return self._put(rid, v, payload)

    def _skip(self, rid: Rid, v: Version, payload: Any) -> bool:
        return False

    def _in_place(self, rid: Rid, v: Version, payload: Any) -> bool:
        job = self.job
        if core_store.install_version(job.txn, job.old_array, rid,
                                      Version(payload, owner_txn=job.txn.txn_id),
                                      job.table.table_id):
            return True
        job.fail("conflict")
        return False

    def _to_new_array(self, rid: Rid, v: Version, payload: Any) -> bool:
        return core_store.install_migrated(self.job.new_array, rid, payload,
                                           v.commit_ts, newer_than=self.job.t_pre)

    def _to_out_tables(self, rid: Rid, v: Version, payload: Any) -> bool:
        # output arrays are written only by this job, so plain newest-wins
        # ordering applies (no admitted-era boundary)
        for arr, pos in self.outs:
            row = payload if pos is None or payload is TOMBSTONE \
                else tuple(payload[i] for i in pos)
            core_store.install_migrated(arr, rid, row, v.commit_ts)
        return True

    def _to_index(self, rid: Rid, v: Version, payload: Any) -> bool:
        key = None if payload is TOMBSTONE else encode_key(
            tuple(payload[i] for i in self.key_positions))
        self.index.apply(rid, v.commit_ts, key)
        return True

    def seal(self) -> None:
        """Last step before the commit point: build the staged index,
        failing the job when two live records share a key."""
        if self.index is not None:
            self.built = self.index.materialize(self.spec.index_name,
                                                self.key_positions)
            if self.built is None:
                self.job.fail("incompatible_data")

    def publish(self) -> None:
        """Make the sink live for the committed schema."""
        job = self.job
        if job.new_array is not None:
            job.table.swap_array(job.new_array)
        if self.built is not None:
            job.table.indexes[self.spec.index_name] = self.built
        _sync_out_tables(job)


# ---------------------------------------------------------------------------


def execute_ddl(engine: Engine, spec: DdlSpec, policy: Policy, *,
                scan_workers: int = 1, cdc_workers: int = 1) -> DdlResult:
    """Run one schema-evolution operation to completion under ``policy``."""
    job = DdlJob(engine, spec, policy, scan_workers, cdc_workers)

    if spec.kind is DdlOp.CREATE_TABLE:
        return _run_create_table(job)
    if spec.kind is DdlOp.DROP_TABLE:
        return _run_drop_table(job)

    table = engine.catalog.handle_by_name(spec.table)
    job.table = table
    if not _register(engine, table, job):
        return DdlResult("aborted", "concurrent_ddl", job=job)
    try:
        if policy is Policy.BLOCKING:
            return _run_blocking(job)
        if policy is Policy.BASIC:
            return _run_basic(job)
        if policy is Policy.LAZY:
            return _run_lazy(job)
        return _run_relaxed(job)
    finally:
        if table.active_ddl is job:
            table.active_ddl = None
        if not job.resolved.is_set():
            job.resolve("aborted" if job.outcome != "committed" else "committed")


_registry_lock = threading.Lock()


def _register(engine: Engine, table: TableHandle, job: DdlJob) -> bool:
    with _registry_lock:
        if table.active_ddl is not None:
            return False
        table.active_ddl = job
        return True


def _abort_job(job: DdlJob, reason: str) -> DdlResult:
    engine = job.engine
    if job.pending_schema is not None and job.pending_schema.pending_ts is not None \
            and job.table is not None:
        with engine._commit_mutex:
            engine.catalog.revoke_pending(job.table.table_id)
            if engine.trace:
                engine.trace.emit(verifier.SCHEMA_REVOKE, table=job.table.table_id,
                                  schema_version=job.pending_schema.version_no)
    if job.txn is not None and job.txn.status is TxnStatus.ACTIVE:
        engine._abort_internal(job.txn)
    job.new_array = None
    if job.table is not None and job.table.active_ddl is job:
        job.table.active_ddl = None
    job.resolve("aborted")
    return DdlResult("aborted", reason, job=job)


# -- metadata-only kinds ------------------------------------------------------


def _run_create_table(job: DdlJob) -> DdlResult:
    engine = job.engine
    handle = engine.create_table(job.spec.out_table or job.spec.table,
                                 job.spec.columns, job.spec.constraints)
    job.out_tables.append(handle)
    head = engine.catalog.head_version(handle.table_id)
    job.commit_ts = head.commit_ts
    job.resolve("committed")
    return DdlResult("committed", commit_ts=job.commit_ts, job=job)


def _run_drop_table(job: DdlJob) -> DdlResult:
    engine = job.engine
    table = engine.catalog.handle_by_name(job.spec.table)
    old = engine.catalog.latest_committed_schema(table.table_id)
    txn = engine.begin()
    job.txn = txn
    dropped = SchemaVersion(table.table_id, table.name, old.columns,
                            old.constraints, data_array=old.data_array,
                            dropped=True)
    if not engine.catalog.install_schema_version(txn, table.table_id, dropped):
        return _abort_job(job, "conflict")
    status = engine.commit(txn)
    if status is TxnStatus.ABORTED:
        return _abort_job(job, "conflict")
    job.commit_ts = txn.commit_ts
    job.resolve("committed")
    return DdlResult("committed", commit_ts=txn.commit_ts, job=job)


# -- blocking and basic -------------------------------------------------------


def _run_blocking(job: DdlJob) -> DdlResult:
    table = job.table
    table.rwlock.acquire_write()
    try:
        return _run_in_place(job)
    finally:
        table.rwlock.release_write()


def _run_basic(job: DdlJob) -> DdlResult:
    if job.spec.kind in (DdlOp.CREATE_INDEX, DdlOp.CREATE_TABLE_AS,
                         DdlOp.SPLIT_TABLE, DdlOp.JOIN_TABLE):
        # with no lock and no change data capture, nothing would carry
        # concurrent writes into a sink other than the source array
        return _abort_job(job, "unsupported_basic_kind")
    return _run_in_place(job)


def _run_in_place(job: DdlJob) -> DdlResult:
    """Migrate every record under the DDL transaction's own snapshot; a
    record with a newer committed version it cannot see is a conflict."""
    engine = job.engine
    table = job.table
    txn = engine.begin()
    job.txn = txn
    plan = _Plan(job, in_place=True)
    if job.failed:
        return _abort_job(job, job.failure)
    arr = job.old_array
    for rid in range(table.next_rid):
        if not arr.covers(rid):
            continue
        job.scan_visits += 1
        found = core_store.read_visible(txn.begin_ts, arr, rid)
        if found is None:
            if core_store.latest_committed(arr, rid) is not None:
                return _abort_job(job, "conflict")
            continue
        plan.apply(rid, found[0])
        if job.failed:
            return _abort_job(job, job.failure)
    plan.seal()
    if job.failed:
        return _abort_job(job, job.failure)
    status = engine.commit(txn)
    if status is TxnStatus.ABORTED:
        return _abort_job(job, txn.abort_reason or "conflict")
    plan.publish()
    _emit_schema_commit(job, plan.schema, txn.commit_ts)
    job.commit_ts = txn.commit_ts
    job.resolve("committed")
    return DdlResult("committed", commit_ts=txn.commit_ts, job=job)


# -- lazy ---------------------------------------------------------------------


class LazyState:
    """Per-table lazy-migration adapter: transforms records on access and
    via background sweep workers, each record at most once."""

    def __init__(self, job: DdlJob, old_schema: SchemaVersion,
                 schema: SchemaVersion) -> None:
        self.job = job
        self.old_schema = old_schema
        self.schema = schema
        self.array = schema.data_array
        self.migrated = 0
        self._lock = threading.Lock()

    def migrate_on_access(self, rid: Rid, version: Version) -> Optional[tuple]:
        if version.is_tombstone:
            return None
        new_payload = transform_record(version.payload, self.old_schema,
                                       self.schema, self.job.spec,
                                       LookupContext(self.job.engine))
        if new_payload is INCOMPATIBLE:
            return None
        if core_store.replace_in_place(self.array, rid, version, new_payload):
            with self._lock:
                self.migrated += 1
        return new_payload

    def sweep(self, bound: int, workers: int = 1) -> None:
        def run(offset: int) -> None:
            for rid in range(offset, bound, workers):
                if not self.array.covers(rid):
                    continue
                v = core_store.latest_committed(self.array, rid)
                if v is None or v.is_tombstone:
                    continue
                if len(v.payload) == self.schema.ncols:
                    continue
                self.migrate_on_access(rid, v)

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.job.sweep_done.set()


def _run_lazy(job: DdlJob) -> DdlResult:
    engine = job.engine
    spec = job.spec
    table = job.table
    if spec.kind is not DdlOp.ADD_COLUMN:
        # other kinds would need a record's format to be known, not
        # guessed from its arity, and an older snapshot's versions kept
        return _abort_job(job, "unsupported_lazy_kind")
    txn = engine.begin()
    job.txn = txn
    old = engine.catalog.latest_committed_schema(table.table_id)
    job.old_schema = old
    new_schema = build_new_schema(old, spec, table.live_array)
    if not engine.catalog.install_schema_version(txn, table.table_id, new_schema):
        return _abort_job(job, "conflict")
    bound = table.next_rid
    status = engine.commit(txn)
    if status is TxnStatus.ABORTED:
        return _abort_job(job, txn.abort_reason or "conflict")
    _emit_schema_commit(job, new_schema, txn.commit_ts)
    job.commit_ts = txn.commit_ts
    state = LazyState(job, old, new_schema)
    table.lazy_state = state
    table.active_ddl = None
    job.resolve("committed")
    sweeper = threading.Thread(target=state.sweep,
                               args=(bound, job.scan_workers), daemon=True)
    sweeper.start()
    return DdlResult("committed", commit_ts=txn.commit_ts, job=job)


# -- relaxed ------------------------------------------------------------------


def _run_relaxed(job: DdlJob) -> DdlResult:
    engine = job.engine
    table = job.table
    txn = engine.begin()
    job.txn = txn
    plan = _Plan(job, in_place=False)
    if job.failed:
        return _abort_job(job, job.failure)
    new_schema = plan.schema

    # scan bookmarks: the log position first, then the array size, so an
    # insert between the two snapshots is covered by change data capture
    job.cdc_start_lsn = engine.log.current_lsn()
    job.scan_bound = table.next_rid
    job.chunk_lsn = [float("inf")] * ((job.scan_bound + SCAN_CHUNK - 1)
                                      // SCAN_CHUNK)

    job.worker_pos = [job.cdc_start_lsn] * job.cdc_workers
    cdc_stop = threading.Event()
    cdc_threads = [
        threading.Thread(target=_cdc_worker, args=(job, i, plan, cdc_stop),
                         daemon=True)
        for i in range(job.cdc_workers)
    ]
    for t in cdc_threads:
        t.start()

    scan_threads = [threading.Thread(target=_scan_worker, args=(job, i, plan),
                                     daemon=True)
                    for i in range(job.scan_workers)]
    for t in scan_threads:
        t.start()
    for t in scan_threads:
        t.join()
    if job.failed:
        _stop_cdc(job, cdc_stop, cdc_threads)
        return _abort_job(job, job.failure)

    # scan complete: acquire the pre-commit timestamp and expose the new
    # schema in the pending state inside the commit critical section
    with engine._commit_mutex:
        t_pre = engine.clock.reserve()
        job.t_pre = t_pre
        job.wall_pre = time.monotonic()
        if new_schema is not None:
            engine.catalog.set_pending(table.table_id, t_pre)
            if engine.trace:
                engine.trace.emit(verifier.SCHEMA_PENDING, table=table.table_id,
                                  ts=t_pre, schema_version=new_schema.version_no,
                                  ncols=new_schema.ncols)
        if not plan.to_tail:
            job.cdc_end_lsn = engine.log.current_lsn()
        engine.clock.publish(t_pre)
    job.t_pre_published.set()
    # workers replay up to cdc_end_lsn, or (index and new-table kinds) up
    # to the live tail; the finalize section replays the remainder
    _stop_cdc(job, cdc_stop, cdc_threads)
    if job.failed:
        return _abort_job(job, job.failure)

    # finalize
    with engine._commit_mutex:
        if plan.to_tail and not job.failed:
            job.cdc_end_lsn = engine.log.current_lsn()
            _replay_span(job, plan, min(job.worker_pos), job.cdc_end_lsn)
        plan.seal()
        # the outcome is decided here: an admitted writer that fails the
        # job after this point has its write refused, nothing more
        failure = job.failure
        if failure is None:
            job.commit_ts = engine.clock.reserve()
            if new_schema is not None:
                engine.catalog.finalize_schema(table.table_id, job.commit_ts)
            plan.publish()
            engine._precommit(txn)
    if failure is not None:
        return _abort_job(job, failure)
    _emit_schema_commit(job, new_schema, job.commit_ts)
    engine._deactivate(txn)
    table.active_ddl = None
    job.resolve("committed")
    return DdlResult("committed", commit_ts=job.commit_ts, job=job)


def job_worker_pos(job: DdlJob) -> list[int]:
    """The change-data-capture workers' log positions (empty until the
    relaxed scan starts)."""
    return job.worker_pos


def _scan_worker(job: DdlJob, idx: int, plan: _Plan) -> None:
    """Chunked round-robin pass over RIDs [0, S) migrating the latest
    committed version of each record with its inherited timestamp.

    Foreground transaction threads keep their scheduler share; see
    ``_Pacer``."""
    arr = job.old_array
    apply = plan.apply
    visits = 0
    with _Pacer(job) as pacer:
        for chunk in range(idx * SCAN_CHUNK, job.scan_bound,
                           job.scan_workers * SCAN_CHUNK):
            if job.failed:
                break
            pacer.pace()
            job.chunk_lsn[chunk // SCAN_CHUNK] = job.engine.log.current_lsn()
            for rid in range(chunk, min(chunk + SCAN_CHUNK, job.scan_bound)):
                visits += 1
                if not arr.covers(rid):
                    continue
                v = core_store.latest_committed(arr, rid)
                if v is not None:
                    apply(rid, v)
            with job._fail_lock:
                job.scan_visits += visits
                visits = 0


class _Pacer:
    """The one share rule for a job's scan and change-data-capture
    workers: each keeps within one thread's fair share of the CPU,
    1/(n + w), while foreground transactions are active. n is the most
    transactions other than the DDL's own seen active since the worker
    began (or last ran alone): a thread between two transactions still
    wants the CPU. w is the job's scan and change-data-capture workers
    plus one. The engine runs no thread of its own; the one is kept so
    that DDL pacing keeps its measured share (dropping it shortened
    ``migrate`` DDLs but raised retained bytes per write), and retuning
    the share is a change to measure on its own. A worker earns CPU
    budget at its share of the wall time, pays for the CPU time it uses,
    and sleeps between steps while in debt. With no other transaction
    active it runs unpaced.

    CPU time is the thread's own, so the rule holds however the GIL is
    handed over (DML threads blocked on the commit mutex hand it straight
    back to the worker, which defeats a fixed yield per step). Full
    collections the worker happens to trigger walk the whole heap; they
    are not charged to it."""

    def __init__(self, job: DdlJob) -> None:
        self._active = job.engine._active
        self._engine_threads = 1 + job.scan_workers + job.cdc_workers
        self._thread = threading.get_ident()
        self._others = 0
        self._budget = 0.0  # CPU seconds earned and not yet used
        self._gc_cpu = 0.0
        self._gc_start = 0.0
        self._wall, self._cpu = time.monotonic(), time.thread_time()

    def __enter__(self) -> "_Pacer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] == 2 and threading.get_ident() == self._thread:
            if phase == "start":
                self._gc_start = time.thread_time()
            else:
                self._gc_cpu += time.thread_time() - self._gc_start

    def _own_cpu(self) -> float:
        return time.thread_time() - self._gc_cpu

    def pace(self) -> None:
        wall, cpu = time.monotonic(), self._own_cpu()
        others = len(self._active) - 1  # the DDL's own txn is always there
        if others > 0:
            self._others = max(self._others, others)
            share = 1.0 / (self._others + self._engine_threads)
            self._budget += (wall - self._wall) * share - (cpu - self._cpu)
            if self._budget < 0:
                # the sleep earns the debt back by the next chunk
                time.sleep(-self._budget / share)
        else:
            self._others = 0
            self._budget = 0.0
        self._wall, self._cpu = wall, cpu


def _stop_cdc(job: DdlJob, stop: threading.Event,
              threads: list[threading.Thread]) -> None:
    """Let the change-data-capture workers return once caught up."""
    stop.set()
    job.engine.log.wake()
    for t in threads:
        t.join()


def _cdc_worker(job: DdlJob, idx: int, plan: _Plan,
                stop: threading.Event) -> None:
    """Consume the redo log from the job's bookmark, migrating this
    worker's share of the changed records (``rid % nworkers``) by
    ``_replay_span``'s rules (a) and (b): a record's newest version,
    unless the scan read it. Works in steps of CDC_STEP log records, each
    awaited in ``RedoLog.wait_for_tail`` and, until ``t_pre``, paced by
    the scan's share rule (``_Pacer``). Stopped right after ``t_pre``, it
    replays the rest unpaced: admitted transactions wait on it."""
    log = job.engine.log
    nworkers = len(job.worker_pos)
    pos = job.cdc_start_lsn
    with _Pacer(job) as pacer:
        while True:
            if job.t_pre is None:
                pacer.pace()
            # the tail first: cdc_end_lsn, once set, is at least this tail,
            # so nothing committed after t_pre is replayed
            bound = min(log.current_lsn(), pos + CDC_STEP)
            end = job.cdc_end_lsn
            if end is not None:
                bound = min(bound, end)
            _replay_span(job, plan, pos, bound, idx, nworkers)
            if job.failed:
                return
            job.worker_pos[idx] = pos = bound
            if end is not None and pos >= end:
                return
            # a step starts once a whole one is logged (not on every
            # commit), or when the coordinator stops CDC
            log.wait_for_tail(pos + CDC_STEP, stop)
            if log.current_lsn() <= pos:
                return  # stopped and caught up


def _replay_span(job: DdlJob, plan: _Plan, start: int, end: int,
                 idx: int = 0, nworkers: int = 1) -> None:
    """Migrate, for worker ``idx``'s share of the table's records
    (``rid % nworkers``), the newest committed version of each record the
    log records in [start, end) name, with the scan's own step.

    A record is replayed only (a) when the newest committed version is the
    one it names or older: a newer one has a later record, and an older
    one means a cascade abort unlinked the named one; and (b) when it was
    logged at or after the position at which the scan started the
    record's chunk: a commit stamps its versions before it logs them, so
    the scan read the version an earlier record names, or a newer one (an
    unstarted chunk's position is inf)."""
    arr = job.old_array
    for rec in job.engine.log.scan(start, job.table.table_id, end_lsn=end):
        rid = rec.rid
        if rid % nworkers != idx:
            continue
        if rid < job.scan_bound and rec.lsn < job.chunk_lsn[rid // SCAN_CHUNK]:
            continue
        v = core_store.latest_committed(arr, rid)
        if v is not None and v.commit_ts <= rec.commit_ts and plan.apply(rid, v):
            job.cdc_installs += 1
        if job.failed:
            return


def _sync_out_tables(job: DdlJob) -> None:
    """Output tables mirror the source's RID space; align their
    allocators and arrays with it at publication."""
    if not job.out_tables or job.table is None:
        return
    bound = job.table.next_rid
    for handle in job.out_tables:
        handle.live_array.ensure(max(bound - 1, 0))
        with handle._alloc_lock:
            if bound > handle._next_rid:
                handle._next_rid = bound


def _emit_schema_commit(job: DdlJob, schema: Optional[SchemaVersion],
                        commit_ts: Optional[int]) -> None:
    engine = job.engine
    if engine.trace is None:
        return
    if schema is not None:
        engine.trace.emit(verifier.SCHEMA_COMMIT, table=schema.table_id,
                          ts=commit_ts, schema_version=schema.version_no,
                          ncols=schema.ncols)
    for out in job.out_schemas:
        engine.trace.emit(verifier.SCHEMA_INIT, table=out.table_id,
                          ts=commit_ts, schema_version=out.version_no,
                          ncols=out.ncols)
