"""System catalog: one multi-versioned schema record per table.

The catalog itself is a table backed by an indirection array; a table's
id is the RID of its schema record, so schema lookups follow the exact
same visibility protocol as data reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from . import core_store
from .core_store import (
    DType,
    IndirectionArray,
    TableHandle,
    Timestamp,
    Version,
)

TableId = int

# The catalog's own schema record id; tables never get this id.
CATALOG_TABLE_ID = 0


class SchemaState(Enum):
    COMMITTED = "committed"
    PENDING = "pending"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DType
    default: Any = None
    nullable: bool = True


class ConstraintKind(Enum):
    COLUMN_VS_CONST = "column_vs_const"
    COLUMN_VS_COLUMN = "column_vs_column"
    NOT_NULL = "not_null"
    CROSS_TABLE_LOOKUP = "cross_table_lookup"


@dataclass(frozen=True)
class ConstraintDef:
    """Closed constraint descriptor so DDL specs stay serializable.

    For CROSS_TABLE_LOOKUP, ``column op foreign_table[foreign_key_cols ->
    foreign_col]`` with the lookup key taken from the local row's
    ``local_key_cols``.
    """

    kind: ConstraintKind
    column: str = ""
    op: str = ""            # one of < <= > >= == !=
    const: Any = None
    other_column: str = ""
    foreign_table: str = ""
    local_key_cols: tuple[str, ...] = ()
    foreign_col: str = ""


class SchemaVersion:
    """One version of a table's schema.

    ``data_array`` is the indirection array holding data conforming to
    this version; ``version_no`` is a per-table ordinal used by traces so
    checker matching survives the pending->final timestamp restamp.
    """

    __slots__ = ("table_id", "table_name", "columns", "constraints", "state",
                 "data_array", "version_no", "pending_ts", "dropped")

    def __init__(self, table_id: TableId, table_name: str,
                 columns: tuple[ColumnDef, ...],
                 constraints: tuple[ConstraintDef, ...] = (),
                 state: SchemaState = SchemaState.COMMITTED,
                 data_array: Optional[IndirectionArray] = None,
                 version_no: int = 0,
                 dropped: bool = False) -> None:
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {table_name}: {names}")
        self.table_id = table_id
        self.table_name = table_name
        self.columns = columns
        self.constraints = constraints
        self.state = state
        self.data_array = data_array
        self.version_no = version_no
        self.pending_ts: Optional[Timestamp] = None
        self.dropped = dropped

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no column {name!r} in table {self.table_name}")

    def defaults(self) -> tuple:
        return tuple(c.default for c in self.columns)

    def __repr__(self) -> str:
        return f"<Schema {self.table_name} v{self.version_no} {self.state.value}>"


class CatalogError(Exception):
    pass


class Catalog:
    """Holds the schema table and the TableHandle registry.

    Schema reads/installs reuse core_store machinery on the catalog's own
    indirection array so the standard SI protocol applies unchanged.
    """

    def __init__(self) -> None:
        self.array = IndirectionArray()
        # rid 0 is the catalog's own (bootstrap) schema record.
        self.array.ensure(0)
        boot = SchemaVersion(CATALOG_TABLE_ID, "__catalog__", (
            ColumnDef("table_name", DType.VARCHAR),
            ColumnDef("schema_blob", DType.VARCHAR),
        ))
        self.array._set(0, Version(boot, commit_ts=0))
        self._tables: dict[TableId, TableHandle] = {}
        self._by_name: dict[str, TableId] = {}
        self._next_table_id = 1
        self._lock = threading.Lock()

    # -- registry ---------------------------------------------------------

    def new_table_handle(self, name: str) -> TableHandle:
        with self._lock:
            if name in self._by_name:
                raise CatalogError(f"table {name!r} already exists")
            tid = self._next_table_id
            self._next_table_id += 1
            handle = TableHandle(tid, name)
            self._tables[tid] = handle
            self._by_name[name] = tid
            self.array.ensure(tid)
            return handle

    def handle(self, table_id: TableId) -> TableHandle:
        try:
            return self._tables[table_id]
        except KeyError:
            raise CatalogError(f"unknown table id {table_id}") from None

    def handle_by_name(self, name: str) -> TableHandle:
        try:
            return self._tables[self._by_name[name]]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    # -- schema record access ----------------------------------------------

    def get_visible_schema(self, txn, table_id: TableId, *,
                           include_pending: bool = True
                           ) -> Optional[tuple[SchemaVersion, bool]]:
        """Newest schema version visible at txn.begin_ts.

        A version is visible from its commit_ts on, except one that went
        through the pending state: that one is visible from its
        pre-commit timestamp on, before and after finalize alike, so a
        transaction that began inside the pending window keeps resolving
        it once finalize has restamped it. Pending versions are skipped
        when ``include_pending`` is false. ``is_latest`` reports
        head-ness among committed (non-pending) versions.
        """
        if table_id not in self._tables and table_id != CATALOG_TABLE_ID:
            raise CatalogError(f"unknown table id {table_id}")
        head = self.array.head(table_id)
        newest_committed: Optional[Version] = None
        for v in (head.chain() if head is not None else ()):
            if not v.is_committed:
                continue
            schema: SchemaVersion = v.payload
            pending = schema.state is SchemaState.PENDING
            if newest_committed is None and not pending:
                newest_committed = v
            if pending and not include_pending:
                continue
            visible_ts = v.commit_ts if schema.pending_ts is None \
                else schema.pending_ts
            if visible_ts < txn.begin_ts:
                if schema.dropped:
                    return None
                return schema, (pending or v is newest_committed)
        return None

    def was_pending_at(self, table_id: TableId, schema: SchemaVersion,
                       ts: Timestamp) -> bool:
        """Whether ``schema`` was pending at timestamp ``ts``: published at
        a pre-commit timestamp below ``ts`` and not finalized before it."""
        if schema.pending_ts is None or schema.pending_ts >= ts:
            return False
        if schema.state is SchemaState.PENDING:
            return True
        head = self.array.head(table_id)
        for v in (head.chain() if head is not None else ()):
            if v.payload is schema:
                return ts <= v.commit_ts
        return False

    def install_schema_version(self, txn, table_id: TableId,
                               new_schema: SchemaVersion) -> bool:
        """Install ``new_schema`` as the uncommitted head of the table's
        schema record (a normal first-updater-wins write). A pending head
        blocks installs: it belongs to an unresolved schema-evolution job."""
        head = self.array.head(table_id)
        if head is not None and head.is_committed \
                and head.payload.state is SchemaState.PENDING:
            return False
        prior = core_store.latest_committed(self.array, table_id)
        new_schema.version_no = (prior.payload.version_no + 1) if prior else 1
        v = Version(new_schema, owner_txn=txn.txn_id)
        return core_store.install_version(txn, self.array, table_id, v,
                                          CATALOG_TABLE_ID)

    def head_version(self, table_id: TableId) -> Optional[Version]:
        return self.array.head(table_id)

    def latest_committed_schema(self, table_id: TableId) -> Optional[SchemaVersion]:
        v = core_store.latest_committed(self.array, table_id)
        if v is None:
            return None
        schema: SchemaVersion = v.payload
        if schema.state is SchemaState.PENDING:
            # pending head: the real committed schema is below it
            for older in v.chain():
                if older.is_committed and older.payload.state is SchemaState.COMMITTED:
                    return older.payload
            return None
        return schema

    # -- pending lifecycle (called only by the owning DDL job) --------------

    def set_pending(self, table_id: TableId, pending_ts: Timestamp) -> SchemaVersion:
        """Stamp the DDL's uncommitted schema head with its pre-commit
        timestamp and flip it to the pending state, making it visible to
        transactions that begin afterwards."""
        head = self.array.head(table_id)
        if head is None or head.is_committed:
            raise CatalogError(f"set_pending: head of table {table_id} is not "
                               f"an uncommitted schema install")
        schema: SchemaVersion = head.payload
        schema.state = SchemaState.PENDING
        schema.pending_ts = pending_ts
        head.commit_ts = pending_ts
        return schema

    def finalize_schema(self, table_id: TableId, commit_ts: Timestamp) -> SchemaVersion:
        """Restamp the pending (or still-uncommitted, for metadata-only
        jobs) head with the final commit timestamp and mark it committed."""
        head = self.array.head(table_id)
        if head is None:
            raise CatalogError(f"finalize_schema: no head for table {table_id}")
        schema: SchemaVersion = head.payload
        if head.is_committed and schema.state is not SchemaState.PENDING:
            raise CatalogError(f"finalize_schema: head of table {table_id} "
                               f"already committed")
        schema.state = SchemaState.COMMITTED
        head.commit_ts = commit_ts
        return schema

    def revoke_pending(self, table_id: TableId) -> None:
        """Unlink the pending/uncommitted head, restoring the prior
        committed schema (DDL abort)."""
        head = self.array.head(table_id)
        if head is None:
            raise CatalogError(f"revoke_pending: no head for table {table_id}")
        schema: SchemaVersion = head.payload
        if head.is_committed and schema.state is not SchemaState.PENDING:
            raise CatalogError("revoke_pending: head is a committed schema")
        if not self.array.compare_exchange(table_id, head, head.next):
            raise CatalogError("revoke_pending: lost a race on the schema chain")
