"""evodb: embedded in-memory multi-versioned storage engine with online,
transactional schema evolution."""

from .catalog import (
    CATALOG_TABLE_ID,
    Catalog,
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
    TableHandle,
    Version,
    is_tombstone,
)
from .ddl import (
    DdlOp,
    DdlResult,
    DdlSpec,
    Policy,
    execute_ddl,
    transform_record,
    verify_record,
)
from .redo_log import LogRecord, RedoLog
from .txn import Engine, GlobalClock, OverlapAbort, TxnContext, TxnStatus, encode_key
from .verifier import Trace, check_si_history, parse_trace, serial_replay

__all__ = [
    "CATALOG_TABLE_ID", "Catalog", "ColumnDef", "ConstraintDef",
    "ConstraintKind", "SchemaState", "SchemaVersion",
    "TOMBSTONE", "DType", "IndirectionArray", "KeyIndex", "TableHandle",
    "Version", "is_tombstone",
    "DdlOp", "DdlResult", "DdlSpec", "Policy", "execute_ddl",
    "transform_record", "verify_record",
    "LogRecord", "RedoLog",
    "Engine", "GlobalClock", "OverlapAbort", "TxnContext", "TxnStatus",
    "encode_key",
    "Trace", "check_si_history", "parse_trace", "serial_replay",
]
