"""Microbenchmark: one table of three 64-bit integer columns, uniform
random transactions of a few reads and several blind updates, with an
optional mid-run schema-evolution operation (add a column, add a
constraint, or both in one transaction)."""

from __future__ import annotations

import random
from typing import Optional

from ..catalog import ColumnDef, ConstraintDef, ConstraintKind
from ..core_store import DType
from ..ddl import DdlOp, DdlResult, DdlSpec, Policy, execute_ddl
from ..txn import Engine, OverlapAbort, TxnStatus
from .config import WorkloadConfig
from .runner import run_workload
from .series import ThroughputSeries

TABLE = "ycsb"
VALUE_BOUND = 1_000_000  # written values stay below any sane threshold


def build_engine(cfg: WorkloadConfig, trace=None) -> tuple[Engine, object]:
    engine = Engine(trace=trace, locking_dml=(cfg.policy == "blocking"))
    table = engine.create_table(TABLE, [
        ColumnDef("c0", DType.INT64, default=0),
        ColumnDef("c1", DType.INT64, default=0),
        ColumnDef("c2", DType.INT64, default=0),
    ])
    rng = random.Random(cfg.seed)
    engine.load_rows(table, ((i, rng.randrange(VALUE_BOUND),
                              rng.randrange(VALUE_BOUND))
                             for i in range(cfg.rows)))
    engine.drain_now()
    return engine, table


def micro_ddl_spec(cfg: WorkloadConfig) -> DdlSpec:
    threshold = cfg.constraint_threshold
    if threshold is None:
        # seeded default, chosen above the written-value bound so the
        # outcome is a reproducible pass
        threshold = VALUE_BOUND + random.Random(cfg.seed).randrange(VALUE_BOUND)
    constraint = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2",
                               op="<", const=threshold)
    if cfg.ddl_op == "add_column":
        return DdlSpec(kind=DdlOp.ADD_COLUMN, table=TABLE,
                       column=ColumnDef("c3", DType.INT64, default=0))
    if cfg.ddl_op == "add_constraint":
        return DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table=TABLE,
                       constraints=(constraint,))
    if cfg.ddl_op == "both":
        return DdlSpec(kind=DdlOp.ADD_COLUMN_WITH_CONSTRAINT, table=TABLE,
                       column=ColumnDef("c3", DType.INT64, default=0),
                       constraints=(constraint,))
    raise ValueError(f"unknown micro ddl_op {cfg.ddl_op!r}")


def run_micro(cfg: WorkloadConfig, *, engine: Optional[Engine] = None,
              trace=None) -> ThroughputSeries:
    own_engine = engine is None
    if engine is None:
        engine, _ = build_engine(cfg, trace=trace)
    table = engine.catalog.handle_by_name(TABLE)

    def make_params(rng: random.Random):
        reads = tuple(rng.randrange(cfg.rows) for _ in range(cfg.read_ops))
        writes = tuple((rng.randrange(cfg.rows),
                        rng.randrange(VALUE_BOUND), rng.randrange(VALUE_BOUND))
                       for _ in range(cfg.write_ops))
        return reads, writes

    def exec_txn(params) -> tuple[bool, str]:
        reads, writes = params
        txn = engine.begin()
        try:
            for rid in reads:
                engine.read(txn, table, rid)
            for rid, v1, v2 in writes:
                got = engine.resolve_schema(txn, table)
                if got is None:
                    engine.abort(txn)
                    return False, "no_schema"
                schema = got[0]
                values = (rid, v1, v2) + schema.defaults()[3:]
                if not engine.write(txn, table, rid, values):
                    engine.abort(txn)
                    return False, "conflict"
        except OverlapAbort:
            engine.abort(txn)
            return False, "overlap"
        status = engine.commit(txn)
        if status is TxnStatus.ABORTED:
            return False, txn.abort_reason or "conflict"
        return True, ""

    ddl_launcher = None
    if cfg.ddl_op:
        spec = micro_ddl_spec(cfg)
        policy = Policy(cfg.policy)

        def ddl_launcher() -> DdlResult:
            return execute_ddl(engine, spec, policy,
                               scan_workers=cfg.scan_threads,
                               cdc_workers=cfg.cdc_threads)

    series = run_workload(engine, cfg, make_params, exec_txn, ddl_launcher)
    series.extra["final_rows"] = engine.materialize(table)
    if own_engine:
        engine.close()
    else:
        series.extra["engine"] = engine
    return series
