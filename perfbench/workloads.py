"""The benchmark's workloads: engine set-up, the one closed-loop client,
and the DDL thread that runs beside it.

Every workload drives the engine through its public API from one client
thread. The client generates its inputs from the seed and retries an
aborted transaction with the same inputs, backing off exponentially, so
that every transaction either commits or counts as failed. A
transaction's latency runs from its first ``begin()`` until the
``commit()`` that commits it (or the last ``abort()`` when it fails), so
aborts add to latency instead of adding fast samples.
"""

from __future__ import annotations

import os
import random
import resource
import threading
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from evodb import ColumnDef, DType, Engine, OverlapAbort, TxnStatus
from evodb import ddl
from evodb.bench.config import WorkloadConfig
from evodb.bench.tpcc import TpccDb, TpccWorkload
from evodb.ddl import DdlOp, DdlSpec, Policy

VALUE_BOUND = 1_000_000
# a transaction that aborts this often in a row counts as failed
MAX_RETRIES = 1_000
# retry back-off after the k-th abort in a row: BASE * 2**(k-1), at most
# CAP. Without it an overlap abort (a read of a record the migration has
# not replayed yet) is retried in a tight loop for the whole pending
# window, and the abort count measures the client's spin rate.
BACKOFF_BASE_S = 50e-6
BACKOFF_CAP_S = 5e-3


class Micro:
    """The ``ycsb`` table: three INT64 columns; each transaction makes 2
    uniform point reads and 8 blind updates. The client keeps its own
    model of the last committed write per rid for the final-state check.
    """

    table_name = "ycsb"
    ddl_table = "ycsb"

    def __init__(self, seed: int, rows: int) -> None:
        rng = random.Random(seed)
        self.rows = rows
        self.initial = [(i, rng.randrange(VALUE_BOUND), rng.randrange(VALUE_BOUND))
                        for i in range(rows)]
        self.ddl_specs = (
            DdlSpec(kind=DdlOp.ADD_COLUMN, table=self.table_name,
                    column=ColumnDef("c3", DType.INT64, default=0)),
            DdlSpec(kind=DdlOp.DROP_COLUMN, table=self.table_name,
                    drop_column="c3"),
        )
        self.engine: Optional[Engine] = None
        self.table = None
        self.model: dict[int, tuple] = {}

    def setup(self, trace=None) -> None:
        """Build a fresh engine and preload the table (the timed set-up)."""
        self.close()
        engine = Engine(trace=trace)
        self.table = engine.create_table(self.table_name, [
            ColumnDef("c0", DType.INT64, default=0),
            ColumnDef("c1", DType.INT64, default=0),
            ColumnDef("c2", DType.INT64, default=0),
        ])
        engine.load_rows(self.table, iter(self.initial))
        engine.drain_now()
        self.engine = engine
        self.model = dict(enumerate(self.initial))

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def tables(self) -> list:
        return [self.table]

    def make_params(self, rng: random.Random):
        n = self.rows
        reads = (rng.randrange(n), rng.randrange(n))
        writes = tuple((rng.randrange(n), rng.randrange(VALUE_BOUND),
                        rng.randrange(VALUE_BOUND)) for _ in range(8))
        return reads, writes

    def attempt(self, params) -> tuple[bool, str]:
        reads, writes = params
        engine, table = self.engine, self.table
        txn = engine.begin()
        try:
            for rid in reads:
                engine.read(txn, table, rid)
            got = engine.resolve_schema(txn, table)
            if got is None:
                engine.abort(txn)
                return False, "no_schema"
            tail = got[0].defaults()[3:]
            for rid, v1, v2 in writes:
                if not engine.write(txn, table, rid, (rid, v1, v2) + tail):
                    engine.abort(txn)
                    return False, "conflict"
        except OverlapAbort:
            engine.abort(txn)
            return False, "overlap"
        if engine.commit(txn) is TxnStatus.ABORTED:
            return False, txn.abort_reason or "conflict"
        return True, ""

    def committed(self, params) -> None:
        for rid, v1, v2 in params[1]:
            self.model[rid] = (rid, v1, v2)


class Tpcc:
    """The TPC-C-derived schema, loader and 45/43/4/4/4 transaction mix
    of ``evodb.bench.tpcc``, driven by the benchmark's own client."""

    ddl_table = "order_line"

    def __init__(self, seed: int, warehouses: int) -> None:
        self.cfg = WorkloadConfig(benchmark="tpccd", warehouses=warehouses,
                                  seed=seed)
        self.ddl_specs = (
            DdlSpec(kind=DdlOp.ADD_COLUMN, table="order_line",
                    column=ColumnDef("ol_tax", DType.FLOAT64, default=0.1)),
            DdlSpec(kind=DdlOp.DROP_COLUMN, table="order_line",
                    drop_column="ol_tax"),
        )
        self.engine: Optional[Engine] = None
        self.db: Optional[TpccDb] = None
        self.mix: Optional[TpccWorkload] = None

    def setup(self, trace=None) -> None:
        self.close()
        engine = Engine(trace=trace)
        db = TpccDb(engine, self.cfg)
        db.load()
        self.engine, self.db, self.mix = engine, db, TpccWorkload(db)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def tables(self) -> list:
        return list(self.db.tables.values())

    def make_params(self, rng: random.Random):
        return self.mix.make_params(rng)

    def attempt(self, params) -> tuple[bool, str]:
        return self.mix.exec_txn(params)

    def committed(self, params) -> None:
        pass


@dataclass(frozen=True)
class WorkloadSpec:
    """How to build a workload and when its DDL thread runs.

    ``ddl`` is "none", "loop" (add then drop, back to back for the whole
    window) or "at" (the DDL thread starts DDL i when the client's
    committed count reaches ``ddl_at[i]``)."""

    name: str
    make: Callable[[int], Any]
    ddl: str = "none"
    ddl_at: tuple[int, ...] = ()


# tpcc: each DDL starts at a fixed committed count, so every run's DDL i
# sees the same order_line size. The last one is due after about 4 s at
# the measured ~1.25k txn/s, so a 7 s window still holds all of them in a
# run a third slower.
TPCC_DDL_AT = (400, 1300, 2200, 3100, 4000, 4900)

WORKLOADS = {
    "oltp": WorkloadSpec("oltp", lambda seed: Micro(seed, 100_000)),
    "migrate": WorkloadSpec("migrate", lambda seed: Micro(seed, 100_000),
                            ddl="loop"),
    "tpcc": WorkloadSpec("tpcc", lambda seed: Tpcc(seed, 2), ddl="at",
                         ddl_at=TPCC_DDL_AT),
}

# the same shapes at a size small enough for the SI-oracle pass and tests
SMALL = {
    "oltp": WorkloadSpec("oltp", lambda seed: Micro(seed, 2_000)),
    "migrate": WorkloadSpec("migrate", lambda seed: Micro(seed, 2_000),
                            ddl="loop"),
    "tpcc": WorkloadSpec("tpcc", lambda seed: Tpcc(seed, 1), ddl="at",
                         ddl_at=(60, 160)),
}


@dataclass
class DdlRecord:
    kind: str
    start: float        # perf_counter at the execute_ddl call
    end: float          # perf_counter when it returned
    scan_s: float       # call start to DdlJob.wall_pre
    final_s: float      # wall_pre to return
    committed: bool
    reason: str
    scan_bound: int
    cdc_start: int
    cdc_end: int
    cdc_installs: int
    group: int          # span group of this DDL in a traced run

    @property
    def seconds(self) -> float:
        return self.end - self.start


class DdlDriver:
    """The second client thread: runs relaxed DDLs with one scan and one
    CDC worker, either back to back or at fixed committed counts."""

    def __init__(self, engine: Engine, specs, mode: str,
                 ddl_at: tuple[int, ...] = (), tracer=None) -> None:
        self.engine = engine
        self.specs = specs
        self.mode = mode
        self.ddl_at = ddl_at
        self.tracer = tracer
        self.execute = ddl.execute_ddl if tracer is None \
            else tracer.wrap("ddl.execute", ddl.execute_ddl)
        self.records: list[DdlRecord] = []
        self.errors: list[str] = []
        self.next_at = ddl_at[0] if ddl_at else None
        self._fired = 0
        self._go = threading.Semaphore(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-ddl",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def tick(self, committed: int) -> None:
        """Called by the client after each commit."""
        if committed == self.next_at:
            self._fired += 1
            self.next_at = self.ddl_at[self._fired] \
                if self._fired < len(self.ddl_at) else None
            self._go.release()

    def finish(self, timeout: float = 120.0) -> None:
        """Stop after the DDL in flight, if any, has returned."""
        self._stop.set()
        self._go.release()
        self._thread.join(timeout)
        if self._thread.is_alive():
            self.errors.append("DDL thread did not finish")

    def _run(self) -> None:
        i = 0
        try:
            while self.mode != "at" or i < len(self.ddl_at):
                if self.mode == "at":
                    self._go.acquire()
                if self._stop.is_set():
                    return
                record = self.run_one(i)
                self.records.append(record)
                if not record.committed:
                    return
                i += 1
        except Exception:
            # reported by the ddl_committed check; the client keeps going
            self.errors.append(traceback.format_exc())

    def run_one(self, i: int) -> DdlRecord:
        """Run DDL ``i`` of the add/drop cycle on this thread."""
        spec = self.specs[i % len(self.specs)]
        group = -(i + 1)
        if self.tracer is not None:
            self.tracer.ddl_group = group
            self.tracer.set_group(group)
        m0 = time.monotonic()
        t0 = perf_counter()
        result = self.execute(self.engine, spec, Policy.RELAXED,
                              scan_workers=1, cdc_workers=1)
        t1 = perf_counter()
        m1 = time.monotonic()
        job = result.job
        wall_pre = job.wall_pre if job.wall_pre is not None else m1
        return DdlRecord(
            kind=spec.kind.value, start=t0, end=t1,
            scan_s=wall_pre - m0, final_s=m1 - wall_pre,
            committed=result.committed, reason=result.reason,
            scan_bound=job.scan_bound, cdc_start=job.cdc_start_lsn,
            cdc_end=job.cdc_end_lsn if job.cdc_end_lsn is not None
            else job.cdc_start_lsn,
            cdc_installs=job.cdc_installs, group=group)


@dataclass
class Window:
    """What the client saw over one timed window."""

    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0             # transactions started
    failed_ops: int = 0      # transactions given up
    attempts: int = 0
    commits: int = 0
    aborts: int = 0
    reasons: Counter = field(default_factory=Counter)
    latencies: array = field(default_factory=lambda: array("d"))  # per txn
    commit_times: array = field(default_factory=lambda: array("d"))
    rss_growth: int = 0
    log_records: int = 0     # redo records appended = committed writes
    ddls: list[DdlRecord] = field(default_factory=list)
    ddl_errors: list[str] = field(default_factory=list)
    lag: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def ddls_in_window(self) -> list[DdlRecord]:
        return [d for d in self.ddls if d.end <= self.end]


def rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_window(wl, spec: WorkloadSpec, seed: int, seconds: float,
               max_ops: int = 0, tracer=None,
               sample_lag: bool = False) -> Window:
    """Run the client (and the DDL thread, if the workload has one) for
    ``seconds``, or until ``max_ops`` logical transactions when given;
    then let the DDL in flight return and quiesce the engine."""
    engine = wl.engine
    driver = None
    if spec.ddl != "none":
        driver = DdlDriver(engine, wl.ddl_specs, spec.ddl, spec.ddl_at, tracer)
    rng = random.Random(seed * 7919 + 1)
    make_params, committed = wl.make_params, wl.committed
    attempt = wl.attempt if tracer is None else tracer.wrap("client.txn",
                                                            wl.attempt)
    ddl_table = engine.catalog.handle_by_name(wl.ddl_table)
    log = engine.log
    w = Window()
    lat, commit_times, reasons, lag = w.latencies, w.commit_times, w.reasons, w.lag

    def client() -> None:
        pc = perf_counter
        deadline = w.start + seconds
        ops = attempts = commits = failed = 0
        while True:
            params = make_params(rng)
            ops += 1
            t0 = pc()
            for tries in range(MAX_RETRIES):
                if tries:
                    time.sleep(min(BACKOFF_CAP_S,
                                   BACKOFF_BASE_S * (1 << min(tries - 1, 16))))
                attempts += 1
                if tracer is not None:
                    tracer.set_group(attempts)
                ok, reason = attempt(params)
                if ok:
                    break
                reasons[reason] += 1
            t1 = pc()
            lat.append(t1 - t0)
            if ok:
                commits += 1
                commit_times.append(t1)
                committed(params)
                if driver is not None:
                    driver.tick(commits)
            else:
                failed += 1
            if sample_lag:
                job = ddl_table.active_ddl
                pos = ddl.job_worker_pos(job) if job is not None else None
                if pos:
                    lag.append(log.current_lsn() - min(pos))
            if t1 >= deadline or ops == max_ops:
                break
        w.ops, w.attempts, w.commits, w.failed_ops = ops, attempts, commits, failed
        w.aborts = attempts - commits

    if tracer is not None:
        client = tracer.wrap("client.loop", client)
    rss0, lsn0 = rss_bytes(), log.current_lsn()
    cpu0 = time.process_time()
    w.start = perf_counter()
    if driver is not None:
        driver.start()
    client()
    w.end = perf_counter()
    w.cpu_s = time.process_time() - cpu0
    w.rss_growth = rss_bytes() - rss0
    w.log_records = log.current_lsn() - lsn0
    if driver is not None:
        driver.finish()
        w.ddls, w.ddl_errors = driver.records, driver.errors
    engine.quiesce(timeout=60)
    return w


def run_ddls(wl, count: int) -> Window:
    """Run ``count`` DDLs of the workload's add/drop cycle with no client
    (the unloaded reference for ``ddl_s``)."""
    driver = DdlDriver(wl.engine, wl.ddl_specs, "loop")
    w = Window(start=perf_counter())
    for i in range(count):
        w.ddls.append(driver.run_one(i))
    w.end = perf_counter()
    return w
