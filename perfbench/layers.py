"""Per-layer metrics of the traced run, derived from its spans, the
client's window record, the DDL records and the GC clock."""

from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter

from evodb import core_store, ddl

from .tracing import Tracer, percentile, self_times
from .workloads import Window

TXN_CALLS = ("begin", "read", "write", "insert", "delete", "commit", "abort",
             "resolve_schema")
ABORT_REASONS = ("conflict", "overlap", "schema_conflict")


def instrument(tracer: Tracer, engine) -> None:
    """Wrap the engine's public entry points and the module functions the
    engine calls through their module (so the wrappers see the calls)."""
    for attr in TXN_CALLS:
        tracer.patch(engine, attr, "txn." + attr)
    tracer.patch(engine.log, "append_commit", "redo_log.append")
    tracer.patch(engine.log, "record", "redo_log.record")
    tracer.patch(engine.catalog, "get_visible_schema",
                 "catalog.get_visible_schema")
    tracer.patch(engine.catalog, "head_version", "catalog.head_version")
    for fn in ("read_visible", "latest_committed", "install_version",
               "install_migrated"):
        tracer.patch(core_store, fn, "core_store." + fn)
    tracer.patch(ddl, "transform_record", "ddl.transform")


class GcClock:
    """Times collector pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
            return
        pause = perf_counter() - self._t0
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def versions_per_rid(engine, tables) -> float:
    """Mean version-chain length over the live records of ``tables``."""
    versions = rids = 0
    for handle in tables:
        arr = engine.catalog.latest_committed_schema(handle.table_id).data_array
        for rid in range(handle.next_rid):
            v = arr.head(rid) if arr.covers(rid) else None
            if v is not None:
                rids += 1
            while v is not None:
                versions += 1
                v = v.next
    return versions / rids if rids else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, win: Window, ref: Window, engine, tables,
              ddl_table_id: int, gc_clock: GcClock, si) -> tuple[dict, dict]:
    """Returns ``(metrics, samples)``: metric name -> (value, unit), and
    the sample count behind each percentile."""
    names = tracer.names
    nid = {n: i for i, n in enumerate(names)}
    durs: dict[str, list[int]] = defaultdict(list)        # all threads
    client_durs: dict[str, list[int]] = defaultdict(list)  # client thread
    client_self: dict[str, int] = defaultdict(int)
    ddls = win.ddls_in_window() or win.ddls
    groups = {d.group for d in ddls}
    group_calls: dict[str, int] = defaultdict(int)
    scan_busy_ns = 0
    for buf in tracer.buffers:
        is_client = nid.get("client.loop") in buf.name
        # unnamed threads are called "Thread-N (<target>)"; the engine
        # starts its scan workers with target ddl._scan_worker
        is_scan = "_scan_worker" in buf.thread
        selfs = self_times(buf) if is_client else None
        for i, (n, s, e, p, g) in enumerate(zip(buf.name, buf.start, buf.end,
                                                buf.parent, buf.group)):
            name = names[n]
            durs[name].append(e - s)
            if is_client:
                client_durs[name].append(e - s)
                client_self[name] += selfs[i]
            if g in groups:
                group_calls[name] += 1
                if is_scan and p < 0:
                    scan_busy_ns += e - s

    samples: dict[str, int] = {}
    m: dict[str, tuple[float, str]] = {}

    def pct_us(metric: str, vals: list[int], q: float) -> None:
        vals = sorted(vals)
        samples[metric] = len(vals)
        m[metric] = (percentile(vals, q) / 1e3, "us")

    loop_ns = sum(client_durs["client.loop"])
    m["client.self_frac"] = (_ratio(client_self["client.loop"]
                                    + client_self["client.txn"], loop_ns), "frac")
    for call in ("begin", "read", "write", "commit", "insert"):
        pct_us(f"txn.{call}_us.p50", client_durs["txn." + call], 0.50)
        pct_us(f"txn.{call}_us.p99", client_durs["txn." + call], 0.99)
    txn_self = sum(client_self["txn." + c] for c in TXN_CALLS)
    m["txn.self_us_per_txn"] = (_ratio(txn_self / 1e3, win.commits), "us")
    for reason in ABORT_REASONS:
        m[f"txn.aborts.{reason}"] = (win.reasons[reason], "count")
    m["txn.aborts.other"] = (win.aborts - sum(win.reasons[r] for r in
                                              ABORT_REASONS), "count")

    for fn in ("read_visible", "install_version", "latest_committed",
               "install_migrated"):
        pct_us(f"core_store.{fn}_us", durs["core_store." + fn], 0.50)
    rows = sum(d.scan_bound for d in ddls)
    for fn in ("latest_committed", "install_migrated"):
        m[f"core_store.{fn}_calls_per_row"] = (
            _ratio(group_calls["core_store." + fn], rows), "count")
    m["core_store.versions_per_rid"] = (versions_per_rid(engine, tables), "count")

    pct_us("catalog.get_visible_schema_us",
           client_durs["catalog.get_visible_schema"], 0.50)
    m["catalog.schema_lookups_per_txn"] = (
        _ratio(len(client_durs["catalog.get_visible_schema"]), win.attempts),
        "count")
    pct_us("catalog.head_version_us", client_durs["catalog.head_version"], 0.50)

    pct_us("redo_log.append_us", client_durs["redo_log.append"], 0.50)
    m["redo_log.append_us_per_record"] = (
        _ratio(sum(client_durs["redo_log.append"]) / 1e3, win.log_records), "us")
    pct_us("redo_log.record_us", durs["redo_log.record"], 0.50)

    scan_s = sum(d.scan_s for d in ddls)
    m["ddl.count"] = (len(ddls), "count")
    m["ddl.scan_s"] = (_ratio(scan_s, len(ddls)), "s")
    m["ddl.final_s"] = (_ratio(sum(d.final_s for d in ddls), len(ddls)), "s")
    m["ddl.scan_us_per_row"] = (_ratio(scan_s * 1e6, rows), "us")
    pct_us("ddl.transform_us", durs["ddl.transform"], 0.50)
    m["ddl.scan_busy_frac"] = (_ratio(scan_busy_ns / 1e9, scan_s), "frac")
    cdc_records = sum(d.cdc_end - d.cdc_start for d in ddls)
    installs = sum(d.cdc_installs for d in ddls)
    record = engine.log.record
    table_records = sum(1 for d in ddls for lsn in range(d.cdc_start, d.cdc_end)
                        if record(lsn).table_id == ddl_table_id)
    m["ddl.cdc_records"] = (_ratio(cdc_records, len(ddls)), "count")
    m["ddl.cdc_installs"] = (_ratio(installs, len(ddls)), "count")
    m["ddl.cdc_useful_frac"] = (_ratio(installs, table_records), "frac")
    lag = sorted(win.lag)
    samples["ddl.cdc_lag_records.p50"] = len(lag)
    m["ddl.cdc_lag_records.p50"] = (percentile(lag, 0.50), "count")
    m["ddl.cdc_lag_records.max"] = (float(lag[-1]) if lag else 0.0, "count")

    m["gc.pause_frac"] = (_ratio(gc_clock.pause_s, win.seconds), "frac")
    m["gc.gen2_collections"] = (gc_clock.gen2, "count")
    m["gc.max_pause_ms"] = (gc_clock.max_pause_s * 1e3, "ms")

    m["verifier.events_per_s"] = (si.events_per_s, "1/s")
    m["verifier.violations"] = (si.violations, "count")

    m["trace.overhead_frac"] = (
        1.0 - _ratio(win.commits / win.seconds, ref.commits / ref.seconds),
        "frac")
    return m, samples
