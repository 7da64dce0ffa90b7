"""Shared worker/reporter/DDL scheduling used by both benchmarks.

One thread per DML worker with a per-worker counter slot, one reporter
thread sampling those counters at the configured interval, and either a
wall-clock-scheduled DDL thread (duration mode) or a txn-indexed inline
trigger (deterministic txn-budget mode).
"""

from __future__ import annotations

import gc
import random
import threading
import time
from typing import Any, Callable, Optional

from ..ddl import DdlResult
from ..txn import Engine
from .config import WorkloadConfig
from .series import IntervalRow, ThroughputSeries


class _Markers:
    def __init__(self) -> None:
        self.start_ms: Optional[int] = None
        self.pre_ms: Optional[int] = None
        self.commit_ms: Optional[int] = None
        self.start_commits: Optional[int] = None
        self.end_commits: Optional[int] = None
        self.status: str = ""


def run_workload(engine: Engine, cfg: WorkloadConfig,
                 make_params: Callable[[random.Random], Any],
                 exec_txn: Callable[[Any], tuple[bool, str]],
                 ddl_launcher: Optional[Callable[[], DdlResult]] = None,
                 ) -> ThroughputSeries:
    nworkers = cfg.dml_threads
    commits = [0] * nworkers
    aborts = [0] * nworkers
    attempts = [0] * nworkers
    reasons: list[dict[str, int]] = [dict() for _ in range(nworkers)]
    stop = threading.Event()
    markers = _Markers()
    t0 = time.monotonic()

    def now_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    def launch_ddl() -> DdlResult:
        markers.start_ms = now_ms()
        markers.start_commits = sum(commits)
        result = ddl_launcher()
        markers.end_commits = sum(commits)
        markers.commit_ms = now_ms()
        wall_pre = getattr(result.job, "wall_pre", None) if result.job else None
        if wall_pre is not None:
            markers.pre_ms = int((wall_pre - t0) * 1000)
        markers.status = result.status
        if cfg.stop_after_ddl:
            stop.set()
        return result

    def one_txn(i: int, params: Any) -> None:
        attempts[i] += 1
        ok, reason = exec_txn(params)
        while not ok:
            aborts[i] += 1
            reasons[i][reason] = reasons[i].get(reason, 0) + 1
            if not cfg.retry_aborts or stop.is_set():
                return
            attempts[i] += 1
            ok, reason = exec_txn(params)
        commits[i] += 1

    def worker(i: int) -> None:
        rng = random.Random(cfg.seed * 10_007 + i)
        if cfg.txn_limit:
            ddl_at = cfg.ddl_after_txns or cfg.txn_limit // 2
            for seq in range(cfg.txn_limit):
                if ddl_launcher is not None and i == 0 and seq == ddl_at:
                    launch_ddl()
                if stop.is_set():
                    break
                one_txn(i, make_params(rng))
        else:
            deadline = t0 + cfg.duration_sec
            while not stop.is_set() and time.monotonic() < deadline:
                one_txn(i, make_params(rng))

    def ddl_thread() -> None:
        if not stop.wait(t0 + cfg.ddl_start_sec - time.monotonic()):
            launch_ddl()

    rows: list[IntervalRow] = []

    def reporter() -> None:
        last_c = last_a = 0
        interval = cfg.interval_ms / 1000.0
        next_tick = t0 + interval
        while not stop.is_set():
            time.sleep(max(0.0, next_tick - time.monotonic()))
            cur_c = sum(commits)
            cur_a = sum(aborts)
            start_ms = int((next_tick - interval - t0) * 1000)
            rows.append(IntervalRow(start_ms, cur_c - last_c, cur_a - last_a,
                                    _phase(markers, start_ms, cfg.interval_ms)))
            last_c, last_a = cur_c, cur_a
            next_tick += interval
        cur_c = sum(commits)
        cur_a = sum(aborts)
        if cur_c != last_c or cur_a != last_a:
            start_ms = int((next_tick - interval - t0) * 1000)
            rows.append(IntervalRow(start_ms, cur_c - last_c, cur_a - last_a,
                                    _phase(markers, start_ms, cfg.interval_ms)))

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(nworkers)]
    rep = threading.Thread(target=reporter, daemon=True)
    ddl_t = None
    if ddl_launcher is not None and not cfg.txn_limit:
        ddl_t = threading.Thread(target=ddl_thread, daemon=True)

    # nothing frees versions or log records, so every full collection
    # walks all of them; its pauses would dominate interval jitter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        rep.start()
        for t in threads:
            t.start()
        if ddl_t is not None:
            ddl_t.start()
        for t in threads:
            t.join()
        stop.set()
        if ddl_t is not None:
            ddl_t.join()
        rep.join()
        engine.quiesce(timeout=60)
    finally:
        if gc_was_enabled:
            gc.enable()

    series = ThroughputSeries(interval_ms=cfg.interval_ms, rows=rows)
    series.total_commits = sum(commits)
    series.total_aborts = sum(aborts)
    series.total_attempts = sum(attempts)
    for r in reasons:
        for k, v in r.items():
            series.abort_reasons[k] = series.abort_reasons.get(k, 0) + v
    series.ddl_start_ms = markers.start_ms
    series.ddl_pre_ms = markers.pre_ms
    series.ddl_commit_ms = markers.commit_ms
    series.ddl_start_commits = markers.start_commits
    series.ddl_end_commits = markers.end_commits
    series.ddl_status = markers.status
    return series


def _phase(markers: _Markers, start_ms: int, interval_ms: int) -> str:
    """An interval counts as 'ddl' if it overlaps the DDL window at all."""
    end_ms = start_ms + interval_ms
    if markers.start_ms is None or end_ms <= markers.start_ms:
        return "pre"
    if markers.commit_ms is None or start_ms < markers.commit_ms:
        return "ddl"
    return "post"
