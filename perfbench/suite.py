"""One benchmark run: set-up, the timed window, the correctness gates,
the SI-oracle pass, and the metrics of either the untraced run (end to
end) or the traced run (per layer)."""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from .checks import check_ddls, check_run, check_state, si_pass
from .layers import GcClock, instrument, per_layer
from .tracing import Tracer, percentile, write_spans
from .workloads import SMALL, WORKLOADS, Window, run_ddls, run_window

# the untraced run repeats set-up and timed window this often, each window
# lasting --seconds / REPEATS, and reports medians over the repetitions
REPEATS = 3
# unloaded DDLs (add, drop) on a fresh oltp engine after each window:
# oltp's ddl_s
UNLOADED_DDLS = 2


def _ddl_window_commits(w: Window) -> tuple[int, float]:
    """Commits inside the exact windows of the DDLs that completed inside
    the timed window, and the windows' total length."""
    times = w.commit_times
    ddls = w.ddls_in_window()
    return (sum(bisect.bisect_right(times, d.end)
                - bisect.bisect_left(times, d.start) for d in ddls),
            sum(d.seconds for d in ddls))


def _timed_setup(wl, setup_times: list[float]) -> None:
    wl.close()
    gc.collect()
    t0 = perf_counter()
    wl.setup()
    setup_times.append(perf_counter() - t0)
    gc.collect()


def end_to_end(setup_times: list[float], wins: list[Window],
               unloaded: list[Window]) -> tuple[dict, dict]:
    """Rates and latency percentiles are medians over the repetitions, so
    that a slow stretch of a shared machine during one window moves no
    figure much. DDL times, the commit share and the commit rate inside
    DDL windows pool all repetitions. Retained bytes come from the first
    window only: later windows reuse memory the process already holds. A
    workload without DDLs in its window reports the unloaded DDLs' wall
    time as ``ddl_s`` and its whole-window commit rate as
    ``ddl_txn_per_s``."""
    med = statistics.median
    lats = [sorted(w.latencies) for w in wins]
    ddl_times = [d.seconds for w in wins + unloaded for d in w.ddls_in_window()]
    ddl_commits, ddl_seconds = map(sum, zip(*map(_ddl_window_commits, wins)))
    if not ddl_seconds:
        ddl_commits = sum(w.commits for w in wins)
        ddl_seconds = sum(w.seconds for w in wins)
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "txn_per_s": (med(w.commits / w.seconds for w in wins), "1/s"),
        "txn_p50_us": (med(percentile(lat, 0.50) for lat in lats) * 1e6, "us"),
        "txn_p99_us": (med(percentile(lat, 0.99) for lat in lats) * 1e6, "us"),
        "cpu_us_per_txn": (med(w.cpu_s / w.commits * 1e6 for w in wins), "us"),
        "commit_frac": (sum(w.commits for w in wins)
                        / sum(w.attempts for w in wins), "frac"),
        "retained_bytes_per_write": (wins[0].rss_growth / wins[0].log_records,
                                     "B"),
        "ddl_s": (med(ddl_times) if ddl_times else 0.0, "s"),
        "ddl_txn_per_s": (ddl_commits / ddl_seconds, "1/s"),
    }
    per_window = [len(lat) for lat in lats]
    samples = {"repetitions": len(wins), "setup_s": len(setup_times),
               "txn_p50_us": per_window, "txn_p99_us": per_window,
               "ddl_s": len(ddl_times)}
    return metrics, samples


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gc_enabled": gc.isenabled(), "gc_threshold": gc.get_threshold(),
    }


def _window_summary(w: Window) -> dict:
    return {"seconds": w.seconds, "transactions": w.ops,
            "attempts": w.attempts, "commits": w.commits,
            "aborts": w.aborts, "abort_frac": w.aborts / w.attempts,
            "abort_reasons": dict(w.reasons), "failed": w.failed_ops,
            "ddls": [{"kind": d.kind, "s": d.seconds, "rows": d.scan_bound,
                      "in_window": d.end <= w.end} for d in w.ddls]}


def run(workload: str, seed: int, seconds: float, trace: int,
        out_dir: Path, specs: dict = WORKLOADS) -> tuple[dict, int]:
    """Returns the result object and the process exit code. ``specs``
    lets the tests run the same path at the small sizes."""
    spec = specs[workload]
    wl = spec.make(seed)
    failures = []
    record = {"env": environment(workload, seed, seconds, trace)}
    try:
        if not trace:
            setup_times, wins, unloaded = [], [], []
            for _ in range(REPEATS):
                _timed_setup(wl, setup_times)
                win = run_window(wl, spec, seed, seconds / REPEATS)
                failures += check_run(wl, win)
                wins.append(win)
                if spec.ddl == "none":
                    # on a fresh engine: after a window the collector's
                    # pauses on the grown heap would dominate the DDL time
                    _timed_setup(wl, setup_times)
                    unloaded.append(run_ddls(wl, UNLOADED_DDLS))
                    failures += check_ddls(unloaded[-1]) + check_state(wl)
            metrics, samples = end_to_end(setup_times, wins, unloaded)
            attempted = sum(w.ops for w in wins)
            failed = sum(w.failed_ops for w in wins)
            record["windows"] = [_window_summary(w) for w in wins]
            wl.close()
            si = si_pass(SMALL[workload], seed)
        else:
            wl.setup()
            gc.collect()
            ref = run_window(wl, spec, seed, seconds / REPEATS)
            failures += check_run(wl, ref)
            wl.setup()
            gc.collect()
            tracer = Tracer()
            instrument(tracer, wl.engine)
            try:
                with GcClock() as gc_clock:
                    win = run_window(wl, spec, seed, seconds / REPEATS,
                                     tracer=tracer, sample_lag=True)
            finally:
                tracer.unpatch()
            failures += check_run(wl, win)
            si = si_pass(SMALL[workload], seed)
            ddl_table = wl.engine.catalog.handle_by_name(wl.ddl_table)
            metrics, samples = per_layer(tracer, win, ref, wl.engine,
                                         wl.tables(), ddl_table.table_id,
                                         gc_clock, si)
            attempted = ref.ops + win.ops
            failed = ref.failed_ops + win.failed_ops
            record["windows"] = [_window_summary(win)]
            record["reference_window"] = _window_summary(ref)
            out_dir.mkdir(exist_ok=True)
            record["spans"] = write_spans(tracer, str(out_dir / f"{workload}.spans"))
        failures += si.failures
        record["si_pass"] = {"events": si.events, "check_s": si.check_s,
                             "violations": si.violations}
    finally:
        wl.close()

    record["samples"] = samples
    record["failures"] = [f"{name}: {detail}" for name, detail in failures]
    for name, detail in failures:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in ("env", "samples", "failures")}))
    return result, 0 if not failures else 1
