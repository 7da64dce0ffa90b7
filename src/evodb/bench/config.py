"""Benchmark configuration.

Desk-scale defaults; the paper-scale parameters (1e8 rows, tens of
threads) are reachable through the same knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass
class WorkloadConfig:
    benchmark: str = "micro"            # micro | tpccd
    rows: int = 1_000_000               # micro preload size
    warehouses: int = 2
    dml_threads: int = 4
    scan_threads: int = 1
    cdc_threads: int = 1
    ddl_op: str = ""                    # empty = NoDDL baseline
    ddl_start_sec: float = 2.0
    duration_sec: float = 10.0
    policy: str = "relaxed"
    read_ops: int = 2
    write_ops: int = 8
    interval_ms: int = 100
    seed: int = 42
    out: str = ""
    # deterministic single-thread mode: fixed txn budget per worker and a
    # txn-indexed DDL trigger instead of wall-clock scheduling
    txn_limit: int = 0
    ddl_after_txns: int = 0
    retry_aborts: bool = False
    # micro add_constraint threshold; None = seeded default that passes
    constraint_threshold: Optional[int] = None
    stop_after_ddl: bool = False


_BOOL_FIELDS = {"retry_aborts", "stop_after_ddl"}
_FLOAT_FIELDS = {"ddl_start_sec", "duration_sec"}
_STR_FIELDS = {"benchmark", "ddl_op", "policy", "out"}


def apply_kv(cfg: WorkloadConfig, key: str, value: str) -> None:
    names = {f.name for f in fields(WorkloadConfig)}
    if key not in names:
        raise ValueError(f"unknown config key {key!r}")
    if key in _BOOL_FIELDS:
        setattr(cfg, key, value.lower() in ("1", "true", "yes"))
    elif key in _FLOAT_FIELDS:
        setattr(cfg, key, float(value))
    elif key in _STR_FIELDS:
        setattr(cfg, key, value)
    else:
        setattr(cfg, key, int(value))


def load_config_file(path: str, cfg: Optional[WorkloadConfig] = None
                     ) -> WorkloadConfig:
    """Apply a file of ``key=value`` lines; blank lines and lines that
    start with ``#`` are skipped."""
    cfg = cfg or WorkloadConfig()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            apply_kv(cfg, key.strip(), value.strip())
    return cfg
