"""Command-line entry point.

    evodb-bench micro  --rows 100000 --dml-threads 4 --ddl add_column \
        --policy relaxed --start 2 --duration 8 --seed 7 --out run.csv
    evodb-bench tpccd  --warehouses 2 --ddl create_index --out run.csv
    evodb-bench micro  --config run.cfg
"""

from __future__ import annotations

import argparse
import sys

from .config import WorkloadConfig, load_config_file
from .micro import run_micro
from .series import emit
from .tpcc import run_tpccd


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="evodb-bench")
    sub = p.add_subparsers(dest="benchmark", required=True)
    for name in ("micro", "tpccd"):
        s = sub.add_parser(name)
        s.add_argument("--config", default="")
        s.add_argument("--rows", type=int)
        s.add_argument("--warehouses", type=int)
        s.add_argument("--dml-threads", type=int, dest="dml_threads")
        s.add_argument("--scan-threads", type=int, dest="scan_threads")
        s.add_argument("--cdc-threads", type=int, dest="cdc_threads")
        s.add_argument("--ddl", default=None, dest="ddl_op")
        s.add_argument("--policy")
        s.add_argument("--start", type=float, dest="ddl_start_sec")
        s.add_argument("--duration", type=float, dest="duration_sec")
        s.add_argument("--interval-ms", type=int, dest="interval_ms")
        s.add_argument("--seed", type=int)
        s.add_argument("--txn-limit", type=int, dest="txn_limit")
        s.add_argument("--retry-aborts", action="store_true", default=None,
                       dest="retry_aborts")
        s.add_argument("--out", default=None)
    return p


def config_from_args(args: argparse.Namespace) -> WorkloadConfig:
    cfg = WorkloadConfig(benchmark=args.benchmark)
    if args.config:
        cfg = load_config_file(args.config, cfg)
    for key in ("rows", "warehouses", "dml_threads", "scan_threads",
                "cdc_threads", "ddl_op", "policy", "ddl_start_sec",
                "duration_sec", "interval_ms", "seed", "txn_limit",
                "retry_aborts", "out"):
        val = getattr(args, key, None)
        if val is not None and val != "":
            setattr(cfg, key, val)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    run = run_micro if cfg.benchmark == "micro" else run_tpccd
    series = run(cfg)
    if cfg.out:
        emit(series, cfg.out)
    dur = series.ddl_duration_ms()
    print(f"benchmark={cfg.benchmark} policy={cfg.policy} "
          f"ddl={cfg.ddl_op or 'none'}")
    print(f"commits={series.total_commits} aborts={series.total_aborts} "
          f"attempts={series.total_attempts}")
    if series.abort_reasons:
        print("abort_reasons=" + ",".join(
            f"{k}:{v}" for k, v in sorted(series.abort_reasons.items())))
    if cfg.ddl_op:
        print(f"ddl_status={series.ddl_status} ddl_ms={dur} "
              f"pre_mean={series.pre_ddl_mean():.1f} "
              f"min_in_ddl={series.min_during_ddl():.1f}")
    if cfg.out:
        print(f"series written to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
