import pathlib

import pytest

from evodb.bench import WorkloadConfig, emit, load_config_file, run_micro, run_tpccd
from evodb.bench.cli import main as cli_main
from evodb.bench.micro import VALUE_BOUND, build_engine
from evodb.bench.tpcc import (
    TpccDb,
    index_matches_full_scan,
    join_back_matches,
    preaggregate_matches,
    run_tpccd,
)


def small_micro(**kw) -> WorkloadConfig:
    base = dict(rows=300, dml_threads=1, txn_limit=150, seed=11,
                interval_ms=50, read_ops=2, write_ops=4)
    base.update(kw)
    return WorkloadConfig(**base)


def small_tpcc(**kw) -> WorkloadConfig:
    base = dict(benchmark="tpccd", warehouses=1, dml_threads=1, txn_limit=80,
                seed=11, interval_ms=50)
    base.update(kw)
    return WorkloadConfig(**base)


class TestMicro:
    def test_load_correctness(self):
        cfg = small_micro(rows=500)
        engine, table = build_engine(cfg)
        try:
            rows = engine.materialize(table)
            assert len(rows) == 500
            assert all(len(p) == 3 for p in rows.values())
            assert all(0 <= p[1] < VALUE_BOUND for p in rows.values())
        finally:
            engine.close()

    def test_accounting_reconciles(self):
        series = run_micro(small_micro())
        assert series.reconciles()
        assert series.total_attempts == 150

    def test_single_thread_determinism(self):
        a = run_micro(small_micro())
        b = run_micro(small_micro())
        assert a.total_commits == b.total_commits
        assert a.extra["final_rows"] == b.extra["final_rows"]

    def test_ddl_injection_deterministic_mode(self):
        cfg = small_micro(ddl_op="add_column", policy="relaxed",
                          ddl_after_txns=50, retry_aborts=True)
        series = run_micro(cfg)
        assert series.ddl_status == "committed"
        rows = series.extra["final_rows"]
        assert all(len(p) == 4 for p in rows.values())

    def test_add_constraint_passes_with_default_threshold(self):
        cfg = small_micro(ddl_op="add_constraint", policy="relaxed",
                          ddl_after_txns=50, retry_aborts=True)
        series = run_micro(cfg)
        assert series.ddl_status == "committed"

    def test_add_constraint_fails_with_low_threshold(self):
        cfg = small_micro(ddl_op="add_constraint", policy="relaxed",
                          ddl_after_txns=50, retry_aborts=True,
                          constraint_threshold=1)
        series = run_micro(cfg)
        assert series.ddl_status == "aborted"

    def test_both_operations_in_one_transaction(self):
        cfg = small_micro(ddl_op="both", policy="relaxed",
                          ddl_after_txns=50, retry_aborts=True)
        series = run_micro(cfg)
        assert series.ddl_status == "committed"
        rows = series.extra["final_rows"]
        assert all(len(p) == 4 for p in rows.values())


class TestEmit:
    def test_csv_shape(self, tmp_path):
        series = run_micro(small_micro(txn_limit=200, interval_ms=20))
        path = tmp_path / "out.csv"
        emit(series, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "interval_start_ms,commits,aborts,phase"
        assert lines[-1].startswith("summary,")
        data = lines[1:-1]
        assert len(data) == len(series.rows)
        total = sum(int(r.split(",")[1]) for r in data)
        assert total == series.total_commits


class TestConfigFile:
    def test_key_value_grammar(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# demo\n"
            "rows=1234\n"
            "dml_threads=3\n"
            "policy=lazy\n"
            "duration_sec=1.5\n"
            "retry_aborts=true\n"
            "ddl_op=add_column\n")
        cfg = load_config_file(str(p))
        assert cfg.rows == 1234 and cfg.dml_threads == 3
        assert cfg.policy == "lazy" and cfg.duration_sec == 1.5
        assert cfg.retry_aborts is True and cfg.ddl_op == "add_column"

    def test_ddl_line_rejected(self, tmp_path):
        """A ``ddl ...`` line is an unknown key, not a DDL that never runs."""
        p = tmp_path / "ddl.cfg"
        p.write_text("rows=10\n"
                     "ddl add_column table=ycsb col=c3:int64 default=0\n")
        with pytest.raises(ValueError):
            load_config_file(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense=1\n")
        with pytest.raises(ValueError):
            load_config_file(str(p))


class TestCli:
    def test_micro_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        rc = cli_main(["micro", "--rows", "200", "--dml-threads", "1",
                       "--txn-limit", "100", "--seed", "3",
                       "--ddl", "add_column", "--policy", "relaxed",
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "ddl_status=committed" in printed


class TestTpcc:
    def test_mix_runs_and_reconciles(self):
        series = run_tpccd(small_tpcc())
        assert series.reconciles()
        assert series.total_commits > 0

    def test_ddl_add_column(self):
        cfg = small_tpcc(ddl_op="add_column", policy="relaxed",
                         ddl_after_txns=30, retry_aborts=True)
        series = run_tpccd(cfg)
        assert series.ddl_status == "committed"

    def test_add_constraint_cross_table_holds(self):
        cfg = small_tpcc(ddl_op="add_constraint", policy="relaxed",
                         ddl_after_txns=30, retry_aborts=True)
        series = run_tpccd(cfg)
        # 1 <= ol_number <= o_ol_cnt holds for generated data
        assert series.ddl_status == "committed"

    def test_split_table_join_back(self):
        cfg = small_tpcc(ddl_op="split_table", policy="relaxed",
                         ddl_after_txns=30, retry_aborts=True,
                         stop_after_ddl=True, txn_limit=600)
        series = run_tpccd(cfg)
        assert series.ddl_status == "committed"
        assert join_back_matches(series.extra["db"])

    def test_preaggregate_matches_offline_sums(self):
        cfg = small_tpcc(ddl_op="preaggregate", policy="relaxed",
                         ddl_after_txns=40, retry_aborts=True)
        series = run_tpccd(cfg)
        assert series.ddl_status == "committed"
        assert preaggregate_matches(series.extra["db"])

    def test_join_table_produced(self):
        cfg = small_tpcc(ddl_op="join_table", policy="relaxed",
                         ddl_after_txns=30, retry_aborts=True,
                         stop_after_ddl=True, txn_limit=600)
        series = run_tpccd(cfg)
        assert series.ddl_status == "committed"
        db = series.extra["db"]
        eng = db.engine
        joined = eng.catalog.handle_by_name("stock_order_line")
        rows = eng.materialize(joined)
        src = eng.materialize(db.tables["order_line"])
        assert len(rows) == len(src)
        schema = eng.catalog.latest_committed_schema(joined.table_id)
        qty_idx = schema.col_index("s_quantity")
        assert all(r[qty_idx] is not None for r in rows.values())

    def test_create_index_equals_full_scan(self):
        cfg = small_tpcc(ddl_op="create_index", policy="relaxed",
                         ddl_after_txns=10, retry_aborts=True, txn_limit=60)
        series = run_tpccd(cfg)
        assert series.ddl_status == "committed"
        assert index_matches_full_scan(series.extra["db"], samples=100)
