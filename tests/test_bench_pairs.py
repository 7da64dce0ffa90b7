"""The BENCH file's summary, on canned result lines (no benchmark run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "txn_per_s", "better": "higher", "bound": 0.25},
    {"name": "ddl_s", "better": "lower", "bound": 0.25},
]


def _run(side, seed, txn_per_s, ddl_s, failed=0, trace=0):
    return {"workload": "migrate", "seed": seed, "side": side,
            "trace": trace, "exit": 0,
            "result": {"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {"txn_per_s": {"value": txn_per_s},
                                   "ddl_s": {"value": ddl_s}}}}


def test_summary_medians_iqr_wins_and_bounds():
    runs = [_run("parent", s, 100.0 + s, 1.0) for s in (1, 2, 3, 4, 5)]
    runs += [_run("change", s, 99.0 + 2 * s, 2.0, failed=1)
             for s in (1, 2, 3, 4, 5)]
    # a traced run and an unpaired seed are left out of the pairs
    runs += [_run("change", 1, 0.0, 9.0, trace=1),
             _run("parent", 6, 1000.0, 0.1)]
    row = bench_pairs.summarize(runs, END_TO_END)["migrate"]
    assert row["pairs"] == 5
    assert row["parent"]["failed_frac"] == 0.0
    assert row["change"]["failed_frac"] == pytest.approx(5 / 500)
    tps = row["txn_per_s"]
    assert tps["parent"] == [101.0, 102.0, 103.0, 104.0, 105.0]
    assert tps["parent_median"] == 103.0 and tps["parent_iqr"] == 2.0
    assert tps["change_median"] == 105.0 and tps["change_iqr"] == 4.0
    # change 101, 103, 105, 107, 109 against 101..105: one tie, four wins
    assert tps["change_wins"] == 4
    assert tps["rel_worse"] == pytest.approx(-2 / 103)
    assert not tps["regressed"] and not tps["unresolved"]
    ddl = row["ddl_s"]
    assert ddl["change_wins"] == 0 and ddl["rel_worse"] == pytest.approx(1.0)
    assert ddl["regressed"] and not ddl["unresolved"]


def test_wide_parent_spread_is_unresolved():
    runs = [_run("parent", s, v, 1.0) for s, v in ((1, 50.0), (2, 100.0),
                                                    (3, 150.0))]
    runs += [_run("change", s, 100.0, 1.0) for s in (1, 2, 3)]
    tps = bench_pairs.summarize(runs, END_TO_END)["migrate"]["txn_per_s"]
    assert tps["parent_iqr"] == 50.0 and tps["unresolved"]
    assert not tps["regressed"]



def test_wide_parent_spread_with_every_change_run_better_is_resolved():
    runs = [_run("parent", s, v, 1.0) for s, v in ((1, 50.0), (2, 100.0),
                                                    (3, 150.0))]
    runs += [_run("change", s, 151.0 + s, 1.0) for s in (1, 2, 3)]
    tps = bench_pairs.summarize(runs, END_TO_END)["migrate"]["txn_per_s"]
    assert tps["parent_iqr"] == 50.0 and not tps["unresolved"]
    # a lower-is-better metric: every change run below every parent run
    runs = [_run("parent", s, 100.0, d) for s, d in ((1, 1.0), (2, 2.0),
                                                      (3, 3.0))]
    runs += [_run("change", s, 100.0, 0.9) for s in (1, 2, 3)]
    ddl = bench_pairs.summarize(runs, END_TO_END)["migrate"]["ddl_s"]
    assert ddl["parent_iqr"] == 1.0 and not ddl["unresolved"]
    runs[-1] = _run("change", 3, 100.0, 1.5)
    ddl = bench_pairs.summarize(runs, END_TO_END)["migrate"]["ddl_s"]
    assert ddl["unresolved"]
