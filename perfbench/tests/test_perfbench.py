"""Tests of the benchmark itself: a smoke run of every workload at tiny
size in both modes, the self-time arithmetic, and checks that must fail
on a planted corruption."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evodb import core_store  # noqa: E402
from perfbench.checks import check_micro, check_tpcc  # noqa: E402
from perfbench.tracing import (SpanBuffer, Tracer, percentile,  # noqa: E402
                               read_spans, self_times, write_spans)
from perfbench.workloads import SMALL, run_window  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# the smoke runs go through suite.run at the small sizes, in a child
# process so that their engine threads and heap leave this one untouched
SMOKE = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import suite
from perfbench.workloads import SMALL
result, code = suite.run(sys.argv[2], 3, 0.6, int(sys.argv[3]), Path(sys.argv[4]),
                         specs=SMALL)
print(json.dumps(result))
sys.exit(code)
"""


@pytest.mark.parametrize("workload", ["oltp", "migrate", "tpcc"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    proc = subprocess.run([sys.executable, "-c", SMOKE, str(ROOT), workload,
                           str(trace), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["verifier.violations"]["value"] == 0
        names, buffers = read_spans(str(tmp_path / f"{workload}.spans"))
        assert "client.loop" in names and sum(len(b) for b in buffers) > 0


def _buffer(spans):
    """spans: (start, end, parent) triples on one thread."""
    buf = SpanBuffer("t")
    for start, end, parent in spans:
        buf.name.append(0)
        buf.start.append(start)
        buf.end.append(end)
        buf.parent.append(parent)
        buf.group.append(0)
    return buf


def test_self_times_of_nested_spans():
    buf = _buffer([(0, 100, -1),   # root
                   (10, 40, 0),    # child of root
                   (50, 90, 0),    # child of root
                   (60, 70, 2),    # grandchild
                   (72, 75, 2),    # grandchild
                   (120, 130, -1)])  # second root
    assert self_times(buf) == [100 - 30 - 40, 30, 40 - 10 - 3, 10, 3, 10]


def test_wrappers_record_parents_and_groups(tmp_path):
    tracer = Tracer()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    box = Box()
    tracer.patch(box, "outer", "outer")
    tracer.patch(box, "inner", "inner")
    tracer.set_group(7)
    assert box.outer() == 42
    tracer.unpatch()
    assert "outer" not in vars(box) and box.outer() == 42
    (buf,) = tracer.buffers
    assert [tracer.names[n] for n in buf.name] == ["outer", "inner"]
    assert list(buf.parent) == [-1, 0] and list(buf.group) == [7, 7]
    assert buf.start[0] <= buf.start[1] <= buf.end[1] <= buf.end[0]
    assert write_spans(tracer, str(tmp_path / "s")) == 2
    names, (copy,) = read_spans(str(tmp_path / "s"))
    assert names == tracer.names and list(copy.end) == list(buf.end)


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))
    assert percentile(vals, 0.5) == 50 and percentile(vals, 0.99) == 99
    assert percentile([7], 0.99) == 7 and percentile([], 0.5) == 0.0


def test_micro_check_rejects_planted_corruption():
    spec = SMALL["oltp"]
    wl = spec.make(5)
    wl.setup()
    try:
        run_window(wl, spec, 5, seconds=30, max_ops=50)
        assert check_micro(wl) == []
        rid = next(iter(wl.model))
        arr = wl.table.live_array
        version = core_store.latest_committed(arr, rid)
        bad = (version.payload[0], version.payload[1] + 1) + version.payload[2:]
        assert core_store.replace_in_place(arr, rid, version, bad)
        failures = check_micro(wl)
        assert [name for name, _ in failures] == ["micro_final_state"]
    finally:
        wl.close()


def test_tpcc_check_rejects_planted_corruption():
    spec = SMALL["tpcc"]
    wl = spec.make(5)
    wl.setup()
    try:
        run_window(wl, spec, 5, seconds=30, max_ops=100)
        assert check_tpcc(wl) == []
        district = wl.db.tables["district"]
        version = core_store.latest_committed(district.live_array, 0)
        row = list(version.payload)
        row[3] += 1.0  # d_ytd no longer matches the history rows
        assert core_store.replace_in_place(district.live_array, 0, version,
                                           tuple(row))
        assert {name for name, _ in check_tpcc(wl)} == {"tpcc_ytd_history"}
    finally:
        wl.close()


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "oltp", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
