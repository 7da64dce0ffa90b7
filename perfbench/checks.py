"""Correctness gates. Each check returns a list of failures, one
``(check name, detail)`` pair each; any failure fails the run."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from evodb import Trace, check_si_history, encode_key

from .workloads import Micro, Tpcc, Window, WorkloadSpec, run_window

Failure = tuple[str, str]


def check_counts(w: Window) -> list[Failure]:
    out = []
    if w.commits + w.aborts != w.attempts:
        out.append(("reconcile", f"commits {w.commits} + aborts {w.aborts} "
                                 f"!= attempts {w.attempts}"))
    if sum(w.reasons.values()) != w.aborts:
        out.append(("reconcile", f"abort reasons sum to "
                                 f"{sum(w.reasons.values())}, aborts {w.aborts}"))
    if w.commits + w.failed_ops != w.ops:
        out.append(("reconcile", f"committed {w.commits} + failed "
                                 f"{w.failed_ops} != transactions {w.ops}"))
    return out


def check_ddls(w: Window) -> list[Failure]:
    out = [("ddl_committed", err.strip().splitlines()[-1])
           for err in w.ddl_errors]
    for d in w.ddls:
        if not d.committed:
            out.append(("ddl_committed", f"{d.kind} aborted: {d.reason}"))
    return out


def check_micro(wl: Micro) -> list[Failure]:
    """The table must hold the client's last committed write per rid,
    with any added column at its default."""
    engine = wl.engine
    schema = engine.catalog.latest_committed_schema(wl.table.table_id)
    tail = schema.defaults()[3:]
    got = engine.materialize(wl.table)
    if len(got) != len(wl.model):
        return [("micro_final_state",
                 f"{len(got)} rows, the client's model has {len(wl.model)}")]
    for rid, row in wl.model.items():
        if got.get(rid) != row + tail:
            return [("micro_final_state",
                     f"rid {rid}: engine {got.get(rid)!r}, "
                     f"expected {row + tail!r}")]
    return []


def check_tpcc(wl: Tpcc) -> list[Failure]:
    engine = wl.engine
    rows, schemas = {}, {}
    for name, handle in wl.db.tables.items():
        rows[name] = engine.materialize(handle)
        schemas[name] = engine.catalog.latest_committed_schema(handle.table_id)

    def cols(name: str, *names: str):
        idx = [schemas[name].col_index(c) for c in names]
        return [tuple(r[i] for i in idx) for r in rows[name].values()]

    out: list[Failure] = []
    max_o: dict = defaultdict(int)
    for w, d, o in cols("oorder", "o_w_id", "o_d_id", "o_id"):
        max_o[w, d] = max(max_o[w, d], o)
    for w, d, next_o in cols("district", "d_w_id", "d_id", "d_next_o_id"):
        if next_o - 1 != max_o[w, d]:
            out.append(("tpcc_next_o_id", f"district ({w},{d}): d_next_o_id "
                                          f"{next_o}, largest o_id {max_o[w, d]}"))
    lines = Counter(cols("order_line", "ol_w_id", "ol_d_id", "ol_o_id"))
    orders = cols("oorder", "o_w_id", "o_d_id", "o_id", "o_ol_cnt")
    for w, d, o, cnt in orders:
        if lines[w, d, o] != cnt:
            out.append(("tpcc_order_lines", f"order ({w},{d},{o}): o_ol_cnt "
                                            f"{cnt}, {lines[w, d, o]} lines"))
    if sum(lines.values()) != sum(cnt for *_, cnt in orders):
        out.append(("tpcc_order_lines", "order lines without an order"))
    h_w: dict = defaultdict(float)
    h_d: dict = defaultdict(float)
    for w, d, amount in cols("history", "h_w_id", "h_d_id", "h_amount"):
        h_w[w] += amount
        h_d[w, d] += amount
    for w, ytd in cols("warehouse", "w_id", "w_ytd"):
        if not math.isclose(ytd, h_w[w], rel_tol=1e-9, abs_tol=1e-6):
            out.append(("tpcc_ytd_history", f"warehouse {w}: w_ytd {ytd}, "
                                             f"history sum {h_w[w]}"))
    for w, d, ytd in cols("district", "d_w_id", "d_id", "d_ytd"):
        if not math.isclose(ytd, h_d[w, d], rel_tol=1e-9, abs_tol=1e-6):
            out.append(("tpcc_ytd_history", f"district ({w},{d}): d_ytd {ytd}, "
                                             f"history sum {h_d[w, d]}"))
    for name, handle in wl.db.tables.items():
        index = handle.indexes.get("primary")
        if index is None:
            continue
        if len(index) != len(rows[name]):
            out.append(("tpcc_primary_index", f"{name}: {len(index)} keys, "
                                              f"{len(rows[name])} rows"))
        for rid, row in rows[name].items():
            key = encode_key(tuple(row[i] for i in index.key_cols))
            if index.lookup(key) != rid:
                out.append(("tpcc_primary_index",
                            f"{name}: key of rid {rid} finds {index.lookup(key)}"))
                break
    return out[:20]


def check_state(wl) -> list[Failure]:
    return check_micro(wl) if isinstance(wl, Micro) else check_tpcc(wl)


def check_run(wl, w: Window) -> list[Failure]:
    """Every gate that applies after a window on this workload."""
    return check_counts(w) + check_ddls(w) + check_state(wl)


@dataclass
class SiPass:
    events: int = 0
    check_s: float = 0.0
    violations: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        return self.events / self.check_s if self.check_s > 0 else 0.0


# logical transactions in the SI-oracle pass
SI_OPS = {"oltp": 1500, "migrate": 1500, "tpcc": 400}


def si_pass(small: WorkloadSpec, seed: int) -> SiPass:
    """Run the workload's small form with a verifier trace attached and
    check the history with the snapshot-isolation oracle."""
    wl = small.make(seed)
    trace = Trace()
    wl.setup(trace=trace)
    try:
        w = run_window(wl, small, seed, seconds=120, max_ops=SI_OPS[small.name])
        failures = check_run(wl, w)
    finally:
        wl.close()
    events = trace.snapshot()
    t0 = perf_counter()
    violations = check_si_history(events)
    result = SiPass(events=len(events), check_s=perf_counter() - t0,
                    violations=len(violations), failures=failures)
    for v in violations[:5]:
        result.failures.append(("si_oracle", str(v)))
    return result
