import pathlib
import random
import threading

import pytest

from evodb import ColumnDef, DType, Engine, TxnStatus
from evodb.verifier import (
    Event,
    Trace,
    check_si_history,
    dump_trace,
    parse_trace,
    serial_replay,
)

from conftest import INT3

CORPUS = pathlib.Path(__file__).parent / "fault_corpus"


def run_traced_workload(n_threads=4, n_txns=800, rows=64, seed=3):
    trace = Trace()
    engine = Engine(trace=trace)
    table = engine.create_table("w", INT3)
    engine.load_rows(table, ((i, i, i) for i in range(rows)))
    engine.drain_now()
    per_thread = n_txns // n_threads

    def worker(tid):
        rng = random.Random(seed + tid)
        for _ in range(per_thread):
            txn = engine.begin()
            ok = True
            for _ in range(2):
                engine.read(txn, table, rng.randrange(rows))
            for _ in range(4):
                rid = rng.randrange(rows)
                if not engine.write(txn, table, rid,
                                    (rid, rng.randrange(100), rng.randrange(100))):
                    ok = False
                    break
            if ok:
                engine.commit(txn)
            else:
                engine.abort(txn)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    engine.quiesce()
    engine.close()
    return trace.events


class TestChecker:
    def test_serial_history_accepted(self):
        trace = Trace()
        engine = Engine(trace=trace)
        table = engine.create_table("s", INT3)
        engine.load_rows(table, ((i, i, i) for i in range(10)))
        for i in range(10):
            txn = engine.begin()
            engine.read(txn, table, i % 10)
            engine.write(txn, table, i % 10, (i, i, i))
            assert engine.commit(txn) is not TxnStatus.ABORTED
        engine.quiesce()
        engine.close()
        assert check_si_history(trace.events) == []

    def test_concurrent_workload_accepted(self):
        events = run_traced_workload()
        assert check_si_history(events) == []

    def test_planted_stale_read_rejected(self):
        events = [
            Event(1, "schema_init", table=1, ts=1, schema_version=1, ncols=3),
            Event(2, "begin", txn=1, ts=2),
            Event(3, "write", txn=1, table=1, rid=0, payload=(1, 2, 3)),
            Event(4, "commit", txn=1, ts=2),
            Event(5, "begin", txn=2, ts=3),
            Event(6, "read", txn=2, table=1, rid=0, observed_ts=None),
        ]
        found = check_si_history(events)
        assert any(v.rule == "read-visibility" for v in found)


class TestFaultCorpus:
    files = sorted(CORPUS.glob("fault_*.txt"))

    def test_corpus_is_large_enough(self):
        assert len(self.files) >= 10

    @pytest.mark.parametrize("path", files, ids=[f.stem for f in files])
    def test_fault_rejected_with_expected_class(self, path):
        text = path.read_text()
        expected_rule = text.splitlines()[0].split("class:")[1].strip()
        events = parse_trace(text)
        violations = check_si_history(events)
        assert violations, f"{path.stem}: checker accepted a faulty history"
        assert any(v.rule == expected_rule for v in violations), (
            f"{path.stem}: expected {expected_rule}, got "
            f"{[v.rule for v in violations]}")


class TestTraceRoundtrip:
    def test_text_form_roundtrips(self):
        events = run_traced_workload(n_threads=2, n_txns=60, rows=16)
        text = dump_trace(events)
        parsed = parse_trace(text)
        assert len(parsed) == len(events)
        assert check_si_history(parsed) == []
        for a, b in zip(events, parsed):
            assert (a.wall, a.kind, a.txn, a.ts, a.table, a.rid,
                    a.observed_ts, a.admitted) == \
                   (b.wall, b.kind, b.txn, b.ts, b.table, b.rid,
                    b.observed_ts, b.admitted)

    def test_payload_fields_are_literals_only(self):
        ev = Event(wall=1, kind="write", txn=1, table=1, rid=0,
                   payload=(7, -2.5, "it's", None))
        assert parse_trace(dump_trace([ev]))[0].payload == ev.payload
        with pytest.raises(ValueError):
            parse_trace("w=1\tk=write\ttxn=1\tpayload=__import__('os').getpid()")


class TestSerialReplay:
    def _txn(self, txn_id, begin, commit, writes):
        from evodb.verifier import _TxnView
        t = _TxnView(txn_id)
        t.begin_ts = begin
        t.commit_ts = commit
        for table, rid, payload in writes:
            t.writes.append(Event(0, "write", txn=txn_id, table=table,
                                  rid=rid, payload=payload))
        return t

    def test_last_write_wins(self):
        state = serial_replay([
            self._txn(1, 4, 5, [(1, 0, (1,))]),
            self._txn(2, 8, 9, [(1, 0, (2,))]),
        ])
        assert state.latest(1, 0) == (9, (2,))
        assert state.visible_ts(1, 0, begin_ts=7) == 5

    def test_schema_change_between_writes(self):
        schema_events = [
            Event(1, "schema_init", table=1, ts=1, schema_version=1, ncols=3),
            Event(2, "schema_commit", table=1, ts=7, schema_version=2, ncols=4),
        ]
        state = serial_replay([
            self._txn(1, 4, 5, [(1, 0, (1, 1, 1))]),
            self._txn(2, 8, 9, [(1, 0, (2, 2, 2, 0))]),
        ], schema_events)
        assert state.schema_for(1, begin_ts=6) == (1, 1, 3)
        assert state.schema_for(1, begin_ts=10) == (7, 2, 4)
        assert len(state.latest(1, 0)[1]) == state.ncols(1, 2)

    def test_empty_input(self):
        state = serial_replay([])
        assert state.records == {} and state.schemas == {}

    def test_duplicate_ts_rejected(self):
        with pytest.raises(ValueError):
            serial_replay([
                self._txn(1, 1, 5, [(1, 0, (1,))]),
                self._txn(2, 1, 5, [(1, 1, (2,))]),
            ])
