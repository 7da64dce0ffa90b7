import threading

from evodb.core_store import Version
from evodb.redo_log import RedoLog

from conftest import INT3, StubTxn


def _txn_with_writes(txn_id, ts, writes):
    txn = StubTxn(txn_id, begin_ts=1)
    for table_id, rid, payload in writes:
        txn.write_set.append((table_id, None, rid, Version(payload, commit_ts=ts)))
    return txn


def test_append_assigns_consecutive_lsns():
    log = RedoLog()
    base = log.append_commit(_txn_with_writes(1, 5, [(1, 0, (1,)), (1, 1, (2,)),
                                                     (1, 2, (3,))]))
    assert base == 0
    assert log.current_lsn() == 3
    assert [r.lsn for r in log.scan(0)] == [0, 1, 2]


def test_empty_write_set_returns_tail():
    log = RedoLog()
    log.append_commit(_txn_with_writes(1, 5, [(1, 0, (1,))]))
    assert log.append_commit(_txn_with_writes(2, 6, [])) == 1
    assert log.current_lsn() == 1


def test_concurrent_appends_get_disjoint_contiguous_ranges():
    log = RedoLog()
    results = {}

    def appender(i):
        txn = _txn_with_writes(i, 10 + i, [(1, r, (i,)) for r in range(50)])
        results[i] = log.append_commit(txn)

    threads = [threading.Thread(target=appender, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    bases = sorted(results.values())
    assert bases == [i * 50 for i in range(8)]
    assert log.current_lsn() == 400
    # each batch is contiguous: its 50 records share one txn id
    for base in bases:
        owners = {log.record(base + k).txn_id for k in range(50)}
        assert len(owners) == 1


def test_current_lsn_monotone():
    log = RedoLog()
    a = log.current_lsn()
    log.append_commit(_txn_with_writes(1, 5, [(1, 0, (1,))]))
    assert log.current_lsn() >= a
    assert log.current_lsn() == 1
    assert a == 0


def test_scan_filters_table_and_ts_boundary():
    log = RedoLog()
    log.append_commit(_txn_with_writes(1, 10, [(1, 0, (1,))]))
    log.append_commit(_txn_with_writes(2, 20, [(2, 0, (2,))]))
    log.append_commit(_txn_with_writes(3, 30, [(1, 1, (3,))]))
    log.append_commit(_txn_with_writes(4, 31, [(1, 2, (4,))]))

    assert [r.commit_ts for r in log.scan(0)] == [10, 20, 30, 31]
    assert [r.commit_ts for r in log.scan(0, table_id=1)] == [10, 30, 31]
    # boundary: end_lsn itself excluded
    assert [r.commit_ts for r in log.scan(0, table_id=1, end_lsn=3)] == [10, 30]


def test_scan_tail_follow_includes_records_appended_mid_iteration():
    log = RedoLog()
    log.append_commit(_txn_with_writes(1, 10, [(1, 0, (1,))]))
    it = log.scan(0, table_id=1)
    assert next(it).commit_ts == 10
    log.append_commit(_txn_with_writes(2, 20, [(1, 1, (2,))]))
    assert next(it).commit_ts == 20


def test_replay_completeness_against_engine(engine, table3):
    """Every committed write with ts <= T appears exactly once in a scan
    bounded by the log tail read at T."""
    for rid in range(5):
        txn = engine.begin()
        assert engine.write(txn, table3, rid, (rid, rid, rid))
        engine.commit(txn)
    engine.drain_now()
    boundary_txn = engine.begin()
    boundary = boundary_txn.begin_ts - 1
    engine.abort(boundary_txn)
    boundary_lsn = engine.log.current_lsn()
    for rid in range(3):
        txn = engine.begin()
        assert engine.write(txn, table3, rid, (rid, 0, 0))
        engine.commit(txn)
    engine.drain_now()
    seen = [(r.rid, r.commit_ts) for r in
            log_scan_all(engine, table3.table_id, boundary_lsn)]
    per_write = {}
    for rid, ts in seen:
        per_write[(rid, ts)] = per_write.get((rid, ts), 0) + 1
    assert all(v == 1 for v in per_write.values())
    # the 20 loads + 5 updates are all at or below the boundary
    assert len([1 for (_, ts) in seen if ts <= boundary]) == len(seen) == 25


def log_scan_all(engine, table_id, end_lsn):
    return list(engine.log.scan(0, table_id=table_id, end_lsn=end_lsn))


def test_lsn_density(engine, table3):
    # 1 catalog record for the schema install + the 20-row bulk load
    assert engine.log.current_lsn() == 21
    txn = engine.begin()
    engine.write(txn, table3, 0, (9, 9, 9))
    engine.write(txn, table3, 1, (8, 8, 8))
    engine.commit(txn)
    engine.drain_now()
    assert engine.log.current_lsn() == 23
    lsns = [r.lsn for r in engine.log.scan(0)]
    assert lsns == list(range(23))

