import sys
import threading
import time

import pytest

from evodb import ColumnDef, DType, Engine, TxnStatus
from evodb import core_store, ddl
from evodb.catalog import SchemaVersion
from evodb.ddl import DdlOp, DdlSpec, Policy, execute_ddl

from conftest import INT3


class TestBegin:
    def test_begin_reads_clock_without_advancing(self, engine):
        a = engine.begin()
        b = engine.begin()
        assert a.begin_ts == b.begin_ts == engine.clock.read()
        engine.abort(a)
        engine.abort(b)

    def test_begin_after_commit_observes_it(self, engine, table3):
        txn = engine.begin()
        engine.write(txn, table3, 0, (0, 1, 2))
        engine.commit(txn)
        cts = txn.commit_ts
        later = engine.begin()
        assert later.begin_ts >= cts + 1
        assert engine.read(later, table3, 0) == (0, 1, 2)
        engine.abort(later)


class TestReadWrite:
    def test_snapshot_pins_versions(self, engine, table3):
        old = engine.begin()
        assert engine.read(old, table3, 1) == (1, 2, 3)
        w = engine.begin()
        engine.write(w, table3, 1, (1, 99, 99))
        engine.commit(w)
        # the old snapshot still sees the original version
        assert engine.read(old, table3, 1) == (1, 2, 3)
        fresh = engine.begin()
        assert engine.read(fresh, table3, 1) == (1, 99, 99)

    def test_read_tombstoned_returns_none(self, engine, table3):
        txn = engine.begin()
        assert engine.delete(txn, table3, 2)
        engine.commit(txn)
        fresh = engine.begin()
        assert engine.read(fresh, table3, 2) is None

    def test_write_conflict_with_uncommitted_head(self, engine, table3):
        t1 = engine.begin()
        t2 = engine.begin()
        assert engine.write(t1, table3, 3, (3, 0, 0))
        assert not engine.write(t2, table3, 3, (3, 1, 1))
        engine.abort(t1)
        engine.abort(t2)

    def test_write_fails_when_snapshot_stale(self, engine, table3):
        stale = engine.begin()
        w = engine.begin()
        engine.write(w, table3, 4, (4, 5, 6))
        engine.commit(w)
        assert not engine.write(stale, table3, 4, (4, 9, 9))
        engine.abort(stale)

    def test_write_fails_when_newer_schema_committed(self, engine, table3):
        stale = engine.begin()
        spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table="t3",
                       column=ColumnDef("c3", DType.INT64, default=0))
        assert execute_ddl(engine, spec, Policy.RELAXED).committed
        # the old-snapshot writer no longer sees the latest schema
        assert not engine.write(stale, table3, 0, (0, 1, 2))
        engine.abort(stale)

    def test_arity_mismatch_raises(self, engine, table3):
        txn = engine.begin()
        with pytest.raises(ValueError):
            engine.write(txn, table3, 0, (1, 2))
        engine.abort(txn)


class TestCommit:
    def test_commit_stamps_all_writes(self, engine, table3):
        txn = engine.begin()
        engine.write(txn, table3, 0, (0, 0, 0))
        engine.write(txn, table3, 1, (1, 1, 1))
        status = engine.commit(txn)
        assert status in (TxnStatus.PRE_COMMITTED, TxnStatus.COMMITTED)
        assert all(v.commit_ts == txn.commit_ts
                   for _t, _a, _r, v in txn.write_set)
        engine.drain_now()
        assert txn.status is TxnStatus.COMMITTED

    def test_commit_ts_unique_and_monotone(self, engine, table3):
        seen = []
        for i in range(20):
            txn = engine.begin()
            engine.write(txn, table3, i % 5, (i, i, i))
            if engine.commit(txn) is not TxnStatus.ABORTED:
                seen.append(txn.commit_ts)
        assert sorted(seen) == seen
        assert len(set(seen)) == len(seen)

    def test_schema_set_validation_aborts_on_newer_schema(self, engine, table3):
        """A writer holding the old schema must abort if a schema change
        commits before it does."""
        dml = engine.begin()
        assert engine.write(dml, table3, 0, (0, 7, 7))
        spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table="t3",
                       column=ColumnDef("c3", DType.INT64, default=0))
        assert execute_ddl(engine, spec, Policy.RELAXED).committed
        assert engine.commit(dml) is TxnStatus.ABORTED
        # and its write is gone: the row still has the loaded value
        fresh = engine.begin()
        assert engine.read(fresh, table3, 0) == (0, 0, 0, 0)

    def test_read_only_txn_ignores_schema_changes(self, engine, table3):
        reader = engine.begin()
        engine.read(reader, table3, 0)
        spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table="t3",
                       column=ColumnDef("c3", DType.INT64, default=0))
        assert execute_ddl(engine, spec, Policy.RELAXED).committed
        # reads are not tracked in the schema set; commit succeeds
        assert engine.commit(reader) is not TxnStatus.ABORTED


class TestAbort:
    def test_abort_restores_chains(self, engine, table3):
        before = {rid: core_store.walk_committed(table3.live_array, rid)
                  for rid in range(20)}
        txn = engine.begin()
        for rid in (0, 1, 2):
            assert engine.write(txn, table3, rid, (rid, 9, 9))
        engine.abort(txn)
        after = {rid: core_store.walk_committed(table3.live_array, rid)
                 for rid in range(20)}
        assert before == after

    def test_abort_empty_write_set_noop(self, engine, table3):
        txn = engine.begin()
        engine.abort(txn)
        assert txn.status is TxnStatus.ABORTED


class TestIndexMaintenance:
    """An update that changes an indexed column moves the index entry."""

    def _keyed(self, engine, name):
        t = engine.create_table(name, INT3, key_cols=("c0",))
        engine.load_rows(t, ((i, i % 3, i) for i in range(10)))
        engine.drain_now()
        return t

    def _update(self, engine, t, *writes):
        txn = engine.begin()
        for rid, values in writes:
            assert engine.write(txn, t, rid, values)
        return engine.commit(txn)

    def test_key_change_moves_primary_entry(self, engine):
        t = self._keyed(engine, "ik1")
        assert self._update(engine, t, (3, (100, 0, 3))) \
            is not TxnStatus.ABORTED
        txn = engine.begin()
        assert engine.lookup(txn, t, (100,)) == (100, 0, 3)
        assert engine.lookup(txn, t, (3,)) is None
        engine.abort(txn)
        txn = engine.begin()
        assert engine.insert(txn, t, (3, 9, 9)) is not None
        assert engine.commit(txn) is not TxnStatus.ABORTED

    def test_key_change_moves_secondary_entry(self, engine):
        t = self._keyed(engine, "ik2")
        spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ik2",
                       index_cols=("c2",), index_name="by_c2")
        assert execute_ddl(engine, spec, Policy.RELAXED).committed
        assert self._update(engine, t, (4, (4, 1, 40))) \
            is not TxnStatus.ABORTED
        txn = engine.begin()
        assert engine.lookup(txn, t, (40,), "by_c2") == (4, 1, 40)
        assert engine.lookup(txn, t, (4,), "by_c2") is None
        assert engine.lookup(txn, t, (4,)) == (4, 1, 40)
        engine.abort(txn)

    def test_key_swap_in_one_transaction(self, engine):
        t = self._keyed(engine, "ik3")
        assert self._update(engine, t, (1, (2, 1, 1)), (2, (1, 2, 2))) \
            is not TxnStatus.ABORTED
        txn = engine.begin()
        assert engine.lookup(txn, t, (1,)) == (1, 2, 2)
        assert engine.lookup(txn, t, (2,)) == (2, 1, 1)
        engine.abort(txn)
        assert len(t.indexes["primary"]) == 10


class TestPipelinedQueue:
    def test_barriered_txn_commits_when_ddl_finalizes(self, engine,
                                                      monkeypatch):
        """A transaction admitted under the pending schema and committed
        inside the window waits on the job; the DDL's finalize commits
        it. The window is held open by running the transaction at the
        point where the DDL stops change data capture after ``t_pre``."""
        t = engine.create_table("b1", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(2000)))
        engine.drain_now()
        spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table="b1",
                       column=ColumnDef("c3", DType.INT64, default=0))
        real_stop_cdc = ddl._stop_cdc
        caught = []

        def commit_in_window(job, stop, threads):
            if job.t_pre is not None:
                txn = engine.begin()
                got = engine.resolve_schema(txn, t)
                assert got and txn.admitted
                assert engine.write(txn, t, 1, (1, 5, 5, 0))
                caught.append((txn, engine.commit(txn)))
            real_stop_cdc(job, stop, threads)

        monkeypatch.setattr(ddl, "_stop_cdc", commit_in_window)
        result = execute_ddl(engine, spec, Policy.RELAXED)
        assert result.committed
        [(admitted, status)] = caught
        assert status is not TxnStatus.ABORTED
        assert engine.wait_for(admitted) is TxnStatus.COMMITTED

    def test_admitted_txn_aborts_when_ddl_aborts(self, engine):
        """A transaction admitted under a pending schema is barriered and
        aborts if the job is revoked."""
        t, job, ddl_txn, victim = _barriered_commit(engine, "b2")
        # now the DDL aborts: revoke and resolve
        with engine._commit_mutex:
            engine.catalog.revoke_pending(t.table_id)
        t.active_ddl = None
        engine._abort_internal(ddl_txn)
        job.resolve("aborted")
        assert engine.wait_for(victim) is TxnStatus.ABORTED

    def test_drain_now_waits_for_finalize(self, engine):
        """drain_now, quiesce and wait_for return only after the entries
        a resolving job releases are finalized, not when they leave the
        queue."""
        real = engine._finalize_entry

        def slow(entry):
            time.sleep(0.05)
            real(entry)

        engine._finalize_entry = slow
        for name in ("drain_now", "quiesce", "wait_for"):
            t, job, ddl_txn, txn = _barriered_commit(engine, f"w_{name}")
            resolver = threading.Timer(0.05, _commit_ddl,
                                       (engine, t, job, ddl_txn))
            resolver.start()
            getattr(engine, name)(*((txn,) if name == "wait_for" else ()))
            assert txn.status is TxnStatus.COMMITTED, name
            resolver.join()

    def test_commit_finalizes_inline_unless_held_back(self, engine, table3):
        """A barrier-free commit returns COMMITTED; one queued behind a
        barriered commit stays pre-committed until the barrier resolves."""
        txn = engine.begin()
        assert engine.write(txn, table3, 0, (0, 1, 2))
        assert engine.commit(txn) is TxnStatus.COMMITTED
        t, job, ddl_txn, victim = _barriered_commit(engine, "b5")
        behind = engine.begin()
        assert engine.write(behind, table3, 1, (1, 1, 1))
        assert engine.commit(behind) is TxnStatus.PRE_COMMITTED
        with pytest.raises(TimeoutError):
            engine.wait_for(behind, timeout=0.1)
        _commit_ddl(engine, t, job, ddl_txn)
        assert victim.status is TxnStatus.COMMITTED
        assert behind.status is TxnStatus.COMMITTED
        assert ddl_txn.status is TxnStatus.COMMITTED
        engine.quiesce(timeout=5)

    def test_close_waits_without_spinning_on_barriered_head(self, engine):
        """close() while the queue head waits on an unresolved job: it
        sleeps until the job resolves, which finalizes the entry."""
        t, job, _ddl_txn, victim = _barriered_commit(engine, "b3")
        closer = threading.Thread(target=engine.close)
        cpu0 = time.process_time()
        closer.start()
        time.sleep(0.3)
        assert time.process_time() - cpu0 < 0.1
        assert closer.is_alive() and victim.status is TxnStatus.PRE_COMMITTED
        job.resolve("committed")
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert victim.status is TxnStatus.COMMITTED

    def test_waits_wake_under_contention(self, engine, table3):
        """Committers, wait_for, drain_now and quiesce race on the one
        condition with a tiny switch interval: no wakeup is lost, and
        drain_now leaves nothing that committed before it unfinalized."""
        queued = []

        def worker(i):
            for k in range(200):
                txn = engine.begin()
                assert engine.write(txn, table3, i, (i, k, k))
                assert engine.commit(txn) is not TxnStatus.ABORTED
                queued.append(txn)
                if k % 10 == 0:
                    assert engine.wait_for(txn, timeout=5) \
                        is TxnStatus.COMMITTED

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            while any(th.is_alive() for th in threads):
                before = list(queued)
                engine.drain_now(timeout=5)
                assert all(t.status is TxnStatus.COMMITTED for t in before)
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            engine.quiesce(timeout=5)
        finally:
            sys.setswitchinterval(old)
        assert len(queued) == 800
        assert all(t.status is TxnStatus.COMMITTED for t in queued)

    def test_resolve_races_committers(self, engine, table3):
        """Committers race a job's resolution with a tiny switch interval:
        the commits held behind the barrier finalize in commit order, and
        none is left pre-committed."""
        t, job, ddl_txn, victim = _barriered_commit(engine, "b6")
        finalized = []
        real = engine._finalize_entry

        def record(txn):
            finalized.append(txn.commit_ts)
            real(txn)

        engine._finalize_entry = record
        committed = []
        halfway = threading.Event()

        def worker(i):
            for k in range(100):
                txn = engine.begin()
                assert engine.write(txn, table3, i, (i, k, k))
                assert engine.commit(txn) is not TxnStatus.ABORTED
                committed.append(txn)
                if k == 50:
                    halfway.set()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            assert halfway.wait(timeout=10)
            _commit_ddl(engine, t, job, ddl_txn)
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            engine.quiesce(timeout=5)
        finally:
            sys.setswitchinterval(old)
        assert len(committed) == 400
        assert all(txn.status is TxnStatus.COMMITTED
                   for txn in committed + [victim, ddl_txn])
        assert finalized == sorted(finalized) and len(finalized) > 2

    def test_empty_queue_drain_noop(self, engine):
        engine.drain_now()


class TestBlockingLockMode:
    def test_dml_blocks_while_writer_holds_table(self):
        eng = Engine(locking_dml=True)
        try:
            t = eng.create_table("lk", INT3)
            eng.load_rows(t, ((i, i, i) for i in range(10)))
            eng.drain_now()
            t.rwlock.acquire_write()
            done = threading.Event()

            def reader():
                txn = eng.begin()
                eng.read(txn, t, 0)
                eng.commit(txn)
                done.set()

            th = threading.Thread(target=reader, daemon=True)
            th.start()
            time.sleep(0.1)
            assert not done.is_set()  # blocked behind the writer
            t.rwlock.release_write()
            assert done.wait(timeout=5)
            th.join()
        finally:
            eng.close()


def _barriered_commit(engine, name):
    """Hand-drive a relaxed add_column up to its pending schema and commit
    one transaction admitted under it. Returns ``(table, job, ddl_txn,
    victim)``; the victim stays pre-committed until the job resolves."""
    from evodb.ddl import DdlJob, build_new_schema
    t = engine.create_table(name, INT3)
    engine.load_rows(t, ((i, i, i) for i in range(5)))
    engine.drain_now()
    spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table=name,
                   column=ColumnDef("c3", DType.INT64, default=0))
    job = DdlJob(engine, spec, Policy.RELAXED, 1, 1)
    job.table = t
    ddl_txn = engine.begin()
    job.txn = ddl_txn
    old = engine.catalog.latest_committed_schema(t.table_id)
    job.old_schema = old
    job.old_array = t.live_array
    job.new_array = core_store.IndirectionArray()
    new_schema = build_new_schema(old, spec, job.new_array)
    assert engine.catalog.install_schema_version(ddl_txn, t.table_id,
                                                 new_schema)
    job.pending_schema = new_schema
    t.active_ddl = job
    with engine._commit_mutex:
        job.t_pre = engine.clock.reserve()
        engine.clock.publish(job.t_pre)
        engine.catalog.set_pending(t.table_id, job.t_pre)

    victim = engine.begin()
    got = engine.resolve_schema(victim, t)
    assert got is not None and t.table_id in victim.admitted
    assert engine.write(victim, t, 0, (0, 1, 1, 0))
    status = engine.commit(victim)
    assert status is TxnStatus.PRE_COMMITTED  # waiting on the barrier
    return t, job, ddl_txn, victim


def _commit_ddl(engine, t, job, ddl_txn):
    """Finalize a job from ``_barriered_commit`` as the relaxed runner
    does: commit the DDL transaction, then resolve the job."""
    with engine._commit_mutex:
        job.commit_ts = engine.clock.reserve()
        engine.catalog.finalize_schema(t.table_id, job.commit_ts)
        engine._precommit(ddl_txn)
    engine._deactivate(ddl_txn)
    t.active_ddl = None
    job.resolve("committed")
