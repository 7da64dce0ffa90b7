import contextlib
import functools
import threading
import time

import pytest

from evodb import (
    ColumnDef,
    ConstraintDef,
    ConstraintKind,
    DType,
    Engine,
    OverlapAbort,
    TxnStatus,
)
from evodb import core_store, ddl
from evodb.ddl import (
    INCOMPATIBLE,
    DdlOp,
    DdlSpec,
    LookupContext,
    Policy,
    build_new_schema,
    execute_ddl,
    transform_record,
    verify_record,
)

from conftest import INT3


def add_col_spec(table="t3", name="c3", default=0):
    return DdlSpec(kind=DdlOp.ADD_COLUMN, table=table,
                   column=ColumnDef(name, DType.INT64, default=default))


def catalog_walk(engine):
    """(table rid -> [(ts, schema version_no, state)]) for atomicity diffs."""
    out = {}
    arr = engine.catalog.array
    for rid in range(engine.catalog._next_table_id):
        if not arr.covers(rid):
            continue
        head = arr.head(rid)
        out[rid] = [(v.commit_ts, v.payload.version_no, v.payload.state)
                    for v in (head.chain() if head else ())]
    return out


def chains_walk(table):
    arr = table.live_array
    return {rid: core_store.walk_committed(arr, rid)
            for rid in range(table.next_rid)}


class TestTransformRecord:
    def setup_method(self):
        self.old = build_schema_3()
        self.spec = add_col_spec()
        self.new = build_new_schema(self.old, self.spec,
                                    core_store.IndirectionArray())

    def test_add_column_appends_default(self):
        assert transform_record((1, 2, 3), self.old, self.new, self.spec) \
            == (1, 2, 3, 0)

    def test_varchar_to_int_ok(self):
        old = build_schema_varchar()
        spec = DdlSpec(kind=DdlOp.MODIFY_COLUMN, table="v",
                       column=ColumnDef("s", DType.INT64))
        new = build_new_schema(old, spec, core_store.IndirectionArray())
        assert transform_record(("12",), old, new, spec) == (12,)

    def test_varchar_to_int_incompatible(self):
        old = build_schema_varchar()
        spec = DdlSpec(kind=DdlOp.MODIFY_COLUMN, table="v",
                       column=ColumnDef("s", DType.INT64))
        new = build_new_schema(old, spec, core_store.IndirectionArray())
        assert transform_record(("abc",), old, new, spec) is INCOMPATIBLE

    def test_float_with_decimals_to_int_incompatible(self):
        old = build_schema_float()
        spec = DdlSpec(kind=DdlOp.MODIFY_COLUMN, table="f",
                       column=ColumnDef("x", DType.INT64))
        new = build_new_schema(old, spec, core_store.IndirectionArray())
        assert transform_record((2.5,), old, new, spec) is INCOMPATIBLE
        assert transform_record((2.0,), old, new, spec) == (2,)

    def test_drop_column(self):
        spec = DdlSpec(kind=DdlOp.DROP_COLUMN, table="t3", drop_column="c1")
        new = build_new_schema(self.old, spec, core_store.IndirectionArray())
        assert transform_record((1, 2, 3), self.old, new, spec) == (1, 3)
        assert new.ncols == 2


def build_schema_3():
    from evodb.catalog import SchemaVersion
    return SchemaVersion(1, "t3", tuple(INT3))


def build_schema_varchar():
    from evodb.catalog import SchemaVersion
    return SchemaVersion(2, "v", (ColumnDef("s", DType.VARCHAR),))


def build_schema_float():
    from evodb.catalog import SchemaVersion
    return SchemaVersion(3, "f", (ColumnDef("x", DType.FLOAT64),))


class TestVerifyRecord:
    def test_column_vs_const(self):
        schema = build_schema_3()
        con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2",
                            op="<", const=100)
        assert verify_record((1, 2, 50), schema, (con,), None)
        assert not verify_record((1, 2, 150), schema, (con,), None)

    def test_not_null(self):
        schema = build_schema_3()
        con = ConstraintDef(ConstraintKind.NOT_NULL, column="c1")
        assert verify_record((1, 2, 3), schema, (con,), None)
        assert not verify_record((1, None, 3), schema, (con,), None)

    def test_cross_table_lookup(self, engine):
        parent = engine.create_table(
            "parent", [ColumnDef("pk", DType.INT64, default=0),
                       ColumnDef("cnt", DType.INT64, default=0)],
            key_cols=("pk",))
        engine.load_rows(parent, iter([(1, 5)]))
        engine.drain_now()
        child_schema = build_schema_3()
        con = ConstraintDef(ConstraintKind.CROSS_TABLE_LOOKUP, column="c1",
                            op="<=", foreign_table="parent",
                            local_key_cols=("c0",), foreign_col="cnt")
        ctx = LookupContext(engine)
        assert verify_record((1, 3, 0), child_schema, (con,), ctx)
        assert not verify_record((1, 7, 0), child_schema, (con,), ctx)
        # unresolvable foreign key counts as a violation
        assert not verify_record((2, 3, 0), child_schema, (con,), ctx)


class TestExecuteDdl:
    def test_add_constraint_satisfied_commits(self, engine, table3):
        con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2",
                            op="<", const=10_000)
        spec = DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="t3",
                       constraints=(con,))
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert res.committed
        schema = engine.catalog.latest_committed_schema(table3.table_id)
        assert len(schema.constraints) == 1

    @pytest.mark.parametrize("policy", [Policy.BLOCKING, Policy.BASIC,
                                        Policy.RELAXED])
    def test_add_constraint_violation_atomic_abort(self, policy):
        eng = Engine(locking_dml=(policy is Policy.BLOCKING))
        try:
            t = eng.create_table("t3", INT3)
            eng.load_rows(t, ((i, 2 * i, 3 * i) for i in range(20)))
            eng.drain_now()
            pre_catalog = catalog_walk(eng)
            pre_chains = chains_walk(t)
            con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2",
                                op="<", const=30)  # row 10+ violates
            spec = DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="t3",
                           constraints=(con,))
            res = execute_ddl(eng, spec, policy)
            assert res.status == "aborted"
            assert res.reason == "incompatible_data"
            assert catalog_walk(eng) == pre_catalog
            assert chains_walk(t) == pre_chains
        finally:
            eng.close()

    def test_create_table_metadata_only(self, engine):
        spec = DdlSpec(kind=DdlOp.CREATE_TABLE, out_table="fresh",
                       columns=tuple(INT3))
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert res.committed
        assert engine.catalog.handle_by_name("fresh") is not None

    def test_drop_table_tombstones_catalog(self, engine, table3):
        spec = DdlSpec(kind=DdlOp.DROP_TABLE, table="t3")
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert res.committed
        txn = engine.begin()
        assert engine.catalog.get_visible_schema(txn, table3.table_id) is None

    def test_concurrent_ddl_on_same_table_rejected(self, engine, table3):
        from evodb.ddl import DdlJob
        table3.active_ddl = DdlJob(engine, add_col_spec(), Policy.RELAXED, 1, 1)
        res = execute_ddl(engine, add_col_spec(), Policy.RELAXED)
        assert res.status == "aborted" and res.reason == "concurrent_ddl"
        table3.active_ddl = None


class TestBasicPolicy:
    def test_uncontended_add_column_stamps_all_rows(self, engine, table3):
        res = execute_ddl(engine, add_col_spec(), Policy.BASIC)
        assert res.committed
        arr = table3.live_array
        stamped = [core_store.latest_committed(arr, rid)
                   for rid in range(table3.next_rid)]
        assert all(v.commit_ts == res.commit_ts for v in stamped)
        assert all(len(v.payload) == 4 for v in stamped)
        # full write-set tracking: every row plus the catalog entry
        assert len(res.job.txn.write_set) == table3.next_rid + 1

    def test_concurrent_uncommitted_write_aborts_ddl(self, engine, table3):
        """A record the job has not visited yet carries another
        transaction's uncommitted version: the migration install loses
        first-updater-wins and the whole job aborts."""
        dml = engine.begin()
        assert engine.write(dml, table3, 15, (15, 1, 1))
        res = execute_ddl(engine, add_col_spec(), Policy.BASIC)
        assert res.status == "aborted"
        assert res.reason == "conflict"
        engine.abort(dml)
        # nothing of the migration remains
        rows = engine.materialize(table3)
        assert all(len(p) == 3 for p in rows.values())

    def test_concurrent_writers_starve_ddl(self, engine):
        """Statistical version of the same conflict: continuous writers
        make the full-table migration lose some race with near-certainty."""
        t = engine.create_table("big", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(50_000)))
        engine.drain_now()
        stop = threading.Event()

        def writer(seed):
            import random
            rng = random.Random(seed)
            while not stop.is_set():
                txn = engine.begin()
                ok = True
                for _ in range(8):
                    rid = rng.randrange(50_000)
                    if not engine.write(txn, t, rid, (rid, 1, 1)):
                        ok = False
                        break
                if ok:
                    engine.commit(txn)
                else:
                    engine.abort(txn)

        threads = [threading.Thread(target=writer, args=(i,), daemon=True)
                   for i in range(4)]
        for th in threads:
            th.start()
        try:
            res = execute_ddl(engine, add_col_spec("big"), Policy.BASIC)
        finally:
            stop.set()
            for th in threads:
                th.join()
        assert res.status == "aborted"
        assert res.reason == "conflict"

    def test_dml_on_already_migrated_row_fails(self, engine, table3):
        """While the basic job holds uncommitted versions, a concurrent
        writer touching one of them loses first-updater-wins."""
        gate = threading.Event()
        observed = {}

        orig_install = core_store.install_version

        def slow_install(txn, array, rid, version, table_id=-1):
            ok = orig_install(txn, array, rid, version, table_id)
            if table_id == table3.table_id and rid == 10:
                gate.set()
                time.sleep(0.2)
            return ok

        core_store.install_version = slow_install
        try:
            th = threading.Thread(
                target=lambda: observed.setdefault(
                    "res", run_basic_via_module(engine)), daemon=True)
            th.start()
            assert gate.wait(timeout=10)
            dml = engine.begin()
            observed["dml_write"] = engine.write(dml, table3, 10, (9, 9, 9))
            engine.abort(dml)
            th.join()
        finally:
            core_store.install_version = orig_install
        assert observed["dml_write"] is False


def run_basic_via_module(engine):
    import importlib

    import evodb.ddl as ddlmod
    importlib.reload  # no-op; keep the patched core function in use
    return ddlmod.execute_ddl(engine, add_col_spec(), Policy.BASIC)


class TestRelaxedPolicy:
    def test_end_to_end_add_column_with_concurrent_readers(self, engine):
        t = engine.create_table("r1", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(1000)))
        engine.drain_now()
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                txn = engine.begin()
                try:
                    for rid in range(0, 1000, 97):
                        engine.read(txn, t, rid)
                    engine.commit(txn)
                except Exception as exc:  # OverlapAbort is acceptable
                    engine.abort(txn)
                    if "overlap" not in type(exc).__name__.lower():
                        errors.append(exc)

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(3)]
        for th in threads:
            th.start()
        res = execute_ddl(engine, add_col_spec("r1"), Policy.RELAXED,
                          scan_workers=2, cdc_workers=2)
        stop.set()
        for th in threads:
            th.join()
        assert res.committed
        assert not errors
        rows = engine.materialize(t)
        assert len(rows) == 1000
        assert all(len(p) == 4 and p[3] == 0 for p in rows.values())

    def test_cdc_replays_concurrent_update(self, engine):
        """An update committed after the scan passed its record must land
        in the new array with its own (inherited) timestamp."""
        t = engine.create_table("r2", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(50_000)))
        engine.drain_now()
        updated = {}

        def writer():
            # update rid 0 once the scan is surely past it
            time.sleep(0.05)
            txn = engine.begin()
            if engine.write(txn, t, 0, (0, 42, 42)):
                if engine.commit(txn) is not TxnStatus.ABORTED:
                    updated["ts"] = txn.commit_ts
                    return
            engine.abort(txn)

        th = threading.Thread(target=writer, daemon=True)
        th.start()
        res = execute_ddl(engine, add_col_spec("r2"), Policy.RELAXED)
        th.join()
        assert res.committed
        assert "ts" in updated, "writer lost its race in the test setup"
        fresh = engine.begin()
        assert engine.read(fresh, t, 0) == (0, 42, 42, 0)
        new_arr = t.live_array
        head = core_store.latest_committed(new_arr, 0)
        assert head.commit_ts == updated["ts"]
        assert res.job.cdc_installs >= 1

    def test_cdc_migrates_only_the_newest_version(self, engine, monkeypatch):
        """Two updates to rid 0 commit after the scan passed it; only the
        second is the record's newest version, so only it is checked
        against the constraint the DDL adds."""
        t = engine.create_table("r6", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(2000)))
        engine.drain_now()
        real = ddl.transform_record
        fired = []

        def update_past_rid0(payload, *args, **kwargs):
            if not fired and payload[1] == 1:
                fired.append(True)
                for values in ((0, 5000, 0), (0, 5, 0)):
                    txn = engine.begin()
                    assert engine.write(txn, t, 0, values)
                    assert engine.commit(txn) is not TxnStatus.ABORTED
            return real(payload, *args, **kwargs)

        monkeypatch.setattr(ddl, "transform_record", update_past_rid0)
        con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c1",
                            op="<", const=3000)
        res = execute_ddl(engine, DdlSpec(kind=DdlOp.ADD_CONSTRAINT,
                                          table="r6", constraints=(con,)),
                          Policy.RELAXED)
        assert fired and res.committed, res.reason
        assert engine.materialize(t)[0] == (0, 5, 0)

    def test_cdc_replays_past_a_cascade_aborted_version(self, engine,
                                                        monkeypatch):
        """After the scan passed rid 0, an update commits to it, then a
        transaction admitted under another table's pending schema updates
        it again. That schema is revoked while change data capture is
        between the two records: the admitted update is unlinked, and the
        first update is what the new array ends with."""
        x = engine.create_table("x1", INT3)
        engine.load_rows(x, ((i, i, i) for i in range(10)))
        y = engine.create_table("y1", INT3)
        engine.load_rows(y, ((i, i, i) for i in range(2000)))
        engine.drain_now()
        real_transform = ddl.transform_record
        real_latest = core_store.latest_committed
        x_job = contextlib.ExitStack()
        admitted = []

        def update_past_rid0(payload, *args, **kwargs):
            if not admitted and payload[1] == 1:
                txn = engine.begin()
                assert engine.write(txn, y, 0, (0, 5, 0))
                assert engine.commit(txn) is TxnStatus.COMMITTED
                x_job.enter_context(pending_add_column(engine, x))
                txn = engine.begin()
                assert engine.write(txn, x, 0, (0, 0, 0, 0))
                assert x.table_id in txn.admitted
                assert engine.write(txn, y, 0, (0, 7, 0))
                assert engine.commit(txn) is TxnStatus.PRE_COMMITTED
                admitted.append(txn)
            return real_transform(payload, *args, **kwargs)

        def revoke_between_records(arr, rid):
            v = real_latest(arr, rid)
            if rid == 0 and admitted and v is not None \
                    and v.commit_ts == admitted[0].commit_ts \
                    and "_cdc_worker" in threading.current_thread().name:
                x_job.close()  # revoke x's pending schema
                assert engine.wait_for(admitted[0]) is TxnStatus.ABORTED
            return v

        monkeypatch.setattr(ddl, "transform_record", update_past_rid0)
        monkeypatch.setattr(core_store, "latest_committed",
                            revoke_between_records)
        try:
            res = execute_ddl(engine, add_col_spec("y1"), Policy.RELAXED)
        finally:
            x_job.close()
        assert res.committed, res.reason
        assert admitted[0].status is TxnStatus.ABORTED
        assert engine.materialize(y)[0] == (0, 5, 0, 0)

    def test_cdc_skips_records_the_scan_read(self, engine, monkeypatch):
        """An update committed before the scan reaches its chunk is
        migrated by the scan; change data capture never transforms it."""
        t = engine.create_table("r7", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(20_000)))
        engine.drain_now()
        real = ddl.transform_record
        threads = set()

        def update_ahead(payload, *args, **kwargs):
            threads.add(threading.current_thread().name)
            if payload[1] == 1:  # rid 1, in the scan's first chunk
                txn = engine.begin()
                assert engine.write(txn, t, 10_000, (10_000, 42, 42))
                assert engine.commit(txn) is not TxnStatus.ABORTED
            return real(payload, *args, **kwargs)

        monkeypatch.setattr(ddl, "transform_record", update_ahead)
        res = execute_ddl(engine, add_col_spec("r7"), Policy.RELAXED)
        assert res.committed, res.reason
        assert engine.materialize(t)[10_000] == (10_000, 42, 42, 0)
        assert threads and not any("_cdc_worker" in n for n in threads)

    def test_inserts_beyond_scan_bound_arrive_via_cdc(self, engine):
        t = engine.create_table("r3", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(20_000)))
        engine.drain_now()
        inserted = []
        stop = threading.Event()

        def inserter():
            while not stop.is_set():
                txn = engine.begin()
                got = engine.resolve_schema(txn, t)
                rid = engine.insert(txn, t, (7, 7, 7) + got[0].defaults()[3:])
                if rid is None:
                    engine.abort(txn)
                elif engine.commit(txn) is not TxnStatus.ABORTED:
                    inserted.append(rid)
                time.sleep(0.001)

        th = threading.Thread(target=inserter, daemon=True)
        th.start()
        res = execute_ddl(engine, add_col_spec("r3"), Policy.RELAXED)
        stop.set()
        th.join()
        assert res.committed
        job = res.job
        # the scan touches exactly the snapshotted bound, no matter how
        # many rows the insert storm added
        assert job.scan_visits == job.scan_bound >= 20_000
        rows = engine.materialize(t)
        # every insert that committed before t_pre must be present
        for rid in inserted:
            head = core_store.latest_committed(t.live_array, rid)
            if head is not None and head.commit_ts <= job.t_pre:
                assert rows[rid][:3] == (7, 7, 7)

    def test_no_write_set_ddl(self, engine):
        t = engine.create_table("r4", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(5000)))
        engine.drain_now()
        res = execute_ddl(engine, add_col_spec("r4"), Policy.RELAXED)
        assert res.committed
        ws = res.job.txn.write_set
        assert len(ws) == 1
        table_id, arr, rid, _v = ws[0]
        assert arr is engine.catalog.array and rid == t.table_id

    def test_fail_after_commit_point_leaves_ddl_committed(self, engine,
                                                          monkeypatch):
        """An admitted writer that breaks the added constraint right
        after the DDL's own transaction is stamped has its write refused;
        the DDL stays committed, and so does the job's outcome."""
        t = engine.create_table("r5", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(50)))
        engine.drain_now()
        con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c1",
                            op="<", const=1000)
        spec = DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="r5",
                       constraints=(con,))
        real_stop_cdc = ddl._stop_cdc
        real_precommit = engine._precommit
        admitted, wrote = [], []

        def begin_admitted(job, stop, threads):
            if job.t_pre is not None:
                txn = engine.begin()
                engine.resolve_schema(txn, t)
                assert t.table_id in txn.admitted
                admitted.append(txn)
            real_stop_cdc(job, stop, threads)

        def precommit_then_violate(txn, *args):
            real_precommit(txn, *args)
            if admitted and not wrote:
                wrote.append(engine.write(admitted[0], t, 5, (5, 5000, 5)))

        monkeypatch.setattr(ddl, "_stop_cdc", begin_admitted)
        monkeypatch.setattr(engine, "_precommit", precommit_then_violate)
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert wrote == [False]
        assert res.committed and res.job.outcome == "committed"
        assert res.job.txn.status is TxnStatus.COMMITTED
        schema = engine.catalog.latest_committed_schema(t.table_id)
        assert con in schema.constraints
        engine.abort(admitted[0])
        engine.quiesce(timeout=5)


@contextlib.contextmanager
def pending_add_column(engine, table):
    """A hand-driven relaxed add_column, held in the pending state with an
    empty new array; revoked on exit."""
    from evodb.ddl import DdlJob
    spec = add_col_spec(table.name)
    job = DdlJob(engine, spec, Policy.RELAXED, 1, 1)
    job.table = table
    job.txn = engine.begin()
    job.old_schema = engine.catalog.latest_committed_schema(table.table_id)
    job.old_array = table.live_array
    job.new_array = core_store.IndirectionArray()
    job.pending_schema = build_new_schema(job.old_schema, spec, job.new_array)
    assert engine.catalog.install_schema_version(job.txn, table.table_id,
                                                 job.pending_schema)
    table.active_ddl = job
    with engine._commit_mutex:
        job.t_pre = engine.clock.reserve()
        engine.clock.publish(job.t_pre)
        engine.catalog.set_pending(table.table_id, job.t_pre)
    try:
        yield job
    finally:
        with engine._commit_mutex:
            engine.catalog.revoke_pending(table.table_id)
        table.active_ddl = None
        engine._abort_internal(job.txn)
        job.resolve("aborted")


class TestOverlapCheck:
    """The relaxed admission ("sneak peek") rule, through Engine.read and
    Engine.write of a transaction admitted under a real pending schema."""

    @pytest.fixture
    def job(self, engine, table3):
        with pending_add_column(engine, table3) as job:
            yield job

    def admitted_txn(self, engine, table):
        txn = engine.begin()
        engine.resolve_schema(txn, table)
        assert table.table_id in txn.admitted
        return txn

    def test_migrated_equal_ts_proceeds(self, engine, table3, job):
        old_head = core_store.latest_committed(table3.live_array, 1)
        core_store.install_migrated(job.new_array, 1,
                                    old_head.payload + (0,),
                                    old_head.commit_ts)
        txn = self.admitted_txn(engine, table3)
        assert engine.read(txn, table3, 1) == (1, 2, 3, 0)
        engine.abort(txn)

    def test_unmigrated_read_aborts(self, engine, table3, job):
        txn = self.admitted_txn(engine, table3)
        with pytest.raises(OverlapAbort):
            engine.read(txn, table3, 2)
        engine.abort(txn)

    def test_updated_but_not_replayed_aborts(self, engine, table3, job):
        old_head = core_store.latest_committed(table3.live_array, 3)
        # migrated at an old ts, then the old array moved ahead
        core_store.install_migrated(job.new_array, 3,
                                    old_head.payload + (0,), 1)
        txn = self.admitted_txn(engine, table3)
        with pytest.raises(OverlapAbort):
            engine.read(txn, table3, 3)
        engine.abort(txn)

    def test_blind_write_always_proceeds(self, engine, table3, job):
        txn = self.admitted_txn(engine, table3)
        assert engine.write(txn, table3, 19, (19, 0, 0, 0))
        engine.abort(txn)

    def test_pre_tpre_txn_uses_old(self, engine, table3):
        txn = engine.begin()  # begins before the job acquires t_pre
        with pending_add_column(engine, table3):
            assert engine.read(txn, table3, 0) == (0, 0, 0)
            assert table3.table_id not in txn.admitted
            engine.abort(txn)


class TestLazyPolicy:
    def test_read_migrates_on_access(self, engine, table3):
        res = execute_ddl(engine, add_col_spec(), Policy.LAZY)
        assert res.committed
        state = table3.lazy_state
        txn = engine.begin()
        payload = engine.read(txn, table3, 7)
        assert payload == (7, 14, 21, 0)
        head = core_store.latest_committed(table3.live_array, 7)
        assert len(head.payload) == 4  # physically migrated now

    def test_double_access_single_migration(self, engine, table3):
        res = execute_ddl(engine, add_col_spec(), Policy.LAZY)
        res.job.sweep_done.wait(timeout=10)
        state = table3.lazy_state
        migrated_after_sweep = state.migrated
        txn = engine.begin()
        engine.read(txn, table3, 3)
        engine.read(txn, table3, 3)
        assert state.migrated == migrated_after_sweep  # no re-migration

    def test_background_sweep_completes(self, engine, table3):
        res = execute_ddl(engine, add_col_spec(), Policy.LAZY,
                          scan_workers=2)
        assert res.job.sweep_done.wait(timeout=10)
        arr = table3.live_array
        for rid in range(table3.next_rid):
            v = core_store.latest_committed(arr, rid)
            assert len(v.payload) == 4

    def test_verify_kinds_rejected(self, engine, table3):
        con = ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2",
                            op="<", const=10)
        spec = DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="t3",
                       constraints=(con,))
        res = execute_ddl(engine, spec, Policy.LAZY)
        assert res.status == "aborted"
        assert res.reason == "unsupported_lazy_kind"


class TestBlockingPolicy:
    def test_uncontended_add_column(self):
        eng = Engine(locking_dml=True)
        try:
            t = eng.create_table("t3", INT3)
            eng.load_rows(t, ((i, 2 * i, 3 * i) for i in range(20)))
            eng.drain_now()
            res = execute_ddl(eng, add_col_spec(), Policy.BLOCKING)
            assert res.committed
            rows = eng.materialize(t)
            assert all(len(p) == 4 for p in rows.values())
        finally:
            eng.close()

    def test_dml_blocks_for_the_duration(self):
        eng = Engine(locking_dml=True)
        try:
            t = eng.create_table("t3", INT3)
            eng.load_rows(t, ((i, i, i) for i in range(50_000)))
            eng.drain_now()
            committed_during = []
            stop = threading.Event()
            started = threading.Event()

            def dml():
                started.set()
                while not stop.is_set():
                    txn = eng.begin()
                    got = eng.resolve_schema(txn, t)
                    vals = (5, 1, 1) + got[0].defaults()[3:]
                    if eng.write(txn, t, 5, vals):
                        if eng.commit(txn) is not TxnStatus.ABORTED:
                            committed_during.append(txn.commit_ts)
                    else:
                        eng.abort(txn)

            th = threading.Thread(target=dml, daemon=True)
            th.start()
            started.wait()
            time.sleep(0.05)
            res = execute_ddl(eng, add_col_spec(), Policy.BLOCKING)
            stop.set()
            th.join()
            assert res.committed
            assert committed_during
            # commits never land inside the exclusive-lock window: the DDL
            # transaction begins only after it holds the writer lock, and
            # DML holds its reader lock through commit
            lo, hi = res.job.txn.begin_ts, res.commit_ts
            inside = [ts for ts in committed_during if lo <= ts <= hi]
            assert inside == []
        finally:
            eng.close()


class TestCreateIndex:
    def test_builds_complete_index(self, engine):
        t = engine.create_table("ix", INT3)  # no index yet
        engine.load_rows(t, ((i, i % 7, i) for i in range(100)))
        engine.drain_now()
        spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ix",
                       index_cols=("c0",))
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert res.committed
        index = t.indexes["primary"]
        assert len(index) == 100
        from evodb.txn import encode_key
        assert index.lookup(encode_key((42,))) == 42

    def test_insert_during_build_lands_in_index(self, engine):
        t = engine.create_table("ix2", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(30_000)))
        engine.drain_now()
        inserted = []
        stop = threading.Event()

        def inserter():
            n = 30_000
            while not stop.is_set():
                txn = engine.begin()
                rid = engine.insert(txn, t, (n, 0, 0))
                if rid is not None and \
                        engine.commit(txn) is not TxnStatus.ABORTED:
                    inserted.append((n, rid))
                    n += 1
                time.sleep(0.001)

        th = threading.Thread(target=inserter, daemon=True)
        th.start()
        spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ix2",
                       index_cols=("c0",))
        res = execute_ddl(engine, spec, Policy.RELAXED)
        stop.set()
        th.join()
        assert res.committed
        assert inserted, "no insert landed during the build window"
        from evodb.txn import encode_key
        index = t.indexes["primary"]
        for key, rid in inserted:
            assert index.lookup(encode_key((key,))) == rid

    @pytest.mark.parametrize("policy", [Policy.BLOCKING, Policy.RELAXED])
    def test_deleted_row_does_not_hide_live_row_with_its_key(self, policy):
        eng = Engine(locking_dml=(policy is Policy.BLOCKING))
        try:
            t = eng.create_table("ix4", INT3)
            eng.load_rows(t, [(5, 0, 0), (5, 1, 1)])
            txn = eng.begin()
            assert eng.delete(txn, t, 0)
            eng.commit(txn)
            eng.drain_now()
            spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ix4",
                           index_cols=("c0",))
            res = execute_ddl(eng, spec, policy)
            assert res.committed, res.reason
            from evodb.txn import encode_key
            assert t.indexes["primary"].snapshot() == {encode_key((5,)): 1}
        finally:
            eng.close()

    def test_duplicate_key_aborts(self, engine):
        t = engine.create_table("ix3", INT3)
        engine.load_rows(t, [(1, 0, 0), (1, 1, 1)])
        engine.drain_now()
        spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ix3",
                       index_cols=("c0",))
        res = execute_ddl(engine, spec, Policy.RELAXED)
        assert res.status == "aborted"
        assert res.reason == "incompatible_data"
        assert "primary" not in t.indexes

    @pytest.mark.parametrize("updates", [
        [(0, (1_000_001, 0, 0)), (0, (1_000_002, 0, 0))],
        [(0, (1_000_001, 0, 0)), (1, (0, 1, 0))],
    ], ids=["key_moves_twice", "freed_key_taken"])
    def test_relaxed_build_follows_key_updates(self, engine, monkeypatch,
                                               updates):
        """Updates that change rid 0's key (and, in the second case, give
        its old key to rid 1) commit while the scan is past rid 0; the
        built index holds each record's latest key only."""
        t = engine.create_table("ixu", INT3)
        engine.load_rows(t, ((10 * i, i, 0) for i in range(50)))  # c1 = rid
        engine.drain_now()
        real = ddl.transform_record
        fired = []

        def update_past_rid0(payload, *args, **kwargs):
            if not fired and payload[1] == 1:
                fired.append(True)
                for rid, values in updates:
                    txn = engine.begin()
                    assert engine.write(txn, t, rid, values)
                    assert engine.commit(txn) is not TxnStatus.ABORTED
            return real(payload, *args, **kwargs)

        monkeypatch.setattr(ddl, "transform_record", update_past_rid0)
        spec = DdlSpec(kind=DdlOp.CREATE_INDEX, table="ixu",
                       index_cols=("c0",))
        res = execute_ddl(engine, spec, Policy.RELAXED, cdc_workers=2)
        assert fired and res.committed, res.reason
        engine.quiesce()
        from evodb.txn import encode_key
        assert t.indexes["primary"].snapshot() == {
            encode_key((row[0],)): rid
            for rid, row in engine.materialize(t).items()}


KEY_MIDDLE = [ColumnDef("a", DType.INT64, default=0),
              ColumnDef("k", DType.INT64, default=0),
              ColumnDef("b", DType.INT64, default=0)]


class TestDropColumnUnderIndex:
    """An index keeps its key positions, so a drop at or left of a key
    column must abort; one right of every key commits."""

    @pytest.mark.parametrize("drop", ["a", "k", "b"])
    @pytest.mark.parametrize("policy", [Policy.BLOCKING, Policy.BASIC,
                                        Policy.RELAXED])
    def test_primary_key_stays_sound(self, policy, drop):
        eng = Engine(locking_dml=(policy is Policy.BLOCKING))
        try:
            t = eng.create_table("dk", KEY_MIDDLE, key_cols=("k",))
            eng.load_rows(t, ((i, 1000 + i, 2 * i) for i in range(20)))
            eng.drain_now()
            res = execute_ddl(eng, DdlSpec(kind=DdlOp.DROP_COLUMN, table="dk",
                                           drop_column=drop), policy)
            if drop == "b":
                assert res.committed, res.reason
                row = (9, 2000)
            else:
                assert (res.status, res.reason) == ("aborted", "indexed_column")
                row = (9, 2000, 9)
            txn = eng.begin()
            assert eng.insert(txn, t, row) is not None
            assert eng.commit(txn) is not TxnStatus.ABORTED
            txn = eng.begin()
            assert eng.lookup(txn, t, (2000,)) == row
            assert eng.lookup(txn, t, (1005,))[:2] == (5, 1005)
            eng.abort(txn)
            dup = eng.begin()
            assert eng.insert(dup, t, row) is not None
            assert eng.commit(dup) is TxnStatus.ABORTED
        finally:
            eng.close()


def c2_below(bound):
    return ConstraintDef(ConstraintKind.COLUMN_VS_CONST, column="c2", op="<",
                         const=bound)


# one spec per DDL kind on t3 (20 rows (i, 2i, 3i)); "dim" and "lines" are
# the join and preaggregate sources
MATRIX = {
    "add_column": add_col_spec(),
    "drop_middle_column": DdlSpec(kind=DdlOp.DROP_COLUMN, table="t3",
                                  drop_column="c1"),
    "modify_column": DdlSpec(kind=DdlOp.MODIFY_COLUMN, table="t3",
                             column=ColumnDef("c2", DType.FLOAT64)),
    "add_constraint_pass": DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="t3",
                                   constraints=(c2_below(1000),)),
    "add_constraint_fail": DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="t3",
                                   constraints=(c2_below(30),)),
    "add_column_with_constraint": DdlSpec(
        kind=DdlOp.ADD_COLUMN_WITH_CONSTRAINT, table="t3",
        column=ColumnDef("c3", DType.INT64, default=5),
        constraints=(ConstraintDef(ConstraintKind.COLUMN_VS_CONST,
                                   column="c3", op="<", const=10),)),
    "create_index": DdlSpec(kind=DdlOp.CREATE_INDEX, table="t3",
                            index_cols=("c0",)),
    "create_table_as": DdlSpec(kind=DdlOp.CREATE_TABLE_AS, table="t3",
                               out_table="t3_as", select_cols=("c0", "c2")),
    "split_table": DdlSpec(kind=DdlOp.SPLIT_TABLE, table="t3",
                           out_split=(("t3_a", ("c0", "c1")),
                                      ("t3_b", ("c0", "c2")))),
    "join_table": DdlSpec(kind=DdlOp.JOIN_TABLE, table="t3",
                          out_table="t3_join", source_table="dim",
                          local_keys=("c0",), join_cols=("w",)),
    "preaggregate": DdlSpec(kind=DdlOp.PREAGGREGATE, table="t3",
                            column=ColumnDef("total", DType.FLOAT64,
                                             default=0.0),
                            source_table="lines", local_keys=("c0",),
                            agg_source_col="amt"),
}

# kinds a policy rejects before touching anything
UNSUPPORTED = {
    Policy.BASIC: {"create_index", "create_table_as", "split_table",
                   "join_table"},
    Policy.LAZY: set(MATRIX) - {"add_column"},
}


def _tables_state(engine, tables):
    """table name -> (quiescent rows, {index name: index contents})."""
    return {t.name: (engine.materialize(t),
                     {name: ix.snapshot() for name, ix in t.indexes.items()})
            for t in tables}


@functools.lru_cache(maxsize=None)
def ddl_outcome(policy, name):
    """(status, reason, state before, state after) of one matrix DDL run
    with no concurrent DML; the state covers t3 and every table the DDL
    produced."""
    eng = Engine(locking_dml=(policy is Policy.BLOCKING))
    try:
        t = eng.create_table("t3", INT3)
        eng.load_rows(t, ((i, 2 * i, 3 * i) for i in range(20)))
        dim = eng.create_table("dim", [ColumnDef("k", DType.INT64, default=0),
                                       ColumnDef("w", DType.INT64, default=0)],
                               key_cols=("k",))
        eng.load_rows(dim, ((k, 100 + k) for k in range(0, 20, 2)))
        lines = eng.create_table(
            "lines", [ColumnDef("k", DType.INT64, default=0),
                      ColumnDef("n", DType.INT64, default=0),
                      ColumnDef("amt", DType.FLOAT64, default=0.0)],
            key_cols=("k", "n"))
        eng.load_rows(lines, ((k, n, 1.5 * n) for k in range(5)
                              for n in range(1, k + 1)))
        eng.drain_now()
        before = _tables_state(eng, [t])
        res = execute_ddl(eng, MATRIX[name], policy)
        if policy is Policy.LAZY and res.committed:
            assert res.job.sweep_done.wait(timeout=10)
        eng.quiesce()
        after = _tables_state(eng, [t] + res.job.out_tables)
        return res.status, res.reason, before, after
    finally:
        eng.close()


class TestPolicyMatrix:
    """Every DDL kind under every policy, compared at quiescence with the
    blocking policy (no concurrent DML)."""

    def test_blocking_outcomes(self):
        for name in MATRIX:
            status, reason, before, after = ddl_outcome(Policy.BLOCKING, name)
            if name == "add_constraint_fail":
                assert (status, reason) == ("aborted", "incompatible_data")
                assert after == before
            else:
                assert status == "committed", (name, reason)
        _, _, _, after = ddl_outcome(Policy.BLOCKING, "create_index")
        assert len(after["t3"][1]["primary"]) == 20
        _, _, _, after = ddl_outcome(Policy.BLOCKING, "split_table")
        assert after["t3_a"][0][7] == (7, 14) and after["t3_b"][0][7] == (7, 21)

    @pytest.mark.parametrize("name", list(MATRIX))
    @pytest.mark.parametrize("policy", [Policy.BASIC, Policy.RELAXED,
                                        Policy.LAZY])
    def test_policy_matches_blocking(self, policy, name):
        status, reason, before, after = ddl_outcome(policy, name)
        if name in UNSUPPORTED.get(policy, ()):
            assert (status, reason) == ("aborted",
                                        f"unsupported_{policy.value}_kind")
            assert after == before
        else:
            b_status, b_reason, _, expected = ddl_outcome(Policy.BLOCKING, name)
            assert (status, reason) == (b_status, b_reason)
            assert after == expected

    @pytest.mark.parametrize("policy", list(Policy))
    def test_add_column_ignores_constraints_it_does_not_add(self, policy):
        """Rows loaded past a constraint the table was created with do not
        stop a DDL that adds no constraint: a DDL verifies only its own."""
        eng = Engine(locking_dml=(policy is Policy.BLOCKING))
        try:
            t = eng.create_table("tc", INT3, constraints=(c2_below(30),))
            eng.load_rows(t, ((i, 2 * i, 3 * i) for i in range(20)))
            eng.drain_now()
            res = execute_ddl(eng, add_col_spec("tc"), policy)
            assert res.committed, res.reason
            if policy is Policy.LAZY:
                assert res.job.sweep_done.wait(timeout=10)
            eng.quiesce()
            rows = eng.materialize(t)
            assert rows[19] == (19, 38, 57, 0) and len(rows) == 20
        finally:
            eng.close()

    def test_admitted_write_ignores_constraints_it_does_not_add(self,
                                                                 engine):
        """The same rule for a write admitted under the pending schema."""
        t = engine.create_table("tc", INT3, constraints=(c2_below(30),))
        engine.load_rows(t, ((i, 2 * i, 3 * i) for i in range(20)))
        engine.drain_now()
        with pending_add_column(engine, t) as job:
            txn = engine.begin()
            engine.resolve_schema(txn, t)
            assert t.table_id in txn.admitted
            assert engine.write(txn, t, 1, (1, 2, 99, 0))
            assert not job.failed
            engine.abort(txn)


class TestBenchmarkHooks:
    """The benchmark's traced run wraps ``ddl.transform_record``, samples
    ``ddl.job_worker_pos`` for CDC lag and finds scan threads by their
    target name; a hook that goes stale makes its metric read 0."""

    def test_relaxed_scan_uses_module_hooks(self, engine, monkeypatch):
        t = engine.create_table("hk", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(2000)))
        engine.drain_now()
        seen = {"calls": 0, "threads": set(), "pos": None}
        real = ddl.transform_record

        def counting(*args, **kwargs):
            seen["calls"] += 1
            seen["threads"].add(threading.current_thread().name)
            if seen["pos"] is None:
                seen["pos"] = list(ddl.job_worker_pos(t.active_ddl))
            return real(*args, **kwargs)

        monkeypatch.setattr(ddl, "transform_record", counting)
        res = execute_ddl(engine, add_col_spec("hk"), Policy.RELAXED,
                          scan_workers=1, cdc_workers=2)
        assert res.committed
        job = res.job
        assert seen["calls"] >= job.scan_bound == 2000
        assert seen["threads"] and \
            all("_scan_worker" in name for name in seen["threads"])
        # one position per CDC worker, advanced by the workers themselves
        assert len(seen["pos"]) == 2
        assert min(seen["pos"]) >= job.cdc_start_lsn
        assert ddl.job_worker_pos(job) is job.worker_pos
        assert min(job.worker_pos) >= job.cdc_end_lsn

    def test_cdc_reads_the_log_through_record(self, engine, monkeypatch):
        """The traced run times change-data-capture reads by wrapping
        ``engine.log.record`` on the instance."""
        t = engine.create_table("hk2", INT3)
        engine.load_rows(t, ((i, i, i) for i in range(2000)))
        engine.drain_now()
        readers = []
        real_record = engine.log.record

        def counting_record(lsn):
            readers.append(threading.current_thread().name)
            return real_record(lsn)

        engine.log.record = counting_record
        real = ddl.transform_record
        updated = []

        def update_once(*args, **kwargs):
            # one committed update while the scan runs gives CDC a record
            if not updated:
                txn = engine.begin()
                assert engine.write(txn, t, 0, (0, 9, 9))
                updated.append(engine.commit(txn))
            return real(*args, **kwargs)

        monkeypatch.setattr(ddl, "transform_record", update_once)
        res = execute_ddl(engine, add_col_spec("hk2"), Policy.RELAXED)
        assert res.committed and updated[0] is not TxnStatus.ABORTED
        assert res.job.cdc_end_lsn > res.job.cdc_start_lsn
        assert any("_cdc_worker" in name for name in readers)

