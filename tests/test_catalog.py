import pytest

from evodb import ColumnDef, DType, Engine
from evodb import core_store
from evodb.catalog import CatalogError, SchemaState, SchemaVersion

from conftest import INT3


def test_initial_schema_ts_and_visibility(engine):
    t = engine.create_table("a", INT3)
    engine.drain_now()
    head = engine.catalog.head_version(t.table_id)
    assert head.commit_ts == 1  # first commit on a fresh engine
    txn = engine.begin()
    assert txn.begin_ts == 2
    schema, is_latest = engine.catalog.get_visible_schema(txn, t.table_id)
    assert schema.table_name == "a" and is_latest


def test_schema_chain_visibility_old_snapshot(engine, table3):
    """A transaction that began before a schema change keeps resolving the
    old version; a later one gets the new version."""
    old_txn = engine.begin()
    from evodb.ddl import DdlOp, DdlSpec, Policy, execute_ddl
    spec = DdlSpec(kind=DdlOp.ADD_COLUMN, table="t3",
                   column=ColumnDef("c3", DType.INT64, default=0))
    res = execute_ddl(engine, spec, Policy.RELAXED)
    assert res.committed
    schema_old, latest_old = engine.catalog.get_visible_schema(
        old_txn, table3.table_id)
    assert schema_old.ncols == 3 and not latest_old
    new_txn = engine.begin()
    schema_new, latest_new = engine.catalog.get_visible_schema(
        new_txn, table3.table_id)
    assert schema_new.ncols == 4 and latest_new


def test_install_schema_version_first_updater(engine, table3):
    tid = table3.table_id
    old = engine.catalog.latest_committed_schema(tid)
    t1 = engine.begin()
    s1 = SchemaVersion(tid, "t3", old.columns, data_array=old.data_array)
    assert engine.catalog.install_schema_version(t1, tid, s1)
    # concurrent second install loses first-updater-wins
    t2 = engine.begin()
    s2 = SchemaVersion(tid, "t3", old.columns, data_array=old.data_array)
    assert not engine.catalog.install_schema_version(t2, tid, s2)
    engine.abort(t1)
    engine.abort(t2)


def test_install_schema_stale_snapshot_rejected(engine, table3):
    tid = table3.table_id
    stale = engine.begin()
    t1 = engine.begin()
    old = engine.catalog.latest_committed_schema(tid)
    s1 = SchemaVersion(tid, "t3", old.columns, data_array=old.data_array)
    assert engine.catalog.install_schema_version(t1, tid, s1)
    assert engine.commit(t1).name in ("PRE_COMMITTED", "COMMITTED")
    engine.drain_now()
    s2 = SchemaVersion(tid, "t3", old.columns, data_array=old.data_array)
    assert not engine.catalog.install_schema_version(stale, tid, s2)
    engine.abort(stale)


def test_pending_lifecycle(engine, table3):
    tid = table3.table_id
    old = engine.catalog.latest_committed_schema(tid)
    txn = engine.begin()
    s = SchemaVersion(tid, "t3", old.columns + (ColumnDef("x", DType.INT64, default=1),),
                      data_array=core_store.IndirectionArray())
    assert engine.catalog.install_schema_version(txn, tid, s)
    t_pre = engine.clock.reserve()
    engine.clock.publish(t_pre)
    engine.catalog.set_pending(tid, t_pre)

    # a new transaction resolves the pending schema
    late = engine.begin()
    got, _ = engine.catalog.get_visible_schema(late, tid)
    assert got is s and got.state is SchemaState.PENDING
    # at most one pending version per table: a second DDL cannot install
    other = engine.begin()
    assert not engine.catalog.install_schema_version(
        other, tid, SchemaVersion(tid, "t3", old.columns,
                                  data_array=old.data_array))

    # revoke restores the old committed schema
    engine.catalog.revoke_pending(tid)
    late2 = engine.begin()
    got2, latest2 = engine.catalog.get_visible_schema(late2, tid)
    assert got2 is old and latest2
    engine.abort(other)


def test_finalize_restamps_and_couples_array(engine, table3):
    tid = table3.table_id
    old = engine.catalog.latest_committed_schema(tid)
    new_arr = core_store.IndirectionArray()
    txn = engine.begin()
    s = SchemaVersion(tid, "t3", old.columns, data_array=new_arr)
    assert engine.catalog.install_schema_version(txn, tid, s)
    t_pre = engine.clock.reserve()
    engine.clock.publish(t_pre)
    engine.catalog.set_pending(tid, t_pre)
    final_ts = engine.clock.reserve()
    engine.clock.publish(final_ts)
    engine.catalog.finalize_schema(tid, final_ts)
    table3.swap_array(new_arr)

    head = engine.catalog.head_version(tid)
    assert head.commit_ts == final_ts
    assert head.payload.state is SchemaState.COMMITTED
    fresh = engine.begin()
    got, latest = engine.catalog.get_visible_schema(fresh, tid)
    assert got is s and latest
    assert got.data_array is table3.live_array


def test_finalized_schema_stays_visible_to_pending_window_readers(engine):
    """A transaction that begins while the schema is pending and resolves
    it only after finalize restamped it keeps the new version: the old one
    no longer receives the writes admitted transactions commit."""
    t = engine.create_table("one", [ColumnDef("c0", DType.INT64, default=0)])
    tid = t.table_id
    old = engine.catalog.latest_committed_schema(tid)
    new_arr = core_store.IndirectionArray()
    ddl = engine.begin()
    s = SchemaVersion(tid, "one", old.columns + (ColumnDef("c1", DType.INT64,
                                                           default=0),),
                      data_array=new_arr)
    assert engine.catalog.install_schema_version(ddl, tid, s)
    before = engine.begin()
    t_pre = engine.clock.reserve()
    engine.catalog.set_pending(tid, t_pre)
    engine.clock.publish(t_pre)
    reader = engine.begin()
    cts = engine.clock.reserve()
    engine.catalog.finalize_schema(tid, cts)
    engine.clock.publish(cts)
    assert (t_pre, reader.begin_ts, cts) == (2, 3, 3)

    got, latest = engine.catalog.get_visible_schema(reader, tid)
    assert got is s and got.ncols == 2 and latest
    assert engine.catalog.was_pending_at(tid, s, reader.begin_ts)
    # a snapshot from before the pending window keeps the old version
    got_old, latest_old = engine.catalog.get_visible_schema(before, tid)
    assert got_old is old and not latest_old
    fresh = engine.begin()
    assert engine.catalog.get_visible_schema(fresh, tid) == (s, True)
    assert not engine.catalog.was_pending_at(tid, s, fresh.begin_ts)
    for txn in (before, reader, fresh):
        engine.abort(txn)


def test_catalog_obeys_core_chain_invariants(engine, table3):
    """The catalog is an ordinary table: generic chain checks hold on its
    own array."""
    for rid in range(engine.catalog._next_table_id):
        if engine.catalog.array.covers(rid):
            core_store.check_chain(engine.catalog.array, rid)


def test_unknown_table_raises(engine):
    txn = engine.begin()
    with pytest.raises(CatalogError):
        engine.catalog.get_visible_schema(txn, 999)


def test_duplicate_column_names_rejected():
    with pytest.raises(ValueError):
        SchemaVersion(1, "x", (ColumnDef("a", DType.INT64),
                               ColumnDef("a", DType.INT64)))
