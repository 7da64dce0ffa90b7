import threading

import pytest

from evodb import core_store
from evodb.core_store import (
    TOMBSTONE,
    IndirectionArray,
    KeyIndex,
    RidRangeError,
    TableHandle,
    Version,
)

from conftest import StubTxn


def committed(payload, ts, next=None):
    return Version(payload, commit_ts=ts, next=next)


def chain_of(*pairs):
    """Build an array with one rid whose chain is the given
    (payload, ts) pairs, newest first; ts None means uncommitted."""
    arr = IndirectionArray()
    arr.ensure(0)
    head = None
    for payload, ts in reversed(pairs):
        if ts is None:
            head = Version(payload, owner_txn=999, next=head)
        else:
            head = Version(payload, commit_ts=ts, next=head)
    arr._set(0, head)
    return arr


class TestAllocateRid:
    def test_first_allocation_is_zero(self):
        t = TableHandle(1, "t")
        assert t.allocate_rid() == 0

    def test_concurrent_allocations_distinct(self):
        t = TableHandle(1, "t")
        got = []
        lock = threading.Lock()

        def alloc():
            r = t.allocate_rid()
            with lock:
                got.append(r)

        threads = [threading.Thread(target=alloc) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert sorted(got) == [0, 1]
        assert t.next_rid == 2

    def test_thousand_sequential(self):
        t = TableHandle(1, "t")
        for _ in range(1000):
            t.allocate_rid()
        assert t.next_rid == 1000
        assert t.live_array.covers(999)


class TestReadVisible:
    def test_newest_below_begin(self):
        arr = chain_of((("v2",), 500), (("v1",), 100))
        v, is_latest = core_store.read_visible(600, arr, 0)
        assert v.commit_ts == 500 and is_latest

    def test_older_snapshot_sees_older_version(self):
        arr = chain_of((("v2",), 500), (("v1",), 100))
        v, is_latest = core_store.read_visible(200, arr, 0)
        assert v.commit_ts == 100 and not is_latest

    def test_empty_chain(self):
        arr = IndirectionArray()
        arr.ensure(0)
        assert core_store.read_visible(10_000, arr, 0) is None

    def test_equal_ts_invisible(self):
        # strict inequality: a version committed exactly at begin_ts is
        # not visible
        arr = chain_of(((1,), 300))
        assert core_store.read_visible(300, arr, 0) is None

    def test_out_of_range_rid(self):
        arr = IndirectionArray()
        with pytest.raises(RidRangeError):
            core_store.read_visible(5, arr, 3)


class TestInstallVersion:
    def test_visible_head_accepts(self):
        arr = chain_of(((1,), 100))
        txn = StubTxn(7, begin_ts=200)
        ok = core_store.install_version(txn, arr, 0, Version((2,), owner_txn=7), 1)
        assert ok
        head = arr.head(0)
        assert not head.is_committed and head.next.commit_ts == 100
        assert txn.write_set == [(1, arr, 0, head)]

    def test_newer_head_rejects(self):
        arr = chain_of(((1,), 300))
        txn = StubTxn(7, begin_ts=200)
        assert not core_store.install_version(txn, arr, 0,
                                              Version((2,), owner_txn=7))

    def test_uncommitted_foreign_head_rejects(self):
        arr = chain_of(((9,), None), ((1,), 100))
        txn = StubTxn(7, begin_ts=200)
        assert not core_store.install_version(txn, arr, 0,
                                              Version((2,), owner_txn=7))

    def test_own_uncommitted_head_overwrites_in_place(self):
        arr = chain_of(((1,), 100))
        txn = StubTxn(7, begin_ts=200)
        assert core_store.install_version(txn, arr, 0, Version((2,), owner_txn=7))
        assert core_store.install_version(txn, arr, 0, Version((3,), owner_txn=7))
        head = arr.head(0)
        assert head.payload == (3,)
        assert len(txn.write_set) == 1
        core_store.check_chain(arr, 0)


class TestLatestCommitted:
    def test_skips_uncommitted_head(self):
        arr = chain_of(((9,), None), ((1,), 100))
        assert core_store.latest_committed(arr, 0).commit_ts == 100

    def test_committed_head(self):
        arr = chain_of(((2,), 500), ((1,), 100))
        assert core_store.latest_committed(arr, 0).commit_ts == 500

    def test_only_uncommitted(self):
        arr = chain_of(((9,), None))
        assert core_store.latest_committed(arr, 0) is None


class TestSnapshotSize:
    def test_counts_allocated(self):
        t = TableHandle(1, "t")
        for _ in range(10):
            t.allocate_rid()
        assert t.next_rid == 10

    def test_unchanged_by_later_inserts(self):
        t = TableHandle(1, "t")
        for _ in range(10):
            t.allocate_rid()
        size = t.next_rid
        for _ in range(5):
            t.allocate_rid()
        assert size == 10
        assert t.next_rid == 15

    def test_empty(self):
        assert TableHandle(1, "t").next_rid == 0


class TestSwapArray:
    def test_new_accesses_resolve_in_new_array(self):
        t = TableHandle(1, "t")
        rid = t.allocate_rid()
        old = t.live_array
        old._set(rid, committed((1,), 10))
        new = IndirectionArray()
        new.ensure(rid)
        new._set(rid, committed((1, 0), 10))
        t.swap_array(new)
        assert t.live_array is new
        assert t.live_array.head(rid).payload == (1, 0)

    def test_old_array_stays_readable(self):
        t = TableHandle(1, "t")
        rid = t.allocate_rid()
        old = t.live_array
        old._set(rid, committed((1,), 10))
        t.swap_array(IndirectionArray())
        # an in-flight reader holding the old array still resolves reads
        assert core_store.read_visible(100, old, rid)[0].payload == (1,)

    def test_new_array_covers_allocated_rids(self):
        t = TableHandle(1, "t")
        for _ in range(7):
            t.allocate_rid()
        new = IndirectionArray()
        t.swap_array(new)
        assert new.covers(6)


class TestKeyIndex:
    def test_insert_lookup(self):
        idx = KeyIndex()
        assert idx.insert(b"k", 7)
        assert idx.lookup(b"k") == 7

    def test_duplicate_insert_rejected(self):
        idx = KeyIndex()
        assert idx.insert(b"k", 7)
        assert not idx.insert(b"k", 8)
        assert idx.lookup(b"k") == 7

    def test_absent_key(self):
        assert KeyIndex().lookup(b"nope") is None


class TestInstallMigrated:
    def test_inherits_timestamp(self):
        arr = IndirectionArray()
        assert core_store.install_migrated(arr, 0, (1, 0), 42)
        assert arr.head(0).commit_ts == 42

    def test_stale_discarded(self):
        arr = IndirectionArray()
        core_store.install_migrated(arr, 0, (2,), 70)
        assert not core_store.install_migrated(arr, 0, (1,), 50)
        assert arr.head(0).commit_ts == 70

    def test_newer_wins_over_older(self):
        arr = IndirectionArray()
        core_store.install_migrated(arr, 0, (1,), 50)
        assert core_store.install_migrated(arr, 0, (2,), 70)
        assert [ts for ts, _ in core_store.walk_committed(arr, 0)] == [70, 50]
        core_store.check_chain(arr, 0)

    def test_slides_beneath_uncommitted_head(self):
        arr = IndirectionArray()
        arr.ensure(0)
        arr._set(0, Version((9, 9), owner_txn=5))
        assert core_store.install_migrated(arr, 0, (1, 0), 40)
        head = arr.head(0)
        assert not head.is_committed
        assert head.next.commit_ts == 40
        core_store.check_chain(arr, 0)

    def test_slides_beneath_admitted_era_commits(self):
        # versions newer than the migration boundary stay above
        arr = IndirectionArray()
        core_store.install_migrated(arr, 0, (9, 9), 900)
        assert core_store.install_migrated(arr, 0, (1, 0), 40, newer_than=100)
        assert [ts for ts, _ in core_store.walk_committed(arr, 0)] == [900, 40]


class TestUnlinkAndChains:
    def test_unlink_head_restores(self):
        arr = chain_of(((1,), 100))
        txn = StubTxn(7, begin_ts=200)
        v = Version((2,), owner_txn=7)
        core_store.install_version(txn, arr, 0, v)
        assert core_store.unlink_version(arr, 0, v)
        assert arr.head(0).commit_ts == 100

    def test_chain_order_invariant_checker(self):
        arr = chain_of(((3,), 300), ((2,), 200), ((1,), 100))
        core_store.check_chain(arr, 0)
        bad = chain_of(((1,), 100), ((3,), 300))
        with pytest.raises(AssertionError):
            core_store.check_chain(bad, 0)

    def test_tombstone_flag(self):
        v = Version(TOMBSTONE, commit_ts=5)
        assert v.is_tombstone


class TestRaceOneRid:
    def test_single_winner_per_round(self):
        """Brute-force first-updater-wins: N threads race install on one
        RID; exactly one wins each round."""
        arr = IndirectionArray()
        arr.ensure(0)
        arr._set(0, committed((0,), 1))
        nthreads, rounds = 8, 300
        barrier = threading.Barrier(nthreads)
        wins = [0] * nthreads

        def racer(i):
            for r in range(rounds):
                barrier.wait()
                txn = StubTxn(1000 + i, begin_ts=10 + r)
                if core_store.install_version(txn, arr, 0,
                                              Version((i,), owner_txn=1000 + i)):
                    wins[i] += 1
                barrier.wait()
                if i == 0:
                    head = arr.head(0)
                    head.commit_ts = 10 + r  # settle the round
                    head.owner_txn = None
                barrier.wait()

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == rounds
        core_store.check_chain(arr, 0)
