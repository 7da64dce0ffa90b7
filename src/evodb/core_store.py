"""RID-addressed multi-versioned record storage.

A table is an indirection array indexed by record id (RID); each entry
points at the head of an immutable chain of versions in new-to-old order.
Readers traverse chains without locks (versions never mutate once linked,
except commit-timestamp stamping which is monotonic None -> ts); writers
install new heads through a compare-and-exchange contract backed by
per-RID stripe locks.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Iterator, Optional

Rid = int
Timestamp = int

CHUNK_BITS = 12
CHUNK_SIZE = 1 << CHUNK_BITS

# Desk-scale cap on RIDs per table; allocation past this raises.
MAX_RIDS = 1 << 27


class StoreError(Exception):
    """Base class for storage errors."""


class RidRangeError(StoreError):
    """RID outside the allocated range."""


class CapacityError(StoreError):
    """Table grew past the desk-scale RID cap."""


class DType(Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    VARCHAR = "varchar"


class _Tombstone:
    """Marker payload for deleted records."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()


def is_tombstone(payload: Any) -> bool:
    return payload is TOMBSTONE


class Version:
    """One record version on a chain.

    ``commit_ts`` is None while the version is uncommitted; ``owner_txn``
    identifies the writing transaction and stays meaningful only until the
    version commits. ``next`` links to the next-older version.
    """

    __slots__ = ("payload", "commit_ts", "owner_txn", "next")

    def __init__(self, payload: Any, *, commit_ts: Optional[Timestamp] = None,
                 owner_txn: Optional[int] = None, next: Optional["Version"] = None):
        self.payload = payload
        self.commit_ts = commit_ts
        self.owner_txn = owner_txn
        self.next = next

    @property
    def is_committed(self) -> bool:
        return self.commit_ts is not None

    @property
    def is_tombstone(self) -> bool:
        return self.payload is TOMBSTONE

    def chain(self) -> Iterator["Version"]:
        v: Optional[Version] = self
        while v is not None:
            yield v
            v = v.next

    def __repr__(self) -> str:
        state = f"ts={self.commit_ts}" if self.is_committed else f"uncommitted(txn={self.owner_txn})"
        return f"<Version {state} {self.payload!r}>"


_N_STRIPES = 64


class IndirectionArray:
    """Growable RID-indexed array of atomically replaceable chain heads.

    Storage is chunked so growth never moves existing entries; entry
    replacement goes through per-RID stripe locks, giving the
    compare-and-exchange contract without a global lock.
    """

    def __init__(self) -> None:
        self._chunks: list[list[Optional[Version]]] = []
        self._grow_lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(_N_STRIPES))

    def _stripe(self, rid: Rid) -> threading.Lock:
        return self._stripes[rid & (_N_STRIPES - 1)]

    def ensure(self, rid: Rid) -> None:
        """Grow the chunked storage to cover ``rid`` (entry stays empty)."""
        if rid >= MAX_RIDS:
            raise CapacityError(f"rid {rid} exceeds cap {MAX_RIDS}")
        need = (rid >> CHUNK_BITS) + 1
        if len(self._chunks) >= need:
            return
        with self._grow_lock:
            while len(self._chunks) < need:
                self._chunks.append([None] * CHUNK_SIZE)

    def covers(self, rid: Rid) -> bool:
        return 0 <= rid < len(self._chunks) * CHUNK_SIZE

    def head(self, rid: Rid) -> Optional[Version]:
        if rid < 0 or (rid >> CHUNK_BITS) >= len(self._chunks):
            raise RidRangeError(f"rid {rid} not allocated")
        return self._chunks[rid >> CHUNK_BITS][rid & (CHUNK_SIZE - 1)]

    def _set(self, rid: Rid, version: Optional[Version]) -> None:
        self._chunks[rid >> CHUNK_BITS][rid & (CHUNK_SIZE - 1)] = version

    def compare_exchange(self, rid: Rid, expected: Optional[Version],
                         new: Optional[Version]) -> bool:
        """Atomically replace the entry iff it still equals ``expected``."""
        with self._stripe(rid):
            if self.head(rid) is not expected:
                return False
            self._set(rid, new)
            return True

    def locked(self, rid: Rid) -> threading.Lock:
        """Stripe lock for callers that need a multi-step atomic section."""
        return self._stripe(rid)


class KeyIndex:
    """Key-bytes -> RID map with internal mutual exclusion."""

    def __init__(self, name: str = "", key_cols: tuple[int, ...] = ()) -> None:
        self.name = name
        self.key_cols = key_cols
        self._map: dict[bytes, Rid] = {}
        self._lock = threading.Lock()

    def insert(self, key: bytes, rid: Rid) -> bool:
        with self._lock:
            if key in self._map:
                return False
            self._map[key] = rid
            return True

    def lookup(self, key: bytes) -> Optional[Rid]:
        return self._map.get(key)

    def delete(self, key: bytes) -> bool:
        with self._lock:
            return self._map.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._map)

    def snapshot(self) -> dict[bytes, Rid]:
        with self._lock:
            return dict(self._map)


class RwLock:
    """Writer-preference reader/writer lock (used only by the blocking
    migration policy)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class TableHandle:
    """Shared per-table state: the live indirection array, the RID
    allocator (table-scoped so RIDs stay unique across array swaps), key
    indexes, and the slot for an in-flight schema-evolution job."""

    def __init__(self, table_id: int, name: str) -> None:
        self.table_id = table_id
        self.name = name
        self.live_array = IndirectionArray()
        self.indexes: dict[str, KeyIndex] = {}
        self.rwlock = RwLock()
        self.active_ddl: Any = None  # DdlJob while one is running
        self.lazy_state: Any = None  # LazyState after a lazy schema change
        self._alloc_lock = threading.Lock()
        self._next_rid: Rid = 0

    def allocate_rid(self) -> Rid:
        with self._alloc_lock:
            rid = self._next_rid
            self._next_rid += 1
            self.live_array.ensure(rid)
            return rid

    @property
    def next_rid(self) -> Rid:
        """Allocated RID count: the bound of every scan of the table."""
        return self._next_rid

    def swap_array(self, new_array: IndirectionArray) -> IndirectionArray:
        """Make ``new_array`` the live array. The old array stays readable
        through any schema version that still references it."""
        with self._alloc_lock:
            old = self.live_array
            new_array.ensure(max(self._next_rid - 1, 0))
            self.live_array = new_array
            return old


def read_visible(begin_ts: Timestamp, array: IndirectionArray,
                 rid: Rid) -> Optional[tuple[Version, bool]]:
    """Newest version with commit_ts < begin_ts, plus whether it is the
    newest committed version on the chain. None if nothing qualifies."""
    head = array.head(rid)
    newest_committed: Optional[Version] = None
    for v in (head.chain() if head is not None else ()):
        if not v.is_committed:
            continue
        if newest_committed is None:
            newest_committed = v
        if v.commit_ts < begin_ts:
            return v, v is newest_committed
    return None


def latest_committed(array: IndirectionArray, rid: Rid) -> Optional[Version]:
    """Newest committed version, skipping an uncommitted head."""
    head = array.head(rid)
    for v in (head.chain() if head is not None else ()):
        if v.is_committed:
            return v
    return None


def install_version(txn, array: IndirectionArray, rid: Rid,
                    new_version: Version, table_id: int = -1) -> bool:
    """First-updater-wins head install.

    Succeeds iff the chain head is absent, or committed with a timestamp
    visible to ``txn``. An uncommitted head owned by ``txn`` itself is
    overwritten in place (a transaction holds at most one uncommitted
    version per record). On success the write lands in ``txn.write_set``.
    """
    assert not new_version.is_committed and new_version.owner_txn == txn.txn_id
    with array.locked(rid):
        head = array.head(rid)
        if head is not None:
            if not head.is_committed:
                if head.owner_txn == txn.txn_id:
                    head.payload = new_version.payload
                    return True
                return False
            if head.commit_ts >= txn.begin_ts:
                return False
        new_version.next = head
        array._set(rid, new_version)
    txn.write_set.append((table_id, array, rid, new_version))
    return True


def install_migrated(array: IndirectionArray, rid: Rid, payload: Any,
                     commit_ts: Timestamp,
                     newer_than: Optional[Timestamp] = None) -> bool:
    """Install a migrated/replayed version carrying an inherited commit
    timestamp, keeping chains ordered.

    The version slides beneath an uncommitted head and beneath any
    committed version newer than ``newer_than`` (the migration boundary),
    and is discarded as stale if an equal-or-newer committed version at or
    below that boundary already exists. Returns True if installed.
    """
    array.ensure(rid)
    with array.locked(rid):
        anchor: Optional[Version] = None
        cur = array.head(rid)
        while cur is not None and (
            not cur.is_committed
            or (newer_than is not None and cur.commit_ts > newer_than)
        ):
            anchor = cur
            cur = cur.next
        if cur is not None and cur.commit_ts >= commit_ts:
            return False
        v = Version(payload, commit_ts=commit_ts, next=cur)
        if anchor is None:
            array._set(rid, v)
        else:
            anchor.next = v
    return True


def replace_in_place(array: IndirectionArray, rid: Rid, old: Version,
                     new_payload: Any) -> bool:
    """Swap a committed version's payload by substituting a fresh node at
    the same chain position with the same timestamp (lazy migration).

    Fails (returns False) if the chain changed around ``old``.
    """
    with array.locked(rid):
        replacement = Version(new_payload, commit_ts=old.commit_ts, next=old.next)
        head = array.head(rid)
        if head is old:
            array._set(rid, replacement)
            return True
        for v in (head.chain() if head is not None else ()):
            if v.next is old:
                v.next = replacement
                return True
    return False


def unlink_version(array: IndirectionArray, rid: Rid, version: Version) -> bool:
    """Remove ``version`` from the chain (abort path). Normally it is the
    head; a mid-chain unlink rewrites the predecessor link."""
    with array.locked(rid):
        head = array.head(rid)
        if head is version:
            array._set(rid, version.next)
            return True
        for v in (head.chain() if head is not None else ()):
            if v.next is version:
                v.next = version.next
                return True
    return False


def check_chain(array: IndirectionArray, rid: Rid) -> None:
    """Assert chain invariants: committed timestamps strictly decrease
    head-to-tail and at most one uncommitted version exists, at the head."""
    head = array.head(rid)
    last_ts: Optional[Timestamp] = None
    uncommitted = 0
    for i, v in enumerate(head.chain() if head is not None else ()):
        if not v.is_committed:
            uncommitted += 1
            assert i == 0, f"uncommitted version below head at rid {rid}"
            continue
        if last_ts is not None:
            assert v.commit_ts < last_ts, (
                f"chain order violated at rid {rid}: {v.commit_ts} !< {last_ts}")
        last_ts = v.commit_ts
    assert uncommitted <= 1, f"{uncommitted} uncommitted versions at rid {rid}"


def walk_committed(array: IndirectionArray, rid: Rid) -> list[tuple[Timestamp, Any]]:
    """(commit_ts, payload) pairs for all committed versions, new to old."""
    head = array.head(rid)
    return [(v.commit_ts, v.payload)
            for v in (head.chain() if head is not None else ())
            if v.is_committed]
