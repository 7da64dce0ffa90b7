"""``RedoLog.wait_for_tail``: the wait change-data-capture workers use
between steps."""

import threading
import time

from evodb.core_store import Version
from evodb.redo_log import RedoLog

from conftest import StubTxn


def _append_one(log, txn_id):
    txn = StubTxn(txn_id, begin_ts=1)
    txn.write_set.append((1, None, txn_id, Version((txn_id,), commit_ts=txn_id)))
    log.append_commit(txn)


def _waiter(log, length, stop):
    th = threading.Thread(target=log.wait_for_tail, args=(length, stop))
    th.start()
    return th


def test_waiters_wake_at_their_own_lengths():
    log, stop = RedoLog(), threading.Event()
    short, long_ = _waiter(log, 2, stop), _waiter(log, 4, stop)
    _append_one(log, 1)
    time.sleep(0.05)
    assert short.is_alive() and long_.is_alive()
    _append_one(log, 2)
    short.join(timeout=5)
    assert not short.is_alive()
    time.sleep(0.05)
    assert long_.is_alive()
    _append_one(log, 3)
    _append_one(log, 4)
    long_.join(timeout=5)
    assert not long_.is_alive()


def test_stop_and_wake_release_a_waiter():
    log, stop = RedoLog(), threading.Event()
    th = _waiter(log, 10, stop)
    time.sleep(0.05)
    assert th.is_alive()
    stop.set()
    log.wake()
    th.join(timeout=5)
    assert not th.is_alive()


def test_reached_length_returns_at_once():
    log = RedoLog()
    _append_one(log, 1)
    log.wait_for_tail(1, threading.Event())
