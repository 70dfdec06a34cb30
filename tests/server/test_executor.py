"""The concurrent executor: pooling and single-flight coalescing."""

from __future__ import annotations

import threading

import pytest

from repro.server import ConcurrentExecutor


def test_runs_work_and_returns_result():
    with ConcurrentExecutor(workers=2) as executor:
        assert executor.run(lambda: 41 + 1) == 42
        assert executor.stats()["executed"] == 1


def test_identical_inflight_requests_coalesce_to_one_execution():
    executor = ConcurrentExecutor(workers=4)
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def slow():
        calls.append(1)
        entered.set()
        release.wait(timeout=5)
        return "answer"

    key = ("plan-key", ("param",), 0)
    leader = executor.submit(slow, key=key)
    assert entered.wait(timeout=5)
    followers = [executor.submit(slow, key=key) for _ in range(3)]
    release.set()
    assert leader.result(timeout=5) == "answer"
    assert all(f.result(timeout=5) == "answer" for f in followers)
    assert len(calls) == 1  # one execution served four requests
    stats = executor.stats()
    assert stats["executed"] == 1 and stats["coalesced"] == 3
    executor.shutdown()


def test_different_catalog_versions_do_not_coalesce():
    executor = ConcurrentExecutor(workers=4)
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def slow():
        calls.append(1)
        entered.set()
        release.wait(timeout=5)
        return len(calls)

    first = executor.submit(slow, key=("k", (), 0))
    assert entered.wait(timeout=5)
    second = executor.submit(slow, key=("k", (), 1))  # a write moved the version
    release.set()
    first.result(timeout=5)
    second.result(timeout=5)
    assert len(calls) == 2
    assert executor.stats()["coalesced"] == 0
    executor.shutdown()


def test_none_key_never_coalesces():
    executor = ConcurrentExecutor(workers=2)
    results = {executor.run(lambda: object(), key=None) for _ in range(3)}
    assert len(results) == 3
    assert executor.stats()["coalesced"] == 0
    executor.shutdown()


def test_coalesce_disabled_executes_every_request():
    executor = ConcurrentExecutor(workers=2, coalesce=False)
    for _ in range(3):
        executor.run(lambda: 1, key=("same", (), 0))
    assert executor.stats()["executed"] == 3
    executor.shutdown()


def test_leader_exception_propagates_to_all_waiters():
    executor = ConcurrentExecutor(workers=4)
    entered = threading.Event()
    release = threading.Event()

    def failing():
        entered.set()
        release.wait(timeout=5)
        raise RuntimeError("boom")

    key = ("k", (), 0)
    leader = executor.submit(failing, key=key)
    assert entered.wait(timeout=5)
    follower = executor.submit(failing, key=key)
    release.set()
    with pytest.raises(RuntimeError):
        leader.result(timeout=5)
    with pytest.raises(RuntimeError):
        follower.result(timeout=5)
    # the failed flight was cleaned up: a fresh request executes fresh
    release.set()
    entered.clear()
    with pytest.raises(RuntimeError):
        executor.submit(failing, key=key).result(timeout=5)
    executor.shutdown()


def test_shutdown_rejects_new_work():
    executor = ConcurrentExecutor(workers=1)
    executor.shutdown()
    with pytest.raises(RuntimeError):
        executor.submit(lambda: 1)
