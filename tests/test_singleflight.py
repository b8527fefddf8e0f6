"""Unit tests for the single-flight cache and request deadlines."""

import threading
import time

import pytest

from repro.core.deadline import (
    Deadline,
    DeadlineExceeded,
    bind_deadline,
    current_deadline,
)
from repro.core.singleflight import (
    HIT,
    LEADER,
    WAITER,
    SingleFlightCache,
    WaitTimeout,
)


class TestSingleFlightCacheBasics:
    def test_leader_then_hit(self):
        cache = SingleFlightCache()
        calls = []
        value, outcome = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert (value, outcome) == (42, LEADER)
        value, outcome = cache.get_or_compute("k", lambda: calls.append(1) or 43)
        assert (value, outcome) == (42, HIT)
        assert len(calls) == 1

    def test_distinct_keys_compute_separately(self):
        cache = SingleFlightCache()
        assert cache.get_or_compute("a", lambda: 1)[0] == 1
        assert cache.get_or_compute("b", lambda: 2)[0] == 2
        assert len(cache) == 2
        assert "a" in cache and "b" in cache

    def test_failed_compute_not_cached_and_retries(self):
        cache = SingleFlightCache()

        def boom():
            raise RuntimeError("kernel exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            cache.get_or_compute("k", boom)
        assert "k" not in cache
        # The key is free again: a later call retries and can succeed.
        assert cache.get_or_compute("k", lambda: 7)[0] == 7

    def test_max_entries_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            SingleFlightCache(max_entries=0)


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        evicted = []
        cache = SingleFlightCache(
            max_entries=2, on_evict=lambda k, v: evicted.append(k)
        )
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b", not "a"
        assert evicted == ["b"]
        assert cache.keys() == ["a", "c"]
        # "b" was dropped: recomputing it is a fresh leader run.
        assert cache.get_or_compute("b", lambda: 9)[0] == 9
        assert evicted == ["b", "a"]


class TestSingleFlightConcurrency:
    def test_concurrent_misses_compute_once(self):
        cache = SingleFlightCache()
        n = 8
        barrier = threading.Barrier(n)
        computed = []
        outcomes = []
        lock = threading.Lock()

        def compute():
            computed.append(1)
            time.sleep(0.05)  # long enough for every thread to join the wait
            return "result"

        def worker():
            barrier.wait()
            value, outcome = cache.get_or_compute("k", compute)
            with lock:
                outcomes.append((value, outcome))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computed) == 1
        assert all(v == "result" for v, _ in outcomes)
        kinds = [o for _, o in outcomes]
        assert kinds.count(LEADER) == 1
        assert kinds.count(WAITER) == n - 1

    def test_leader_failure_propagates_to_waiters(self):
        cache = SingleFlightCache()
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=5)
            raise RuntimeError("leader failed")

        errors = []

        def leader():
            try:
                cache.get_or_compute("k", compute)
            except RuntimeError as exc:
                errors.append(exc)

        def waiter():
            entered.wait(timeout=5)
            try:
                cache.get_or_compute("k", lambda: "never")
            except RuntimeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=leader)
        t2 = threading.Thread(target=waiter)
        t1.start()
        entered.wait(timeout=5)
        t2.start()
        time.sleep(0.02)  # give the waiter time to park on the event
        release.set()
        t1.join()
        t2.join()
        assert len(errors) == 2
        assert "k" not in cache

    def test_waiter_timeout(self):
        cache = SingleFlightCache()
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=5)
            return 1

        t = threading.Thread(target=lambda: cache.get_or_compute("k", compute))
        t.start()
        entered.wait(timeout=5)
        with pytest.raises(WaitTimeout):
            cache.get_or_compute("k", lambda: 2, timeout=0.01)
        release.set()
        t.join()


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1)

    def test_remaining_and_check(self):
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(10.0)
        deadline.check("embed")  # plenty of budget: no raise
        now[0] = 10.5
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="embed"):
            deadline.check("embed")

    def test_bind_and_unbind(self):
        assert current_deadline() is None
        deadline = Deadline(5.0)
        with bind_deadline(deadline) as bound:
            assert bound is deadline
            assert current_deadline() is deadline
            with bind_deadline(None):
                assert current_deadline() is None
            assert current_deadline() is deadline
        assert current_deadline() is None
