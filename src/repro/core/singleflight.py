"""Single-flight memoisation: concurrent identical requests compute once.

A :class:`SingleFlightCache` is the concurrency primitive behind every
:class:`~repro.core.pipeline.VapSession` cache.  It combines

- a thread-safe memo table (optionally LRU-bounded, for the big objects
  like embeddings), and
- *single-flight* miss handling: when N threads miss on the same key at
  the same time, exactly one (the *leader*) runs the computation while
  the other N-1 (*waiters*) block on an event and receive the leader's
  result — the expensive kernel runs once, not N times, and misses are
  deduplicated instead of raced.

The leader computes **outside** the cache lock, so distinct keys still
compute in parallel.  A failed leader propagates its exception to every
waiter and leaves the key uncached, so the next request retries.  Waiters
can bound how long they wait (e.g. to a request deadline); a timed-out
waiter raises :class:`WaitTimeout` without disturbing the in-flight
computation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

# Outcomes reported by get_or_compute (exported for metrics labels).
HIT = "hit"
LEADER = "leader"
WAITER = "waiter"


class WaitTimeout(TimeoutError):
    """A single-flight waiter gave up before the leader finished.

    ``bound`` names which limit fired: ``"timeout"`` when the caller's
    fixed wait elapsed, ``"deadline"`` when the caller's bound request
    :class:`~repro.core.deadline.Deadline` expired first.
    """

    def __init__(self, message: str, bound: str = "timeout") -> None:
        super().__init__(message)
        self.bound = bound


class _Call:
    """One in-flight computation: waiters block on the event."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class SingleFlightCache(Generic[K, V]):
    """Thread-safe memo table with single-flight misses and LRU bounds.

    Parameters
    ----------
    max_entries:
        Keep at most this many values, evicting least-recently-used ones
        (both hits and inserts refresh recency).  ``None`` means unbounded.
    on_evict:
        ``(key, value) -> None`` called for every evicted entry, outside
        the cache lock (safe to touch metrics or logs).
    name:
        Optional cache name.  When set, the leader's computation runs
        inside a ``cache.<name>.leader`` span, so the one thread that
        actually pays for a miss shows up in the request's trace (the
        waiters just block and stay invisible).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        on_evict: Callable[[K, V], None] | None = None,
        name: str | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max = max_entries
        self._on_evict = on_evict
        self.name = name
        self._lock = threading.Lock()
        self._values: OrderedDict[K, V] = OrderedDict()
        self._calls: dict[K, _Call] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._values

    @property
    def max_entries(self) -> int | None:
        return self._max

    def keys(self) -> list[K]:
        """Cached keys, least-recently-used first."""
        with self._lock:
            return list(self._values)

    def clear(self) -> None:
        """Drop every cached value (in-flight computations finish normally)."""
        with self._lock:
            self._values.clear()

    def get_or_compute(
        self,
        key: K,
        compute: Callable[[], V],
        timeout: float | None = None,
    ) -> tuple[V, str]:
        """Return ``(value, outcome)`` with outcome hit/leader/waiter.

        Exactly one concurrent caller per key runs ``compute`` (the
        leader); the rest wait up to ``timeout`` seconds for its result.

        Raises
        ------
        WaitTimeout
            When a waiter's timeout elapses before the leader finishes.
        BaseException
            Whatever ``compute`` raised, re-raised in the leader *and*
            every waiter; the key stays uncached so later calls retry.
        """
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key], HIT
            call = self._calls.get(key)
            if call is None:
                call = _Call()
                self._calls[key] = call
                leading = True
            else:
                leading = False

        if not leading:
            # A waiter must never outlive the caller's own request
            # deadline: clamp the wait to whichever bound is tighter and
            # report which one fired.
            from repro.core.deadline import current_deadline

            deadline = current_deadline()
            wait, bound = timeout, "timeout"
            if deadline is not None:
                remaining = deadline.remaining()
                if wait is None or remaining < wait:
                    wait, bound = max(0.0, remaining), "deadline"
            if not call.event.wait(wait):
                raise WaitTimeout(
                    f"gave up after {wait!r}s ({bound} bound) waiting for "
                    f"in-flight computation of {key!r}",
                    bound=bound,
                )
            if call.error is not None:
                raise call.error
            return call.value, WAITER  # type: ignore[return-value]

        try:
            if self.name is not None:
                from repro import obs  # late: keep core importable alone

                with obs.span(f"cache.{self.name}.leader", key=str(key)):
                    value = compute()
            else:
                value = compute()
        except BaseException as exc:
            call.error = exc
            with self._lock:
                self._calls.pop(key, None)
            call.event.set()
            raise
        evicted: list[tuple[K, V]] = []
        with self._lock:
            self._values[key] = value
            self._values.move_to_end(key)
            while self._max is not None and len(self._values) > self._max:
                evicted.append(self._values.popitem(last=False))
            self._calls.pop(key, None)
        call.value = value
        call.event.set()
        if self._on_evict is not None:
            for old_key, old_value in evicted:
                self._on_evict(old_key, old_value)
        return value, LEADER
