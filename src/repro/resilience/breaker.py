"""Circuit breaking: stop hammering a failing dependency, probe, recover.

A :class:`CircuitBreaker` watches the success/failure stream of one
guarded operation through a rolling
:class:`~repro.obs.timewindow.TimeWindowStore` window and moves through
the classic three states:

- **closed** — calls flow; when the windowed failure *rate* crosses the
  threshold (with at least ``min_calls`` observations, so one early
  failure cannot trip an idle breaker), the breaker opens;
- **open** — calls are refused instantly with :class:`BreakerOpen`
  (callers shed instead of queueing on a known-bad path) until
  ``open_seconds`` of cooldown elapse;
- **half-open** — a bounded number of trial calls probe the dependency;
  one success closes the breaker and clears the window, one failure
  re-opens it for another cooldown.

State is exported as the ``breaker_state{breaker}`` gauge (0 closed,
1 half-open, 2 open) plus a ``breaker_transitions_total`` counter, so
``/api/telemetry`` can show which kernels are refusing work right now.
:class:`~repro.core.pipeline.VapSession` guards only cache misses, so an
open breaker never blocks a cached answer; a refused miss surfaces as
:class:`BreakerOpen`, which the API answers with 503 + Retry-After.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

from repro import obs
from repro.obs.timewindow import TimeWindowStore

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

# Gauge encoding of the state, ordered by severity.
STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

# Failure classes that count against the breaker.  Input errors
# (ValueError and friends) are excluded: a client sending bad parameters
# must not open the circuit for everyone else.
DEFAULT_FAILURE_TYPES: tuple[type[BaseException], ...] = (
    OSError,
    TimeoutError,
    MemoryError,
    FloatingPointError,
    RuntimeError,
)


class BreakerOpen(Exception):
    """The circuit is open; the guarded operation was not attempted.

    ``retry_after`` is the breaker's remaining open window in seconds
    when known (None for breakers that cannot say), so the serving layer
    can derive an honest ``Retry-After`` instead of a constant.
    """

    def __init__(self, name: str, retry_after: float | None = None) -> None:
        super().__init__(f"circuit breaker {name!r} is open")
        self.name = name
        self.retry_after = retry_after


class CircuitBreaker:
    """Failure-rate circuit breaker over a rolling time window.

    Parameters
    ----------
    name:
        Label for metrics and error messages.
    failure_threshold:
        Windowed failure rate in ``(0, 1]`` that opens the circuit.
    min_calls:
        Minimum windowed observations before the rate is trusted.
    open_seconds:
        Cooldown before an open breaker lets trial calls through.
    half_open_max_calls:
        Concurrent trial calls admitted while half-open.
    window_seconds / n_windows:
        Shape of the rolling window the rate is computed over.
    failure_types:
        Exception classes :meth:`call` counts as failures; others pass
        through without touching the breaker.
    clock:
        Injectable monotonic-seconds callable (drives both the cooldown
        and the rolling window).
    metrics:
        Registry for the state gauge; the process default when omitted.
    """

    def __init__(
        self,
        name: str = "default",
        failure_threshold: float = 0.5,
        min_calls: int = 5,
        open_seconds: float = 30.0,
        half_open_max_calls: int = 1,
        window_seconds: float = 10.0,
        n_windows: int = 3,
        failure_types: tuple[type[BaseException], ...] = DEFAULT_FAILURE_TYPES,
        clock: Callable[[], float] = time.monotonic,
        metrics: obs.MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {min_calls}")
        if open_seconds <= 0:
            raise ValueError(f"open_seconds must be positive, got {open_seconds}")
        if half_open_max_calls < 1:
            raise ValueError(
                f"half_open_max_calls must be >= 1, got {half_open_max_calls}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.open_seconds = open_seconds
        self.half_open_max_calls = half_open_max_calls
        self.failure_types = failure_types
        self.clock = clock
        self._metrics = metrics
        self._window = TimeWindowStore(
            width_seconds=window_seconds, n_windows=n_windows, clock=clock
        )
        self._lock = threading.RLock()
        self._state = CLOSED
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._export_state()

    @property
    def metrics(self) -> obs.MetricsRegistry:
        return self._metrics if self._metrics is not None else obs.get_registry()

    def _export_state(self) -> None:
        self.metrics.gauge("breaker_state", breaker=self.name).set(
            STATE_VALUES[self._state]
        )

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        previous, self._state = self._state, state
        self.metrics.counter(
            "breaker_transitions_total",
            breaker=self.name,
            to=state,
        ).inc()
        self._export_state()
        obs.log_event(
            "breaker.transition",
            level="warning" if state != CLOSED else "info",
            breaker=self.name,
            from_state=previous,
            to_state=state,
        )

    def _windowed_counts(self) -> tuple[int, int]:
        """(failures, total) observed in the live window."""
        failures = sum(
            w["count"] for w in self._window.series("call", result="failure")["windows"]
        )
        successes = sum(
            w["count"] for w in self._window.series("call", result="success")["windows"]
        )
        return failures, failures + successes

    @property
    def state(self) -> str:
        """Current state, applying the open → half-open cooldown lazily."""
        with self._lock:
            if (
                self._state == OPEN
                and self.clock() - self._opened_at >= self.open_seconds
            ):
                self._half_open_inflight = 0
                self._transition(HALF_OPEN)
            return self._state

    def remaining_open_seconds(self) -> float:
        """Seconds until an open breaker starts admitting probes.

        0.0 when the breaker is not open (closed, or already half-open —
        a probe could be admitted immediately).
        """
        with self._lock:
            if self.state != OPEN:
                return 0.0
            return max(
                0.0, self.open_seconds - (self.clock() - self._opened_at)
            )

    @property
    def failure_rate(self) -> float:
        """Windowed failure rate (0.0 when the window is empty)."""
        with self._lock:
            failures, total = self._windowed_counts()
            return failures / total if total else 0.0

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Half-open admission counts against the trial budget, so callers
        that get ``True`` must report the outcome via
        :meth:`record_success` / :meth:`record_failure` (or use
        :meth:`call`, which does all three).
        """
        with self._lock:
            state = self.state
            if state == CLOSED:
                return True
            if state == HALF_OPEN:
                if self._half_open_inflight < self.half_open_max_calls:
                    self._half_open_inflight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            self._window.record("call", result="success")
            if self._state == HALF_OPEN:
                # The probe came back healthy: close and forget history.
                self._window.reset()
                self._half_open_inflight = 0
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._window.record("call", result="failure")
            if self._state == HALF_OPEN:
                self._opened_at = self.clock()
                self._half_open_inflight = 0
                self._transition(OPEN)
                return
            if self._state == CLOSED:
                failures, total = self._windowed_counts()
                if (
                    total >= self.min_calls
                    and failures / total >= self.failure_threshold
                ):
                    self._opened_at = self.clock()
                    self._transition(OPEN)

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker.

        Raises
        ------
        BreakerOpen
            When the circuit refuses the call.
        BaseException
            Whatever ``fn`` raised (recorded as a failure when its type
            is in ``failure_types``).
        """
        if not self.allow():
            raise BreakerOpen(self.name, retry_after=self.remaining_open_seconds())
        try:
            value = fn()
        except BaseException as exc:
            if isinstance(exc, self.failure_types):
                self.record_failure()
            elif self._state == HALF_OPEN:
                # A non-counted error still ends the trial admission.
                with self._lock:
                    self._half_open_inflight = max(
                        0, self._half_open_inflight - 1
                    )
            raise
        self.record_success()
        return value

    def to_record(self) -> dict:
        """JSON-ready snapshot for telemetry."""
        with self._lock:
            failures, total = self._windowed_counts()
            return {
                "name": self.name,
                "state": self.state,
                "failure_rate": failures / total if total else 0.0,
                "windowed_calls": total,
                "failure_threshold": self.failure_threshold,
                "open_seconds": self.open_seconds,
            }
