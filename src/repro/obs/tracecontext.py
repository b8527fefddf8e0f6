"""Serializable trace context for cross-thread propagation.

Python's :class:`~contextvars.ContextVar` bindings do not follow work
submitted to a ``ThreadPoolExecutor``: the pool's worker threads were
created long ago with their own (empty) contexts.  Without this module,
every async job and other unit of work handed to a worker thread runs
*outside* the originating request — its log lines carried
``request_id: None``, its spans opened as disconnected roots, and its
deadline silently vanished.

:class:`TraceContext` is the fix: an immutable snapshot of everything a
unit of work needs to stay attributable —

- ``trace_id`` / ``span_id`` — the active trace and the span that will be
  the *parent* of any span the worker opens (so worker spans stitch into
  the caller's tree via :class:`~repro.obs.tracestore.TraceStore`);
- ``request_id`` — the correlation ID for logs and slow-op records;
- ``tenant`` — the tenant being served (PR 6's namespaces);
- ``deadline`` — the request's remaining time budget.

Capture it on the submitting thread with :meth:`TraceContext.capture`,
ship it with the task (it is a plain frozen dataclass — cheap, picklable
but normally shared in-process), and re-bind inside the worker with
:meth:`TraceContext.bind`::

    ctx = TraceContext.capture()
    pool.submit(lambda: ctx.run(do_work))

The context is intentionally *explicit* rather than relying on
``contextvars.copy_context()``: a full context copy drags along every
unrelated variable and still would not parent spans correctly, because
the span stack is thread-local state inside the tracer, not a context
variable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.core.deadline import Deadline, bind_deadline, current_deadline
from repro.obs.logging import (
    bind_request_id,
    bind_tenant,
    current_request_id,
    current_tenant,
)

T = TypeVar("T")

# The cross-thread parent linkage: (trace_id, parent_span_id).  Bound by
# TraceContext.bind inside pool workers; read by the tracer when a span
# opens on a thread with an empty span stack.
_remote_parent: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_remote_parent", default=None
)


def current_remote_parent() -> tuple[str, str] | None:
    """The propagated (trace_id, parent_span_id) pair, if any."""
    return _remote_parent.get()


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Immutable snapshot of one request's ambient context.

    All fields are optional: capturing outside any request yields an
    all-``None`` context whose :meth:`bind` is a harmless no-op binding.
    """

    trace_id: str | None = None
    span_id: str | None = None
    request_id: str | None = None
    tenant: str | None = None
    deadline: Deadline | None = None

    @classmethod
    def capture(cls) -> "TraceContext":
        """Snapshot the calling thread's context (request id, tenant,
        deadline, and the innermost open span as future parent)."""
        from repro.obs import get_tracer  # late: avoid import cycle

        trace_id: str | None = None
        span_id: str | None = None
        current = get_tracer().current()
        if current is not None and current.span_id is not None:
            trace_id = current.trace_id
            span_id = current.span_id
        else:
            remote = _remote_parent.get()
            if remote is not None:
                trace_id, span_id = remote
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            request_id=current_request_id(),
            tenant=current_tenant(),
            deadline=current_deadline(),
        )

    @contextmanager
    def bind(self) -> Iterator["TraceContext"]:
        """Re-bind this snapshot on the current (worker) thread.

        Request id and tenant bind only when captured as non-``None`` so
        a worker's own ambient bindings are not clobbered by an empty
        snapshot; the deadline binds unconditionally (an expired budget
        must propagate, and ``None`` means "no deadline" either way).
        """
        parent = (
            (self.trace_id, self.span_id)
            if self.trace_id is not None and self.span_id is not None
            else None
        )
        token = _remote_parent.set(parent)
        try:
            with bind_deadline(self.deadline):
                if self.request_id is not None and self.tenant is not None:
                    with bind_request_id(self.request_id), bind_tenant(self.tenant):
                        yield self
                elif self.request_id is not None:
                    with bind_request_id(self.request_id):
                        yield self
                elif self.tenant is not None:
                    with bind_tenant(self.tenant):
                        yield self
                else:
                    yield self
        finally:
            _remote_parent.reset(token)

    def run(self, fn: Callable[[], T]) -> T:
        """Call ``fn`` with this context bound (pool-worker convenience)."""
        with self.bind():
            return fn()

    def to_record(self) -> dict[str, object]:
        """JSON-ready form (the deadline reduces to remaining seconds)."""
        out: dict[str, object] = {}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.deadline is not None:
            out["deadline_remaining_seconds"] = round(
                self.deadline.remaining(), 6
            )
        return out
