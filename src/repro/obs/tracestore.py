"""Bounded in-memory trace store with cross-thread stitching.

The tracer keeps span nesting on a thread-local stack, so a span opened
on a pool worker can never attach to its logical parent directly — the
parent lives on the submitting thread.  Instead the worker's thread-root
span records the propagated ``(trace_id, parent_span_id)`` (see
:mod:`repro.obs.tracecontext`) and lands here as a *fragment*.  The trace
root itself closes strictly after its fragments — a request blocks on
its worker's result before the request span exits — so by the time
:meth:`TraceStore.add_trace` runs, every fragment is buffered and can be
grafted onto its parent by span id.

Retention is bounded both ways: at most ``max_traces`` finished traces
(oldest evicted first) and at most ``max_pending`` buffered fragments per
trace, so a burst of orphaned worker spans cannot grow memory without
limit.  Fragments whose parent id no longer resolves (parent evicted,
clocks raced) attach under the root rather than being dropped — a
misplaced span beats a missing one when debugging.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.spans import SpanRecord


class TraceStore:
    """Thread-safe bounded store of finished trace trees.

    Parameters
    ----------
    max_traces:
        Finished traces retained; the oldest is evicted when full.
    max_pending:
        Fragments buffered per trace while awaiting the root.
    """

    def __init__(self, max_traces: int = 256, max_pending: int = 512) -> None:
        self.max_traces = max_traces
        self.max_pending = max_pending
        self._lock = threading.Lock()
        # trace_id -> assembled root span, insertion-ordered (oldest first)
        self._traces: OrderedDict[str, SpanRecord] = OrderedDict()
        # trace_id -> fragments awaiting their root
        self._pending: dict[str, list[SpanRecord]] = {}
        self.dropped_fragments = 0

    def add_fragment(self, record: SpanRecord) -> None:
        """Buffer a detached thread-root span until its trace root closes.

        If the root already closed (late fragment), graft immediately.
        """
        trace_id = record.trace_id
        if trace_id is None:
            return
        with self._lock:
            root = self._traces.get(trace_id)
            if root is not None:
                self._graft(root, [record])
                return
            bucket = self._pending.setdefault(trace_id, [])
            if len(bucket) >= self.max_pending:
                self.dropped_fragments += 1
                return
            bucket.append(record)

    def add_trace(self, record: SpanRecord) -> None:
        """Retain a finished root, stitching in any buffered fragments."""
        trace_id = record.trace_id
        if trace_id is None:
            return
        with self._lock:
            fragments = self._pending.pop(trace_id, [])
            self._graft(record, fragments)
            self._traces[trace_id] = record
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)

    @staticmethod
    def _graft(root: SpanRecord, fragments: list[SpanRecord]) -> None:
        """Attach fragments to their parents by span id (root if unknown).

        Two passes: index the tree, then attach — a fragment may parent
        another fragment (nested hand-offs), so re-index after each attach
        wave until no fragment moves.
        """
        remaining = list(fragments)
        while remaining:
            by_id = {
                span.span_id: span
                for span in root.walk()
                if span.span_id is not None
            }
            progressed = False
            still: list[SpanRecord] = []
            for frag in remaining:
                parent = by_id.get(frag.parent_id)
                if parent is not None:
                    parent.children.append(frag)
                    progressed = True
                else:
                    still.append(frag)
            if not progressed:
                # Orphans: parent span evicted or never stored.
                root.children.extend(still)
                return
            remaining = still

    def get(self, trace_id: str) -> SpanRecord | None:
        """The assembled tree for ``trace_id``, or None."""
        with self._lock:
            return self._traces.get(trace_id)

    def traces(
        self,
        request_id: str | None = None,
        tenant: str | None = None,
        min_duration_ms: float = 0.0,
        limit: int = 50,
    ) -> list[SpanRecord]:
        """Finished traces, newest first, optionally filtered.

        ``request_id``/``tenant`` match the root span's fields;
        ``min_duration_ms`` filters on root duration.
        """
        with self._lock:
            roots = list(self._traces.values())
        out: list[SpanRecord] = []
        for root in reversed(roots):
            if request_id is not None and root.request_id != request_id:
                continue
            if tenant is not None and root.tenant != tenant:
                continue
            if root.duration * 1000.0 < min_duration_ms:
                continue
            out.append(root)
            if len(out) >= limit:
                break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._pending.clear()
            self.dropped_fragments = 0
