"""Shared-memory ``multiprocessing`` pool for blockwise kernels.

One entry point, :func:`map_blocks`, runs a picklable block function over
a list of items.  Large read-only arrays are passed via ``arrays=`` and
reach every worker through :class:`multiprocessing.shared_memory` —
created once in the parent, attached (inherited through ``fork``) by each
worker — so the per-task pickle payload is just the block descriptor.

Execution mode:

- ``workers <= 1`` (the default, or ``REPRO_WORKERS=1``) — a plain
  in-process loop, zero pool machinery;
- ``workers > 1`` with the ``fork`` start method available — a
  ``fork``-context process pool;
- ``workers > 1`` without ``fork`` (or from inside a pool worker) —
  graceful fallback to the serial loop, counted in
  ``parallel_fallback_total``.

Results come back in item order in every mode, and each item is computed
by exactly the same code on the same inputs, so kernels built on
:func:`map_blocks` are bit-identical across worker counts — the property
``tests/parallel`` pins.

Observability: the parent wraps each call in a ``parallel.map`` span and
grafts one ``parallel.task`` child span per block (serial blocks nest
naturally; forked blocks report their measured wall time back and the
parent re-emits them), plus ``parallel_*`` counters for runs, tasks and
fallbacks.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.deadline import current_deadline
from repro.obs.spans import SpanRecord, new_span_id

# Default row granularity for blockwise kernels: small enough that 4
# workers see useful scheduling slack at a few thousand rows, large
# enough that per-block overhead (one pickle + one span) stays noise.
DEFAULT_BLOCK_ROWS = 2048


def _env_workers() -> int | None:
    """``REPRO_WORKERS`` as a positive int, or None when unset/invalid."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return max(1, value)


def pool_budget() -> int:
    """The process-wide parallelism budget: ``REPRO_WORKERS``, else 1
    (serial — correctness first, opt into cores)."""
    env = _env_workers()
    return env if env is not None else 1


def resolve_workers(workers: int | None) -> int:
    """Effective worker count for one kernel call.

    An explicit ``workers=`` wins; otherwise the ``REPRO_WORKERS``
    budget; otherwise serial.
    """
    if workers is not None:
        return max(1, int(workers))
    return pool_budget()


def row_blocks(
    n_rows: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> list[tuple[int, int]]:
    """Deterministic ``[start, stop)`` row ranges covering ``n_rows``.

    Boundaries depend only on ``(n_rows, block_rows)`` — never on the
    worker count — which is half of the determinism contract (the other
    half is in-order assembly, which :func:`map_blocks` guarantees).
    """
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    return [
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    ]


class _SharedArray:
    """One read-only ndarray in shared memory, inherited across ``fork``.

    The parent copies the source array in once; workers read a zero-copy
    view.  The parent owns the segment: :meth:`release` closes and
    unlinks it after the pool is done (workers never unlink — under
    ``fork`` they inherit the already-open mapping and simply exit).
    """

    __slots__ = ("shm", "shape", "dtype")

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.shape = array.shape
        self.dtype = array.dtype
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(array.nbytes, 1)
        )
        if array.nbytes:
            view = np.ndarray(self.shape, dtype=self.dtype, buffer=self.shm.buf)
            view[...] = array

    @property
    def array(self) -> np.ndarray:
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=self.shm.buf)
        view.flags.writeable = False
        return view

    def release(self) -> None:
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


# Worker-process state, installed by the pool initializer.  Also the
# re-entrancy latch: map_blocks called *inside* a worker (a kernel that
# itself fans out) must not fork grandchildren.
_WORKER_ARRAYS: dict[str, np.ndarray] | None = None


def _init_worker(shared: dict[str, _SharedArray]) -> None:
    global _WORKER_ARRAYS
    _WORKER_ARRAYS = {name: handle.array for name, handle in shared.items()}


def _run_task(payload: tuple) -> tuple[int, object, float]:
    fn, index, item, kwargs = payload
    assert _WORKER_ARRAYS is not None
    start = time.perf_counter()
    result = fn(item, _WORKER_ARRAYS, **kwargs)
    return index, result, time.perf_counter() - start


def _graft_task_spans(
    parent: SpanRecord | None, durations: list[tuple[int, float]]
) -> None:
    """Re-emit forked blocks as children of the parent ``parallel.map``
    span — worker processes have their own tracer, so their timings come
    back as plain floats and are stitched into the caller's tree here."""
    if parent is None:
        return
    for index, seconds in durations:
        child = SpanRecord(
            name="parallel.task",
            tags={"index": index},
            start=parent.start,
            duration=seconds,
        )
        if parent.span_id is not None:
            child.trace_id = parent.trace_id
            child.parent_id = parent.span_id
            child.span_id = new_span_id()
        parent.children.append(child)


def map_blocks(
    fn: Callable,
    items: Sequence,
    *,
    arrays: Mapping[str, np.ndarray] | None = None,
    workers: int | None = None,
    kwargs: Mapping[str, object] | None = None,
    name: str = "kernel",
) -> list:
    """Run ``fn(item, arrays, **kwargs)`` for every item, in item order.

    ``fn`` must be a module-level (picklable) function; ``arrays`` maps
    names to read-only ndarrays shared with every worker.  Returns the
    per-item results as a list.

    ``workers=None`` reads ``REPRO_WORKERS`` (default serial).  Worker
    count never changes results — only which process computes which
    block.
    """
    items = list(items)
    arrays = dict(arrays or {})
    kwargs = dict(kwargs or {})
    n_workers = resolve_workers(workers)
    registry = obs.get_registry()

    mode = "fork"
    if n_workers <= 1:
        mode = "serial"
    elif len(items) <= 1:
        mode = "serial"
        registry.counter("parallel_fallback_total", reason="single_task").inc()
    elif _WORKER_ARRAYS is not None:
        # Already inside a pool worker: never fork grandchildren.
        mode = "serial"
        registry.counter("parallel_fallback_total", reason="nested").inc()
    elif "fork" not in mp.get_all_start_methods():
        mode = "serial"
        registry.counter("parallel_fallback_total", reason="no_fork").inc()

    registry.counter("parallel_pool_runs_total", pool=name, mode=mode).inc()
    registry.counter(
        "parallel_tasks_total", pool=name, mode=mode
    ).inc(len(items))
    registry.gauge("parallel_workers", pool=name).set(
        1 if mode == "serial" else n_workers
    )

    with obs.span(
        "parallel.map", pool=name, mode=mode,
        workers=1 if mode == "serial" else n_workers, tasks=len(items),
    ) as rec:
        deadline = current_deadline()
        if mode == "serial":
            results = []
            for index, item in enumerate(items):
                if deadline is not None:
                    deadline.check(f"parallel.map[{name}] block {index}")
                with obs.span("parallel.task", index=index):
                    results.append(fn(item, arrays, **kwargs))
            return results

        shared = {key: _SharedArray(value) for key, value in arrays.items()}
        try:
            ctx = mp.get_context("fork")
            payloads = [
                (fn, index, item, kwargs) for index, item in enumerate(items)
            ]
            with ctx.Pool(
                processes=min(n_workers, len(items)),
                initializer=_init_worker,
                initargs=(shared,),
            ) as pool:
                # imap preserves submission order and yields results as
                # they complete, giving a block-boundary deadline check;
                # raising out of the ``with`` terminates the workers.
                raw = []
                for entry in pool.imap(_run_task, payloads, chunksize=1):
                    raw.append(entry)
                    if deadline is not None:
                        deadline.check(
                            f"parallel.map[{name}] block {entry[0]}"
                        )
        finally:
            for handle in shared.values():
                handle.release()
        # imap already preserves submission order; the index ride-along
        # makes the in-order assembly explicit (and asserts it).
        raw.sort(key=lambda entry: entry[0])
        _graft_task_spans(rec, [(i, dt) for i, _, dt in raw])
        return [result for _, result, _ in raw]
