"""Serial blockwise execution for the row-decomposable kernels.

One entry point, :func:`map_blocks`, runs a block function over fixed
``[start, stop)`` row ranges (:func:`row_blocks`), in order, in the
calling thread.  Fixed blocks bound each step's memory, and every block
boundary is a deadline check — which is also where a cancelled job
stops (its deadline is the cancel flag).

Observability: each call is one ``parallel.map`` span with one
``parallel.task`` child per block, plus the ``parallel_pool_runs_total``
and ``parallel_tasks_total`` counters per pool name.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.core.deadline import current_deadline

# Default row granularity for blockwise kernels: large enough that the
# per-block overhead (one span, one deadline check) stays noise, small
# enough that a block's (rows, n) temporaries stay bounded.
DEFAULT_BLOCK_ROWS = 2048


def row_blocks(
    n_rows: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> list[tuple[int, int]]:
    """Deterministic ``[start, stop)`` row ranges covering ``n_rows``.

    Boundaries depend only on ``(n_rows, block_rows)``, so a kernel
    built on them computes the same blocks, and the same bits, on every
    run.
    """
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    return [
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    ]


def map_blocks(
    fn: Callable[[int, int], object],
    blocks: Sequence[tuple[int, int]],
    *,
    name: str = "kernel",
) -> list:
    """Run ``fn(start, stop)`` for every block, in block order.

    Checks the ambient deadline before each block, so a long kernel
    stops at the next block boundary once its budget (or its job) is
    gone.
    """
    blocks = list(blocks)
    registry = obs.get_registry()
    registry.counter("parallel_pool_runs_total", pool=name).inc()
    registry.counter("parallel_tasks_total", pool=name).inc(len(blocks))
    deadline = current_deadline()
    results = []
    with obs.span("parallel.map", pool=name, tasks=len(blocks)):
        for index, (start, stop) in enumerate(blocks):
            if deadline is not None:
                deadline.check(f"parallel.map[{name}] block {index}")
            with obs.span("parallel.task", index=index):
                results.append(fn(start, stop))
    return results
