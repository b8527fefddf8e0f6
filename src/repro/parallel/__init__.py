"""Multi-core kernel execution: a shared-memory worker pool.

The hot kernels (pairwise distances, perplexity search, out-of-sample
placement) decompose into independent row blocks.  This package runs
those blocks across real processes — stdlib ``multiprocessing`` only —
with the input arrays handed to workers through POSIX shared memory so
the fork fan-out never pickles a 50k-row matrix.

Determinism contract (see DESIGN.md §14): block boundaries are a pure
function of the problem size, every block is computed by the same code
path regardless of where it runs, and results are assembled in block
order.  Worker count therefore only changes *scheduling*, never values:
``REPRO_WORKERS=1``, ``2`` and ``4`` produce bit-identical kernels.

``REPRO_WORKERS`` is the one process-wide budget every blockwise kernel
obeys, so an operator sizes parallelism once.
"""

from repro.parallel.pool import (
    DEFAULT_BLOCK_ROWS,
    map_blocks,
    pool_budget,
    resolve_workers,
    row_blocks,
)

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "map_blocks",
    "pool_budget",
    "resolve_workers",
    "row_blocks",
]
