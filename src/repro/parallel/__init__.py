"""Blockwise kernel execution.

The hot kernels (pairwise distances, perplexity search, out-of-sample
placement) decompose into independent row blocks.  This package cuts
those blocks (:func:`row_blocks`) and runs them in order
(:func:`map_blocks`), with a deadline check at every block boundary.

Determinism contract (see DESIGN.md §14): block boundaries are a pure
function of ``(n_rows, block_rows)`` and results are assembled in block
order, so a blockwise kernel returns the same bits on every run.
"""

from repro.parallel.pool import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks

__all__ = ["DEFAULT_BLOCK_ROWS", "map_blocks", "row_blocks"]
