"""The blockwise runner's contract: fixed boundaries, in-order results.

``row_blocks`` boundaries depend only on ``(n_rows, block_rows)`` and
``map_blocks`` runs ``fn(start, stop)`` for every block in order, so a
row-local kernel built on them returns the same bits for any block size.
These tests pin that contract plus the per-pool counters and spans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.parallel import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks


class TestRowBlocks:
    def test_covers_every_row_exactly_once(self):
        blocks = row_blocks(10_000, 1024)
        assert blocks[0] == (0, 1024)
        assert blocks[-1] == (9216, 10_000)
        covered = np.concatenate(
            [np.arange(start, stop) for start, stop in blocks]
        )
        np.testing.assert_array_equal(covered, np.arange(10_000))

    def test_exact_multiple_has_no_stub_block(self):
        assert row_blocks(4096, 1024) == [
            (0, 1024), (1024, 2048), (2048, 3072), (3072, 4096)
        ]

    def test_zero_rows(self):
        assert row_blocks(0) == []

    def test_boundaries_ignore_worker_count(self):
        # The contract: boundaries are a function of (n, block_rows) only.
        assert row_blocks(5000) == row_blocks(5000, DEFAULT_BLOCK_ROWS)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n_rows"):
            row_blocks(-1)
        with pytest.raises(ValueError, match="block_rows"):
            row_blocks(10, 0)


class TestMapBlocks:
    def test_serial_results_in_item_order(self):
        data = np.arange(20.0).reshape(4, 5)
        seen = []

        def row_sums(start, stop):
            seen.append((start, stop))
            return data[start:stop].sum(axis=1)

        parts = map_blocks(row_sums, row_blocks(4, 2))
        assert seen == [(0, 2), (2, 4)]
        np.testing.assert_array_equal(
            np.concatenate(parts), data.sum(axis=1)
        )


class TestObservability:
    def test_run_and_task_counters(self):
        registry = obs.get_registry()
        runs_before = registry.counter(
            "parallel_pool_runs_total", pool="countme"
        ).value
        tasks_before = registry.counter(
            "parallel_tasks_total", pool="countme"
        ).value
        map_blocks(lambda start, stop: stop - start, row_blocks(3, 1), name="countme")
        assert registry.counter(
            "parallel_pool_runs_total", pool="countme"
        ).value == runs_before + 1
        assert registry.counter(
            "parallel_tasks_total", pool="countme"
        ).value == tasks_before + 3

    def test_task_spans_nest_under_map(self):
        from repro.obs import RingBufferSink

        previous = obs.get_tracer()
        sink = RingBufferSink()
        obs.configure(sink=sink)
        try:
            map_blocks(lambda start, stop: stop - start, row_blocks(4, 1), name="spanme")
        finally:
            obs.configure(tracer=previous)
        roots = [r for r in sink.records() if r.name == "parallel.map"]
        assert roots, "parallel.map span missing"
        rec = roots[-1]
        assert rec.tags["pool"] == "spanme"
        assert rec.tags["tasks"] == 4
        children = [c for c in rec.children if c.name == "parallel.task"]
        assert [c.tags["index"] for c in children] == [0, 1, 2, 3]
