"""Routing of replay batches into the data plane.

A :class:`~repro.stream.feed.ReplayFeed` delivers batches whose rows are
aligned to the feed's customer order; :class:`ShardRouter` turns those
batches into database writes.

A router can also carry a :class:`~repro.rollup.store.RollupStore`: every
applied batch is then folded into the materialized rollups in the same
call, so the derived tables never trail the database by more than the
in-flight tick — the "maintained incrementally by stream ticks" half of
the rollup layer.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.db.engine import EnergyDatabase
from repro.rollup.store import RollupStore
from repro.stream.feed import Batch, ReplayFeed


class ShardRouter:
    """Applies replay batches to one database (and its rollups).

    Parameters
    ----------
    db:
        Target database; each batch is appended whole through
        :meth:`~repro.db.engine.EnergyDatabase.ingest_hours`.
    customer_ids:
        The batch row order (usually ``feed.series_set.customer_ids``).
    rollups:
        Optional rollup store maintained alongside the database: each
        applied batch updates the derived demand tables (and any warm
        kernel grids) incrementally, for this router's customers.
    """

    def __init__(
        self,
        db: EnergyDatabase,
        customer_ids: Sequence[int],
        rollups: RollupStore | None = None,
    ) -> None:
        self.db = db
        self.customer_ids = [int(cid) for cid in customer_ids]
        self.rollups = rollups

    def apply(self, batch: Batch) -> int:
        """Ingest one batch; returns the database's new end hour."""
        with obs.span(
            "stream.tick",
            start_hour=batch.start_hour,
            rows=len(self.customer_ids),
        ):
            end = self.db.ingest_hours(
                batch.values,
                batch.start_hour,
                customer_ids=self.customer_ids,
            )
            if self.rollups is not None:
                self.rollups.apply_batch(
                    batch, customer_ids=self.customer_ids
                )
            return end

    def replay(self, feed: ReplayFeed, max_ticks: int | None = None) -> int:
        """Apply consecutive batches from a feed; returns ticks applied."""
        applied = 0
        for batch in feed:
            if max_ticks is not None and applied >= max_ticks:
                break
            self.apply(batch)
            applied += 1
        return applied
