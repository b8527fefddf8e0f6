"""The database facade: customers + readings + spatial index.

:class:`EnergyDatabase` is the data layer the rest of the tool talks to —
the role PostgreSQL/PostGIS plays in the paper.  It owns

- a typed customers table (id, lon, lat, zone, archetype) queryable through
  :mod:`repro.db.query`,
- the dense hourly readings (:class:`~repro.data.timeseries.SeriesSet`),
- an STR R-tree over customer positions,

and answers the composed spatio-temporal requests the logic layer issues:
"customers in this polygon", "their readings for this window", "per-customer
demand between t1 and t2" (the input of the KDE shift model).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro import obs
from repro.data.meter import Customer
from repro.data.timeseries import HourWindow, SeriesSet
from repro.db.index.rtree import RTree
from repro.db.query import Query
from repro.db.spatial import BBox, Circle, Polygon
from repro.db.table import ColumnSpec, Schema, Table

CUSTOMER_SCHEMA = Schema(
    [
        ColumnSpec("customer_id", "int"),
        ColumnSpec("lon", "float"),
        ColumnSpec("lat", "float"),
        ColumnSpec("zone", "str"),
        ColumnSpec("archetype", "str"),
    ]
)

DEMAND_STATISTICS = ("mean", "sum", "max")


class EnergyDatabase:
    """In-memory spatio-temporal store for one metering data set.

    Parameters
    ----------
    customers:
        Customer rows; ids must be unique.
    readings:
        Hourly readings whose customer ids exactly match ``customers``.
    metrics:
        Registry receiving ``db_query_seconds`` histograms (one per query
        kind); the process-wide default registry when omitted.
    slow_query_seconds:
        Queries slower than this are logged (``db.slow_query``, warning)
        and offered to the process slow-op log with the request ID that
        issued them.
    """

    def __init__(
        self,
        customers: Sequence[Customer],
        readings: SeriesSet,
        metrics: obs.MetricsRegistry | None = None,
        slow_query_seconds: float = 0.25,
    ) -> None:
        self._metrics = metrics
        # Serving threads issue composed reads concurrently; a reentrant
        # read lock keeps each query atomic over table + index + readings
        # (the composed demand path nests readings_for inside demand).
        self._read_lock = threading.RLock()
        if slow_query_seconds <= 0:
            raise ValueError(
                f"slow_query_seconds must be positive, got {slow_query_seconds}"
            )
        self.slow_query_seconds = slow_query_seconds
        customers = list(customers)
        if not customers:
            raise ValueError("a database needs at least one customer")
        ids = [c.customer_id for c in customers]
        if len(set(ids)) != len(ids):
            raise ValueError("customer ids contain duplicates")
        if set(ids) != {int(cid) for cid in readings.customer_ids}:
            raise ValueError("customers and readings cover different ids")

        self._customers = {c.customer_id: c for c in customers}
        # The column buffer behind every published snapshot: the caller's
        # matrix is adopted as-is (capacity == width), so the first ingest
        # grows into an array this database allocated and the caller's is
        # never written.
        self._buffer = readings.matrix
        self.readings = _publish(readings.customer_ids, readings.start_hour,
                                 self._buffer, readings.n_steps)
        self.table = Table("customers", CUSTOMER_SCHEMA)
        self.table.insert_columns(
            {
                "customer_id": ids,
                "lon": [c.lon for c in customers],
                "lat": [c.lat for c in customers],
                "zone": [c.zone.value for c in customers],
                "archetype": [c.archetype.value for c in customers],
            }
        )
        lons = np.array([c.lon for c in customers])
        lats = np.array([c.lat for c in customers])
        self.index = RTree(ids, lons, lats)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> obs.MetricsRegistry:
        """This database's registry (the process default unless injected)."""
        return self._metrics if self._metrics is not None else obs.get_registry()

    @contextmanager
    def _timed(self, op: str):
        """Timer context recording one query into ``db_query_seconds``;
        queries over :attr:`slow_query_seconds` are also logged and
        offered to the slow-op log (correlated by request ID)."""
        registry = self.metrics
        hist = registry.histogram("db_query_seconds", op=op)
        start = registry.clock()
        try:
            with self._read_lock:
                yield
        finally:
            elapsed = registry.clock() - start
            hist.observe(elapsed)
            if elapsed >= self.slow_query_seconds:
                obs.get_slow_log().offer(f"db.{op}", elapsed)
                obs.log_event(
                    "db.slow_query",
                    level="warning",
                    op=op,
                    duration_ms=round(elapsed * 1000.0, 3),
                )

    def __len__(self) -> int:
        return len(self._customers)

    @property
    def customer_ids(self) -> list[int]:
        """All customer ids, ascending."""
        return sorted(self._customers)

    @property
    def time_span(self) -> HourWindow:
        """The hour window covered by the readings (one snapshot)."""
        readings = self.readings
        return HourWindow(readings.start_hour, readings.end_hour)

    def customer(self, customer_id: int) -> Customer:
        """Look up one customer; raises ``KeyError`` if unknown."""
        if customer_id not in self._customers:
            raise KeyError(f"unknown customer_id {customer_id}")
        return self._customers[customer_id]

    def query(self) -> Query:
        """A fresh fluent query over the customers table."""
        return Query(self.table)

    def sql(self, statement: str) -> list[dict[str, object]]:
        """Run a SQL SELECT against the ``customers`` table.

        See :mod:`repro.db.sql` for the supported dialect.

        Raises
        ------
        repro.db.sql.SqlError
            On parse errors or unknown tables/columns.
        """
        from repro.db.sql import execute_sql  # local: avoid import cycle

        with self._timed("sql"):
            return execute_sql({"customers": self.table}, statement)

    def bounding_box(self) -> BBox:
        """Smallest box covering every customer."""
        with self._read_lock:
            return BBox.from_points(
                self.table.column("lon"), self.table.column("lat")
            )

    # ------------------------------------------------------------------
    # spatial queries
    # ------------------------------------------------------------------
    def ids_in_bbox(self, box: BBox) -> np.ndarray:
        """Customer ids inside the box, ascending."""
        with self._timed("bbox"):
            return self.index.query_bbox(box)

    def ids_in_radius(self, circle: Circle) -> np.ndarray:
        """Customer ids inside the circle, ascending."""
        with self._timed("radius"):
            return self.index.query_radius(circle)

    def ids_in_polygon(self, polygon: Polygon) -> np.ndarray:
        """Customer ids inside the polygon (index pre-filter + exact test)."""
        with self._timed("polygon"):
            candidates = self.index.query_bbox(polygon.bbox())
            if candidates.size == 0:
                return candidates
            lons = np.array([self._customers[int(cid)].lon for cid in candidates])
            lats = np.array([self._customers[int(cid)].lat for cid in candidates])
            hit = polygon.contains_many(lons, lats)
            return candidates[hit]

    def nearest(self, lon: float, lat: float, k: int = 1) -> np.ndarray:
        """Ids of the k customers nearest to a point, closest first."""
        with self._timed("nearest"):
            return self.index.nearest(lon, lat, k=k)

    def ids_in_zone(self, zone: str) -> np.ndarray:
        """Customer ids in a land-use zone, ascending."""
        with self._read_lock:
            positions = np.flatnonzero(self.table.column("zone") == zone)
            return np.sort(self.table.column("customer_id")[positions])

    def positions_of(self, customer_ids: Sequence[int]) -> np.ndarray:
        """``(n, 2)`` array of (lon, lat) for the given ids, same order."""
        with self._read_lock:
            return np.array(
                [
                    (self._customers[int(cid)].lon, self._customers[int(cid)].lat)
                    for cid in customer_ids
                ],
                dtype=np.float64,
            ).reshape(len(list(customer_ids)), 2)

    # ------------------------------------------------------------------
    # temporal queries
    # ------------------------------------------------------------------
    def readings_for(
        self,
        customer_ids: Sequence[int] | None = None,
        window: HourWindow | None = None,
    ) -> SeriesSet:
        """Readings sliced to a customer subset and/or an hour window
        (clipped to the data span): a copy of exactly that block, gathered
        in one indexing step.  Unknown ids raise ``KeyError``."""
        with self._timed("readings"):
            readings = self.readings
            lo, hi = readings.start_hour, readings.end_hour
            if window is not None:
                lo = max(window.start_hour, lo)
                hi = max(lo, min(window.end_hour, hi))
            cols = slice(lo - readings.start_hour, hi - readings.start_hour)
            if customer_ids is None:
                ids = readings.customer_ids.copy()
                block = readings.matrix[:, cols].copy()
            else:
                ids = [int(cid) for cid in customer_ids]
                rows = [readings.row_index(cid) for cid in ids]
                block = readings.matrix[rows, cols]
            return SeriesSet(customer_ids=ids, start_hour=lo, matrix=block)

    def demand(
        self,
        window: HourWindow,
        customer_ids: Sequence[int] | None = None,
        statistic: str = "mean",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-customer demand over a window — the KDE model's input.

        Returns ``(positions, values)`` where positions is ``(n, 2)`` of
        (lon, lat) and values the chosen per-customer statistic over the
        window (NaN-aware; customers with no readings in the window get 0).

        Raises
        ------
        ValueError
            For an unknown statistic or a window outside the data span.
        """
        if statistic not in DEMAND_STATISTICS:
            raise ValueError(
                f"unknown statistic {statistic!r}; pick one of {DEMAND_STATISTICS}"
            )
        with self._timed("demand"), obs.span("db.demand", statistic=statistic):
            sliced = self.readings_for(customer_ids, window)
            matrix = sliced.matrix
            values = np.zeros(sliced.n_customers)
            if matrix.shape[1] > 0:
                observed = ~np.isnan(matrix).all(axis=1)
                with np.errstate(invalid="ignore"):
                    if statistic == "mean":
                        stat = np.nanmean(matrix[observed], axis=1)
                    elif statistic == "sum":
                        stat = np.nansum(matrix[observed], axis=1)
                    else:  # max
                        stat = np.nanmax(matrix[observed], axis=1)
                values[observed] = stat
            return self.positions_of(sliced.customer_ids), values

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest_hours(
        self,
        values: np.ndarray,
        start_hour: int,
        customer_ids: Sequence[int] | None = None,
    ) -> int:
        """Append hourly columns to the readings (the stream write path).

        The batch must start exactly where the stored readings end and
        cover every customer (``customer_ids`` may reorder the rows; it
        must be a permutation of the stored ids).

        The readings live in an append-only column buffer.  The batch is
        written into the free columns past the published end, and the
        new :class:`~repro.data.timeseries.SeriesSet` — a read-only view
        of the buffer's prefix — replaces the old one in a single
        reference swap.  A published column is never written again, so a
        reader holding an older snapshot keeps a consistent matrix without
        a copy.  When the batch does not fit, the buffer grows to
        ``max(2 * capacity, needed)`` columns and only the published
        prefix is copied, so a tick costs O(customers x new hours)
        amortised, not O(customers x history).  ``db_ingest_bytes_total``
        counts the bytes written: the batch plus any growth copy.

        Returns the new ``end_hour``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(
                f"ingest values must be 2-D, got shape {values.shape}"
            )
        with self._read_lock:
            readings = self.readings
            stored_ids = readings.customer_ids.tolist()
            if customer_ids is None:
                rows = values
            else:
                batch_ids = [int(cid) for cid in customer_ids]
                if len(batch_ids) != values.shape[0]:
                    raise ValueError(
                        f"got {len(batch_ids)} customer ids for "
                        f"{values.shape[0]} rows"
                    )
                if sorted(batch_ids) != sorted(stored_ids):
                    raise ValueError(
                        "ingest batch must cover exactly the stored "
                        "customers"
                    )
                row_of = dict(zip(batch_ids, range(len(batch_ids))))
                rows = values[[row_of[cid] for cid in stored_ids]]
            if rows.shape[0] != len(stored_ids):
                raise ValueError(
                    f"ingest batch has {rows.shape[0]} rows for "
                    f"{len(stored_ids)} customers"
                )
            if start_hour != readings.end_hour:
                raise ValueError(
                    f"ingest batch must start at hour {readings.end_hour} "
                    f"(the current end), got {start_hour}"
                )
            end = readings.n_steps
            needed = end + rows.shape[1]
            buffer = self._buffer
            written = rows.nbytes
            if needed > buffer.shape[1]:
                grown = np.empty(
                    (buffer.shape[0], max(2 * buffer.shape[1], needed))
                )
                grown[:, :end] = buffer[:, :end]
                written += grown[:, :end].nbytes
                buffer = self._buffer = grown
            buffer[:, end:needed] = rows
            # Atomic swap: readers holding the old reference keep a
            # consistent snapshot (its columns are never written again).
            self.readings = _publish(
                stored_ids, readings.start_hour, buffer, needed
            )
        self.metrics.counter("db_ingest_hours_total").inc(int(values.shape[1]))
        self.metrics.counter("db_ingest_bytes_total").inc(written)
        return readings.start_hour + needed


def _publish(
    customer_ids: Sequence[int], start_hour: int, buffer: np.ndarray, width: int
) -> SeriesSet:
    """A snapshot of the buffer's first ``width`` columns as a read-only
    view, so a write through ``db.readings.matrix`` cannot reach the
    shared buffer."""
    view = buffer[:, :width]
    view.flags.writeable = False
    return SeriesSet(customer_ids=customer_ids, start_hour=start_hour, matrix=view)
