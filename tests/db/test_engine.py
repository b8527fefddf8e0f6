"""Tests for the EnergyDatabase facade."""

import numpy as np
import pytest

from repro.data.timeseries import HourWindow, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.db.query import Compare
from repro.db.spatial import BBox, Circle, Point, Polygon
from repro.obs import MetricsRegistry


class TestConstruction:
    def test_rejects_mismatched_ids(self, small_city):
        readings = small_city.raw.select_customers(
            [int(c) for c in small_city.raw.customer_ids[:-1]]
        )
        with pytest.raises(ValueError, match="different ids"):
            EnergyDatabase(small_city.customers, readings)

    def test_rejects_empty(self, small_city):
        with pytest.raises(ValueError):
            EnergyDatabase([], small_city.raw)


class TestSpatialQueries:
    def test_bbox_matches_brute_force(self, small_db, small_city):
        box = small_db.bounding_box()
        mid = box.center
        query = BBox(box.min_lon, box.min_lat, mid.lon, mid.lat)
        got = small_db.ids_in_bbox(query).tolist()
        want = sorted(
            c.customer_id
            for c in small_city.customers
            if query.contains(c.lon, c.lat)
        )
        assert got == want

    def test_polygon_query(self, small_db, small_city):
        box = small_db.bounding_box()
        mid = box.center
        triangle = Polygon(
            [
                (box.min_lon, box.min_lat),
                (box.max_lon, box.min_lat),
                (mid.lon, box.max_lat),
            ]
        )
        got = set(small_db.ids_in_polygon(triangle).tolist())
        want = {
            c.customer_id
            for c in small_city.customers
            if triangle.contains(c.lon, c.lat)
        }
        assert got == want

    def test_radius_query(self, small_db, small_city):
        center = small_db.bounding_box().center
        circle = Circle(Point(center.lon, center.lat), 0.015)
        got = small_db.ids_in_radius(circle).tolist()
        want = sorted(
            c.customer_id
            for c in small_city.customers
            if circle.contains(c.lon, c.lat)
        )
        assert got == want

    def test_zone_query(self, small_db, small_city):
        got = small_db.ids_in_zone("commercial").tolist()
        want = sorted(
            c.customer_id
            for c in small_city.customers
            if c.zone.value == "commercial"
        )
        assert got == want

    def test_nearest(self, small_db, small_city):
        target = small_city.customers[0]
        nn = small_db.nearest(target.lon, target.lat, k=1)
        assert nn[0] == target.customer_id

    def test_positions_of_order(self, small_db, small_city):
        ids = [small_city.customers[2].customer_id, small_city.customers[0].customer_id]
        pos = small_db.positions_of(ids)
        assert pos[0, 0] == small_city.customers[2].lon
        assert pos[1, 0] == small_city.customers[0].lon


class TestTemporalQueries:
    def test_readings_for_subset_and_window(self, small_db):
        ids = small_db.customer_ids[:3]
        window = HourWindow(24, 72)
        out = small_db.readings_for(ids, window)
        assert out.n_customers == 3
        assert out.start_hour == 24
        assert out.n_steps == 48

    def test_demand_statistics(self, small_db):
        window = HourWindow(0, 24)
        pos, mean_v = small_db.demand(window, statistic="mean")
        _, sum_v = small_db.demand(window, statistic="sum")
        _, max_v = small_db.demand(window, statistic="max")
        assert pos.shape == (len(small_db), 2)
        # Manual NaN-aware reference for the first few customers.
        raw = small_db.readings_for(small_db.customer_ids, window).matrix
        for row in range(5):
            observed = raw[row][~np.isnan(raw[row])]
            if observed.size == 0:
                assert sum_v[row] == 0.0
                continue
            assert sum_v[row] == pytest.approx(observed.sum())
            assert mean_v[row] == pytest.approx(observed.mean())
            assert max_v[row] == pytest.approx(observed.max())

    def test_demand_unknown_statistic(self, small_db):
        with pytest.raises(ValueError, match="statistic"):
            small_db.demand(HourWindow(0, 24), statistic="p95")

    def test_demand_empty_window_is_zero(self, small_db):
        span = small_db.time_span
        _, values = small_db.demand(HourWindow(span.end_hour + 5, span.end_hour + 6))
        assert (values == 0).all()

    def test_customer_lookup(self, small_db):
        cid = small_db.customer_ids[0]
        assert small_db.customer(cid).customer_id == cid
        with pytest.raises(KeyError):
            small_db.customer(10**9)

    def test_query_integration(self, small_db):
        n = (
            small_db.query()
            .where(Compare("zone", "==", "residential"))
            .count()
        )
        want = len(small_db.ids_in_zone("residential"))
        assert n == want


@pytest.fixture(scope="module")
def offset_db(small_city):
    """A private database whose readings start at hour 100 with rows in
    reverse id order, so neither column offsets nor row lookup are
    trivial."""
    raw = small_city.raw
    readings = SeriesSet(
        raw.customer_ids[::-1].tolist(), 100, raw.matrix[::-1].copy()
    )
    return EnergyDatabase(small_city.customers, readings)


def _id_sets(db):
    ids = db.customer_ids
    return {
        "unordered": [ids[7], ids[2], ids[30], ids[0]],
        "single": [ids[5]],
        "all": ids,
        "none": None,
    }


WINDOWS = {
    "inside": HourWindow(124, 172),
    "clipped_start": HourWindow(40, 130),
    "clipped_end": HourWindow(590, 700),
    "covering": HourWindow(0, 10_000),
    "empty": HourWindow(150, 150),
    "beyond_end": HourWindow(700, 720),
    "before_start": HourWindow(10, 20),
    "none": None,
}


class TestReadingsForContract:
    """One-step block gather == select_customers(...).slice_hours(...)."""

    @pytest.mark.parametrize("id_set", ["unordered", "single", "all", "none"])
    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_matches_select_then_slice(self, offset_db, id_set, window):
        ids = _id_sets(offset_db)[id_set]
        w = WINDOWS[window]
        want = offset_db.readings
        if ids is not None:
            want = want.select_customers(ids)
        if w is not None:
            want = want.slice_hours(w.start_hour, w.end_hour)
        got = offset_db.readings_for(ids, w)
        assert got.customer_ids.tolist() == want.customer_ids.tolist()
        assert got.start_hour == want.start_hour
        assert got.matrix.shape == want.matrix.shape
        assert np.array_equal(got.matrix, want.matrix, equal_nan=True)
        assert not np.shares_memory(got.matrix, offset_db.readings.matrix)

    @pytest.mark.parametrize("id_set", ["single", "none"])
    def test_mutating_result_leaves_store_unchanged(self, offset_db, id_set):
        ids = _id_sets(offset_db)[id_set]
        before = offset_db.readings.matrix.copy()
        got = offset_db.readings_for(ids, HourWindow(124, 172))
        got.matrix[:] = -1.0
        got.customer_ids[:] = -1
        assert np.array_equal(offset_db.readings.matrix, before, equal_nan=True)
        assert (offset_db.readings.customer_ids >= 0).all()

    def test_unknown_id_raises_key_error(self, offset_db):
        with pytest.raises(KeyError):
            offset_db.readings_for([offset_db.customer_ids[0], 10**9])


class TestIngestBuffer:
    """Ingest appends into a column buffer behind read-only prefix views."""

    N_TICKS = 512

    @staticmethod
    def _replay(city, history_hours, n_ticks):
        """Replay ``n_ticks`` one-hour ticks over ``history_hours`` of
        random history; returns the database, each tick's
        ``db_ingest_bytes_total`` delta and whether the tick grew the
        buffer (its snapshot shares no memory with the previous one)."""
        registry = MetricsRegistry()
        ids = city.raw.customer_ids
        rng = np.random.default_rng(history_hours)
        history = SeriesSet(ids, 0, rng.random((len(ids), history_hours)))
        db = EnergyDatabase(city.customers, history, metrics=registry)
        written = registry.counter("db_ingest_bytes_total")
        deltas, grew = [], []
        for _ in range(n_ticks):
            before, snapshot = written.value, db.readings.matrix
            end = db.time_span.end_hour
            assert db.ingest_hours(rng.random((len(ids), 1)), end) == end + 1
            deltas.append(written.value - before)
            grew.append(not np.shares_memory(snapshot, db.readings.matrix))
        return db, np.array(deltas), np.array(grew)

    @pytest.mark.parametrize("history_hours", [1_000, 8_000])
    def test_tick_bytes_do_not_grow_with_history(self, small_city, history_hours):
        db, deltas, grew = self._replay(small_city, history_hours, self.N_TICKS)
        column = len(db) * 8
        # The first tick takes over the adopted caller's matrix: one copy
        # of the history into a buffer the database owns, with room for
        # as many hours again, so no later tick in this run grows it.
        assert grew.tolist() == [True] + [False] * (self.N_TICKS - 1)
        assert deltas[0] == (history_hours + 1) * column
        # Every other tick writes exactly its own column.
        assert (deltas[1:] == column).all()
        amortised = (deltas.sum() - history_hours * column) / self.N_TICKS
        assert amortised == column

    def test_growth_steps_are_logarithmic_in_ticks(self, small_city):
        db, deltas, grew = self._replay(small_city, 1, self.N_TICKS)
        column = len(db) * 8
        # Capacity doubles 1 -> 2 -> ... -> 1024: ten growth steps for
        # 512 ticks, each copying only the published prefix.
        assert int(grew.sum()) == int(np.ceil(np.log2(1 + self.N_TICKS)))
        ends = 1 + np.arange(self.N_TICKS)
        assert (deltas[grew] == (ends[grew] + 1) * column).all()
        assert (deltas[~grew] == column).all()
        # Copies 1 + 2 + ... + 512 columns plus 512 written: the bound of
        # a doubling buffer, three columns per tick right after a growth.
        assert deltas.sum() / self.N_TICKS <= 3 * column

    def test_snapshots_stay_valid_and_match_a_rebuild(self, small_city):
        raw = small_city.raw
        db = EnergyDatabase(small_city.customers, raw.slice_hours(0, 100))
        snapshots = []
        for start in range(100, 400, 3):
            snapshots.append(db.readings)
            db.ingest_hours(raw.matrix[:, start:start + 3], start)
        for snap in snapshots:
            want = raw.matrix[:, : snap.n_steps]
            assert snap.matrix.tobytes() == want.tobytes()
        assert db.readings.matrix.tobytes() == raw.matrix[:, :400].tobytes()

    def test_published_matrix_is_read_only(self, small_city):
        raw = small_city.raw
        adopted = raw.slice_hours(0, 48)
        original = adopted.matrix.copy()
        db = EnergyDatabase(small_city.customers, adopted)
        with pytest.raises(ValueError, match="read-only"):
            db.readings.matrix[0, 0] = -1.0
        db.ingest_hours(raw.matrix[:, 48:50], 48)
        with pytest.raises(ValueError, match="read-only"):
            db.readings.matrix[:, -1] = -1.0
        # The caller's array was adopted, never written or frozen.
        assert adopted.matrix.flags.writeable
        assert adopted.matrix.tobytes() == original.tobytes()
        assert db.readings.matrix.tobytes() == raw.matrix[:, :50].tobytes()

    def test_rejected_batch_leaves_readings_unchanged(self, small_city):
        raw = small_city.raw
        db = EnergyDatabase(small_city.customers, raw.slice_hours(0, 48))
        db.ingest_hours(raw.matrix[:, 48:49], 48)
        snapshot = db.readings
        with pytest.raises(ValueError, match="must start at hour 49"):
            db.ingest_hours(raw.matrix[:, 50:51], 50)
        with pytest.raises(ValueError, match="rows"):
            db.ingest_hours(raw.matrix[:3, 49:50], 49)
        assert db.readings is snapshot
        db.ingest_hours(raw.matrix[:, 49:52], 49)
        assert db.readings.matrix.tobytes() == raw.matrix[:, :52].tobytes()
