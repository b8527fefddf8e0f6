"""Tests for the EnergyDatabase facade."""

import numpy as np
import pytest

from repro.data.timeseries import HourWindow, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.db.query import Compare
from repro.db.spatial import BBox, Circle, Point, Polygon


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
