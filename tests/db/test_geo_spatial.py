"""Tests for geodesy and geometry types."""

import math

import numpy as np
import pytest

from repro.db.geo import (
    EARTH_RADIUS_M,
    haversine_m,
    inverse_mercator,
    mercator_xy,
    meters_per_degree,
)
from repro.db.spatial import BBox, Circle, Point, Polygon


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(12.5, 55.7, 12.5, 55.7) == 0.0

    def test_known_distance_copenhagen_to_aarhus(self):
        # ~157 km great-circle.
        d = haversine_m(12.568, 55.676, 10.203, 56.162)
        assert d == pytest.approx(157_000, rel=0.05)

    def test_one_degree_latitude(self):
        d = haversine_m(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_M / 180.0, rel=1e-6)

    def test_symmetry(self):
        a = haversine_m(10.0, 50.0, 11.0, 51.0)
        b = haversine_m(11.0, 51.0, 10.0, 50.0)
        assert a == pytest.approx(b)

    def test_broadcasts(self):
        lons = np.array([0.0, 1.0, 2.0])
        d = haversine_m(0.0, 0.0, lons, np.zeros(3))
        assert d.shape == (3,)
        assert d[0] == 0.0 and d[1] < d[2]


class TestMercator:
    def test_round_trip(self):
        lon, lat = 12.57, 55.68
        x, y = mercator_xy(lon, lat)
        lon2, lat2 = inverse_mercator(x, y)
        assert lon2 == pytest.approx(lon, abs=1e-9)
        assert lat2 == pytest.approx(lat, abs=1e-9)

    def test_equator_origin(self):
        x, y = mercator_xy(0.0, 0.0)
        assert x == 0.0
        assert y == pytest.approx(0.0, abs=1e-6)

    def test_polar_clamp(self):
        _, y_89 = mercator_xy(0.0, 89.0)
        _, y_90 = mercator_xy(0.0, 90.0)
        assert np.isfinite(y_90)
        assert y_90 >= y_89

    def test_meters_per_degree_shrinks_with_latitude(self):
        lon_eq, lat_eq = meters_per_degree(0.0)
        lon_north, lat_north = meters_per_degree(60.0)
        assert lon_north == pytest.approx(lon_eq / 2.0, rel=1e-3)
        assert lat_north == pytest.approx(lat_eq)


class TestBBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            BBox(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BBox(0.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "coords",
        [
            (math.nan, math.nan, math.nan, math.nan),
            (0.0, 0.0, math.nan, 1.0),
            (math.nan, 0.0, 1.0, 1.0),
        ],
    )
    def test_rejects_nan(self, coords):
        with pytest.raises(ValueError, match="NaN"):
            BBox(*coords)

    def test_infinite_bounds_are_valid(self):
        box = BBox(-math.inf, -math.inf, math.inf, math.inf)
        assert box.contains(12.5, 55.6)

    def test_from_points(self):
        box = BBox.from_points([1.0, 3.0, 2.0], [5.0, 4.0, 6.0])
        assert (box.min_lon, box.max_lon) == (1.0, 3.0)
        assert (box.min_lat, box.max_lat) == (4.0, 6.0)

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            BBox.from_points([], [])

    def test_contains_inclusive_edges(self):
        box = BBox(0.0, 0.0, 1.0, 1.0)
        assert box.contains(0.0, 0.0) and box.contains(1.0, 1.0)
        assert not box.contains(1.0001, 0.5)

    def test_contains_many_matches_scalar(self, rng):
        box = BBox(0.2, 0.2, 0.8, 0.8)
        lons = rng.random(100)
        lats = rng.random(100)
        vector = box.contains_many(lons, lats)
        scalar = [box.contains(x, y) for x, y in zip(lons, lats)]
        assert vector.tolist() == scalar

    def test_intersects(self):
        a = BBox(0.0, 0.0, 1.0, 1.0)
        assert a.intersects(BBox(0.5, 0.5, 2.0, 2.0))
        assert a.intersects(BBox(1.0, 1.0, 2.0, 2.0))  # touching counts
        assert not a.intersects(BBox(1.1, 1.1, 2.0, 2.0))

    def test_union_and_expand(self):
        a = BBox(0.0, 0.0, 1.0, 1.0)
        b = BBox(2.0, -1.0, 3.0, 0.5)
        u = a.union(b)
        assert (u.min_lon, u.min_lat, u.max_lon, u.max_lat) == (0.0, -1.0, 3.0, 1.0)
        e = a.expanded(0.5)
        assert e.width == pytest.approx(2.0)
        with pytest.raises(ValueError):
            a.expanded(-0.1)

    def test_center_and_area(self):
        box = BBox(0.0, 0.0, 2.0, 4.0)
        assert box.center == Point(1.0, 2.0)
        assert box.area() == 8.0


class TestCircle:
    def test_planar_containment(self):
        c = Circle(Point(0.0, 0.0), 1.0)
        assert c.contains(0.5, 0.5)
        assert not c.contains(1.0, 1.0)

    def test_geodesic_containment(self):
        c = Circle(Point(12.57, 55.68), 0.0, radius_m=1000.0)
        assert c.contains(12.57, 55.68)
        # ~0.01 degrees latitude is ~1.1 km.
        assert not c.contains(12.57, 55.69)

    def test_geodesic_bbox_is_conservative(self, rng):
        c = Circle(Point(12.57, 55.68), 0.0, radius_m=2000.0)
        box = c.bbox()
        for _ in range(200):
            lon = rng.uniform(12.5, 12.65)
            lat = rng.uniform(55.6, 55.76)
            if c.contains(lon, lat):
                assert box.contains(lon, lat)

    def test_validation(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)
        with pytest.raises(ValueError):
            Circle(Point(0, 0), 1.0, radius_m=-5.0)


class TestPolygon:
    def test_triangle_containment(self):
        tri = Polygon([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
        assert tri.contains(1.0, 0.5)
        assert not tri.contains(2.0, 2.0)

    def test_concave_polygon(self):
        # A "U" shape: the notch interior must be outside.
        u = Polygon(
            [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        )
        assert u.contains(0.5, 2.0)
        assert u.contains(2.5, 2.0)
        assert not u.contains(1.5, 2.0)  # inside the notch

    def test_closing_vertex_dropped(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1), (0, 0)])
        assert tri.vertices.shape == (3, 2)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_area_shoelace(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.area() == 4.0

    def test_contains_many_matches_scalar(self, rng):
        poly = Polygon([(0, 0), (4, 1), (3, 4), (1, 3)])
        lons = rng.uniform(-1, 5, 200)
        lats = rng.uniform(-1, 5, 200)
        vec = poly.contains_many(lons, lats)
        assert vec.tolist() == [poly.contains(x, y) for x, y in zip(lons, lats)]

    def test_bbox(self):
        poly = Polygon([(0, 0), (4, 1), (3, 4)])
        box = poly.bbox()
        assert (box.min_lon, box.max_lat) == (0.0, 4.0)
