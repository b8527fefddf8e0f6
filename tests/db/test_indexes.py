"""Tests for the R-tree spatial index, validated against brute force."""

import math

import numpy as np
import pytest

from repro.db.index.rtree import RTree
from repro.db.spatial import BBox, Circle, Point

INDEX_CLASSES = [RTree]


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(77)
    n = 400
    # Skewed distribution: dense blob + sparse background, plus duplicates.
    blob = rng.normal([12.57, 55.68], 0.005, size=(n // 2, 2))
    sparse = rng.uniform([12.40, 55.55], [12.75, 55.80], size=(n // 2 - 3, 2))
    duplicates = np.tile([[12.50, 55.60]], (3, 1))
    pts = np.vstack([blob, sparse, duplicates])
    ids = np.arange(pts.shape[0]) * 7 + 3  # non-contiguous ids
    return ids, pts[:, 0], pts[:, 1]


def brute_bbox(ids, lons, lats, box):
    hit = box.contains_many(lons, lats)
    return sorted(ids[hit].tolist())


def brute_radius(ids, lons, lats, circle):
    hit = circle.contains_many(lons, lats)
    return sorted(ids[hit].tolist())


def brute_knn(ids, lons, lats, lon, lat, k):
    d2 = (lons - lon) ** 2 + (lats - lat) ** 2
    order = np.argsort(d2, kind="stable")[:k]
    return ids[order]


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestIndexCorrectness:
    def test_len(self, cls, cloud):
        ids, lons, lats = cloud
        assert len(cls(ids, lons, lats)) == ids.size

    def test_bbox_queries_match_brute_force(self, cls, cloud, rng):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        for _ in range(25):
            x0, x1 = sorted(rng.uniform(12.35, 12.80, 2))
            y0, y1 = sorted(rng.uniform(55.50, 55.85, 2))
            box = BBox(x0, y0, x1, y1)
            assert index.query_bbox(box).tolist() == brute_bbox(
                ids, lons, lats, box
            )

    def test_empty_bbox_result(self, cls, cloud):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        out = index.query_bbox(BBox(0.0, 0.0, 1.0, 1.0))
        assert out.size == 0

    @pytest.mark.parametrize(
        "box",
        [BBox(-math.inf, -math.inf, math.inf, math.inf), BBox(0, 0, 1e308, 1e308)],
        ids=["infinite", "huge"],
    )
    def test_unbounded_bbox_returns_every_id(self, cls, cloud, box):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        assert index.query_bbox(box).tolist() == sorted(ids.tolist())

    def test_radius_queries_match_brute_force(self, cls, cloud, rng):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        for _ in range(25):
            circle = Circle(
                Point(rng.uniform(12.4, 12.75), rng.uniform(55.55, 55.8)),
                rng.uniform(0.001, 0.1),
            )
            assert index.query_radius(circle).tolist() == brute_radius(
                ids, lons, lats, circle
            )

    def test_geodesic_radius(self, cls, cloud):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        circle = Circle(Point(12.57, 55.68), 0.0, radius_m=800.0)
        assert index.query_radius(circle).tolist() == brute_radius(
            ids, lons, lats, circle
        )

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_knn_distances_match_brute_force(self, cls, cloud, rng, k):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        pos_of = {int(i): p for p, i in enumerate(ids)}
        for _ in range(10):
            lon = rng.uniform(12.4, 12.75)
            lat = rng.uniform(55.55, 55.8)
            got = index.nearest(lon, lat, k=k)
            want = brute_knn(ids, lons, lats, lon, lat, k)
            # Distances must match exactly (ties may reorder ids).
            def dist(seq):
                rows = [pos_of[int(i)] for i in seq]
                return np.sort(
                    (lons[rows] - lon) ** 2 + (lats[rows] - lat) ** 2
                )
            np.testing.assert_allclose(dist(got), dist(want))

    def test_knn_k_larger_than_n(self, cls):
        index = cls([1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert index.nearest(0.0, 0.0, k=10).size == 3

    def test_knn_rejects_bad_k(self, cls, cloud):
        ids, lons, lats = cloud
        index = cls(ids, lons, lats)
        with pytest.raises(ValueError):
            index.nearest(0.0, 0.0, k=0)

    def test_rejects_empty(self, cls):
        with pytest.raises(ValueError):
            cls([], [], [])

    def test_rejects_duplicate_ids(self, cls):
        with pytest.raises(ValueError, match="duplicates"):
            cls([1, 1], [0.0, 1.0], [0.0, 1.0])

    def test_rejects_ragged_input(self, cls):
        with pytest.raises(ValueError):
            cls([1, 2], [0.0], [0.0, 1.0])

    def test_single_point(self, cls):
        index = cls([9], [12.5], [55.6])
        assert index.query_bbox(BBox(12.0, 55.0, 13.0, 56.0)).tolist() == [9]
        assert index.nearest(0.0, 0.0, k=1).tolist() == [9]

    def test_collinear_points(self, cls):
        """Degenerate extent on one axis must not break construction."""
        n = 20
        index = cls(list(range(n)), np.linspace(0, 1, n), np.zeros(n))
        box = BBox(0.2, -0.1, 0.4, 0.1)
        got = index.query_bbox(box).tolist()
        want = [i for i, x in enumerate(np.linspace(0, 1, n)) if 0.2 <= x <= 0.4]
        assert got == want

    def test_coincident_points(self, cls):
        """Many identical positions (quadtree split guard)."""
        n = 40
        index = cls(list(range(n)), np.full(n, 1.0), np.full(n, 2.0))
        out = index.query_bbox(BBox(0.9, 1.9, 1.1, 2.1))
        assert out.size == n
        assert index.nearest(1.0, 2.0, k=5).size == 5
