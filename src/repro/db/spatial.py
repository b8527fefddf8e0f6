"""Geometry types and predicates (the PostGIS surface VAP uses).

Minimal but correct planar geometry in (lon, lat) degree space: points,
axis-aligned boxes, circles (with optional geodesic radius test) and simple
polygons with even-odd containment.  Everything is immutable and hashable
(except Polygon, which holds an array) so geometries can be used as query
parameters and cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.db.geo import haversine_m


@dataclass(frozen=True, slots=True)
class Point:
    """A WGS-84 position."""

    lon: float
    lat: float

    def distance_m(self, other: "Point") -> float:
        """Great-circle distance to another point in metres."""
        return float(haversine_m(self.lon, self.lat, other.lon, other.lat))

    def as_tuple(self) -> tuple[float, float]:
        return (self.lon, self.lat)


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box, inclusive on all edges.

    Infinite bounds are valid (``-inf, -inf, inf, inf`` covers every
    point); NaN bounds are not, because every comparison against NaN is
    false and such a box would silently match nothing.
    """

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if any(
            math.isnan(v)
            for v in (self.min_lon, self.min_lat, self.max_lon, self.max_lat)
        ):
            raise ValueError(f"bbox coordinates must not be NaN, got {self}")
        if self.max_lon < self.min_lon:
            raise ValueError(
                f"max_lon {self.max_lon} precedes min_lon {self.min_lon}"
            )
        if self.max_lat < self.min_lat:
            raise ValueError(
                f"max_lat {self.max_lat} precedes min_lat {self.min_lat}"
            )

    @classmethod
    def from_points(cls, lons: Sequence[float], lats: Sequence[float]) -> "BBox":
        """Smallest box covering the given coordinates.

        Raises
        ------
        ValueError
            If the coordinate lists are empty or of different lengths.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if lons.size == 0 or lats.size == 0:
            raise ValueError("cannot build a BBox from zero points")
        if lons.shape != lats.shape:
            raise ValueError("lons and lats must have the same length")
        return cls(
            float(lons.min()), float(lats.min()), float(lons.max()), float(lats.max())
        )

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    @property
    def center(self) -> Point:
        return Point(
            (self.min_lon + self.max_lon) / 2.0, (self.min_lat + self.max_lat) / 2.0
        )

    def contains(self, lon: float, lat: float) -> bool:
        return (
            self.min_lon <= lon <= self.max_lon
            and self.min_lat <= lat <= self.max_lat
        )

    def contains_many(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Vectorised containment test."""
        return (
            (lons >= self.min_lon)
            & (lons <= self.max_lon)
            & (lats >= self.min_lat)
            & (lats <= self.max_lat)
        )

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
            or other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
        )

    def expanded(self, margin: float) -> "BBox":
        """Box grown by ``margin`` degrees on every side."""
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        return BBox(
            self.min_lon - margin,
            self.min_lat - margin,
            self.max_lon + margin,
            self.max_lat + margin,
        )

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.min_lon, other.min_lon),
            min(self.min_lat, other.min_lat),
            max(self.max_lon, other.max_lon),
            max(self.max_lat, other.max_lat),
        )

    def area(self) -> float:
        """Planar degree-space area (index bookkeeping, not geodesic)."""
        return self.width * self.height


@dataclass(frozen=True, slots=True)
class Circle:
    """A disc around a centre point.

    ``radius_deg`` tests in planar degree space (fast, index-friendly);
    ``radius_m`` when set switches containment to geodesic metres, the
    PostGIS ``ST_DWithin(geography, ...)`` behaviour.
    """

    center: Point
    radius_deg: float
    radius_m: float | None = None

    def __post_init__(self) -> None:
        if self.radius_deg < 0:
            raise ValueError(f"radius_deg must be non-negative: {self.radius_deg}")
        if self.radius_m is not None and self.radius_m < 0:
            raise ValueError(f"radius_m must be non-negative: {self.radius_m}")

    def contains(self, lon: float, lat: float) -> bool:
        if self.radius_m is not None:
            return (
                haversine_m(self.center.lon, self.center.lat, lon, lat)
                <= self.radius_m
            )
        d2 = (lon - self.center.lon) ** 2 + (lat - self.center.lat) ** 2
        return d2 <= self.radius_deg**2

    def contains_many(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        if self.radius_m is not None:
            d = haversine_m(self.center.lon, self.center.lat, lons, lats)
            return np.asarray(d) <= self.radius_m
        d2 = (lons - self.center.lon) ** 2 + (lats - self.center.lat) ** 2
        return d2 <= self.radius_deg**2

    def bbox(self) -> BBox:
        """Bounding box for index pre-filtering (conservative for metres)."""
        radius = self.radius_deg
        if self.radius_m is not None:
            # Conservative: one degree of latitude is ~111 km everywhere, and
            # longitude degrees only shrink, so dividing by the cosine at the
            # centre overestimates the needed box.
            deg_lat = self.radius_m / 111_000.0
            cos_lat = max(0.01, float(np.cos(np.radians(self.center.lat))))
            radius = max(radius, deg_lat / cos_lat)
        return BBox(
            self.center.lon - radius,
            self.center.lat - radius,
            self.center.lon + radius,
            self.center.lat + radius,
        )


class Polygon:
    """A simple (non-self-intersecting) polygon with even-odd containment.

    Vertices are ``(lon, lat)`` pairs; the ring closes implicitly.  Used for
    the lasso selection the tool's view C supports and for zone boundaries.
    """

    def __init__(self, vertices: Sequence[tuple[float, float]]) -> None:
        pts = np.asarray(vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("vertices must be a sequence of (lon, lat) pairs")
        # Drop an explicit closing vertex if present.
        if pts.shape[0] >= 2 and np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]
        if pts.shape[0] < 3:
            raise ValueError(f"a polygon needs at least 3 vertices, got {pts.shape[0]}")
        self.vertices = pts

    def bbox(self) -> BBox:
        return BBox.from_points(self.vertices[:, 0], self.vertices[:, 1])

    def contains(self, lon: float, lat: float) -> bool:
        return bool(
            self.contains_many(np.asarray([lon]), np.asarray([lat]))[0]
        )

    def contains_many(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Vectorised even-odd (ray casting) containment.

        Points exactly on an edge may land on either side — acceptable for
        interactive selection semantics.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        inside = np.zeros(lons.shape, dtype=bool)
        xs = self.vertices[:, 0]
        ys = self.vertices[:, 1]
        n = xs.shape[0]
        j = n - 1
        for i in range(n):
            crosses = (ys[i] > lats) != (ys[j] > lats)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at = xs[i] + (lats - ys[i]) / (ys[j] - ys[i]) * (xs[j] - xs[i])
            inside ^= crosses & (lons < x_at)
            j = i
        return inside

    def area(self) -> float:
        """Planar degree-space area via the shoelace formula."""
        xs = self.vertices[:, 0]
        ys = self.vertices[:, 1]
        return float(
            0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon(n_vertices={self.vertices.shape[0]})"
