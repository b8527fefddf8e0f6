"""Embedded spatio-temporal store — the PostgreSQL/PostGIS stand-in.

The paper's data layer is PostgreSQL with PostGIS for spatial processing.
This package reproduces the pieces VAP actually exercises, pure-Python:

- geometry types and predicates (:mod:`repro.db.spatial`),
- geodesy (haversine, Web-Mercator; :mod:`repro.db.geo`),
- an STR R-tree spatial index (:mod:`repro.db.index`),
- a typed column-table engine with a small query API
  (:mod:`repro.db.table`, :mod:`repro.db.query`),
- an :class:`~repro.db.engine.EnergyDatabase` facade that stores customers
  + readings and answers the spatial/temporal queries the logic layer and
  the REST API issue.
"""

from __future__ import annotations

from repro.db.engine import EnergyDatabase
from repro.db.spatial import BBox, Circle, Point, Polygon

__all__ = [
    "BBox",
    "Circle",
    "EnergyDatabase",
    "Point",
    "Polygon",
]
