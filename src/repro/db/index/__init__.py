"""Spatial point index.

:class:`~repro.db.index.rtree.RTree` is an STR bulk-loaded R-tree, the
structure PostGIS itself uses (GiST over rectangles).  It answers box,
radius and k-nearest-neighbour queries and is validated against brute
force in the test suite.
"""

from repro.db.index.rtree import RTree

__all__ = ["RTree"]
