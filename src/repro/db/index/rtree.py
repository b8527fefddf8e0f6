"""STR bulk-loaded R-tree.

PostGIS indexes geometries with a GiST tree over rectangles; the classic
equivalent for static point sets is the Sort-Tile-Recursive (STR) R-tree:
sort by longitude, cut into vertical slices, sort each slice by latitude,
pack leaves bottom-up.  Queries descend only into nodes whose rectangle
intersects the query geometry; kNN runs best-first on box distance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.db.spatial import BBox, Circle


@dataclass(slots=True)
class _RNode:
    """R-tree node: leaves hold point positions, inner nodes hold children."""

    box: BBox
    points: np.ndarray | None = None
    children: list["_RNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.points is not None


class RTree:
    """Static R-tree over (lon, lat) points, STR bulk load.

    Parameters
    ----------
    node_capacity:
        Maximum entries per node (leaf points or inner children).
    """

    def __init__(
        self,
        ids: Sequence[int],
        lons: Sequence[float],
        lats: Sequence[float],
        node_capacity: int = 16,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.lons = np.asarray(lons, dtype=np.float64)
        self.lats = np.asarray(lats, dtype=np.float64)
        if not (self.ids.shape == self.lons.shape == self.lats.shape):
            raise ValueError("ids, lons and lats must have equal length")
        if self.ids.size == 0:
            raise ValueError("cannot index zero points")
        if len(set(self.ids.tolist())) != self.ids.size:
            raise ValueError("ids contain duplicates")
        if node_capacity < 2:
            raise ValueError(f"node_capacity must be >= 2, got {node_capacity}")
        self.node_capacity = node_capacity
        self.root = self._bulk_load()

    def __len__(self) -> int:
        return int(self.ids.size)

    # ------------------------------------------------------------------
    # STR bulk load
    # ------------------------------------------------------------------
    def _leaf_of(self, positions: np.ndarray) -> _RNode:
        return _RNode(
            box=BBox.from_points(self.lons[positions], self.lats[positions]),
            points=positions,
        )

    def _bulk_load(self) -> _RNode:
        cap = self.node_capacity
        positions = np.argsort(self.lons, kind="stable")
        n = positions.size
        n_leaves = int(np.ceil(n / cap))
        n_slices = int(np.ceil(np.sqrt(n_leaves)))
        slice_size = int(np.ceil(n / n_slices))
        leaves: list[_RNode] = []
        for s in range(0, n, slice_size):
            vertical = positions[s : s + slice_size]
            vertical = vertical[np.argsort(self.lats[vertical], kind="stable")]
            for t in range(0, vertical.size, cap):
                leaves.append(self._leaf_of(vertical[t : t + cap]))
        # Pack levels bottom-up until one root remains.
        level = leaves
        while len(level) > 1:
            parents: list[_RNode] = []
            for i in range(0, len(level), cap):
                group = level[i : i + cap]
                box = group[0].box
                for child in group[1:]:
                    box = box.union(child.box)
                parents.append(_RNode(box=box, children=group))
            level = parents
        return level[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _collect_box(self, node: _RNode, box: BBox, out: list[np.ndarray]) -> None:
        if not node.box.intersects(box):
            return
        if node.is_leaf:
            pts = node.points
            assert pts is not None
            hit = box.contains_many(self.lons[pts], self.lats[pts])
            if hit.any():
                out.append(pts[hit])
            return
        for child in node.children:
            self._collect_box(child, box, out)

    def query_bbox(self, box: BBox) -> np.ndarray:
        out: list[np.ndarray] = []
        self._collect_box(self.root, box, out)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(self.ids[np.concatenate(out)])

    def query_radius(self, circle: Circle) -> np.ndarray:
        out: list[np.ndarray] = []
        self._collect_box(self.root, circle.bbox(), out)
        if not out:
            return np.empty(0, dtype=np.int64)
        cand = np.concatenate(out)
        hit = circle.contains_many(self.lons[cand], self.lats[cand])
        return np.sort(self.ids[cand[hit]])

    @staticmethod
    def _box_distance2(box: BBox, lon: float, lat: float) -> float:
        dx = max(box.min_lon - lon, 0.0, lon - box.max_lon)
        dy = max(box.min_lat - lat, 0.0, lat - box.max_lat)
        return dx * dx + dy * dy

    def nearest(self, lon: float, lat: float, k: int = 1) -> np.ndarray:
        """Best-first kNN on box distance: ids of the k nearest points
        (planar degree metric), closest first."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, len(self))
        counter = 0
        heap: list[tuple[float, int, object, bool]] = [
            (self._box_distance2(self.root.box, lon, lat), counter, self.root, False)
        ]
        found: list[int] = []
        while heap and len(found) < k:
            dist2, _, item, is_point = heapq.heappop(heap)
            if is_point:
                found.append(int(item))  # type: ignore[arg-type]
                continue
            node: _RNode = item  # type: ignore[assignment]
            if node.is_leaf:
                pts = node.points
                assert pts is not None
                d2 = (self.lons[pts] - lon) ** 2 + (self.lats[pts] - lat) ** 2
                for pos, dd in zip(pts, d2):
                    counter += 1
                    heapq.heappush(heap, (float(dd), counter, int(pos), True))
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (
                            self._box_distance2(child.box, lon, lat),
                            counter,
                            child,
                            False,
                        ),
                    )
        return self.ids[np.asarray(found, dtype=np.int64)]
