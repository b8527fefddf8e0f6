"""Interactive selection operators over the 2-D embedding (view C).

View C "allows users to explore different energy consumption patterns by
selecting the points by clicking and dragging".  The browser gestures map
to four geometric operators — rectangle drag, lasso polygon, radius click
and k-nearest pick — each returning the row indices of the selected points.

:class:`SelectionSession` records the analyst's named selections, supports
set algebra between them (union / intersection / difference — shift-click
semantics) and is what the REST layer serialises back to the client.

Geometry is validated at construction: NaN is rejected everywhere, and
click centres and lasso vertices must be finite.  Infinite rectangle
bounds and an infinite radius stay valid (they select without limit on
that side), matching :class:`~repro.db.spatial.BBox`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.spatial import Polygon


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _reject_nan(name: str, value: float) -> None:
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")


def _validated_embedding(embedding: np.ndarray) -> np.ndarray:
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != 2:
        raise ValueError(
            f"embedding must be (n, 2) for view-C selection, got {embedding.shape}"
        )
    return embedding


@dataclass(frozen=True, slots=True)
class RectSelection:
    """Click-and-drag rectangle in embedding coordinates (inclusive edges)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            _reject_nan(name, getattr(self, name))
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("rectangle max corner precedes min corner")

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        emb = _validated_embedding(embedding)
        hit = (
            (emb[:, 0] >= self.x_min)
            & (emb[:, 0] <= self.x_max)
            & (emb[:, 1] >= self.y_min)
            & (emb[:, 1] <= self.y_max)
        )
        return np.flatnonzero(hit)


@dataclass(frozen=True, slots=True)
class RadiusSelection:
    """Click with a circular brush."""

    x: float
    y: float
    radius: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)
        _reject_nan("radius", self.radius)
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        emb = _validated_embedding(embedding)
        d2 = (emb[:, 0] - self.x) ** 2 + (emb[:, 1] - self.y) ** 2
        return np.flatnonzero(d2 <= self.radius**2)


class LassoSelection:
    """Freehand polygon selection."""

    def __init__(self, vertices: list[tuple[float, float]]) -> None:
        self.polygon = Polygon(vertices)
        bad = np.flatnonzero(~np.isfinite(self.polygon.vertices).all(axis=1))
        if bad.size:
            x, y = self.polygon.vertices[bad[0]]
            raise ValueError(
                f"lasso vertex {int(bad[0])} must be finite, got ({x}, {y})"
            )

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        emb = _validated_embedding(embedding)
        hit = self.polygon.contains_many(emb[:, 0], emb[:, 1])
        return np.flatnonzero(hit)


@dataclass(frozen=True, slots=True)
class KnnSelection:
    """Pick the k points closest to a click — "select the closely placed
    points" in its most literal form."""

    x: float
    y: float
    k: int

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        emb = _validated_embedding(embedding)
        d2 = (emb[:, 0] - self.x) ** 2 + (emb[:, 1] - self.y) ** 2
        k = min(self.k, emb.shape[0])
        return np.sort(np.argsort(d2, kind="stable")[:k])


Selector = RectSelection | RadiusSelection | LassoSelection | KnnSelection


@dataclass(slots=True)
class NamedSelection:
    """One analyst gesture with its result and optional label."""

    name: str
    indices: np.ndarray
    note: str = ""


@dataclass(slots=True)
class SelectionSession:
    """Accumulates named selections over one embedding.

    The embedding is fixed at construction; every operator resolves against
    it so selections stay consistent while the analyst works.
    """

    embedding: np.ndarray
    selections: dict[str, NamedSelection] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.embedding = _validated_embedding(self.embedding)

    def select(self, name: str, selector: Selector, note: str = "") -> np.ndarray:
        """Run a gesture and store it under ``name`` (replacing any prior)."""
        if not name:
            raise ValueError("selection name must be non-empty")
        indices = selector.apply(self.embedding)
        self.selections[name] = NamedSelection(name=name, indices=indices, note=note)
        return indices

    def get(self, name: str) -> np.ndarray:
        if name not in self.selections:
            raise KeyError(
                f"no selection {name!r}; have {sorted(self.selections)}"
            )
        return self.selections[name].indices

    def combine(
        self, name: str, left: str, right: str, how: str = "union"
    ) -> np.ndarray:
        """Set algebra between stored selections (shift-click semantics).

        ``how`` is ``"union"``, ``"intersection"`` or ``"difference"``.
        """
        a = set(self.get(left).tolist())
        b = set(self.get(right).tolist())
        if how == "union":
            out = a | b
        elif how == "intersection":
            out = a & b
        elif how == "difference":
            out = a - b
        else:
            raise ValueError(
                f"how must be union/intersection/difference, got {how!r}"
            )
        indices = np.asarray(sorted(out), dtype=np.int64)
        self.selections[name] = NamedSelection(name=name, indices=indices)
        return indices

    def drop(self, name: str) -> None:
        """Forget a stored selection; missing names are a no-op."""
        self.selections.pop(name, None)

    def coverage(self) -> float:
        """Share of embedded points captured by at least one selection."""
        if not self.selections:
            return 0.0
        covered: set[int] = set()
        for sel in self.selections.values():
            covered.update(sel.indices.tolist())
        return len(covered) / self.embedding.shape[0]

    def overlap_matrix(self) -> tuple[list[str], np.ndarray]:
        """Jaccard overlap between all stored selections (diagnostics)."""
        names = sorted(self.selections)
        n = len(names)
        out = np.zeros((n, n))
        sets = [set(self.selections[name].indices.tolist()) for name in names]
        for i in range(n):
            for j in range(n):
                union = sets[i] | sets[j]
                out[i, j] = len(sets[i] & sets[j]) / len(union) if union else 1.0
        return names, out
