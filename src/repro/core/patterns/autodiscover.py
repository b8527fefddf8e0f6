"""Automatic selection proposals: density clustering of view C.

The demo's interactive loop starts with the analyst eyeballing the
embedding for dense groups.  A practical tool can *propose* those groups:
DBSCAN over the 2-D points finds exactly the "closely placed" clusters the
paper has attendees select by hand, and each proposal can then be named by
the template labeller.  Implemented from scratch: classic DBSCAN with an
epsilon neighbourhood and a minimum-points core rule; ``auto_epsilon``
picks the knee of the k-distance curve when the analyst does not tune it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Label for points that belong to no cluster.
NOISE = -1


def _validated(embedding: np.ndarray) -> np.ndarray:
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != 2:
        raise ValueError(f"embedding must be (n, 2), got {embedding.shape}")
    if not np.isfinite(embedding).all():
        raise ValueError("embedding contains NaN/inf")
    return embedding


def _squared_distances(embedding: np.ndarray) -> np.ndarray:
    """All pairwise squared distances, clipped at zero."""
    sq = (embedding**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedding @ embedding.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _epsilon_from(d2: np.ndarray, min_points: int) -> float:
    """The k-distance estimate over a squared-distance matrix."""
    n = d2.shape[0]
    if n <= min_points:
        raise ValueError(
            f"need more than {min_points} points to estimate epsilon, "
            f"got {n}"
        )
    # Column 0 of a sorted row is self (distance 0); partitioning at
    # ``min_points`` yields the same order statistic without the sort.
    kth = np.sqrt(np.partition(d2, min_points, axis=1)[:, min_points])
    return float(np.quantile(kth, 0.90))


def auto_epsilon(embedding: np.ndarray, min_points: int = 5) -> float:
    """Epsilon from the k-distance heuristic.

    The distance to each point's ``min_points``-th neighbour is sorted and
    the value at the 90th percentile taken — a robust stand-in for the
    "knee" a human would read off the curve.

    Raises
    ------
    ValueError
        If there are fewer points than ``min_points + 1``.
    """
    return _epsilon_from(_squared_distances(_validated(embedding)), min_points)


def dbscan(
    embedding: np.ndarray,
    epsilon: float | None = None,
    min_points: int = 5,
) -> np.ndarray:
    """Density clustering; returns labels with ``-1`` marking noise.

    Cluster ids are assigned in discovery order (0, 1, ...).

    Raises
    ------
    ValueError
        For a non-positive epsilon or min_points.
    """
    embedding = _validated(embedding)
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    n = embedding.shape[0]
    # One distance matrix serves both the epsilon estimate and the
    # neighbourhoods.
    d2 = _squared_distances(embedding)
    if epsilon is None:
        epsilon = _epsilon_from(d2, min_points)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    within = d2 <= epsilon**2
    neighbour_counts = within.sum(axis=1)  # includes self
    core = neighbour_counts >= min_points

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        # Expand the cluster from this core point (BFS).
        labels[seed] = cluster
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            if not core[point]:
                continue
            for neighbour in np.flatnonzero(within[point]):
                if labels[neighbour] == NOISE:
                    labels[neighbour] = cluster
                    frontier.append(int(neighbour))
        cluster += 1
    return labels


@dataclass(frozen=True, slots=True)
class Proposal:
    """One suggested selection."""

    cluster_id: int
    indices: np.ndarray
    center: tuple[float, float]

    @property
    def size(self) -> int:
        return int(self.indices.size)


def propose_selections(
    embedding: np.ndarray,
    epsilon: float | None = None,
    min_points: int = 5,
    min_size: int = 5,
) -> list[Proposal]:
    """DBSCAN clusters as ready-made selections, largest first.

    Raises
    ------
    ValueError
        For a non-positive ``min_size``.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    embedding = _validated(embedding)
    labels = dbscan(embedding, epsilon=epsilon, min_points=min_points)
    proposals: list[Proposal] = []
    for cluster_id in np.unique(labels):
        if cluster_id == NOISE:
            continue
        indices = np.flatnonzero(labels == cluster_id)
        if indices.size < min_size:
            continue
        center = embedding[indices].mean(axis=0)
        proposals.append(
            Proposal(
                cluster_id=int(cluster_id),
                indices=indices,
                center=(float(center[0]), float(center[1])),
            )
        )
    proposals.sort(key=lambda p: p.size, reverse=True)
    return proposals
