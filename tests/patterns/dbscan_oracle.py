"""Two-matrix reference for DBSCAN in ``repro.core.patterns.autodiscover``.

``auto_epsilon_oracle`` builds its own squared-distance matrix and sorts
every row in full to read the ``min_points``-th neighbour distance;
``dbscan_oracle`` calls it and then builds a second matrix for the
neighbourhoods.  The kernel builds one matrix and partitions instead of
sorting, so a parity test compares labels and epsilon bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.patterns.autodiscover import NOISE


def _squared_distances(embedding: np.ndarray) -> np.ndarray:
    sq = (embedding**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedding @ embedding.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2


def auto_epsilon_oracle(embedding: np.ndarray, min_points: int = 5) -> float:
    """The 90th percentile of the ``min_points``-th neighbour distance."""
    embedding = np.asarray(embedding, dtype=np.float64)
    n = embedding.shape[0]
    if n <= min_points:
        raise ValueError(
            f"need more than {min_points} points to estimate epsilon, "
            f"got {n}"
        )
    d2 = _squared_distances(embedding)
    d2.sort(axis=1)
    kth = np.sqrt(d2[:, min_points])  # column 0 is self (distance 0)
    return float(np.quantile(kth, 0.90))


def dbscan_oracle(
    embedding: np.ndarray,
    epsilon: float | None = None,
    min_points: int = 5,
) -> np.ndarray:
    """Labels in discovery order, ``NOISE`` for unclustered points."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if epsilon is None:
        epsilon = auto_epsilon_oracle(embedding, min_points)
    n = embedding.shape[0]
    within = _squared_distances(embedding) <= epsilon**2
    core = within.sum(axis=1) >= min_points

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
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
