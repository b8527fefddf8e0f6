"""Multi-dimensional scaling (classical + SMACOF), from scratch.

The paper's second reducer cites Kruskal (1964).  Two variants:

- ``"classical"`` — Torgerson's spectral method: double-centre the squared
  dissimilarities and take the top eigenvectors.  Fast, closed-form, exact
  when the dissimilarities are Euclidean.
- ``"smacof"`` — iterative stress majorisation, the standard way to fit
  arbitrary (e.g. Pearson) dissimilarities.  Initialised from the classical
  solution, so the result is deterministic.

Both report Kruskal's *stress-1*, the fit number the S1c comparison prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.reduction.distances import pairwise_distances, validate_distance_matrix

METHODS = ("classical", "smacof")


@dataclass(slots=True)
class MDSResult:
    """Embedding plus goodness-of-fit diagnostics."""

    embedding: np.ndarray
    stress: float
    n_iter: int
    method: str


def _embedding_distances(y: np.ndarray) -> np.ndarray:
    sq = (y**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def kruskal_stress(dist: np.ndarray, y: np.ndarray) -> float:
    """Stress-1: sqrt( sum (d - d_hat)^2 / sum d^2 ) over the upper triangle."""
    d_hat = _embedding_distances(y)
    iu = np.triu_indices(dist.shape[0], k=1)
    num = ((dist[iu] - d_hat[iu]) ** 2).sum()
    den = (dist[iu] ** 2).sum()
    if den == 0:
        return 0.0
    return float(np.sqrt(num / den))


def classical_mds(dist: np.ndarray, n_components: int = 2) -> np.ndarray:
    """Torgerson's method.

    Negative eigenvalues (non-Euclidean input) are truncated to zero, the
    standard practical treatment.
    """
    n = dist.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dist**2) @ j
    b = (b + b.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:n_components]
    vals = np.clip(eigvals[order], 0.0, None)
    y = eigvecs[:, order] * np.sqrt(vals)[None, :]
    # Deterministic sign convention.
    for c in range(y.shape[1]):
        pivot = np.argmax(np.abs(y[:, c]))
        if y[pivot, c] < 0:
            y[:, c] *= -1.0
    return y


def smacof(
    dist: np.ndarray,
    n_components: int = 2,
    max_iter: int = 300,
    tol: float = 1e-7,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int]:
    """Stress majorisation via the Guttman transform.

    Returns ``(embedding, stress, n_iter)``.  Raw stress decreases
    monotonically; iteration stops when the relative improvement drops
    below ``tol``.
    """
    n = dist.shape[0]
    y = init.copy() if init is not None else classical_mds(dist, n_components)
    if y.shape != (n, n_components):
        raise ValueError(
            f"init shape {y.shape} does not match ({n}, {n_components})"
        )
    # Break exact ties (e.g. all-zero classical init) deterministically.
    if np.allclose(y, 0.0):
        rng = np.random.default_rng(0)
        y = rng.normal(0.0, 1e-3, size=(n, n_components))
    previous_raw = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d_hat = _embedding_distances(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d_hat > 0, dist / d_hat, 0.0)
        np.fill_diagonal(ratio, 0.0)
        b = -ratio
        np.fill_diagonal(b, ratio.sum(axis=1))
        y = (b @ y) / n  # Guttman transform (V^+ = I/n for full weights)
        iu = np.triu_indices(n, k=1)
        raw = float(((dist[iu] - _embedding_distances(y)[iu]) ** 2).sum())
        if previous_raw - raw < tol * max(previous_raw, 1e-30):
            break
        previous_raw = raw
    return y, kruskal_stress(dist, y), iterations


def mds(
    features: np.ndarray | None = None,
    *,
    distances: np.ndarray | None = None,
    metric: str = "pearson",
    method: str = "smacof",
    n_components: int = 2,
    max_iter: int = 300,
    dtw_max_rows: int | None = None,
) -> MDSResult:
    """Embed rows with MDS; mirrors the :func:`~repro.core.reduction.tsne.tsne`
    calling convention (including the DTW row-ceiling override for the
    distance stage).

    Raises
    ------
    ValueError
        On inconsistent inputs or an unknown method.
    """
    if (features is None) == (distances is None):
        raise ValueError("pass exactly one of features or distances")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    if distances is None:
        assert features is not None
        dist = pairwise_distances(
            features, metric=metric, dtw_max_rows=dtw_max_rows
        )
    else:
        dist = validate_distance_matrix(distances)
    if dist.shape[0] < 3:
        raise ValueError(f"need at least 3 points for MDS, got {dist.shape[0]}")
    with obs.span("kernel.mds", n_points=dist.shape[0], method=method), \
            obs.get_registry().timer("kernel_runtime_seconds", kernel="mds"):
        if method == "classical":
            y = classical_mds(dist, n_components)
            result = MDSResult(
                embedding=y, stress=kruskal_stress(dist, y), n_iter=0,
                method=method,
            )
        else:
            y, stress, iterations = smacof(dist, n_components, max_iter=max_iter)
            result = MDSResult(
                embedding=y, stress=stress, n_iter=iterations, method=method
            )
    registry = obs.get_registry()
    registry.counter("kernel_runs_total", kernel="mds").inc()
    registry.histogram(
        "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="mds"
    ).observe(result.n_iter)
    registry.gauge("kernel_last_objective", kernel="mds").set(result.stress)
    return result
