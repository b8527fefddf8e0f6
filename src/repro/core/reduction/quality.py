"""Embedding-quality metrics for the S1c reducer comparison.

The demo lets attendees "observe difference and compare capabilities in
typical pattern discovery" between t-SNE and MDS.  To make that comparison
quantitative we report the standard projection-quality suite:

- *trustworthiness* — are embedding neighbours true data neighbours?
  (penalises false neighbours / visual artefacts);
- *continuity* — are data neighbours kept together in the embedding?
  (penalises torn-apart clusters);
- *neighbourhood hit* — share of each point's embedding neighbours with the
  same ground-truth label (possible here because the generator keeps
  labels);
- *Shepard correlation* — Spearman rank correlation of original vs
  embedded distances (global structure);
- *KL divergence of the t-SNE objective* for any embedding, so MDS layouts
  can be scored on the paper's Eq. 1 too.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduction.distances import validate_distance_matrix
from repro.core.reduction.tsne import _exact_kl, joint_probabilities


def _knn_sets(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other points, ``(n, k)``."""
    n = dist.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    padded = dist.copy()
    np.fill_diagonal(padded, np.inf)
    return np.argsort(padded, axis=1, kind="stable")[:, :k]


def _ranks_excluding_self(dist: np.ndarray) -> np.ndarray:
    """rank[i, j] = 1-based rank of j among i's other points by distance."""
    n = dist.shape[0]
    padded = dist.copy()
    np.fill_diagonal(padded, np.inf)
    order = np.argsort(padded, axis=1, kind="stable")
    ranks = np.empty((n, n), dtype=np.int64)
    rows = np.arange(n)[:, None]
    ranks[rows, order] = np.arange(1, n + 1)[None, :]
    ranks[np.arange(n), np.arange(n)] = 0
    return ranks


def trustworthiness(
    original_dist: np.ndarray, embedding: np.ndarray, k: int = 10
) -> float:
    """Venna & Kaski trustworthiness in [0, 1]; 1 = no false neighbours."""
    dist = validate_distance_matrix(original_dist)
    n = dist.shape[0]
    k = min(k, n - 2) if n > 2 else 1
    emb_dist = _embedding_dist(embedding)
    knn_emb = _knn_sets(emb_dist, k)
    ranks_orig = _ranks_excluding_self(dist)
    penalty = 0.0
    for i in range(n):
        r = ranks_orig[i, knn_emb[i]]
        penalty += float(np.clip(r - k, 0, None).sum())
    norm = n * k * (2 * n - 3 * k - 1)
    if norm <= 0:
        return 1.0
    return 1.0 - (2.0 / norm) * penalty


def continuity(
    original_dist: np.ndarray, embedding: np.ndarray, k: int = 10
) -> float:
    """Continuity in [0, 1]; 1 = no data neighbours pushed apart."""
    dist = validate_distance_matrix(original_dist)
    n = dist.shape[0]
    k = min(k, n - 2) if n > 2 else 1
    emb_dist = _embedding_dist(embedding)
    knn_orig = _knn_sets(dist, k)
    ranks_emb = _ranks_excluding_self(emb_dist)
    penalty = 0.0
    for i in range(n):
        r = ranks_emb[i, knn_orig[i]]
        penalty += float(np.clip(r - k, 0, None).sum())
    norm = n * k * (2 * n - 3 * k - 1)
    if norm <= 0:
        return 1.0
    return 1.0 - (2.0 / norm) * penalty


def neighborhood_hit(
    embedding: np.ndarray, labels: np.ndarray, k: int = 10
) -> float:
    """Mean share of each point's k embedding-neighbours sharing its label."""
    labels = np.asarray(labels)
    emb_dist = _embedding_dist(embedding)
    n = emb_dist.shape[0]
    if labels.shape[0] != n:
        raise ValueError(
            f"{labels.shape[0]} labels for {n} embedded points"
        )
    k = min(k, n - 1)
    knn = _knn_sets(emb_dist, k)
    hits = labels[knn] == labels[:, None]
    return float(hits.mean())


def shepard_correlation(original_dist: np.ndarray, embedding: np.ndarray) -> float:
    """Spearman rank correlation between original and embedded distances."""
    dist = validate_distance_matrix(original_dist)
    emb_dist = _embedding_dist(embedding)
    iu = np.triu_indices(dist.shape[0], k=1)
    a = dist[iu]
    b = emb_dist[iu]
    if a.size < 2:
        return 1.0
    ra = np.argsort(np.argsort(a, kind="stable"), kind="stable").astype(np.float64)
    rb = np.argsort(np.argsort(b, kind="stable"), kind="stable").astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)


def kl_divergence_embedding(
    original_dist: np.ndarray, embedding: np.ndarray, perplexity: float = 30.0
) -> float:
    """Paper Eq. 1 evaluated for *any* embedding.

    Lets MDS and PCA layouts be scored on the same objective t-SNE
    optimises, giving the S1c comparison a common yardstick.
    """
    dist = validate_distance_matrix(original_dist)
    n = dist.shape[0]
    perplexity = float(min(perplexity, max(2.0, (n - 1) / 3.0)))
    p = joint_probabilities(dist, perplexity)
    return _exact_kl(p, np.asarray(embedding, dtype=np.float64))


def _embedding_dist(embedding: np.ndarray) -> np.ndarray:
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2:
        raise ValueError(f"embedding must be 2-D, got shape {embedding.shape}")
    sq = (embedding**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedding @ embedding.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)
