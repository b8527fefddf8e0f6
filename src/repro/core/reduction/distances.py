"""Distance functions for the embedding models.

The paper's stated choice is the Pearson correlation coefficient, turned
into a distance as ``d = 1 - r`` so that perfectly trend-correlated series
sit at distance 0 and anti-correlated ones at distance 2.  Euclidean (on
normalised rows) is provided for comparison sweeps, plus a small dispatch
helper the reducers share.

Dtype policy: the input dtype (float32 or float64) is preserved end to
end — elementwise work and the large matmuls run in the input dtype,
while every *reduction* (row means, squared norms) accumulates in
float64 before casting back.  float32 halves the memory of the n x n
matrix and roughly doubles matmul throughput at a max relative error
≤ 1e-5 against the float64 path (pinned by the parity suite).  Pass
``dtype=`` to convert explicitly; integer and other inputs still default
to float64.

Scale policy: the pairwise kernels run over fixed row blocks
(:func:`repro.parallel.row_blocks`), one block at a time with a deadline
check between blocks.  The cross-distance kernels
(`*_cross_distance_matrix`) compute an ``(m, n)`` query-vs-reference
block directly, which is what lets the landmark t-SNE path place 50k
points without ever materialising a 50k x 50k matrix.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks

METRICS = ("pearson", "euclidean", "dtw")

_COMPUTE_DTYPES = (np.float32, np.float64)


def _validated(features: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """2-D, finite, >= 1 row; float32 stays float32 (see module dtype policy).

    Historical bug: this helper upcast every input to float64, so a
    caller handing in a float32 matrix silently paid double memory for
    the distance matrix.  Now only non-float inputs (ints, lists) are
    promoted to float64; an explicit ``dtype=`` converts either way.
    """
    features = np.asarray(features)
    if dtype is not None:
        dtype = np.dtype(dtype)
        if dtype.type not in _COMPUTE_DTYPES:
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        features = features.astype(dtype, copy=False)
    elif features.dtype.type not in _COMPUTE_DTYPES:
        features = features.astype(np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError(
            "features contain NaN/inf; run preprocessing (impute) first"
        )
    return features


def _validated_pairwise(
    features: np.ndarray, dtype: np.dtype | None = None
) -> np.ndarray:
    features = _validated(features, dtype=dtype)
    if features.shape[0] < 2:
        raise ValueError(
            f"need at least 2 rows to compute pairwise distances, "
            f"got {features.shape[0]}"
        )
    return features


def pearson_normalize(
    features: np.ndarray, dtype: np.dtype | None = None
) -> np.ndarray:
    """Rows centred and scaled to unit norm; zero-variance rows become zero.

    With this representation the Pearson distance is a plain matmul:
    ``1 - unit @ unit.T``.  A zero row makes every correlation involving
    a flat series exactly 0 (distance 1), the convention
    :func:`pearson_distance_matrix` documents.  Reductions (mean, norm)
    accumulate in float64 regardless of the compute dtype.
    """
    features = _validated(features, dtype=dtype)
    mean = features.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = features - mean  # float64 intermediate for float32 input
    norms = np.sqrt((centered**2).sum(axis=1, dtype=np.float64))
    flat = norms == 0
    safe = np.where(flat, 1.0, norms)
    unit = (centered / safe[:, None]).astype(features.dtype, copy=False)
    if flat.any():
        unit[flat] = 0.0
    return unit


def _pearson_rows(
    query_unit: np.ndarray, reference_unit: np.ndarray
) -> np.ndarray:
    """``1 - r`` from unit-normalised query rows to reference rows."""
    corr = query_unit @ reference_unit.T
    np.clip(corr, -1.0, 1.0, out=corr)
    return 1.0 - corr


def _euclidean_rows(
    queries: np.ndarray,
    references: np.ndarray,
    sq_q: np.ndarray,
    sq_r: np.ndarray,
) -> np.ndarray:
    """Euclidean distances from query rows to reference rows, given each
    side's squared row norms."""
    d2 = sq_q[:, None] + sq_r[None, :]
    d2 -= 2.0 * (queries @ references.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def pearson_distance_matrix(
    features: np.ndarray,
    *,
    dtype: np.dtype | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """``1 - r`` distance between all row pairs (paper's metric).

    Rows with zero variance carry no trend information; their correlation
    with anything is defined as 0, i.e. distance 1 — except to themselves
    (distance 0), keeping the matrix a proper dissimilarity (zero diagonal,
    symmetric, non-negative, bounded by 2).

    Computed blockwise over rows; the ``block_rows`` boundaries depend
    only on the row count, so the result is the same on every run.
    """
    unit = pearson_normalize(features, dtype=dtype)
    n = unit.shape[0]
    if n < 2:
        raise ValueError(
            f"need at least 2 rows to compute pairwise distances, got {n}"
        )
    dist = _stacked(map_blocks(
        lambda start, stop: _pearson_rows(unit[start:stop], unit),
        row_blocks(n, block_rows), name="pearson",
    ))
    np.fill_diagonal(dist, 0.0)
    # Exact symmetry despite floating-point noise.
    return (dist + dist.T) / 2.0


def pearson_cross_distance_matrix(
    queries: np.ndarray,
    references: np.ndarray | None = None,
    *,
    reference_unit: np.ndarray | None = None,
    dtype: np.dtype | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """``(m, n)`` Pearson distances from query rows to reference rows.

    Never materialises the ``(m + n)^2`` stacked matrix — this is the
    out-of-core building block for landmark placement.  Pass either raw
    ``references`` or a precomputed ``reference_unit``
    (:func:`pearson_normalize` output) to amortise normalisation across
    repeated queries.
    """
    if (references is None) == (reference_unit is None):
        raise ValueError("pass exactly one of references / reference_unit")
    if reference_unit is None:
        reference_unit = pearson_normalize(references, dtype=dtype)
    query_unit = pearson_normalize(queries, dtype=dtype)
    if query_unit.shape[1] != reference_unit.shape[1]:
        raise ValueError(
            f"queries have width {query_unit.shape[1]}, "
            f"references have {reference_unit.shape[1]}"
        )
    return _stacked(map_blocks(
        lambda start, stop: _pearson_rows(
            query_unit[start:stop], reference_unit
        ),
        row_blocks(query_unit.shape[0], block_rows), name="pearson_cross",
    ))


def euclidean_distance_matrix(
    features: np.ndarray,
    *,
    dtype: np.dtype | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """Plain Euclidean distance between all row pairs (blockwise)."""
    features = _validated_pairwise(features, dtype=dtype)
    sq = (features**2).sum(axis=1, dtype=np.float64).astype(
        features.dtype, copy=False
    )
    dist = _stacked(map_blocks(
        lambda start, stop: _euclidean_rows(
            features[start:stop], features, sq[start:stop], sq
        ),
        row_blocks(features.shape[0], block_rows), name="euclidean",
    ))
    np.fill_diagonal(dist, 0.0)
    return (dist + dist.T) / 2.0


def euclidean_cross_distance_matrix(
    queries: np.ndarray,
    references: np.ndarray,
    *,
    dtype: np.dtype | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """``(m, n)`` Euclidean distances from query rows to reference rows."""
    queries = _validated(queries, dtype=dtype)
    references = _validated(references, dtype=dtype)
    if queries.shape[1] != references.shape[1]:
        raise ValueError(
            f"queries have width {queries.shape[1]}, "
            f"references have {references.shape[1]}"
        )
    sq_r = (references**2).sum(axis=1, dtype=np.float64).astype(
        references.dtype, copy=False
    )
    sq_q = (queries**2).sum(axis=1, dtype=np.float64).astype(
        queries.dtype, copy=False
    )
    return _stacked(map_blocks(
        lambda start, stop: _euclidean_rows(
            queries[start:stop], references, sq_q[start:stop], sq_r
        ),
        row_blocks(queries.shape[0], block_rows), name="euclidean_cross",
    ))


def pairwise_distances(
    features: np.ndarray,
    metric: str = "pearson",
    *,
    dtype: np.dtype | None = None,
    dtw_max_rows: int | None = None,
) -> np.ndarray:
    """Dispatch on metric name.

    ``dtw_max_rows`` overrides the DTW row ceiling (see
    :class:`repro.core.reduction.dtw.DtwLimitError`); the other metrics
    ignore it.

    Raises
    ------
    ValueError
        For an unknown metric name.
    """
    if metric == "pearson":
        return pearson_distance_matrix(features, dtype=dtype)
    if metric == "euclidean":
        return euclidean_distance_matrix(features, dtype=dtype)
    if metric == "dtw":
        # Local import: dtw pulls in the obs/preprocess stack.  DTW is
        # row-capped (see DtwLimitError) — selections and small fleets
        # only, with the limit surfaced to the caller.
        from repro.core.reduction.dtw import MAX_DTW_ROWS, dtw_distance_matrix

        max_rows = MAX_DTW_ROWS if dtw_max_rows is None else dtw_max_rows
        return dtw_distance_matrix(features, max_rows=max_rows)
    raise ValueError(f"unknown metric {metric!r}; pick one of {METRICS}")


def cross_distances(
    queries: np.ndarray,
    references: np.ndarray,
    metric: str = "pearson",
    *,
    dtype: np.dtype | None = None,
    dtw_max_rows: int | None = None,
) -> np.ndarray:
    """``(m, n)`` query-vs-reference distances for any supported metric.

    The DTW variant evaluates ``m * n`` pair DPs and is budgeted like the
    square form: the pair count must not exceed ``dtw_max_rows ** 2``.
    """
    if metric == "pearson":
        return pearson_cross_distance_matrix(queries, references, dtype=dtype)
    if metric == "euclidean":
        return euclidean_cross_distance_matrix(queries, references, dtype=dtype)
    if metric == "dtw":
        from repro.core.reduction.dtw import dtw_cross_distance_matrix

        return dtw_cross_distance_matrix(
            queries, references, max_rows=dtw_max_rows
        )
    raise ValueError(f"unknown metric {metric!r}; pick one of {METRICS}")


def validate_distance_matrix(dist: np.ndarray) -> np.ndarray:
    """Check a precomputed matrix is a usable dissimilarity.

    Requirements: square, finite, non-negative, symmetric (to tolerance)
    and zero diagonal.  Returns the symmetrised copy.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if not np.isfinite(dist).all():
        raise ValueError("distance matrix contains NaN/inf")
    if (dist < 0).any():
        raise ValueError("distance matrix contains negative entries")
    if not np.allclose(dist, dist.T, atol=1e-8):
        raise ValueError("distance matrix is not symmetric")
    if not np.allclose(np.diag(dist), 0.0, atol=1e-8):
        raise ValueError("distance matrix diagonal is not zero")
    out = (dist + dist.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return out
