"""t-distributed Stochastic Neighbor Embedding (exact and Barnes–Hut).

This is the paper's primary reducer (its Eq. 1 is the KL objective, Eq. 2
the Student-t low-dimensional kernel).  The implementation follows van der
Maaten & Hinton (2008):

1. per-point Gaussian bandwidths found by binary search so each conditional
   distribution has the requested *perplexity* — the search bisects all
   rows simultaneously as one array-wide computation;
2. symmetrised joint probabilities ``P = (P_c + P_c^T) / 2n``;
3. gradient descent on the KL divergence with early exaggeration, momentum
   switching and adaptive per-coordinate gains.

Two gradient engines share step 3:

- ``method="exact"`` — the dense O(n^2)-per-iteration gradient, the
  ground truth every approximation is parity-tested against;
- ``method="bh"`` — Barnes–Hut (van der Maaten 2014): the repulsive term
  comes from a quadtree over the embedding
  (:mod:`repro.core.reduction.bh`) at accuracy/speed trade-off ``theta``,
  and the attractive term runs over a sparse k-nearest-neighbour subset
  of P (k = 3 * perplexity), for O(n log n) iterations.

A third, out-of-core engine sits on top of both: ``method="landmark"``
embeds only ``n_landmarks`` k-means++-selected rows with Barnes–Hut and
interpolates every other point into that map (kNN barycentre over
blockwise cross distances) — the only path that never materialises the
n² distance matrix, which is what makes n = 50k practical.

``method="auto"`` (the default) picks Barnes–Hut above
``BH_THRESHOLD`` points and the exact engine below it (never landmark —
that approximation is explicit opt-in).  :func:`resolve_engine` and
:func:`clamp_perplexity` are that choice and the perplexity guardrail;
the embed cache key (:class:`repro.core.params.EmbedParams`) calls the
same two functions, so it cannot disagree with what the kernel runs.

Distances default to the paper's Pearson metric; any precomputed
dissimilarity is accepted too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.reduction.bh import plan_repulsion, repulsion, run_plan
from repro.core.reduction.distances import pairwise_distances, validate_distance_matrix
from repro.core.reduction.pca import pca
from repro.core.reduction.project import EmbeddingProjector, barycentric_from_cross
from repro.parallel import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks
from repro.resilience.faults import fault_point

_P_MIN = 1e-12

# The Barnes–Hut traversal plan (which cells are summarised for which
# points) is reused for this many descent steps before being rebuilt,
# like a Verlet neighbour list: forces always use current coordinates
# and freshly recomputed centres of mass, only the far/near pair
# classification goes slightly stale between rebuilds.
_REPLAN_EVERY = 4

TSNE_METHODS = ("auto", "exact", "bh", "landmark")

# ``method="auto"`` switches to Barnes–Hut at this many points: below it
# the dense gradient's vectorisation beats the tree overhead, above it
# the O(n^2) inner loop dominates.  With the workspace gradient the
# measured crossover (500 iterations, clustered 24-D data, 2-core VM) sits
# between n = 1000 (exact 4.0 s vs Barnes–Hut 4.4 s) and n = 1250
# (6.6 s vs 5.8 s).
BH_THRESHOLD = 1000

# ``method="landmark"`` never embeds more than this many points directly;
# above it the k x k landmark matrices stop being "small".  Explicit
# opt-in only — ``auto`` never picks landmark, because the placement
# stage is an approximation the caller should knowingly accept.
MAX_LANDMARKS = 4096

# Default landmark count: enough to cover the cluster structure of a
# city-scale fleet while keeping selection + the inner Barnes–Hut run in
# seconds.
DEFAULT_LANDMARKS = 1024

# Neighbours used when interpolating non-landmark points into the
# landmark embedding.
_LANDMARK_KNN = 8


def resolve_engine(method: str, n_points: int, n_components: int = 2) -> str:
    """The engine :func:`tsne` runs for ``method`` on ``n_points`` rows.

    ``"auto"`` becomes ``"bh"`` from ``BH_THRESHOLD`` points up (2-D
    only) and ``"exact"`` below; explicit engines are returned as given.
    """
    if method != "auto":
        return method
    if n_points >= BH_THRESHOLD and n_components == 2:
        return "bh"
    return "exact"


def clamp_perplexity(perplexity: float, n_points: int) -> float:
    """The perplexity the exact and Barnes–Hut engines use on
    ``n_points`` rows: at most ``(n - 1) / 3`` (but never below 2), the
    standard small-data guardrail.  Landmark runs clamp against their
    landmark count instead, inside the inner run."""
    return float(min(perplexity, max(2.0, (n_points - 1) / 3.0)))


@dataclass(slots=True)
class DescentCheckpoint:
    """Resumable state of the t-SNE gradient descent.

    Captured between iterations: ``iteration`` is the *next* iteration
    to run, and ``y``/``velocity``/``gains`` are the carried arrays at
    that boundary (``kl_trace`` holds the objective samples recorded so
    far).  Everything else the descent touches — the momentum schedule,
    the exaggeration switch, the trace cadence — is a pure function of
    the iteration index, and the Barnes–Hut traversal plan is rebuilt
    whenever ``iteration % _REPLAN_EVERY == 0``, so resuming from a
    checkpoint aligned to that cadence replays the remaining iterations
    bit-identically.
    """

    iteration: int
    y: np.ndarray
    velocity: np.ndarray
    gains: np.ndarray
    kl_trace: list[float]


@dataclass(slots=True)
class TSNEResult:
    """Embedding plus convergence diagnostics.

    ``kl_divergence`` is the paper's Eq. 1 objective at the final iterate
    (without exaggeration), always computed against the dense P — also
    for Barnes–Hut runs, so approximation error shows up in the
    objective instead of hiding in it.  ``kl_trace`` samples the
    objective every 50 iterations (for ``method="bh"`` the trace uses
    the sparse-P approximation; only the final value is exact).
    ``method`` records the engine that actually ran and
    ``effective_init`` the initialisation that was actually used (PCA
    silently needs raw features, see :func:`tsne`).
    """

    embedding: np.ndarray
    kl_divergence: float
    n_iter: int
    perplexity: float
    kl_trace: list[float]
    method: str = "exact"
    effective_init: str = "pca"
    # Per-stage wall time, filled by the landmark path ("select_seconds",
    # "embed_seconds", "place_seconds") for bench breakdowns; None for
    # the single-stage engines.
    stages: dict[str, float] | None = None


def _perplexity_block(
    dist: np.ndarray,
    start: int,
    stop: int,
    *,
    perplexity: float,
    tol: float,
    max_tries: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the rows ``[start, stop)`` of the distance matrix.

    Every operation here is row-local (the bisection of row ``i`` reads
    only row ``i``), so splitting the rows into blocks returns exactly
    the same bits as one all-rows pass — the property that lets
    :func:`_perplexity_search` bound its memory by block without
    changing results.
    """
    n = dist.shape[1]
    rows = stop - start
    target_entropy = np.log(perplexity)
    d2 = dist[start:stop].astype(np.float64) ** 2
    # Shift each row by its off-diagonal min: exp(0) = 1 guarantees a
    # positive normaliser, and the diagonal's exp(-inf) = 0 removes it.
    d2[np.arange(rows), np.arange(start, stop)] = np.inf
    d2 -= d2.min(axis=1, keepdims=True)
    beta = np.ones(rows)
    beta_lo = np.zeros(rows)
    beta_hi = np.full(rows, np.inf)
    probs = np.full((rows, n), 1.0 / max(n - 1, 1))
    # Two savings over the naive max_tries full-matrix passes: only
    # still-bisecting rows are recomputed each round, and the row entropy
    # comes from the Gibbs identity H = ln S + beta * E[d^2] (with
    # S = sum_j w_j, E = sum_j w_j d2_j / S), so the bisection needs no
    # n^2 log/divide — probability rows materialise once, on convergence.
    finite_d2 = np.where(np.isfinite(d2), d2, 0.0)  # 0 * w = 0 on the diagonal
    active = np.arange(rows)
    for _ in range(max_tries):
        with np.errstate(invalid="ignore"):
            weights = np.exp(-beta[active, None] * d2[active])
        norm = weights.sum(axis=1)
        mean_d2 = np.einsum("ij,ij->i", weights, finite_d2[active]) / norm
        entropy = np.log(norm) + beta[active] * mean_d2
        diff = entropy - target_entropy
        settled = np.abs(diff) < tol
        if settled.any():
            hit = active[settled]
            probs[hit] = weights[settled] / norm[settled, None]
        active = active[~settled]
        if active.size == 0:
            break
        diff = diff[~settled]
        sharpen = diff > 0
        current = beta[active]
        lo = beta_lo[active]
        hi = beta_hi[active]
        lo[sharpen] = current[sharpen]
        hi[~sharpen] = current[~sharpen]
        beta_lo[active] = lo
        beta_hi[active] = hi
        beta[active] = np.where(
            sharpen,
            np.where(np.isinf(hi), current * 2.0, (current + hi) / 2.0),
            np.where(lo == 0.0, current / 2.0, (current + lo) / 2.0),
        )
    if active.size:
        # Rows that never settled keep their last bisection iterate.
        with np.errstate(invalid="ignore"):
            weights = np.exp(-beta[active, None] * d2[active])
        probs[active] = weights / weights.sum(axis=1, keepdims=True)
    probs[np.arange(rows), np.arange(start, stop)] = 0.0
    return probs, beta


def _perplexity_search(
    dist: np.ndarray,
    perplexity: float,
    tol: float = 1e-5,
    max_tries: int = 64,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic P(j|i) and precisions, all rows bisected at once.

    Binary search on the precision ``beta_i`` of ``exp(-beta_i * d_ij^2)``
    until the row entropy equals ``log(perplexity)``.  Every row carries
    its own ``(lo, hi)`` bracket; converged rows keep their beta while the
    stragglers keep halving, so the result matches the per-row loop
    (:func:`_perplexity_search_loop`) to floating-point noise without the
    n x 64 Python-level iteration count.

    The bisection is row-local, so rows run in fixed blocks, which bound
    the ``(rows, n)`` temporaries; the result is bit-identical for any
    ``block_rows``.

    Returns ``(cond, beta)`` — the conditional matrix (zero diagonal) and
    the per-row precisions.
    """
    dist = np.asarray(dist)
    parts = map_blocks(
        lambda start, stop: _perplexity_block(
            dist, start, stop,
            perplexity=perplexity, tol=tol, max_tries=max_tries,
        ),
        row_blocks(dist.shape[0], block_rows), name="perplexity",
    )
    if len(parts) == 1:
        return parts[0]
    probs = np.concatenate([part[0] for part in parts], axis=0)
    beta = np.concatenate([part[1] for part in parts])
    return probs, beta


def _perplexity_search_loop(
    dist: np.ndarray, perplexity: float, tol: float = 1e-5, max_tries: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Reference per-row implementation of :func:`_perplexity_search`.

    Kept as the parity oracle (and for the perf-trajectory bench): one
    Python-level binary search per row, exactly the pre-vectorisation
    behaviour.
    """
    n = dist.shape[0]
    target_entropy = np.log(perplexity)
    d2 = dist**2
    cond = np.zeros((n, n))
    betas = np.ones(n)
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        probs = np.ones_like(row) / max(row.size, 1)
        for _ in range(max_tries):
            weights = np.exp(-beta * (row - row.min()))
            total = weights.sum()
            if total <= 0:
                probs = np.ones_like(row) / max(row.size, 1)
                break
            probs = weights / total
            entropy = float(-(probs * np.log(np.clip(probs, _P_MIN, None))).sum())
            diff = entropy - target_entropy
            if abs(diff) < tol:
                break
            if diff > 0:  # entropy too high -> sharpen
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = beta / 2.0 if beta_lo == 0.0 else (beta + beta_lo) / 2.0
        cond[i, np.arange(n) != i] = probs
        betas[i] = beta
    return cond, betas


def _conditional_probabilities(
    dist: np.ndarray,
    perplexity: float,
    tol: float = 1e-5,
    max_tries: int = 64,
) -> np.ndarray:
    """Row-stochastic P(j|i) with per-row bandwidth matched to perplexity."""
    cond, _ = _perplexity_search(dist, perplexity, tol=tol, max_tries=max_tries)
    return cond


def joint_probabilities(dist: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrised joint P of the t-SNE objective (sums to 1, zero diag)."""
    n = dist.shape[0]
    if not 1.0 < perplexity < n:
        raise ValueError(
            f"perplexity must be in (1, n_points={n}), got {perplexity}"
        )
    cond = _conditional_probabilities(dist, perplexity)
    joint = (cond + cond.T) / (2.0 * n)
    return np.clip(joint, _P_MIN, None)


class _ExactWorkspace:
    """Dense gradient and objective over buffers allocated once per run.

    Holds two n x n float64 buffers — the Student-t kernel (paper Eq. 2)
    and a scratch for the gradient coefficients or ``log q`` — plus small
    augmented operands, so a descent step allocates no n x n temporaries.
    One workspace per :func:`tsne` call, never shared: the server runs
    concurrent embeds on its thread pool.
    """

    __slots__ = ("p", "p_log_p", "kernel", "scratch", "left", "right", "moments")

    def __init__(self, p: np.ndarray, n_components: int) -> None:
        n = p.shape[0]
        self.p = p
        self.kernel = np.empty((n, n))
        self.scratch = np.empty((n, n))
        # left = [y, 1, |y|²], right = [-2y, |y|² + 1, 1]: one GEMM gives
        # 1 + d²_ij = |y_i|² + |y_j|² - 2 y_i·y_j + 1.  left[:, :d+1] is
        # [y, 1], whose product with the coefficients yields coeff @ y and
        # the row sums together.
        self.left = np.empty((n, n_components + 2))
        self.right = np.empty((n, n_components + 2))
        self.moments = np.empty((n, n_components + 1))
        # sum_{i != j} p log p, the y-independent half of Eq. 1.
        np.log(p, out=self.scratch)
        self.scratch.flat[:: n + 1] = 0.0
        self.p_log_p = float(np.dot(p.ravel(), self.scratch.ravel()))

    def _student_t(self, y: np.ndarray) -> float:
        """Fill ``kernel`` with 1 / (1 + d²), zero diagonal; return its sum."""
        d = y.shape[1]
        left, right, kernel = self.left, self.right, self.kernel
        sq = np.einsum("ij,ij->i", y, y)
        left[:, :d] = y
        left[:, d] = 1.0
        left[:, d + 1] = sq
        np.multiply(y, -2.0, out=right[:, :d])
        np.add(sq, 1.0, out=right[:, d])
        right[:, d + 1] = 1.0
        np.matmul(left, right.T, out=kernel)
        # The expanded d² can round below zero for (near-)coincident points.
        np.maximum(kernel, 1.0, out=kernel)
        np.reciprocal(kernel, out=kernel)
        kernel.flat[:: kernel.shape[0] + 1] = 0.0
        return max(float(kernel.sum()), _P_MIN)

    def _q(self, y: np.ndarray) -> np.ndarray:
        """Q = max(kernel / Z, _P_MIN) into ``scratch``."""
        z = self._student_t(y)
        np.divide(self.kernel, z, out=self.scratch)
        return np.maximum(self.scratch, _P_MIN, out=self.scratch)

    def gradient(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        """4 * sum_j (p_ij - q_ij) * kernel_ij * (y_i - y_j)."""
        d = y.shape[1]
        coeff = np.subtract(p, self._q(y), out=self.scratch)
        coeff *= self.kernel
        np.matmul(coeff, self.left[:, : d + 1], out=self.moments)
        return 4.0 * (self.moments[:, d:] * y - self.moments[:, :d])

    def kl(self, y: np.ndarray) -> float:
        """KL(P || Q), the paper's Eq. 1 (diagonal contributes nothing)."""
        log_q = np.log(self._q(y), out=self.scratch)
        log_q.flat[:: log_q.shape[0] + 1] = 0.0
        return self.p_log_p - float(np.dot(self.p.ravel(), log_q.ravel()))


def _exact_kl(p: np.ndarray, embedding: np.ndarray) -> float:
    """KL(P || Q) of any embedding against the dense joint P."""
    return _ExactWorkspace(p, embedding.shape[1]).kl(embedding)


def _sparse_joint(
    p: np.ndarray, perplexity: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparsify the dense joint P to its k-nearest entries per row.

    Keeps ``k = 3 * perplexity`` largest entries per row (van der
    Maaten's Barnes–Hut heuristic), symmetrises the support and rescales
    to sum to 1.  Returns COO-style ``(rows, cols, vals)`` with both
    ``(i, j)`` and ``(j, i)`` present for every kept pair.
    """
    n = p.shape[0]
    k = min(n - 1, max(3, int(round(3.0 * perplexity))))
    top = np.argpartition(p, n - 1 - k, axis=1)[:, n - k:]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n)[:, None], top] = True
    np.fill_diagonal(mask, False)
    mask |= mask.T
    rows, cols = np.nonzero(mask)
    vals = p[rows, cols]
    return rows, cols, vals / vals.sum()


def _descend(
    grad_fn, y: np.ndarray, n_iter: int, learning_rate: float,
    exaggeration_iter: int, trace_fn,
    checkpoint_every: int | None = None,
    checkpoint_fn=None,
    resume_from: DescentCheckpoint | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Shared gradient-descent loop: momentum switching + adaptive gains.

    ``grad_fn(y, iteration)`` returns the (possibly exaggerated) gradient;
    ``trace_fn(y)`` the objective sample recorded every 50 iterations.

    When ``checkpoint_fn`` is given it receives a
    :class:`DescentCheckpoint` after every ``checkpoint_every``-th
    iteration (never after the last — the finished result supersedes
    it).  ``resume_from`` restarts the loop from a previous checkpoint's
    carried state instead of iteration 0.
    """
    if resume_from is not None:
        start = int(resume_from.iteration)
        y = np.array(resume_from.y, dtype=y.dtype, copy=True)
        velocity = np.array(resume_from.velocity, dtype=y.dtype, copy=True)
        gains = np.array(resume_from.gains, dtype=y.dtype, copy=True)
        kl_trace = list(resume_from.kl_trace)
    else:
        start = 0
        velocity = np.zeros_like(y)
        gains = np.ones_like(y)
        kl_trace = []
    for iteration in range(start, n_iter):
        grad = grad_fn(y, iteration)
        momentum = 0.5 if iteration < exaggeration_iter else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0, keepdims=True)
        if iteration % 50 == 0 or iteration == n_iter - 1:
            kl_trace.append(trace_fn(y))
        done = iteration + 1
        if (
            checkpoint_fn is not None
            and checkpoint_every is not None
            and done % checkpoint_every == 0
            and done < n_iter
        ):
            checkpoint_fn(
                DescentCheckpoint(
                    iteration=done,
                    y=y.copy(),
                    velocity=velocity.copy(),
                    gains=gains.copy(),
                    kl_trace=list(kl_trace),
                )
            )
    return y, kl_trace


def _check_bh_checkpoint_alignment(
    checkpoint_every: int | None, resume_from: DescentCheckpoint | None
) -> None:
    """Reject checkpoint cadences the Barnes–Hut engine cannot replay.

    The traversal plan is rebuilt whenever ``iteration % _REPLAN_EVERY
    == 0`` and starts empty on resume, so a resumed run is bit-identical
    only when it restarts exactly at a rebuild boundary.
    """
    if checkpoint_every is not None and checkpoint_every % _REPLAN_EVERY:
        raise ValueError(
            f"Barnes–Hut checkpoints must align with the traversal-plan "
            f"rebuild cadence: checkpoint_every must be a multiple of "
            f"{_REPLAN_EVERY}, got {checkpoint_every}"
        )
    if resume_from is not None and resume_from.iteration % _REPLAN_EVERY:
        raise ValueError(
            f"Barnes–Hut resume must start at a traversal-plan rebuild "
            f"boundary (iteration % {_REPLAN_EVERY} == 0), got iteration "
            f"{resume_from.iteration}"
        )


def _select_landmarks(
    k: int,
    seed: int,
    features: np.ndarray | None = None,
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++-style D²-sampled landmark indices (sorted, unique).

    Greedy coverage: a seeded uniform first pick, then each subsequent
    landmark is sampled proportionally to the squared distance from the
    nearest landmark chosen so far (the k-means++ seeding rule), which
    spreads landmarks across the cluster structure instead of sampling
    dense regions over and over.  Works from raw features (squared
    Euclidean, one O(n·dim) pass per landmark — never an n² matrix) or
    from the columns of a precomputed distance matrix.  Deterministic
    per seed.
    """
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        n = features.shape[0]
        sq = np.einsum("ij,ij->i", features, features)
    else:
        assert dist is not None
        n = dist.shape[0]
    rng = np.random.default_rng(seed)
    chosen = np.empty(min(k, n), dtype=np.int64)
    pick = int(rng.integers(n))
    chosen[0] = pick
    d2: np.ndarray | None = None
    for i in range(1, chosen.size):
        if features is not None:
            new = sq + sq[pick] - 2.0 * (features @ features[pick])
            np.clip(new, 0.0, None, out=new)
        else:
            new = dist[pick].astype(np.float64) ** 2
        d2 = new if d2 is None else np.minimum(d2, new)
        total = float(d2.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            # Every remaining point coincides with a landmark; any pick
            # is as good as any other (unique() below deduplicates).
            pick = int(rng.integers(n))
        chosen[i] = pick
    return np.unique(chosen)


def _landmark_tsne(
    features: np.ndarray | None,
    distances: np.ndarray | None,
    *,
    metric: str,
    perplexity: float,
    n_iter: int,
    learning_rate: float,
    early_exaggeration: float,
    exaggeration_iter: int,
    init: str,
    seed: int,
    theta: float,
    n_landmarks: int | None,
    dtype: str | None,
    dtw_max_rows: int | None,
    checkpoint_every: int | None = None,
    checkpoint_fn=None,
    resume_from: DescentCheckpoint | None = None,
) -> TSNEResult:
    """Out-of-core t-SNE: embed k landmarks, interpolate the rest.

    The n² distance matrix is never materialised when features are
    given: only the k x k landmark block (for the inner Barnes–Hut run)
    and blockwise (rest, k) cross distances (for placement) exist at any
    time.  The reported ``kl_divergence`` is the landmark subproblem's
    objective — the placement stage is an interpolation with no KL of
    its own.
    """
    if distances is not None:
        dist = validate_distance_matrix(distances)
        feats = None
        n = dist.shape[0]
    else:
        dist = None
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        n = feats.shape[0]
    k = DEFAULT_LANDMARKS if n_landmarks is None else int(n_landmarks)
    if not 4 <= k <= MAX_LANDMARKS:
        raise ValueError(
            f"n_landmarks must be in [4, {MAX_LANDMARKS}], got {k}"
        )
    registry = obs.get_registry()
    stages: dict[str, float] = {}
    with obs.span(
        "kernel.tsne_landmark", n_points=n, n_landmarks=min(k, n)
    ):
        started = time.perf_counter()
        idx = _select_landmarks(
            k, seed, features=feats, dist=dist if feats is None else None
        )
        stages["select_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        inner_kwargs = dict(
            metric=metric, perplexity=perplexity, n_iter=n_iter,
            learning_rate=learning_rate,
            early_exaggeration=early_exaggeration,
            exaggeration_iter=exaggeration_iter, n_components=2,
            init=init, seed=seed, method="bh", theta=theta,
            dtype=dtype, dtw_max_rows=dtw_max_rows,
            # Landmark selection and placement are deterministic per
            # seed, so checkpointing the inner embed is enough to make
            # the whole landmark run resumable.
            checkpoint_every=checkpoint_every, checkpoint_fn=checkpoint_fn,
            resume_from=resume_from,
        )
        if feats is not None:
            inner = tsne(feats[idx], **inner_kwargs)
        else:
            inner = tsne(distances=dist[np.ix_(idx, idx)], **inner_kwargs)
        stages["embed_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        rest = np.setdiff1d(np.arange(n), idx, assume_unique=True)
        out = np.empty((n, 2))
        out[idx] = inner.embedding
        if rest.size:
            knn = min(_LANDMARK_KNN, idx.size)
            if feats is not None:
                projector = EmbeddingProjector(
                    feats[idx], inner.embedding, k=knn, metric=metric
                )
                out[rest] = projector.project(
                    feats[rest], dtw_max_rows=dtw_max_rows
                )
            else:
                out[rest] = barycentric_from_cross(
                    dist[np.ix_(rest, idx)], inner.embedding, k=knn
                )
        stages["place_seconds"] = time.perf_counter() - started
    # The inner run already counted kernel_runs_total / iterations; the
    # outer layer records which public method the caller asked for.
    registry.counter(
        "kernel_method_total", kernel="tsne", method="landmark"
    ).inc()
    return TSNEResult(
        embedding=out,
        kl_divergence=inner.kl_divergence,
        n_iter=inner.n_iter,
        perplexity=inner.perplexity,
        kl_trace=inner.kl_trace,
        method="landmark",
        effective_init=inner.effective_init,
        stages=stages,
    )


def tsne(
    features: np.ndarray | None = None,
    *,
    distances: np.ndarray | None = None,
    metric: str = "pearson",
    perplexity: float = 30.0,
    n_iter: int = 500,
    learning_rate: float = 200.0,
    early_exaggeration: float = 12.0,
    exaggeration_iter: int = 250,
    n_components: int = 2,
    init: str = "pca",
    seed: int = 0,
    method: str = "auto",
    theta: float = 0.5,
    n_landmarks: int | None = None,
    dtype: str | None = None,
    dtw_max_rows: int | None = None,
    checkpoint_every: int | None = None,
    checkpoint_fn=None,
    resume_from: DescentCheckpoint | None = None,
) -> TSNEResult:
    """Embed rows into ``n_components`` dimensions.

    Exactly one of ``features`` / ``distances`` must be given.  ``init`` is
    ``"pca"`` (deterministic, needs features) or ``"random"``; asking for
    PCA with only a distance matrix degrades to random init — the run
    logs a structured warning and records the fallback in
    ``TSNEResult.effective_init``.  Perplexity is clamped to
    ``(n - 1) / 3`` when the data set is small, the standard guardrail
    (:func:`clamp_perplexity`).

    ``method`` selects the gradient engine: ``"exact"`` (dense, ground
    truth), ``"bh"`` (Barnes–Hut at accuracy knob ``theta``, 2-D only),
    ``"landmark"`` (embed ``n_landmarks`` k-means++-selected rows with
    Barnes–Hut, interpolate the rest — the only engine that never
    materialises the n² distance matrix; explicit opt-in, 2-D only) or
    ``"auto"`` (Barnes–Hut from ``BH_THRESHOLD`` points up; never
    landmark; see :func:`resolve_engine`).

    Not every option reaches every engine.  ``theta`` is read only by
    Barnes–Hut and landmark runs — including ``"auto"`` from
    ``BH_THRESHOLD`` points up.  ``seed`` is read only by landmark
    selection and by random init, so under PCA init (the default, given
    features) it matters only for ``method="landmark"``.
    ``n_landmarks`` is read only by landmark runs, ``dtw_max_rows`` only
    by ``metric="dtw"``.

    The distance and perplexity stages run over fixed row blocks, with a
    deadline check between blocks.  ``dtype`` selects the distance
    compute precision (``"float32"`` halves bandwidth;
    reductions still accumulate in float64).  ``dtw_max_rows``
    overrides the DTW pairwise row ceiling.

    ``checkpoint_every``/``checkpoint_fn`` emit a
    :class:`DescentCheckpoint` every k descent iterations and
    ``resume_from`` restarts from one — the job service's crash-recovery
    hook.  For the Barnes–Hut engines the cadence must align with the
    ``_REPLAN_EVERY`` traversal-plan rebuild so a resumed run rebuilds
    its plan exactly where an uninterrupted run would, keeping the
    output bit-identical.

    Raises
    ------
    ValueError
        On inconsistent inputs.
    """
    fault_point("kernel.tsne")
    if (features is None) == (distances is None):
        raise ValueError("pass exactly one of features or distances")
    if init not in ("pca", "random"):
        raise ValueError(f"init must be 'pca' or 'random', got {init!r}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    if method not in TSNE_METHODS:
        raise ValueError(
            f"method must be one of {TSNE_METHODS}, got {method!r}"
        )
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if resume_from is not None and not 0 <= resume_from.iteration <= n_iter:
        raise ValueError(
            f"resume_from.iteration must be in [0, {n_iter}], "
            f"got {resume_from.iteration}"
        )
    if method == "landmark":
        if n_components != 2:
            raise ValueError(
                f"landmark t-SNE is 2-D only, got n_components={n_components}"
            )
        _check_bh_checkpoint_alignment(checkpoint_every, resume_from)
        return _landmark_tsne(
            features, distances, metric=metric, perplexity=perplexity,
            n_iter=n_iter, learning_rate=learning_rate,
            early_exaggeration=early_exaggeration,
            exaggeration_iter=exaggeration_iter, init=init, seed=seed,
            theta=theta, n_landmarks=n_landmarks,
            dtype=dtype, dtw_max_rows=dtw_max_rows,
            checkpoint_every=checkpoint_every, checkpoint_fn=checkpoint_fn,
            resume_from=resume_from,
        )
    if distances is None:
        assert features is not None
        dist = pairwise_distances(
            features, metric=metric, dtype=dtype, dtw_max_rows=dtw_max_rows,
        )
    else:
        dist = validate_distance_matrix(distances)
    effective_init = init
    if init == "pca" and features is None:
        # PCA needs raw features; warn instead of silently degrading.
        effective_init = "random"
        obs.get_logger().warning(
            "tsne.init_degraded",
            requested="pca",
            effective="random",
            reason="pca init needs raw features, got a distance matrix",
        )
    n = dist.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 points for t-SNE, got {n}")
    if method == "bh" and n_components != 2:
        raise ValueError(
            f"Barnes–Hut t-SNE is 2-D only, got n_components={n_components}"
        )
    engine = resolve_engine(method, n, n_components)
    use_bh = engine == "bh"
    if use_bh:
        _check_bh_checkpoint_alignment(checkpoint_every, resume_from)
    perplexity = clamp_perplexity(perplexity, n)

    registry = obs.get_registry()
    with obs.span(
        "kernel.tsne", n_points=n, n_iter=n_iter, method=engine
    ), registry.timer("kernel_runtime_seconds", kernel="tsne"):
        p = joint_probabilities(dist, perplexity)
        rng = np.random.default_rng(seed)
        if effective_init == "pca":
            assert features is not None
            base = pca(np.asarray(features, dtype=np.float64), n_components).embedding
            scale = base[:, 0].std() or 1.0
            y = base / scale * 1e-4
        else:
            y = rng.normal(0.0, 1e-4, size=(n, n_components))

        if use_bh:
            rows, cols, vals = _sparse_joint(p, perplexity)
            rows32 = rows.astype(np.int32)
            cols32 = cols.astype(np.int32)
            vals32 = vals.astype(np.float32)
            vals_exag = (early_exaggeration * vals).astype(np.float32)
            one = np.float32(1.0)
            plan_box: list = [None]

            def grad_fn(y: np.ndarray, iteration: int) -> np.ndarray:
                if plan_box[0] is None or iteration % _REPLAN_EVERY == 0:
                    plan_box[0] = plan_repulsion(y, theta=theta)
                rep, z = run_plan(plan_box[0], y)
                # Attraction over the sparse P support, float32 like the
                # repulsion traversal (the kept tail is a ~1e-2
                # approximation already).
                yx = np.ascontiguousarray(y[:, 0], dtype=np.float32)
                yy = np.ascontiguousarray(y[:, 1], dtype=np.float32)
                dx = np.take(yx, rows32)
                dx -= np.take(yx, cols32)
                dy = np.take(yy, rows32)
                dy -= np.take(yy, cols32)
                qn = dx * dx
                qn += dy * dy
                qn += one
                np.reciprocal(qn, out=qn)
                qn *= vals_exag if iteration < exaggeration_iter else vals32
                dx *= qn
                dy *= qn
                attr = np.empty((n, 2))
                attr[:, 0] = np.bincount(rows32, weights=dx, minlength=n)
                attr[:, 1] = np.bincount(rows32, weights=dy, minlength=n)
                return 4.0 * (attr - rep / max(z, _P_MIN))

            def trace_fn(y: np.ndarray) -> float:
                # Sparse-support approximation of Eq. 1 (the dropped tail
                # of P carries negligible mass); the final objective in
                # the result is still computed densely below.
                delta = y[rows] - y[cols]
                q_num = 1.0 / (1.0 + (delta**2).sum(axis=1))
                if plan_box[0] is not None:
                    _, z = run_plan(plan_box[0], y)
                else:
                    _, z = repulsion(y, theta=theta)
                q = np.clip(q_num / max(z, _P_MIN), _P_MIN, None)
                return float((vals * np.log(vals / q)).sum())

        else:
            workspace = _ExactWorkspace(p, n_components)
            exaggerated = p * early_exaggeration

            def grad_fn(y: np.ndarray, iteration: int) -> np.ndarray:
                return workspace.gradient(
                    y, exaggerated if iteration < exaggeration_iter else p
                )

            trace_fn = workspace.kl

        y, kl_trace = _descend(
            grad_fn, y, n_iter, learning_rate, exaggeration_iter, trace_fn,
            checkpoint_every=checkpoint_every, checkpoint_fn=checkpoint_fn,
            resume_from=resume_from,
        )
        # Barnes–Hut runs score the final iterate densely too; their
        # workspace exists only for this one evaluation.
        kl = _exact_kl(p, y) if use_bh else workspace.kl(y)
    registry.counter("kernel_runs_total", kernel="tsne").inc()
    registry.counter("kernel_method_total", kernel="tsne", method=engine).inc()
    registry.histogram(
        "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="tsne"
    ).observe(n_iter)
    registry.gauge("kernel_last_objective", kernel="tsne").set(kl)
    return TSNEResult(
        embedding=y,
        kl_divergence=kl,
        n_iter=n_iter,
        perplexity=perplexity,
        kl_trace=kl_trace,
        method=engine,
        effective_init=effective_init,
    )
