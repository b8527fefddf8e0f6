"""The VAP logic layer: one facade over data, models and views.

:class:`VapSession` is the object the paper's Figure 1 loop runs through —
Data → Models → Visualization → Users → (refine parameters) → Models.  It
owns an :class:`~repro.db.engine.EnergyDatabase`, performs preprocessing
once, caches embeddings per parameter set (the "refine and re-explore"
loop), and exposes every analytical operation the REST API and the
dashboard need:

- typical patterns: ``embed`` → ``selection_session`` → ``pattern_of`` /
  ``profile_of`` (views C and B), and ``proposals`` for DBSCAN-suggested
  selections;
- shift patterns: ``density`` / ``shift`` / ``flows`` (view A);
- baselines: ``kmeans_baseline`` for the S1d comparison.

A session is safe to share between server threads.  Every cache is a
:class:`~repro.core.singleflight.SingleFlightCache`: concurrent identical
requests compute once (the leader) while the rest wait for its result,
the embedding cache is LRU-bounded (embeddings are the big objects), and
waits are capped by the request deadline when one is bound (see
:mod:`repro.core.deadline`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.cluster.kmeans import KMeansResult, kmeans, minibatch_kmeans
from repro.core.patterns import autodiscover
from repro.core.patterns.autodiscover import Proposal
from repro.core.patterns.labeling import (
    PatternLabel,
    label_customers,
    label_selection,
)
from repro.core.patterns.selection import SelectionSession
from repro.core.deadline import DeadlineExceeded, current_deadline
from repro.core.params import EmbedParams
from repro.core.reduction.mds import mds
from repro.core.reduction.tsne import tsne
from repro.core.shift.flow import FlowArrow, ShiftField, flow_vectors, major_flows
from repro.core.shift.grids import DensityGrid, GridSpec
from repro.core.shift.kde import kde_density
from repro.core.shift.sensitivity import (
    GranularityResult,
    QuantileResult,
    granularity_sweep as _granularity_sweep_raw,
    granularity_sweep_from_rollups,
    quantile_sweep as _quantile_sweep_raw,
    quantile_sweep_from_rollups,
)
from repro.core.singleflight import HIT, SingleFlightCache, WaitTimeout
from repro.data.timeseries import HourWindow, Resolution, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.rollup.store import RollupMiss, RollupStore
from repro.preprocess.cleaning import AnomalyReport, remove_anomalies
from repro.preprocess.features import FeatureKind, extract_features
from repro.preprocess.imputation import impute
from repro.preprocess.normalize import normalize_matrix
from repro.preprocess.quality import DataQualityReport, assess_quality
from repro.resilience.breaker import CircuitBreaker

# Kernel operations guarded by a circuit breaker: while one is open, a
# cache miss for it raises BreakerOpen instead of running the kernel.
BREAKER_OPS = ("embed", "density")

# LRU bound on cached granularity sweeps.  Each entry is keyed on the
# data end hour it was computed at, so entries from before a tick are
# never served again and simply age out.
_MAX_GRANULARITY_SWEEPS = 8


@dataclass(slots=True)
class EmbeddingInfo:
    """An embedding plus the diagnostics its reducer reported."""

    coords: np.ndarray
    method: str
    metric: str
    feature_kind: FeatureKind
    objective: float  # KL for t-SNE, stress for MDS


class VapSession:
    """One analysis session over one data set (the paper's logic layer).

    Parameters
    ----------
    db:
        The data layer.
    feature_kind:
        Default profile folding for embeddings (see
        :class:`~repro.preprocess.features.FeatureKind`).
    preprocess:
        When True (default), readings are anomaly-filtered and imputed at
        construction — the paper's stated preprocessing.  Pass False when
        the readings are already clean.
    metrics:
        Metrics registry receiving cache hit/miss counters and stage
        timings; the process-wide default registry when omitted.
    max_embeddings:
        LRU bound on the embedding cache — embeddings are the big cached
        objects, so the "refine and re-explore" history is kept but does
        not grow without limit.  The selection-proposal cache, one entry
        per embedding and DBSCAN setting, shares the bound.
    max_densities:
        LRU bound on the density-grid cache (windowed KDE surfaces).
    breakers:
        Per-operation circuit breakers for the heavy kernels (keys from
        :data:`BREAKER_OPS`).  Defaults are built when omitted; pass
        ``{}`` to disable breaking entirely.  While a breaker is open,
        cache *hits* for its operation still answer exactly, and cache
        *misses* raise :class:`~repro.resilience.breaker.BreakerOpen`
        instead of running the kernel — the API layer answers 503 +
        Retry-After.  No request is ever answered with the result of
        another cache key.
    """

    def __init__(
        self,
        db: EnergyDatabase,
        feature_kind: FeatureKind = FeatureKind.MEAN_WEEK,
        preprocess: bool = True,
        metrics: obs.MetricsRegistry | None = None,
        max_embeddings: int = 16,
        max_densities: int = 32,
        breakers: dict[str, CircuitBreaker] | None = None,
    ) -> None:
        self.db = db
        self._metrics = metrics
        self.feature_kind = feature_kind
        self.quality: DataQualityReport = assess_quality(db.readings)
        self.anomalies: AnomalyReport | None = None
        if preprocess:
            cleaned, self.anomalies = remove_anomalies(db.readings)
            self.series: SeriesSet = impute(cleaned)
        else:
            self.series = db.readings
        self._features: SingleFlightCache[FeatureKind, np.ndarray] = (
            SingleFlightCache(name="features")
        )
        self._member_labels: SingleFlightCache[str, list[PatternLabel]] = (
            SingleFlightCache(name="labels")
        )
        self._embeddings: SingleFlightCache[tuple, EmbeddingInfo] = (
            SingleFlightCache(
                max_entries=max_embeddings,
                on_evict=lambda key, value: self._evicted("embed"),
                name="embed",
            )
        )
        self._proposals: SingleFlightCache[
            tuple, list[tuple[Proposal, PatternLabel]]
        ] = SingleFlightCache(
            max_entries=max_embeddings,
            on_evict=lambda key, value: self._evicted("proposals"),
            name="proposals",
        )
        self._densities: SingleFlightCache[tuple, DensityGrid] = (
            SingleFlightCache(
                max_entries=max_densities,
                on_evict=lambda key, value: self._evicted("density"),
                name="density",
            )
        )
        self._granularity_sweeps: SingleFlightCache[
            tuple, list[GranularityResult]
        ] = SingleFlightCache(
            max_entries=_MAX_GRANULARITY_SWEEPS,
            on_evict=lambda key, value: self._evicted("granularity_sweep"),
            name="granularity_sweep",
        )
        self._grid_lock = threading.RLock()
        self._grid: GridSpec | None = None
        self._rollups: RollupStore | None = None
        self._rollups_lock = threading.Lock()
        if breakers is None:
            breakers = {
                op: CircuitBreaker(name=f"pipeline.{op}", metrics=metrics)
                for op in BREAKER_OPS
            }
        self.breakers = breakers

    @classmethod
    def from_city(
        cls,
        dataset,
        use_raw: bool = True,
        shards: int | None = None,
        **kwargs,
    ) -> "VapSession":
        """Build a session from a generated
        :class:`~repro.data.generator.simulate.CityDataset`.

        Raises
        ------
        ValueError
            If ``shards`` is anything but ``None``.
        """
        # Hash sharding was removed: 4 shards never beat one database on
        # the end-to-end benchmark and cost up to 56% more memory.  The
        # parameter stays only because the benchmark harness passes
        # ``shards=None``.
        if shards is not None:
            raise ValueError(
                f"shards={shards!r}: sharding was removed; every session "
                "runs on one EnergyDatabase"
            )
        readings = dataset.raw if use_raw else dataset.clean
        db = EnergyDatabase(
            dataset.customers, readings, metrics=kwargs.get("metrics")
        )
        return cls(db, **kwargs)

    @property
    def metrics(self) -> obs.MetricsRegistry:
        """This session's registry (the process default unless injected)."""
        return self._metrics if self._metrics is not None else obs.get_registry()

    def _cache(self, op: str, hit: bool) -> None:
        result = "hit" if hit else "miss"
        self.metrics.counter("pipeline_cache_total", op=op, result=result).inc()

    def _evicted(self, cache: str) -> None:
        self.metrics.counter("pipeline_cache_evictions_total", cache=cache).inc()

    def _flight(self, cache: SingleFlightCache, op: str, key, compute):
        """Run ``compute`` through a cache with single-flight semantics.

        Leaders count as cache misses, hits and deduplicated waiters as
        hits (they did not compute); both leader and waiter outcomes are
        additionally recorded in ``pipeline_singleflight_total``.  A
        bound request deadline caps how long a waiter blocks and is
        checked before leading a computation.  When ``op`` has a circuit
        breaker, the leader computes through it, so only misses can be
        refused.

        Raises
        ------
        DeadlineExceeded
            When the bound deadline expired, or elapsed while waiting
            for another thread's in-flight computation.
        BreakerOpen
            When ``key`` is not cached and the breaker refuses the call.
        """
        deadline = current_deadline()
        timeout = None
        if deadline is not None:
            deadline.check(op)
            timeout = deadline.remaining()
        breaker = self.breakers.get(op)
        guarded = compute if breaker is None else (lambda: breaker.call(compute))
        try:
            value, outcome = cache.get_or_compute(key, guarded, timeout=timeout)
        except WaitTimeout:
            raise DeadlineExceeded(
                f"request deadline exceeded waiting for in-flight {op}"
            ) from None
        self._cache(op, hit=outcome == HIT)
        if outcome != HIT:
            self.metrics.counter(
                "pipeline_singleflight_total", op=op, result=outcome
            ).inc()
        return value

    # ------------------------------------------------------------------
    # typical patterns (views B and C)
    # ------------------------------------------------------------------
    def features(self, kind: FeatureKind | None = None) -> np.ndarray:
        """Feature matrix for the embedding, cached per kind."""
        kind = kind or self.feature_kind

        def compute() -> np.ndarray:
            with obs.span("pipeline.features", kind=kind.value):
                return extract_features(self.series, kind)

        return self._flight(self._features, "features", kind, compute)

    def embed(self, **options) -> EmbeddingInfo:
        """Reduce the series to 2-D; ``options`` are
        :class:`~repro.core.params.EmbedParams` fields (see
        :meth:`embed_spec`).

        Raises
        ------
        ValueError
            For an invalid option.
        BreakerOpen
            When the embedding is not cached and the embed breaker is
            open.
        """
        return self.embed_spec(EmbedParams(**options))

    def embed_spec(self, params: EmbedParams) -> EmbeddingInfo:
        """The embedding ``params`` describes.

        Cached per ``params.key(n)``: the resolved engine plus the
        options it reads, so requests whose runs would be byte-identical
        (another ``seed`` under exact t-SNE, perplexities clamped alike,
        any t-SNE option under MDS) share one run.

        Raises
        ------
        BreakerOpen
            When the embedding is not cached and the embed breaker is
            open.
        """
        if params.feature_kind is None:
            params = replace(params, feature_kind=self.feature_kind)
        method, metric = params.method, params.metric

        def compute() -> EmbeddingInfo:
            start = self.metrics.clock()
            with obs.span("pipeline.embed", method=method, metric=metric), \
                    self.metrics.timer("pipeline_seconds", op="embed"):
                feats = self.features(params.feature_kind)
                if method == "tsne":
                    result = tsne(feats, **params.tsne_options())
                    objective = result.kl_divergence
                else:
                    result = mds(
                        feats, metric=metric,
                        method="classical" if method == "mds_classical" else "smacof",
                        dtw_max_rows=params.dtw_max_rows,
                    )
                    objective = result.stress
            elapsed = self.metrics.clock() - start
            obs.get_slow_log().offer(
                "pipeline.embed", elapsed, method=method, metric=metric
            )
            obs.log_event(
                "pipeline.embed.compute",
                method=method,
                metric=metric,
                perplexity=params.perplexity,
                n_iter=params.n_iter,
                seed=params.seed,
                duration_ms=round(elapsed * 1000.0, 3),
            )
            return EmbeddingInfo(
                coords=result.embedding,
                method=method,
                metric=metric,
                feature_kind=params.feature_kind,
                objective=objective,
            )

        return self._flight(
            self._embeddings, "embed", params.key(len(self.series)), compute
        )

    def selection_session(
        self, embedding: EmbeddingInfo | None = None
    ) -> SelectionSession:
        """Start an interactive selection session over an embedding."""
        info = embedding or self.embed()
        return SelectionSession(embedding=info.coords)

    def proposals(
        self, method: str = "tsne", min_points: int = 5, min_size: int = 5
    ) -> list[tuple[Proposal, PatternLabel]]:
        """DBSCAN selection proposals over the default embedding for
        ``method``, largest first, each with its :meth:`pattern_of`
        label.

        Cached with single-flight misses, keyed on the requested
        embedding's :meth:`~repro.core.params.EmbedParams.key` plus
        ``min_points`` and ``min_size``.  The series the
        embedding is computed from never changes after construction, so
        no data end hour is part of the key.

        Raises
        ------
        ValueError
            For an unknown method, a non-positive ``min_points`` or
            ``min_size``, or too few points to estimate epsilon.
        BreakerOpen
            When the embedding is not cached and the embed breaker is
            open.
        """
        params = EmbedParams(method=method, feature_kind=self.feature_kind)
        info = self.embed_spec(params)

        def compute() -> list[tuple[Proposal, PatternLabel]]:
            # Looked up on the module at call time, so a wrapper
            # installed on ``autodiscover.propose_selections`` sees it.
            found = autodiscover.propose_selections(
                info.coords, min_points=min_points, min_size=min_size
            )
            return [(p, self.pattern_of(p.indices)) for p in found]

        key = (*params.key(len(self.series)), min_points, min_size)
        return self._flight(self._proposals, "proposals", key, compute)

    def member_labels(self) -> list[PatternLabel]:
        """Template labels for every customer (population context), cached."""
        return self._flight(
            self._member_labels,
            "member_labels",
            "all",
            lambda: label_customers(self.series),
        )

    def _validate_indices(self, indices: np.ndarray) -> np.ndarray:
        """Embedding row indices as int64, bounds-checked.

        Out-of-range values — including negative ones, which numpy would
        silently wrap around to the *wrong customer* — raise ValueError.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = len(self.series.customer_ids)
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"embedding row indices must be in [0, {n}); "
                    f"got values spanning [{lo}, {hi}]"
                )
        return indices

    def pattern_of(self, indices: np.ndarray) -> PatternLabel:
        """Name the pattern of a selection (what the analyst reads off
        view B).

        Raises
        ------
        ValueError
            For row indices outside the embedding.
        """
        indices = self._validate_indices(indices)
        return label_selection(
            self.series, indices, member_labels=self.member_labels()
        )

    def profile_of(self, indices: np.ndarray) -> np.ndarray:
        """View B's aggregated consumption curve for a selection.

        Raises
        ------
        ValueError
            If the selection is empty, or for row indices outside the
            embedding.
        """
        indices = self._validate_indices(indices)
        if indices.size == 0:
            raise ValueError("cannot aggregate an empty selection")
        ids = [int(self.series.customer_ids[i]) for i in indices]
        return self.series.select_customers(ids).mean_profile()

    def customers_of(self, indices: np.ndarray) -> list[int]:
        """Customer ids behind embedding row indices.

        Raises
        ------
        ValueError
            For row indices outside the embedding.
        """
        indices = self._validate_indices(indices)
        return [int(self.series.customer_ids[int(i)]) for i in indices]

    def kmeans_baseline(
        self,
        k: int = 5,
        feature_kind: FeatureKind | None = None,
        seed: int = 0,
        algorithm: str = "lloyd",
    ) -> KMeansResult:
        """The S1d baseline: k-means on z-scored features.

        ``algorithm`` is ``"lloyd"`` (full-batch, the default) or
        ``"minibatch"`` (Sculley-style, for fleet-scale feature sets).

        Raises
        ------
        ValueError
            For an unknown algorithm.
        DeadlineExceeded
            When the bound request deadline is already spent.
        """
        if algorithm not in ("lloyd", "minibatch"):
            raise ValueError(
                f"algorithm must be 'lloyd' or 'minibatch', got {algorithm!r}"
            )
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("kmeans_baseline")
        with obs.span("pipeline.kmeans_baseline", k=k, algorithm=algorithm), \
                self.metrics.timer("pipeline_seconds", op="kmeans_baseline"):
            feats = normalize_matrix(self.features(feature_kind), "zscore")
            if algorithm == "minibatch":
                return minibatch_kmeans(feats, k=k, seed=seed)
            return kmeans(feats, k=k, seed=seed)

    def forecast(
        self, customer_id: int, horizon: int = 24, method: str = "profile"
    ) -> np.ndarray:
        """Day-ahead-style forecast for one customer.

        ``method`` is ``"profile"`` (pattern-based, the paper's downstream
        claim), ``"seasonal"`` (repeat last week) or ``"naive"``.

        Raises
        ------
        ValueError
            For an unknown method or customer.
        KeyError
            For an unknown customer id.
        """
        from repro.forecast.baselines import NaiveForecaster, SeasonalNaive
        from repro.forecast.profile import ProfileForecaster

        history = self.series.series(customer_id).values
        if method == "profile":
            model = ProfileForecaster()
            model.fit(history, start_phase=self.series.start_hour % model.season)
        elif method == "seasonal":
            model = SeasonalNaive(168).fit(history)
        elif method == "naive":
            model = NaiveForecaster().fit(history)
        else:
            raise ValueError(
                f"unknown method {method!r}; pick profile/seasonal/naive"
            )
        return model.predict(horizon)

    # ------------------------------------------------------------------
    # shift patterns (view A)
    # ------------------------------------------------------------------
    def grid(self, nx: int | None = None, ny: int | None = None) -> GridSpec:
        """The session's shared density grid (covers every customer).

        With no arguments, the current grid is returned as-is (building a
        default 96x96 one on first use) — so a grid chosen with an
        explicit resolution stays in force for later default-size calls
        instead of being silently rebuilt and dropped.  Passing ``nx``/
        ``ny`` rebuilds only when the resolution actually differs.
        """
        explicit = nx is not None or ny is not None
        want_nx = 96 if nx is None else nx
        want_ny = 96 if ny is None else ny
        with self._grid_lock:
            if self._grid is not None and (
                not explicit or (self._grid.nx, self._grid.ny) == (want_nx, want_ny)
            ):
                return self._grid
            positions = self.db.positions_of(self.db.customer_ids)
            self._grid = GridSpec.covering(positions, nx=want_nx, ny=want_ny)
            return self._grid

    def density(
        self,
        window: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> DensityGrid:
        """Eq. 3: demand-weighted density for one window (view A heat map).

        ``method`` selects the KDE engine (``"auto"``, ``"exact"`` or
        ``"binned"``) and is part of the cache key so exact and binned
        surfaces never alias.  Results are cached per ``(window,
        bandwidth, customers, grid, method)`` with single-flight misses,
        so concurrent identical heat-map requests run the KDE kernel once.

        Raises
        ------
        BreakerOpen
            When the surface is not cached and the density breaker is
            open.
        """
        return self._density_at(
            window, self.db.time_span, bandwidth_m, customer_ids, method
        )

    def _density_at(
        self,
        window: HourWindow,
        span: HourWindow,
        bandwidth_m: float | None,
        customer_ids: list[int] | None,
        method: str,
    ) -> DensityGrid:
        """:meth:`density` over ``window`` clipped to ``span``,
        a data span read once by the caller (so one request's densities
        all see the same end hour)."""
        spec = self.grid()
        ids_key = None if customer_ids is None else tuple(
            int(cid) for cid in customer_ids
        )
        # Key on the window clipped to the data span, and compute over
        # exactly that window: a window reaching past the end hour then
        # gets a new key (a miss) once more of it has landed.
        lo = max(window.start_hour, span.start_hour)
        landed = HourWindow(lo, max(lo, min(window.end_hour, span.end_hour)))
        key = (
            landed.start_hour, landed.end_hour, bandwidth_m, ids_key, spec,
            method,
        )

        def compute() -> DensityGrid:
            with obs.span(
                "pipeline.density", start=window.start_hour, end=window.end_hour
            ), self.metrics.timer("pipeline_seconds", op="density"):
                positions, values = self.db.demand(landed, customer_ids)
                return kde_density(
                    positions, values, spec, bandwidth_m=bandwidth_m,
                    method=method,
                )

        return self._flight(self._densities, "density", key, compute)

    def shift(
        self,
        t1: HourWindow,
        t2: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> ShiftField:
        """Eq. 4: the density difference between two windows.

        Both windows are clipped to one read of the data span, so a tick
        landing between the two densities cannot give them different end
        hours.

        Raises
        ------
        BreakerOpen
            When either surface is not cached and the density breaker is
            open.
        """
        with obs.span("pipeline.shift"), \
                self.metrics.timer("pipeline_seconds", op="shift"):
            span = self.db.time_span
            before = self._density_at(t1, span, bandwidth_m, customer_ids, method)
            after = self._density_at(t2, span, bandwidth_m, customer_ids, method)
            return ShiftField.between(before, after)

    # Plain aliases kept only because ``TRACED`` in
    # benchmarks/e2e/server.py wraps these names in ``--trace`` mode
    # (that file is the frozen benchmark harness); the HTTP handlers call
    # them so a traced run still times the pipeline layer.
    embed_degradable = embed
    density_degradable = density
    shift_degradable = shift

    # ------------------------------------------------------------------
    # rollup-backed sweeps (S2)
    # ------------------------------------------------------------------
    def rollups(self, rebuild: bool = False) -> RollupStore:
        """The session's materialized rollup store, built lazily.

        The store covers every customer on the session grid and is
        rebuilt from the database on first use.  ``rebuild`` forces a
        fresh rebuild — the CLI's ``rollup rebuild`` path.
        """
        with self._rollups_lock:
            store = self._rollups
            if store is None:
                store = RollupStore(
                    self.db.positions_of(
                        [int(cid) for cid in self.db.readings.customer_ids]
                    ),
                    [int(cid) for cid in self.db.readings.customer_ids],
                    self.grid(),
                    metrics=self._metrics,
                )
                store.rebuild_from(self.db)
                self._rollups = store
            elif rebuild:
                store.rebuild_from(self.db)
            return store

    def rollups_catch_up(self) -> int:
        """Fold any hours the database ingested since the rollups were
        last maintained; returns the hours applied.

        True incremental maintenance: only the missing hour range is
        read, so catching up after ``k`` stream ticks costs O(k · n),
        not a full rebuild.
        """
        store = self.rollups()
        end = self.db.time_span.end_hour
        last = store.last_applied_hour
        if last is None or last >= end:
            return 0
        gap = HourWindow(last, end)
        sliced = self.db.readings_for(None, gap)
        store.apply_hours(
            sliced.matrix,
            gap.start_hour,
            customer_ids=[int(cid) for cid in sliced.customer_ids],
        )
        return end - last

    def rollup_status(self) -> dict[str, object]:
        """Staleness + maintenance state of the rollup layer.

        ``enabled`` is False (with every other key still present) until
        the store has been built — the telemetry block stays
        schema-stable either way.
        """
        with self._rollups_lock:
            store = self._rollups
        if store is None:
            return {"enabled": False, "status": None}
        return {
            "enabled": True,
            "status": store.status(source_end_hour=self.db.time_span.end_hour),
        }

    def _rollup_fallback(self, op: str, reason: str) -> None:
        self.metrics.counter(
            "pipeline_rollup_fallback_total", op=op
        ).inc()
        obs.log_event(
            "pipeline.rollup_fallback", level="warning", op=op, reason=reason
        )

    def granularity_sweep(
        self,
        resolutions: tuple[Resolution, ...] = tuple(Resolution),
        max_pairs_per_resolution: int = 8,
        bandwidth_m: float | None = None,
        use_rollups: bool = True,
    ) -> list[GranularityResult]:
        """S2's temporal-granularity sweep, answered from the rollup
        layer when possible.

        The rollup path first catches the store up to the database's end
        hour (incremental, O(lag)), then answers every bucket field from
        the materialized tables — latency independent of how many raw
        readings exist.  Any rollup gap (:class:`~repro.rollup.store
        .RollupMiss`) falls back to the exact raw-readings sweep and is
        counted in ``pipeline_rollup_fallback_total``.

        Results are cached with single-flight misses, keyed on the
        options that change the result plus the data end hour the sweep
        is computed at (the store's watermark after catch-up, or the
        database's end hour on the raw path): a stream tick moves that
        hour, so the next request recomputes.
        """
        resolutions = tuple(resolutions)
        options = (resolutions, max_pairs_per_resolution, bandwidth_m)
        with obs.span("pipeline.granularity_sweep"), \
                self.metrics.timer("pipeline_seconds", op="granularity_sweep"):
            if use_rollups:
                try:
                    self.rollups_catch_up()
                    store = self.rollups()
                    return self._flight(
                        self._granularity_sweeps,
                        "granularity_sweep",
                        (*options, True, store.last_applied_hour),
                        lambda: granularity_sweep_from_rollups(
                            store,
                            resolutions=resolutions,
                            max_pairs_per_resolution=max_pairs_per_resolution,
                            bandwidth_m=bandwidth_m,
                        ),
                    )
                except RollupMiss as exc:
                    self._rollup_fallback("granularity_sweep", str(exc))
            return self._flight(
                self._granularity_sweeps,
                "granularity_sweep",
                (*options, False, self.db.time_span.end_hour),
                lambda: _granularity_sweep_raw(
                    self.db,
                    resolutions=resolutions,
                    spec=self.grid(),
                    max_pairs_per_resolution=max_pairs_per_resolution,
                    bandwidth_m=bandwidth_m,
                ),
            )

    def quantile_sweep(
        self,
        t1: HourWindow,
        t2: HourWindow,
        quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        bandwidth_m: float | None = None,
        use_rollups: bool = True,
    ) -> list[QuantileResult]:
        """S2's consumption-intensity sweep, rollup-backed with the same
        exact-fallback contract as :meth:`granularity_sweep`."""
        with obs.span("pipeline.quantile_sweep"), \
                self.metrics.timer("pipeline_seconds", op="quantile_sweep"):
            if use_rollups:
                try:
                    self.rollups_catch_up()
                    return quantile_sweep_from_rollups(
                        self.rollups(),
                        t1,
                        t2,
                        quantiles=quantiles,
                        bandwidth_m=bandwidth_m,
                    )
                except RollupMiss as exc:
                    self._rollup_fallback("quantile_sweep", str(exc))
            return _quantile_sweep_raw(
                self.db,
                t1,
                t2,
                quantiles=quantiles,
                spec=self.grid(),
                bandwidth_m=bandwidth_m,
            )

    def flows(
        self,
        t1: HourWindow,
        t2: HourWindow,
        style: str = "major",
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
    ) -> list[FlowArrow]:
        """Flow arrows for view A.

        ``style`` is ``"major"`` (blob-to-blob transport, the Figure 3
        narrative arrows) or ``"field"`` (dense gradient arrows).

        Raises
        ------
        ValueError
            For an unknown style.
        """
        if style not in ("major", "field"):
            raise ValueError(f"style must be 'major' or 'field', got {style!r}")
        field = self.shift(t1, t2, bandwidth_m, customer_ids)
        if style == "major":
            return major_flows(field)
        return flow_vectors(field)
