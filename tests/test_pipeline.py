"""Tests for the VapSession facade (the logic layer)."""

import numpy as np
import pytest

from repro.core.patterns.selection import KnnSelection, RectSelection
from repro.core.pipeline import VapSession
from repro.data.timeseries import HourWindow
from repro.preprocess.features import FeatureKind


class TestConstruction:
    def test_preprocessing_runs_by_default(self, small_session):
        assert small_session.series.missing_fraction() == 0.0
        assert small_session.anomalies is not None
        assert small_session.anomalies.total > 0
        assert small_session.quality.missing_fraction > 0.0

    def test_preprocess_false_keeps_raw(self, small_city):
        session = VapSession.from_city(small_city, preprocess=False)
        assert session.series.missing_fraction() > 0.0
        assert session.anomalies is None

    def test_from_city_clean(self, small_city):
        session = VapSession.from_city(small_city, use_raw=False)
        assert session.quality.missing_fraction == 0.0


class TestEmbedding:
    def test_caching_by_parameters(self, small_session):
        a = small_session.embed(n_iter=150)
        b = small_session.embed(n_iter=150)
        assert a is b
        c = small_session.embed(n_iter=151)
        assert c is not a

    def test_methods_produce_2d(self, small_session):
        for method in ("tsne", "mds", "mds_classical"):
            info = small_session.embed(method=method, n_iter=100)
            assert info.coords.shape == (len(small_session.db), 2)
            assert np.isfinite(info.objective)

    def test_unknown_method(self, small_session):
        with pytest.raises(ValueError, match="method"):
            small_session.embed(method="umap")

    def test_feature_cache(self, small_session):
        a = small_session.features(FeatureKind.MEAN_DAY)
        b = small_session.features(FeatureKind.MEAN_DAY)
        assert a is b
        assert a.shape[1] == 24


class TestSelectionWorkflow:
    def test_select_label_profile_round_trip(self, small_session):
        info = small_session.embed(n_iter=150)
        session = small_session.selection_session(info)
        idx = session.select("g", KnnSelection(info.coords[0, 0], info.coords[0, 1], 8))
        label = small_session.pattern_of(idx)
        assert label.archetype is not None
        profile = small_session.profile_of(idx)
        assert profile.shape[0] == small_session.series.n_steps
        ids = small_session.customers_of(idx)
        assert len(ids) == 8

    def test_member_labels_cached(self, small_session):
        assert small_session.member_labels() is small_session.member_labels()

    def test_empty_profile_rejected(self, small_session):
        with pytest.raises(ValueError):
            small_session.profile_of(np.array([], dtype=np.int64))

    def test_kmeans_baseline(self, small_session):
        result = small_session.kmeans_baseline(k=4)
        assert np.unique(result.labels).size == 4


class TestShiftWorkflow:
    def test_density_and_shift(self, small_session):
        t1 = HourWindow(61, 63)
        t2 = HourWindow(67, 69)
        density = small_session.density(t2)
        assert density.total_mass() == pytest.approx(1.0, abs=0.15)
        field = small_session.shift(t1, t2)
        assert field.energy() > 0

    def test_flow_styles(self, small_session):
        t1 = HourWindow(61, 63)
        t2 = HourWindow(67, 69)
        major = small_session.flows(t1, t2, style="major")
        dense = small_session.flows(t1, t2, style="field")
        assert len(dense) > len(major) >= 1
        with pytest.raises(ValueError, match="style"):
            small_session.flows(t1, t2, style="spiral")

    def test_grid_cached_per_resolution(self, small_session):
        a = small_session.grid()
        b = small_session.grid()
        assert a is b
        c = small_session.grid(nx=32, ny=32)
        assert c is not a
        # Explicit grids are sticky now; restore the default so the
        # shared session keeps its 96x96 grid for later tests.
        restored = small_session.grid(nx=96, ny=96)
        assert (restored.nx, restored.ny) == (96, 96)

    def test_customer_subset_shift(self, small_session):
        ids = small_session.db.customer_ids[:10]
        field = small_session.shift(HourWindow(61, 63), HourWindow(67, 69), customer_ids=ids)
        assert np.isfinite(field.values).all()


class TestForecastApi:
    def test_methods_agree_on_shapes(self, small_session):
        cid = small_session.db.customer_ids[0]
        for method in ("profile", "seasonal", "naive"):
            out = small_session.forecast(cid, horizon=48, method=method)
            assert out.shape == (48,)
            assert (out >= 0).all()

    def test_profile_tracks_diurnal_shape(self, small_session):
        """The pattern forecast must vary within the day for a customer
        with a diurnal pattern."""
        import numpy as np

        means = small_session.series.per_customer_mean()
        cid = int(small_session.series.customer_ids[int(np.argmax(means))])
        out = small_session.forecast(cid, horizon=24, method="profile")
        assert out.max() > 1.05 * max(out.min(), 1e-9)

    def test_unknown_method(self, small_session):
        with pytest.raises(ValueError, match="method"):
            small_session.forecast(small_session.db.customer_ids[0], method="arima")

    def test_unknown_customer(self, small_session):
        with pytest.raises(KeyError):
            small_session.forecast(10**9)


@pytest.fixture(scope="module")
def tiny_city():
    """A minimal city for tests that need their own mutable session."""
    from repro.data.generator.simulate import CityConfig, generate_city

    return generate_city(CityConfig(n_customers=25, n_days=7, seed=33))


class TestIndexValidation:
    """Out-of-range embedding rows must fail loudly, never wrap around."""

    def test_profile_of_rejects_negative_indices(self, small_session):
        with pytest.raises(ValueError, match="indices"):
            small_session.profile_of(np.array([-1]))

    def test_profile_of_rejects_out_of_range(self, small_session):
        n = len(small_session.series.customer_ids)
        with pytest.raises(ValueError, match="indices"):
            small_session.profile_of(np.array([n]))

    def test_customers_of_rejects_negative_indices(self, small_session):
        with pytest.raises(ValueError, match="indices"):
            small_session.customers_of(np.array([0, -3]))

    def test_pattern_of_rejects_out_of_range(self, small_session):
        n = len(small_session.series.customer_ids)
        with pytest.raises(ValueError, match="indices"):
            small_session.pattern_of(np.array([n + 5]))

    def test_valid_bounds_still_work(self, small_session):
        n = len(small_session.series.customer_ids)
        ids = small_session.customers_of(np.array([0, n - 1]))
        assert len(ids) == 2


class TestGridReuse:
    def test_density_reuses_custom_grid(self, tiny_city):
        """A grid chosen explicitly must survive a later default-size
        density call instead of being rebuilt at 96x96 and dropped."""
        session = VapSession.from_city(tiny_city, preprocess=False)
        custom = session.grid(nx=32, ny=48)
        grid = session.density(HourWindow(13, 15))
        assert grid.spec is custom
        assert (grid.spec.nx, grid.spec.ny) == (32, 48)
        # And the cached spec is still what grid() returns afterwards.
        assert session.grid() is custom

    def test_same_resolution_not_rebuilt(self, tiny_city):
        session = VapSession.from_city(tiny_city, preprocess=False)
        a = session.grid(nx=32, ny=32)
        assert session.grid(nx=32, ny=32) is a


class TestCacheBehaviour:
    def test_embedding_lru_eviction(self, tiny_city):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        session = VapSession.from_city(
            tiny_city, metrics=registry, max_embeddings=2
        )
        # n_iter changes the result, so each call is its own entry (a
        # seed would not: exact t-SNE with PCA init never reads it).
        a = session.embed(n_iter=20, perplexity=4.0)
        session.embed(n_iter=21, perplexity=4.0)
        session.embed(n_iter=22, perplexity=4.0)  # evicts n_iter=20
        evictions = registry.counter(
            "pipeline_cache_evictions_total", cache="embed"
        )
        assert evictions.value == 1
        # n_iter=20 was evicted: asking again recomputes (fresh object).
        b = session.embed(n_iter=20, perplexity=4.0)
        assert b is not a

    def test_density_cached_per_window(self, tiny_city):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        session = VapSession.from_city(
            tiny_city, preprocess=False, metrics=registry
        )
        a = session.density(HourWindow(13, 15))
        b = session.density(HourWindow(13, 15))
        assert a is b
        c = session.density(HourWindow(19, 21))
        assert c is not a
        hits = registry.counter(
            "pipeline_cache_total", op="density", result="hit"
        )
        misses = registry.counter(
            "pipeline_cache_total", op="density", result="miss"
        )
        assert hits.value == 1
        assert misses.value == 2

    def test_density_bandwidth_distinguishes_cache_keys(self, tiny_city):
        session = VapSession.from_city(tiny_city, preprocess=False)
        a = session.density(HourWindow(13, 15), bandwidth_m=5000.0)
        b = session.density(HourWindow(13, 15), bandwidth_m=9000.0)
        assert a is not b


class TestDeadlineIntegration:
    def test_expired_deadline_blocks_embed(self, tiny_city):
        from repro.core.deadline import (
            Deadline,
            DeadlineExceeded,
            bind_deadline,
        )

        session = VapSession.from_city(tiny_city)
        now = [0.0]
        deadline = Deadline(0.5, clock=lambda: now[0])
        now[0] = 1.0  # budget spent before the kernel starts
        with bind_deadline(deadline):
            with pytest.raises(DeadlineExceeded):
                session.embed(n_iter=20, perplexity=4.0)
            with pytest.raises(DeadlineExceeded):
                session.density(HourWindow(13, 15))
            with pytest.raises(DeadlineExceeded):
                session.kmeans_baseline(k=3)

    def test_unexpired_deadline_allows_work(self, tiny_city):
        from repro.core.deadline import Deadline, bind_deadline

        session = VapSession.from_city(tiny_city)
        with bind_deadline(Deadline(3600.0)):
            info = session.embed(n_iter=20, perplexity=4.0)
        assert info.coords.shape[1] == 2


# ----------------------------------------------------------------------
# Cache freshness under stream ticks.  CI re-runs these two classes under
# a seeded ``stream.tick`` fault plan: ticks fail and are retried, and a
# cached answer must still equal a freshly built session's.
# ----------------------------------------------------------------------
HEAD_HOURS = 7 * 24


@pytest.fixture(scope="module")
def tick_city():
    from repro.data.generator.simulate import CityConfig, generate_city

    return generate_city(CityConfig(n_customers=60, n_days=10, seed=3))


def _session_through(city, end_hour, metrics=None):
    """A session over the raw readings up to ``end_hour`` (exclusive)."""
    from repro.db.engine import EnergyDatabase

    raw = city.raw
    db = EnergyDatabase(city.customers, raw.slice_hours(raw.start_hour, end_hour))
    return VapSession(db, preprocess=False, metrics=metrics)


def _tick(session, city, n_ticks):
    """Replay ``n_ticks`` one-hour ticks into the session's database; the
    feed retries injected ``stream.tick`` faults."""
    from repro import obs
    from repro.resilience.retry import RetryPolicy
    from repro.stream.feed import ReplayFeed
    from repro.stream.routing import ShardRouter

    end = session.db.time_span.end_hour
    tail = city.raw.slice_hours(end, end + n_ticks)
    retry = RetryPolicy(
        max_attempts=8,
        base_delay=0.0,
        max_delay=0.0,
        sleeper=lambda s: None,
        metrics=obs.MetricsRegistry(),
    )
    router = ShardRouter(session.db, [int(c) for c in tail.customer_ids])
    assert router.replay(ReplayFeed(tail, retry=retry)) == n_ticks
    assert session.db.time_span.end_hour == end + n_ticks


class TestDensityCacheFreshness:
    def test_window_past_the_end_recomputes_after_ticks(self, tick_city):
        session = _session_through(tick_city, HEAD_HOURS)
        window = HourWindow(HEAD_HOURS - 4, HEAD_HOURS + 4)
        before = HourWindow(HEAD_HOURS - 8, HEAD_HOURS - 4)
        stale_density = session.density(window)
        stale_shift = session.shift(before, window)
        _tick(session, tick_city, 6)
        fresh = _session_through(tick_city, HEAD_HOURS + 6)
        got = session.density(window)
        assert got is not stale_density
        assert np.array_equal(got.values, fresh.density(window).values)
        assert not np.array_equal(got.values, stale_density.values)
        shift = session.shift(before, window)
        assert np.array_equal(shift.values, fresh.shift(before, window).values)
        assert not np.array_equal(shift.values, stale_shift.values)

    def test_landed_window_keeps_its_entry(self, tick_city):
        session = _session_through(tick_city, HEAD_HOURS)
        window = HourWindow(HEAD_HOURS - 24, HEAD_HOURS)
        first = session.density(window)
        _tick(session, tick_city, 2)
        assert session.density(window) is first

    def test_windows_clipped_alike_share_an_entry(self, tick_city):
        session = _session_through(tick_city, HEAD_HOURS)
        a = session.density(HourWindow(HEAD_HOURS - 4, HEAD_HOURS + 4))
        b = session.density(HourWindow(HEAD_HOURS - 4, HEAD_HOURS + 40))
        assert a is b
        assert a is session.density(HourWindow(HEAD_HOURS - 4, HEAD_HOURS))


class TestEncodedDensityFreshness:
    def test_density_body_matches_a_fresh_session_across_ticks(self, tick_city):
        """The codec keeps each cached grid's JSON text while the grid
        lives: repeats, and repeats after ticks move the key of a window
        past the end, serve a fresh session's bytes at that end hour."""
        from repro.server import TestClient, VapApp

        session = _session_through(tick_city, HEAD_HOURS)
        client = TestClient(VapApp(session))
        urls = [
            f"/api/density?t_start={HEAD_HOURS - 4}&t_end={HEAD_HOURS + 4}",
            f"/api/density?t_start={HEAD_HOURS - 24}&t_end={HEAD_HOURS}"
            "&kde_method=binned",
        ]

        def bodies():
            got = [client.get(url) for url in urls]
            assert all(r.status == 200 for r in got)
            return [r.body for r in got]

        def fresh_bodies(end_hour):
            fresh = TestClient(VapApp(_session_through(tick_city, end_hour)))
            return [fresh.get(url).body for url in urls]

        before = bodies()
        assert bodies() == before == fresh_bodies(HEAD_HOURS)
        _tick(session, tick_city, 6)
        after = bodies()
        assert after[0] != before[0] and after[1] == before[1]
        assert bodies() == after == fresh_bodies(HEAD_HOURS + 6)


class TestCachedArraysFrozen:
    def test_writing_into_a_cached_answer_raises(self, small_session):
        window = HourWindow(0, 24)
        grid = small_session.density(window)
        info = small_session.embed(method="mds_classical")
        kept = grid.values.copy(), info.coords.copy()
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0, 0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            info.coords[0] = 0.0
        assert np.array_equal(small_session.density(window).values, kept[0])
        assert np.array_equal(
            small_session.embed(method="mds_classical").coords, kept[1]
        )


class TestShiftEndHour:
    def test_shift_racing_a_tick_clips_both_windows_alike(
        self, tick_city, monkeypatch
    ):
        """A tick that lands between a shift's two densities must not clip
        t1 and t2 at different end hours: the shift equals a fresh
        session's shift at one end hour."""
        import threading

        session = _session_through(tick_city, HEAD_HOURS)
        t1 = HourWindow(HEAD_HOURS - 6, HEAD_HOURS + 2)
        t2 = HourWindow(HEAD_HOURS - 3, HEAD_HOURS + 5)
        go, landed = threading.Event(), threading.Event()
        errors = []

        def writer():
            try:
                go.wait(timeout=30)
                _tick(session, tick_city, 1)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                landed.set()

        real_demand = session.db.demand

        def demand_racing_the_writer(*args, **kwargs):
            # The first density's read lets the writer land one tick and
            # waits for it, so the second density runs after the tick.
            if not go.is_set():
                go.set()
                assert landed.wait(timeout=30)
            return real_demand(*args, **kwargs)

        monkeypatch.setattr(session.db, "demand", demand_racing_the_writer)
        thread = threading.Thread(target=writer)
        thread.start()
        got = session.shift(t1, t2)
        thread.join(timeout=30)
        assert not errors, errors
        assert session.db.time_span.end_hour == HEAD_HOURS + 1
        fresh = [
            _session_through(tick_city, end).shift(t1, t2)
            for end in (HEAD_HOURS, HEAD_HOURS + 1)
        ]
        assert not np.array_equal(fresh[0].values, fresh[1].values)
        assert any(np.array_equal(got.values, f.values) for f in fresh)


def _assert_same_sweep(got, want, rel=0.0):
    assert [r.resolution for r in got] == [r.resolution for r in want]
    for a, b in zip(got, want):
        assert a.n_window_pairs == b.n_window_pairs
        for name in ("mean_energy", "mean_flows", "peak_gain", "peak_loss"):
            assert getattr(a, name) == pytest.approx(
                getattr(b, name), rel=rel, abs=0.0, nan_ok=True
            ), (a.resolution, name)


class TestGranularitySweepCache:
    def test_repeat_is_a_hit_without_bucket_fields(
        self, tick_city, monkeypatch
    ):
        from repro.obs import MetricsRegistry
        from repro.rollup.store import RollupStore

        registry = MetricsRegistry()
        session = _session_through(tick_city, HEAD_HOURS, metrics=registry)
        first = session.granularity_sweep()
        calls = []
        real = RollupStore.bucket_field

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RollupStore, "bucket_field", counting)
        assert session.granularity_sweep() is first
        assert calls == []
        hits = registry.counter(
            "pipeline_cache_total", op="granularity_sweep", result="hit"
        )
        assert hits.value == 1

    @pytest.mark.parametrize("use_rollups", [True, False])
    def test_tick_recomputes_at_the_new_end_hour(self, tick_city, use_rollups):
        session = _session_through(tick_city, HEAD_HOURS)
        stale = session.granularity_sweep(use_rollups=use_rollups)
        _tick(session, tick_city, 1)
        got = session.granularity_sweep(use_rollups=use_rollups)
        assert got is not stale
        fresh = _session_through(tick_city, HEAD_HOURS + 1)
        want = fresh.granularity_sweep(use_rollups=use_rollups)
        # The ticked store folded the hour into warm grids; the fresh one
        # rebuilt them, so the rollup answers agree to float rounding.
        _assert_same_sweep(got, want, rel=1e-9 if use_rollups else 0.0)

    def test_result_changing_options_get_distinct_entries(self, tick_city):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        session = _session_through(tick_city, HEAD_HOURS, metrics=registry)
        variants = [
            {},
            {"use_rollups": False},
            {"max_pairs_per_resolution": 3},
            {"bandwidth_m": 800.0},
        ]
        results = [session.granularity_sweep(**kw) for kw in variants]
        assert len(session._granularity_sweeps) == len(variants)
        for kw, result in zip(variants, results):
            assert session.granularity_sweep(**kw) is result
        counts = {
            outcome: registry.counter(
                "pipeline_cache_total", op="granularity_sweep", result=outcome
            ).value
            for outcome in ("hit", "miss")
        }
        assert counts == {"hit": len(variants), "miss": len(variants)}

    def test_expired_deadline_still_gets_503(self, tick_city):
        from repro.server import TestClient, VapApp

        session = _session_through(tick_city, HEAD_HOURS)
        session.granularity_sweep()  # cached: the request would be a hit
        client = TestClient(VapApp(session, deadline_seconds=1e-9))
        response = client.get("/api/sweep/granularity")
        assert response.status == 503
        assert "deadline" in response.json["error"]

    def test_cached_answers_track_a_day_of_ticks(self, tick_city):
        """Density, shift and both sweep sources, re-asked every six
        ticks for a window reaching past the end: each answer equals a
        fresh session's at the new end hour."""
        session = _session_through(tick_city, HEAD_HOURS)
        end = HEAD_HOURS
        for _ in range(4):
            window = HourWindow(end - 4, end + 4)
            before = HourWindow(end - 8, end - 4)
            session.shift(before, window)
            session.granularity_sweep()
            session.granularity_sweep(use_rollups=False)
            _tick(session, tick_city, 6)
            end += 6
            fresh = _session_through(tick_city, end)
            assert np.array_equal(
                session.density(window).values, fresh.density(window).values
            )
            assert np.array_equal(
                session.shift(before, window).values,
                fresh.shift(before, window).values,
            )
            _assert_same_sweep(
                session.granularity_sweep(), fresh.granularity_sweep(),
                rel=1e-9,
            )
            _assert_same_sweep(
                session.granularity_sweep(use_rollups=False),
                fresh.granularity_sweep(use_rollups=False),
            )


# ----------------------------------------------------------------------
# Selection proposals: cached per embedding and DBSCAN setting.  CI
# re-runs this class under a seeded ``kernel.tsne`` fault plan, so the
# embeddings it needs are computed with the plan disarmed.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def proposals_city():
    from repro.data.generator.simulate import CityConfig, generate_city

    return generate_city(CityConfig(n_customers=30, n_days=7, seed=29))


def _warm_session(city, **kwargs):
    """A session whose default t-SNE and MDS embeddings are cached."""
    from repro.resilience import faults

    session = VapSession.from_city(city, **kwargs)
    with faults.disarmed():
        session.embed()
        session.embed(method="mds")
    return session


def _uncached_body(session, method="tsne", min_points=5, min_size=5) -> bytes:
    """``/api/proposals`` composed without the proposals cache: DBSCAN and
    one label per proposal on every call."""
    from repro.core.patterns.autodiscover import propose_selections
    from repro.server import json_codec

    try:
        found = propose_selections(
            session.embed(method=method).coords,
            min_points=min_points,
            min_size=min_size,
        )
    except ValueError as exc:
        return json_codec.dumps({"error": str(exc)}).encode("utf-8")
    out = []
    for proposal in found:
        label = session.pattern_of(proposal.indices)
        out.append(
            {
                "cluster_id": proposal.cluster_id,
                "size": proposal.size,
                "center": list(proposal.center),
                "indices": proposal.indices,
                "pattern": label.archetype.value,
                "pattern_score": label.score,
            }
        )
    return json_codec.dumps({"proposals": out, "count": len(out)}).encode("utf-8")


class TestProposalsCache:
    def test_repeat_is_a_hit_without_dbscan(self, proposals_city, monkeypatch):
        from repro.core.patterns import autodiscover
        from repro.obs import MetricsRegistry
        from repro.server import TestClient, VapApp

        registry = MetricsRegistry()
        session = _warm_session(proposals_city, metrics=registry)
        client = TestClient(VapApp(session))
        calls = []
        real = autodiscover.propose_selections

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(autodiscover, "propose_selections", counting)
        first = client.get("/api/proposals")
        assert first.status == 200 and first.json["count"] > 0
        assert len(calls) == 1
        again = client.get("/api/proposals")
        assert again.body == first.body
        assert len(calls) == 1
        hits = registry.counter(
            "pipeline_cache_total", op="proposals", result="hit"
        )
        assert hits.value == 1

    def test_concurrent_misses_run_dbscan_once(
        self, proposals_city, monkeypatch
    ):
        import sys
        import threading

        from repro.core.patterns import autodiscover

        session = _warm_session(proposals_city)
        calls = []
        real = autodiscover.propose_selections

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(autodiscover, "propose_selections", counting)
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n

        def ask(i):
            barrier.wait(timeout=10.0)
            results[i] = session.proposals(min_size=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert all(result is results[0] for result in results)

    def test_result_changing_options_get_distinct_entries(self, proposals_city):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        session = _warm_session(proposals_city, metrics=registry)
        variants = [
            {},
            {"method": "mds"},
            {"min_points": 3},
            {"min_size": 2},
        ]
        results = [session.proposals(**kw) for kw in variants]
        assert len(session._proposals) == len(variants)
        for kw, result in zip(variants, results):
            assert session.proposals(**kw) is result
        counts = {
            outcome: registry.counter(
                "pipeline_cache_total", op="proposals", result=outcome
            ).value
            for outcome in ("hit", "miss")
        }
        assert counts == {"hit": len(variants), "miss": len(variants)}

    @pytest.mark.parametrize(
        "query",
        [
            "",
            "min_points=3",
            "min_points=8",
            "min_size=2",
            "min_size=20",
            "method=mds",
            "min_size=0",
        ],
    )
    def test_body_equals_the_uncached_path(self, proposals_city, query):
        from urllib.parse import parse_qsl

        from repro.server import TestClient, VapApp

        session = _warm_session(proposals_city)
        client = TestClient(VapApp(session))
        params = {
            k: (v if k == "method" else int(v)) for k, v in parse_qsl(query)
        }
        want = _uncached_body(session, **params)
        miss = client.get(f"/api/proposals?{query}")
        hit = client.get(f"/api/proposals?{query}")
        assert miss.status == (400 if query == "min_size=0" else 200)
        assert miss.body == want
        assert hit.body == want

    def test_lru_bound_is_the_embedding_bound(self, proposals_city):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        session = _warm_session(
            proposals_city, metrics=registry, max_embeddings=2
        )
        for min_size in (2, 3, 4):
            session.proposals(min_size=min_size)
        assert len(session._proposals) == 2
        evictions = registry.counter(
            "pipeline_cache_evictions_total", cache="proposals"
        )
        assert evictions.value == 1

    def test_expired_deadline_still_gets_503(self, proposals_city):
        from repro.server import TestClient, VapApp

        session = _warm_session(proposals_city)
        session.proposals()  # cached: the request would be a hit
        client = TestClient(VapApp(session, deadline_seconds=1e-9))
        response = client.get("/api/proposals")
        assert response.status == 503
        assert "deadline" in response.json["error"]
