"""Replay equivalence: incremental maintenance == batch recomputation.

The PR's headline claim is that the incremental paths (the monitor's
ring-buffer KDE accumulators, the store's per-tick folds) answer exactly
what a from-scratch batch computation over the same hours answers.  This
suite replays long tick sequences — 50+ ticks, NaN hours included, and
once more under the CI chaos fault plan — and pins incremental against
the exact oracle at every single tick, not just at the end.

Tolerance: the incremental field accumulates one float add/subtract pair
per tick; drift is bounded by periodic refolds.  ``RTOL`` pins both the
equivalence and the drift bound — loosening it is a regression.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.shift.grids import GridSpec
from repro.data.timeseries import Resolution, SeriesSet
from repro.resilience import faults
from repro.rollup import RollupStore
from repro.resilience.retry import RetryPolicy
from repro.stream.feed import ReplayFeed
from repro.stream.online import OnlineShiftMonitor, run_replay

RTOL = 1e-9
N_TICKS = 60  # >= 50 per the acceptance scenario


def _fast_policy(max_attempts=6) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=max_attempts,
        base_delay=0.0,
        max_delay=0.0,
        sleeper=lambda s: None,
        metrics=obs.MetricsRegistry(),
    )


def _workload(n_customers=25, n_hours=N_TICKS, seed=77, nan_rate=0.05):
    rng = np.random.default_rng(seed)
    positions = rng.uniform([12.5, 55.6], [12.7, 55.8], size=(n_customers, 2))
    matrix = rng.gamma(2.0, 1.5, size=(n_customers, n_hours))
    matrix[rng.random(matrix.shape) < nan_rate] = np.nan
    spec = GridSpec.covering(positions, nx=16, ny=16)
    return positions, matrix, spec


class TestMonitorEquivalence:
    def _replay_both(self, refold_every, nan_rate=0.05):
        positions, matrix, spec = _workload(nan_rate=nan_rate)
        monitor = OnlineShiftMonitor(
            positions, spec, window_hours=4, bandwidth_m=500.0,
            refold_every=refold_every,
        )
        diffs = []
        for j in range(matrix.shape[1]):
            monitor.feed_hour(matrix[:, j])
            if monitor.ready:
                got = monitor.current_field()
                want = monitor.current_field_exact()
                denom = max(np.abs(want.values).max(), 1e-300)
                diffs.append(
                    np.abs(got.values - want.values).max() / denom
                )
        return diffs

    def test_every_tick_matches_exact_oracle(self):
        diffs = self._replay_both(refold_every=64)
        assert len(diffs) >= 50
        assert max(diffs) < RTOL

    def test_drift_stays_bounded_without_frequent_refolds(self):
        # One refold per 256 adds: the add/subtract chain runs much
        # longer, drift must still sit far below the pinned tolerance.
        diffs = self._replay_both(refold_every=256)
        assert max(diffs) < RTOL

    def test_nan_free_replay_is_near_exact(self):
        diffs = self._replay_both(refold_every=64, nan_rate=0.0)
        assert max(diffs) < RTOL

    def test_incremental_flag_off_uses_exact_path(self):
        positions, matrix, spec = _workload(n_hours=12)
        monitor = OnlineShiftMonitor(
            positions, spec, window_hours=4, bandwidth_m=500.0,
            incremental=False,
        )
        for j in range(12):
            monitor.feed_hour(matrix[:, j])
        got = monitor.current_field()
        want = monitor.current_field_exact()
        np.testing.assert_array_equal(got.values, want.values)


class TestMonitorEquivalenceUnderChaos:
    def test_equivalence_survives_the_ci_fault_plan(self):
        """The CI chaos plan injects kernel faults; after the retry layer
        absorbs them the incremental answers must still match batch."""
        positions, matrix, spec = _workload()
        plan = faults.FaultPlan.parse(
            "stream.tick=error:0.15,kernel.kde=error:0.1", seed=99
        )
        series = SeriesSet(
            list(range(positions.shape[0])), 0, matrix
        )

        def replay(retry):
            feed = ReplayFeed(series, hours_per_tick=1, retry=retry)
            return run_replay(
                feed, positions, spec, window_hours=4,
                bandwidth_m=500.0, retry=retry,
            )

        with faults.disarmed():
            clean = replay(None)
        with faults.injected(plan, metrics=obs.MetricsRegistry()) as inj:
            chaotic = replay(_fast_policy(8))
        assert inj.n_injected > 0, "the plan must actually inject faults"
        assert len(chaotic) == len(clean) >= 50
        np.testing.assert_allclose(
            [u.energy for u in chaotic], [u.energy for u in clean],
            rtol=RTOL,
        )


class TestStoreEquivalence:
    def test_per_tick_folds_match_fresh_rebuild(self):
        positions, matrix, spec = _workload(n_hours=N_TICKS, seed=31)
        ids = list(range(positions.shape[0]))
        inc = RollupStore(positions, ids, spec, refold_every=16)
        inc.apply_hours(matrix[:, :1], 0)
        # Materialize weekly grids early so most ticks exercise the
        # incremental add path rather than a lazy cold build.
        inc.bucket_field(Resolution.WEEKLY, 0)
        for j in range(1, matrix.shape[1]):
            inc.apply_hours(matrix[:, j:j + 1], j)
        batch = RollupStore(positions, ids, spec)
        batch.rebuild(SeriesSet(ids, 0, matrix))
        for res in (Resolution.HOURLY, Resolution.DAILY, Resolution.WEEKLY):
            assert inc.buckets(res) == batch.buckets(res)
            for b in inc.buckets(res):
                got = inc.bucket_field(res, b)
                want = batch.bucket_field(res, b)
                denom = max(np.abs(want.values).max(), 1e-300)
                assert (
                    np.abs(got.values - want.values).max() / denom < RTOL
                )

    def test_fold_equivalence_under_chaos_plan(self):
        """Ticks that fail and are retried must not double-fold: the
        router applies rollups only after a tick commits, so a seeded
        fault plan leaves the store identical to a clean run."""
        from repro.data.generator.simulate import CityConfig, generate_city
        from repro.db import EnergyDatabase
        from repro.stream.routing import ShardRouter

        city = generate_city(CityConfig(n_customers=20, n_days=4, seed=55))
        series = city.raw
        head_end = series.start_hour + 48
        head = series.slice_hours(series.start_hour, head_end)
        tail = series.slice_hours(head_end, series.end_hour)

        def run(plan):
            db = EnergyDatabase(city.customers, head)
            ids = [int(c) for c in series.customer_ids]
            spec = GridSpec.covering(db.positions_of(ids), nx=12, ny=12)
            store = RollupStore(db.positions_of(ids), ids, spec)
            store.rebuild_from(db)
            router = ShardRouter(db, ids, rollups=store)
            router.replay(
                ReplayFeed(tail, hours_per_tick=2, retry=_fast_policy(8))
            )
            return store

        with faults.disarmed():
            clean = run(None)
        plan = faults.FaultPlan.parse("stream.tick=error:0.15", seed=7)
        with faults.injected(plan, metrics=obs.MetricsRegistry()) as inj:
            chaotic = run(plan)
        assert inj.n_injected > 0
        assert clean.last_applied_hour == chaotic.last_applied_hour
        for b in clean.buckets(Resolution.HOURLY):
            np.testing.assert_array_equal(
                chaotic.bucket(Resolution.HOURLY, b).sums,
                clean.bucket(Resolution.HOURLY, b).sums,
            )
