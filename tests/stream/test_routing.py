"""Routing of replay batches (stream → data plane)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow
from repro.db.engine import EnergyDatabase
from repro.resilience import RetryPolicy
from repro.stream import ReplayFeed, ShardRouter

N_READERS = 8
READER_ITERATIONS = 30


@pytest.fixture()
def city():
    return generate_city(CityConfig(n_customers=20, n_days=4, seed=11))


def _split(city):
    total = city.raw.n_steps
    half = total // 2
    return city.raw.slice_hours(0, half), city.raw.slice_hours(half, total)


class TestShardRouter:
    def test_routes_to_plain_engine(self, city):
        head, rest = _split(city)
        db = EnergyDatabase(city.customers, head)
        feed = ReplayFeed(rest, hours_per_tick=6)
        applied = ShardRouter(db, rest.customer_ids).replay(feed)
        assert applied == feed.n_ticks
        assert db.time_span.end_hour == city.raw.n_steps
        np.testing.assert_array_equal(db.readings.matrix, city.raw.matrix)

    def test_max_ticks_stops_early(self, city):
        head, rest = _split(city)
        db = EnergyDatabase(city.customers, head)
        applied = ShardRouter(db, rest.customer_ids).replay(
            ReplayFeed(rest, hours_per_tick=1), max_ticks=3
        )
        assert applied == 3
        assert db.time_span.end_hour == head.end_hour + 3


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestReadersDuringIngest:
    def test_no_torn_reads_under_ingest(self):
        """Readers racing a replaying writer only ever see whole ticks.

        A window inside the pre-loaded prefix must come back
        byte-identical to the source however many ticks land mid-read,
        and the published readings must always be a clean column prefix
        of the final data — never a matrix mixing tick boundaries.
        """
        city = generate_city(CityConfig(n_customers=64, n_days=14, seed=7))
        source = city.raw
        total = source.n_steps
        half = total // 2
        db = EnergyDatabase(city.customers, source.slice_hours(0, half))
        source_ids = [int(cid) for cid in source.customer_ids]
        row_of = {cid: i for i, cid in enumerate(source_ids)}
        stable = HourWindow(0, half)
        stable_ids = source_ids[::3]
        stable_want = _bits(
            source.matrix[[row_of[cid] for cid in stable_ids], :half]
        )
        rest = source.slice_hours(half, total)
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        writer_done = threading.Event()

        def record(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)

        # Zero backoff, and enough attempts that an injected tick-fault
        # plan (15% under the chaos job) cannot exhaust a tick: at 10
        # attempts that takes 0.15**10 ~ 6e-9 per tick.
        retry = RetryPolicy(
            max_attempts=10,
            base_delay=0.0,
            max_delay=0.0,
            sleeper=lambda s: None,
            metrics=obs.MetricsRegistry(),
        )

        def writer() -> None:
            try:
                ShardRouter(db, rest.customer_ids).replay(
                    ReplayFeed(rest, hours_per_tick=4, retry=retry)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                record(exc)
            finally:
                writer_done.set()

        def reader() -> None:
            try:
                # Keep reading until the writer is done, so every tick
                # lands while readers are live.
                iterations = 0
                while iterations < READER_ITERATIONS or not writer_done.is_set():
                    iterations += 1
                    got = db.readings_for(stable_ids, stable)
                    assert _bits(got.matrix) == stable_want, "torn read"
                    snap = db.readings
                    width = snap.n_steps
                    assert half <= width <= total
                    rows = [row_of[int(c)] for c in snap.customer_ids]
                    assert _bits(snap.matrix) == _bits(
                        source.matrix[rows, :width]
                    ), "published matrix is not a source prefix"
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                record(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(N_READERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "stress thread deadlocked"
        assert not errors, errors[:3]
        assert db.time_span.end_hour == total
        rows = [row_of[int(c)] for c in db.readings.customer_ids]
        assert _bits(db.readings.matrix) == _bits(source.matrix[rows, :])
