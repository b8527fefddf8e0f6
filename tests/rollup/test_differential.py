"""Differential testing: rollup-backed sweeps vs the raw batch sweeps.

Hypothesis drives randomized workloads — dyadic demand values (exact
under float addition in any association order), random missing-data
masks, random spans — through both implementations of the S2 sweeps and
requires the answers to agree to float tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.shift.grids import GridSpec
from repro.core.shift.sensitivity import (
    granularity_sweep,
    granularity_sweep_from_rollups,
    quantile_sweep,
    quantile_sweep_from_rollups,
)
from repro.data.meter import Customer, CustomerType, ZoneKind
from repro.data.timeseries import HourWindow, Resolution, SeriesSet
from repro.db import EnergyDatabase
from repro.rollup import RollupStore

RESOLUTIONS = (Resolution.HOURLY, Resolution.DAILY, Resolution.WEEKLY)

_POSITIONS = np.random.default_rng(12).uniform(
    [12.5, 55.6], [12.7, 55.8], size=(9, 2)
)


@st.composite
def workloads(draw):
    n = draw(st.integers(5, 9))
    n_hours = draw(st.integers(26, 54))
    values = draw(
        npst.arrays(
            np.float64,
            (n, n_hours),
            # Dyadic rationals: sums are exact in any association order,
            # so any disagreement is a logic bug, not float noise.
            elements=st.integers(0, 64).map(lambda v: v / 4.0),
        )
    )
    mask = draw(
        npst.arrays(
            np.bool_,
            (n, n_hours),
            # ~1-in-8 missing readings.
            elements=st.sampled_from([False] * 7 + [True]),
        )
    )
    matrix = values.copy()
    matrix[mask] = np.nan
    # Every customer keeps at least one observed hour so Silverman's rule
    # sees the same populated point set on both paths.
    matrix[:, 0] = values[:, 0]
    return matrix


def _build(matrix):
    n = matrix.shape[0]
    positions = _POSITIONS[:n]
    series = SeriesSet(list(range(n)), 0, matrix)
    customers = [
        Customer(
            customer_id=i,
            lon=float(positions[i, 0]),
            lat=float(positions[i, 1]),
            zone=ZoneKind.COMMERCIAL,
            archetype=next(iter(CustomerType)),
        )
        for i in range(n)
    ]
    db = EnergyDatabase(customers, series)
    spec = GridSpec.covering(positions, nx=10, ny=10)
    store = RollupStore(
        positions, list(range(n)), spec, resolutions=RESOLUTIONS
    )
    store.rebuild_from(db)
    return db, store, spec


def _assert_granularity_agreement(raw, rolled):
    assert len(raw) == len(rolled)
    for a, b in zip(raw, rolled):
        assert a.resolution == b.resolution
        assert a.n_window_pairs == b.n_window_pairs
        for attr in ("mean_energy", "mean_flows", "peak_gain", "peak_loss"):
            np.testing.assert_allclose(
                getattr(b, attr), getattr(a, attr),
                rtol=1e-9, atol=1e-15, equal_nan=True,
                err_msg=f"{a.resolution}.{attr}",
            )


class TestGranularityDifferential:
    @given(workloads())
    @settings(max_examples=8, deadline=None)
    def test_rollup_sweep_equals_raw_sweep(self, matrix):
        db, store, spec = _build(matrix)
        raw = granularity_sweep(
            db, resolutions=RESOLUTIONS, spec=spec,
            bandwidth_m=store.bandwidth_m,
        )
        rolled = granularity_sweep_from_rollups(
            store, bandwidth_m=store.bandwidth_m
        )
        _assert_granularity_agreement(raw, rolled)


class TestQuantileDifferential:
    @given(workloads(), st.integers(4, 12))
    @settings(max_examples=8, deadline=None)
    def test_rollup_sweep_equals_raw_sweep(self, matrix, width):
        db, store, spec = _build(matrix)
        n_hours = matrix.shape[1]
        width = min(width, n_hours // 2)
        t1 = HourWindow(0, width)
        t2 = HourWindow(width, 2 * width)
        raw = quantile_sweep(
            db, t1, t2, spec=spec, bandwidth_m=store.bandwidth_m
        )
        rolled = quantile_sweep_from_rollups(
            store, t1, t2, bandwidth_m=store.bandwidth_m
        )
        assert len(raw) == len(rolled)
        for a, b in zip(raw, rolled):
            assert a.quantile == b.quantile
            assert a.n_customers == b.n_customers
            assert a.n_flows == b.n_flows
            np.testing.assert_allclose(
                b.energy, a.energy, rtol=1e-9, atol=1e-15, equal_nan=True
            )
