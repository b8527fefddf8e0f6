"""Shared-factor quantile sweep vs the per-window oracle (``quantile_oracle``).

The rollup-backed sweep assembles each window's mean demand once and
evaluates both windows of a customer group with one set of kernel factors.
The floating-point operations are the same ones, in the same order, as two
independent per-window evaluations, so the fields and every sweep statistic
must be bit-identical — no tolerance.
"""

import math

import numpy as np
import pytest

from repro.core.pipeline import VapSession
from repro.core.shift.sensitivity import quantile_sweep_from_rollups
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow
from tests.rollup.quantile_oracle import oracle_fields, oracle_quantile_sweep

QUANTILES = (0.0, 0.3, 0.5, 0.7, 0.9, 0.99)


@pytest.fixture(scope="module", params=[3, 17])
def store(request):
    city = generate_city(
        CityConfig(n_customers=50, n_days=15, seed=request.param)
    )
    return VapSession.from_city(city).rollups()


def _window_pairs(store, width: int, n: int = 3):
    rng = np.random.default_rng(width)
    end = store.last_applied_hour
    for start in rng.integers(store.first_hour, end - 2 * width + 1, size=n):
        start = int(start)
        yield (
            HourWindow(start, start + width),
            HourWindow(start + width, start + 2 * width),
        )


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


@pytest.mark.parametrize("bandwidth_m", [None, 650.0])
@pytest.mark.parametrize("width", [4, 24, 168])
def test_sweep_equals_oracle_bit_for_bit(store, width, bandwidth_m):
    for t1, t2 in _window_pairs(store, width):
        got = quantile_sweep_from_rollups(
            store, t1, t2, quantiles=QUANTILES, bandwidth_m=bandwidth_m
        )
        want = oracle_quantile_sweep(
            store, t1, t2, quantiles=QUANTILES, bandwidth_m=bandwidth_m
        )
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.quantile == b.quantile
            assert a.n_customers == b.n_customers
            assert _same_float(a.energy, b.energy)
            assert a.n_flows == b.n_flows
            assert a.main_flow == b.main_flow


@pytest.mark.parametrize("bandwidth_m", [None, 650.0])
@pytest.mark.parametrize("width", [4, 24, 168])
def test_window_fields_equal_per_window_fields(store, width, bandwidth_m):
    (t1, t2), = _window_pairs(store, width, n=1)
    totals = store.window_demand(
        HourWindow(t1.start_hour, t2.end_hour), statistic="sum"
    )
    subsets = [
        np.flatnonzero(totals >= np.quantile(totals, q)) for q in (0.3, 0.8)
    ]
    got = store.window_fields((t1, t2), subsets, bandwidth_m=bandwidth_m)
    for rows, pair in zip(subsets, got):
        want = oracle_fields(store, t1, t2, rows, bandwidth_m)
        for a, b in zip(pair, want):
            assert np.array_equal(a.values, b.values)


def test_all_customer_subset(store):
    (t1, t2), = _window_pairs(store, 24, n=1)
    (before, after), = store.window_fields((t1, t2), [None])
    rows = np.arange(store.n_customers)
    want = oracle_fields(store, t1, t2, rows)
    assert np.array_equal(before.values, want[0].values)
    assert np.array_equal(after.values, want[1].values)
