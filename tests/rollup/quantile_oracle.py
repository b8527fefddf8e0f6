"""Per-window reference for the rollup-backed quantile sweep.

:func:`oracle_quantile_sweep` is the original composition of
:func:`~repro.core.shift.sensitivity.quantile_sweep_from_rollups`: two
independent ``window_field`` evaluations per quantile, each re-assembling
its window's mean demand and rebuilding the subset's bandwidth and kernel
factors.  The body of ``window_field`` is inlined here, so the oracle does
not route through the shared-factor code it checks.  The shared-factor
sweep must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.shift.flow import ShiftField, major_flows
from repro.core.shift.sensitivity import QuantileResult
from repro.data.timeseries import HourWindow
from repro.rollup.store import RollupStore


def oracle_fields(
    store: RollupStore,
    t1: HourWindow,
    t2: HourWindow,
    selected: np.ndarray,
    bandwidth_m: float | None = None,
):
    """``(before, after)`` for one customer group, one window at a time."""
    return tuple(
        store.acc.field_from_weights(
            store.window_demand(window, statistic="mean")[selected],
            rows=selected,
            bandwidth_m=bandwidth_m,
        )
        for window in (t1, t2)
    )


def oracle_quantile_sweep(
    store: RollupStore,
    t1: HourWindow,
    t2: HourWindow,
    quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    bandwidth_m: float | None = None,
) -> list[QuantileResult]:
    span = HourWindow(
        min(t1.start_hour, t2.start_hour), max(t1.end_hour, t2.end_hour)
    )
    totals = store.window_demand(span, statistic="sum")
    results: list[QuantileResult] = []
    for q in quantiles:
        threshold = float(np.quantile(totals, q))
        selected = np.flatnonzero(totals >= threshold)
        if selected.size < 2:
            results.append(
                QuantileResult(
                    quantile=q,
                    n_customers=int(selected.size),
                    energy=float("nan"),
                    n_flows=0,
                    main_flow=None,
                )
            )
            continue
        before, after = oracle_fields(store, t1, t2, selected, bandwidth_m)
        field = ShiftField.between(before, after)
        flows = major_flows(field)
        results.append(
            QuantileResult(
                quantile=q,
                n_customers=int(selected.size),
                energy=field.energy(),
                n_flows=len(flows),
                main_flow=flows[0] if flows else None,
            )
        )
    return results
