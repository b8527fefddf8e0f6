"""The S2 sensitivity sweeps.

Demo scenario S2 has attendees learn two sensitivities of the shift maps:

- **temporal granularity** — recompute the shift field for consecutive
  window pairs at hourly, 4-hourly, daily, weekly, monthly, quarterly and
  yearly resolution and watch how the shift signal changes;
- **consumption intensity** — restrict the map to customers above a demand
  quantile (30%..90%) and watch the flows sharpen and sparsify.

Both sweeps are implemented against :class:`~repro.db.engine.EnergyDatabase`
so they exercise the same data-layer path the interactive tool would.

Each sweep also has a rollup-backed twin (``*_from_rollups``) answering
the same question from a :class:`~repro.rollup.store.RollupStore` instead
of the raw readings: per-bucket demand comes from the materialized tables
(warm fields of clean buckets cost O(cells), the rest O(n·cells)), so
sweep latency is independent of ``n_readings``.  The twins return the
same result types and match the raw paths to float tolerance — the
differential suite pins that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.shift.flow import FlowArrow, ShiftField, major_flows
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.data.timeseries import HourWindow, Resolution
from repro.db.engine import EnergyDatabase
from repro.preprocess.resample import resample
from repro.rollup.store import RollupStore


@dataclass(slots=True)
class GranularityResult:
    """Shift statistics for one temporal granularity.

    ``mean_energy`` averages the Eq. 4 field's mean |shift| over the window
    pairs examined; ``mean_flows`` the number of major flows; the peaks are
    the strongest single-pair values seen.
    """

    resolution: Resolution
    n_window_pairs: int
    mean_energy: float
    mean_flows: float
    peak_gain: float
    peak_loss: float


@dataclass(slots=True)
class QuantileResult:
    """Shift statistics for one intensity quantile."""

    quantile: float
    n_customers: int
    energy: float
    n_flows: int
    main_flow: FlowArrow | None


def _shift_between(
    db: EnergyDatabase,
    spec: GridSpec,
    t1: HourWindow,
    t2: HourWindow,
    customer_ids: list[int] | None = None,
    bandwidth_m: float | None = None,
) -> ShiftField:
    """Eq. 3 at both windows on a shared grid, then Eq. 4."""
    pos1, val1 = db.demand(t1, customer_ids)
    pos2, val2 = db.demand(t2, customer_ids)
    before = kde_density(pos1, val1, spec, bandwidth_m=bandwidth_m)
    after = kde_density(pos2, val2, spec, bandwidth_m=bandwidth_m)
    return ShiftField.between(before, after)


def granularity_sweep(
    db: EnergyDatabase,
    resolutions: tuple[Resolution, ...] = tuple(Resolution),
    spec: GridSpec | None = None,
    max_pairs_per_resolution: int = 8,
    bandwidth_m: float | None = None,
) -> list[GranularityResult]:
    """Shift statistics per temporal granularity (S2 step 1).

    For each resolution, consecutive bucket pairs (up to
    ``max_pairs_per_resolution``, evenly spread across the horizon) produce
    shift fields whose statistics are averaged.

    Raises
    ------
    ValueError
        If ``max_pairs_per_resolution`` is not positive.
    """
    if max_pairs_per_resolution < 1:
        raise ValueError(
            f"max_pairs_per_resolution must be >= 1, got "
            f"{max_pairs_per_resolution}"
        )
    if spec is None:
        spec = GridSpec.covering(db.positions_of(db.customer_ids))
    results: list[GranularityResult] = []
    for resolution in resolutions:
        buckets = resample(db.readings, resolution, aggregate="sum")
        pairs = buckets.window_pairs()
        if not pairs:
            results.append(
                GranularityResult(
                    resolution=resolution,
                    n_window_pairs=0,
                    mean_energy=float("nan"),
                    mean_flows=float("nan"),
                    peak_gain=float("nan"),
                    peak_loss=float("nan"),
                )
            )
            continue
        if len(pairs) > max_pairs_per_resolution:
            picks = np.linspace(0, len(pairs) - 1, max_pairs_per_resolution)
            pairs = [pairs[int(i)] for i in picks]
        energies: list[float] = []
        flow_counts: list[int] = []
        peak_gain = -np.inf
        peak_loss = np.inf
        for t1, t2 in pairs:
            field = _shift_between(db, spec, t1, t2, bandwidth_m=bandwidth_m)
            energies.append(field.energy())
            flow_counts.append(len(major_flows(field)))
            peak_gain = max(peak_gain, field.peak_gain()[2])
            peak_loss = min(peak_loss, field.peak_loss()[2])
        results.append(
            GranularityResult(
                resolution=resolution,
                n_window_pairs=len(pairs),
                mean_energy=float(np.mean(energies)),
                mean_flows=float(np.mean(flow_counts)),
                peak_gain=float(peak_gain),
                peak_loss=float(peak_loss),
            )
        )
    return results


def granularity_sweep_from_rollups(
    store: RollupStore,
    resolutions: tuple[Resolution, ...] | None = None,
    max_pairs_per_resolution: int = 8,
    bandwidth_m: float | None = None,
) -> list[GranularityResult]:
    """The granularity sweep answered from materialized rollups.

    Mirrors :func:`granularity_sweep` pair for pair — same bucket set
    (both derive from the shared bucketing primitive), same even spread
    over the horizon, same statistics — but every field comes from
    :meth:`~repro.rollup.store.RollupStore.bucket_field`: O(cells) for a
    warm clean bucket, never touching raw readings.

    Raises
    ------
    ValueError
        If ``max_pairs_per_resolution`` is not positive.
    RollupMiss
        If a requested resolution is not tracked by the store.
    """
    if max_pairs_per_resolution < 1:
        raise ValueError(
            f"max_pairs_per_resolution must be >= 1, got "
            f"{max_pairs_per_resolution}"
        )
    if resolutions is None:
        resolutions = store.resolutions
    results: list[GranularityResult] = []
    for resolution in resolutions:
        buckets = store.buckets(resolution)
        pairs = list(zip(buckets, buckets[1:]))
        if not pairs:
            results.append(
                GranularityResult(
                    resolution=resolution,
                    n_window_pairs=0,
                    mean_energy=float("nan"),
                    mean_flows=float("nan"),
                    peak_gain=float("nan"),
                    peak_loss=float("nan"),
                )
            )
            continue
        if len(pairs) > max_pairs_per_resolution:
            picks = np.linspace(0, len(pairs) - 1, max_pairs_per_resolution)
            pairs = [pairs[int(i)] for i in picks]
        energies: list[float] = []
        flow_counts: list[int] = []
        peak_gain = -np.inf
        peak_loss = np.inf
        for b1, b2 in pairs:
            before = store.bucket_field(resolution, b1, bandwidth_m=bandwidth_m)
            after = store.bucket_field(resolution, b2, bandwidth_m=bandwidth_m)
            field = ShiftField.between(before, after)
            energies.append(field.energy())
            flow_counts.append(len(major_flows(field)))
            peak_gain = max(peak_gain, field.peak_gain()[2])
            peak_loss = min(peak_loss, field.peak_loss()[2])
        results.append(
            GranularityResult(
                resolution=resolution,
                n_window_pairs=len(pairs),
                mean_energy=float(np.mean(energies)),
                mean_flows=float(np.mean(flow_counts)),
                peak_gain=float(peak_gain),
                peak_loss=float(peak_loss),
            )
        )
    return results


def quantile_sweep(
    db: EnergyDatabase,
    t1: HourWindow,
    t2: HourWindow,
    quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    spec: GridSpec | None = None,
    bandwidth_m: float | None = None,
) -> list[QuantileResult]:
    """Shift statistics per consumption-intensity group (S2 step 2).

    For each quantile ``q``, the map is restricted to customers whose total
    demand over ``t1 ∪ t2`` is at or above the population's ``q``-quantile
    — "select different customer groups according to the consumption
    intensity".

    Raises
    ------
    ValueError
        For quantiles outside [0, 1).
    """
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ValueError(f"quantiles must be in [0, 1), got {q}")
    if spec is None:
        spec = GridSpec.covering(db.positions_of(db.customer_ids))
    all_ids = [int(cid) for cid in db.readings.customer_ids]
    span = HourWindow(
        min(t1.start_hour, t2.start_hour), max(t1.end_hour, t2.end_hour)
    )
    _, totals = db.demand(span, all_ids, statistic="sum")
    results: list[QuantileResult] = []
    for q in quantiles:
        threshold = float(np.quantile(totals, q))
        selected = [cid for cid, v in zip(all_ids, totals) if v >= threshold]
        if len(selected) < 2:
            results.append(
                QuantileResult(
                    quantile=q,
                    n_customers=len(selected),
                    energy=float("nan"),
                    n_flows=0,
                    main_flow=None,
                )
            )
            continue
        field = _shift_between(db, spec, t1, t2, selected, bandwidth_m=bandwidth_m)
        flows = major_flows(field)
        results.append(
            QuantileResult(
                quantile=q,
                n_customers=len(selected),
                energy=field.energy(),
                n_flows=len(flows),
                main_flow=flows[0] if flows else None,
            )
        )
    return results


def quantile_sweep_from_rollups(
    store: RollupStore,
    t1: HourWindow,
    t2: HourWindow,
    quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    bandwidth_m: float | None = None,
) -> list[QuantileResult]:
    """The intensity sweep answered from materialized rollups.

    Mirrors :func:`quantile_sweep`: per-customer totals over ``t1 ∪ t2``
    come from the hourly rollup instead of the raw matrix, each group's
    fields from cached kernel factors shared by both windows (see
    :meth:`~repro.rollup.store.RollupStore.window_fields`).
    ``bandwidth_m=None`` applies Silverman's rule *per selected subset*,
    exactly as the raw path does.

    Raises
    ------
    ValueError
        For quantiles outside [0, 1).
    RollupMiss
        If the hourly rollup does not cover ``t1 ∪ t2``.
    """
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ValueError(f"quantiles must be in [0, 1), got {q}")
    span = HourWindow(
        min(t1.start_hour, t2.start_hour), max(t1.end_hour, t2.end_hour)
    )
    totals = store.window_demand(span, statistic="sum")
    selections = []
    for q in quantiles:
        threshold = float(np.quantile(totals, q))
        selections.append(np.flatnonzero(totals >= threshold))
    # Both windows' demand is assembled once, and each group's bandwidth
    # and kernel factors are shared by its two fields.
    fields = iter(
        store.window_fields(
            (t1, t2),
            [selected for selected in selections if selected.size >= 2],
            bandwidth_m=bandwidth_m,
        )
    )
    results: list[QuantileResult] = []
    for q, selected in zip(quantiles, selections):
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
        before, after = next(fields)
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
