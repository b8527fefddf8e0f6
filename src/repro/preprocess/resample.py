"""Temporal resampling to the paper's S2 granularities.

Demo scenario S2 varies the shift-map interval over *hourly, every four
hours, daily, weekly, monthly, quarterly, yearly*.  ``resample`` aggregates
an hourly :class:`~repro.data.timeseries.SeriesSet` into those buckets.

Because coarser data is no longer hourly it cannot live in a ``SeriesSet``;
:class:`ResampledSet` carries the bucket boundaries explicitly and can hand
back the ``(t1, t2)`` window pairs the shift model consumes.

:func:`bucket_partials` is the shared bucketing primitive: per-customer
``(sums, counts)`` for every bucket a series touches.  ``resample`` derives
all three aggregates from it, and the rollup layer
(:mod:`repro.rollup.store`) uses the same partials as its demand tables —
one bucketing implementation, so the derived tables cannot drift from the
batch path.

Partial buckets: a bucket whose observed hour span is narrower than its
nominal calendar span (the data starts or ends mid-bucket) aggregates
fewer hours than its neighbours.  For ``sum`` aggregates that silently
biases the bucket low; for ``mean`` it weights a different part of the
day/week.  ``resample`` therefore *flags* partial edge buckets on every
result (``ResampledSet.partial_buckets``) and can be asked to ``raise`` on
or ``trim`` them instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.timeseries import HourWindow, Resolution, SeriesSet

AGGREGATES = ("sum", "mean", "max")

#: How ``resample`` treats buckets covering fewer hours than their nominal
#: span: record them (``"flag"``), refuse them (``"raise"``) or drop them
#: (``"trim"``).
PARTIAL_MODES = ("flag", "raise", "trim")


@dataclass(slots=True)
class BucketPartials:
    """Per-customer additive partials of one series over one resolution.

    Attributes
    ----------
    resolution:
        Bucket granularity.
    buckets:
        ``(n_buckets,)`` bucket ordinals (ascending, as produced by
        :meth:`~repro.data.timeseries.Resolution.bucket_of`).
    edges:
        ``(n_buckets + 1,)`` observed hour offsets; bucket ``b`` covers the
        observed hours ``[edges[b], edges[b+1])``.
    sums:
        ``(n_customers, n_buckets)`` NaN-aware per-bucket sums.
    counts:
        ``(n_customers, n_buckets)`` observed (non-NaN) hours per bucket.

    Sums and counts are *additive*: partials of two disjoint hour ranges
    merge by adding the matching bucket columns — the property the rollup
    layer's incremental maintenance relies on.
    """

    resolution: Resolution
    buckets: np.ndarray
    edges: np.ndarray
    sums: np.ndarray
    counts: np.ndarray

    @property
    def n_buckets(self) -> int:
        return int(self.buckets.shape[0])

    def partial_mask(self) -> np.ndarray:
        """Boolean mask of buckets whose observed span is narrower than
        their nominal :meth:`~repro.data.timeseries.Resolution.bucket_bounds`
        span."""
        out = np.zeros(self.n_buckets, dtype=bool)
        for i, b in enumerate(self.buckets):
            lo, hi = self.resolution.bucket_bounds(int(b))
            observed = int(self.edges[i + 1] - self.edges[i])
            out[i] = observed < (hi - lo)
        return out


def bucket_partials(
    series_set: SeriesSet, resolution: Resolution
) -> BucketPartials:
    """Bucket a series into epoch-aligned ``resolution`` buckets.

    Raises
    ------
    ValueError
        For an empty time axis.
    """
    if series_set.n_steps == 0:
        raise ValueError("cannot resample a SeriesSet with no readings")
    hours = series_set.hours
    buckets = np.array(
        [resolution.bucket_of(int(h)) for h in hours], dtype=np.int64
    )
    unique, inverse = np.unique(buckets, return_inverse=True)
    n_buckets = unique.shape[0]

    # Edges: first observed hour of each bucket, plus one-past-the-end.
    edges = np.empty(n_buckets + 1, dtype=np.int64)
    for i, b in enumerate(unique):
        edges[i] = hours[buckets == b][0]
    edges[-1] = int(hours[-1]) + 1

    matrix = series_set.matrix
    observed = ~np.isnan(matrix)
    filled = np.where(observed, matrix, 0.0)
    counts = np.zeros((series_set.n_customers, n_buckets))
    sums = np.zeros((series_set.n_customers, n_buckets))
    np.add.at(counts, (slice(None), inverse), observed.astype(np.float64))
    np.add.at(sums, (slice(None), inverse), filled)
    return BucketPartials(
        resolution=resolution,
        buckets=unique,
        edges=edges,
        sums=sums,
        counts=counts,
    )


@dataclass(slots=True)
class ResampledSet:
    """Aggregated readings on a coarser-than-hourly grid.

    Attributes
    ----------
    customer_ids:
        Row labels, same order as the source set.
    resolution:
        Bucket granularity.
    bucket_edges:
        ``(n_buckets + 1,)`` hour offsets; bucket ``b`` covers
        ``[bucket_edges[b], bucket_edges[b+1])``.
    matrix:
        ``(n_customers, n_buckets)`` aggregated values; a bucket with zero
        observed readings is NaN.
    aggregate:
        Which statistic was taken over each bucket.
    partial_buckets:
        Indices of buckets whose observed hour span is narrower than the
        bucket's nominal span (data starting or ending mid-bucket) — their
        aggregates cover fewer hours than their neighbours'.
    """

    customer_ids: np.ndarray
    resolution: Resolution
    bucket_edges: np.ndarray
    matrix: np.ndarray
    aggregate: str
    partial_buckets: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def n_buckets(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def n_customers(self) -> int:
        return int(self.matrix.shape[0])

    def is_partial(self, bucket: int) -> bool:
        """Whether bucket ``bucket`` covers fewer hours than its nominal
        span."""
        return bucket in self.partial_buckets

    def window(self, bucket: int) -> HourWindow:
        """The hour window covered by bucket ``bucket``."""
        if not 0 <= bucket < self.n_buckets:
            raise IndexError(f"bucket {bucket} out of range 0..{self.n_buckets - 1}")
        return HourWindow(
            int(self.bucket_edges[bucket]), int(self.bucket_edges[bucket + 1])
        )

    def window_pairs(self) -> list[tuple[HourWindow, HourWindow]]:
        """Consecutive ``(t1, t2)`` window pairs for shift-map sweeps."""
        return [
            (self.window(b), self.window(b + 1)) for b in range(self.n_buckets - 1)
        ]


def resample(
    series_set: SeriesSet,
    resolution: Resolution,
    aggregate: str = "sum",
    on_partial: str = "flag",
) -> ResampledSet:
    """Aggregate hourly readings into ``resolution`` buckets.

    Buckets are aligned to the global epoch (so a daily bucket is a calendar
    day, not "24 hours from the first reading").  Buckets at the edges of
    the observation window may cover only part of their nominal span;
    ``on_partial`` decides their fate:

    - ``"flag"`` (default) — aggregate whatever readings they cover and
      record their indices in ``partial_buckets`` so downstream sweeps can
      see (and the rollup layer can report) the bias risk;
    - ``"raise"`` — refuse with ``ValueError`` naming the short buckets;
    - ``"trim"`` — drop them, returning only nominally complete buckets.

    Raises
    ------
    ValueError
        For an unknown ``aggregate`` or ``on_partial``, an empty time
        axis, or (under ``on_partial="raise"``) a partial edge bucket.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}; pick one of {AGGREGATES}")
    if on_partial not in PARTIAL_MODES:
        raise ValueError(
            f"unknown on_partial {on_partial!r}; pick one of {PARTIAL_MODES}"
        )
    partials = bucket_partials(series_set, resolution)
    unique = partials.buckets
    edges = partials.edges
    sums = partials.sums
    counts = partials.counts
    n_buckets = partials.n_buckets

    partial_mask = partials.partial_mask()
    partial_idx = np.flatnonzero(partial_mask)
    if on_partial == "raise" and partial_idx.size:
        spans = ", ".join(
            f"bucket {int(unique[i])} covers "
            f"{int(edges[i + 1] - edges[i])}h of "
            f"{resolution.bucket_bounds(int(unique[i]))[1] - resolution.bucket_bounds(int(unique[i]))[0]}h"
            for i in partial_idx
        )
        raise ValueError(
            f"{resolution} resample has partial edge buckets ({spans}); "
            "pass on_partial='flag' to keep them or 'trim' to drop them"
        )

    if aggregate == "sum":
        out = np.where(counts > 0, sums, np.nan)
    elif aggregate == "mean":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(counts > 0, sums / counts, np.nan)
    else:  # max
        hours = series_set.hours
        buckets = np.array(
            [resolution.bucket_of(int(h)) for h in hours], dtype=np.int64
        )
        _, inverse = np.unique(buckets, return_inverse=True)
        matrix = series_set.matrix
        observed = ~np.isnan(matrix)
        out = np.full((series_set.n_customers, n_buckets), -np.inf)
        masked = np.where(observed, matrix, -np.inf)
        np.maximum.at(out, (slice(None), inverse), masked)
        out = np.where(counts > 0, out, np.nan)

    if on_partial == "trim" and partial_idx.size:
        keep = ~partial_mask
        out = out[:, keep]
        keep_idx = np.flatnonzero(keep)
        if keep_idx.size:
            new_edges = np.empty(keep_idx.size + 1, dtype=np.int64)
            new_edges[:-1] = edges[keep_idx]
            last = int(keep_idx[-1])
            new_edges[-1] = edges[last + 1]
        else:
            new_edges = edges[:1]
        edges = new_edges
        partial_idx = np.empty(0, dtype=np.int64)

    return ResampledSet(
        customer_ids=series_set.customer_ids.copy(),
        resolution=resolution,
        bucket_edges=edges,
        matrix=out,
        aggregate=aggregate,
        partial_buckets=partial_idx,
    )
