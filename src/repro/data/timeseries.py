"""Time-series containers shared by every layer of the tool.

Two containers cover all needs of the paper's models:

- :class:`TimeSeries` — one meter's readings on a regular grid, with NaN
  marking missing values (the raw data the preprocessing step repairs).
- :class:`SeriesSet` — a dense ``(n_customers, n_steps)`` matrix plus the
  shared time axis; this is what the dimension-reduction and KDE models
  consume.

Timestamps are modelled as *hours since an epoch* (``numpy.datetime64`` is
used only at the I/O boundary) so all arithmetic stays in integer space and
the resampling of demo scenario S2 — hourly, 4-hourly, daily, weekly,
monthly, quarterly, yearly — is a bucketing exercise.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Epoch all hour-offsets are relative to (arbitrary but fixed Monday).
EPOCH = _dt.datetime(2018, 1, 1, 0, 0, 0)

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7


class Resolution(enum.Enum):
    """Temporal granularities from demo scenario S2.

    The attendee "examines the shift patterns by varying the temporal
    granular intervals, including hourly, every four hours, daily, weekly,
    monthly, quarterly, and yearly".  Month-like resolutions use calendar
    boundaries; the fixed-width ones use exact hour counts.
    """

    HOURLY = "hourly"
    FOUR_HOURLY = "four_hourly"
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    QUARTERLY = "quarterly"
    YEARLY = "yearly"

    @property
    def fixed_hours(self) -> int | None:
        """Bucket width in hours, or ``None`` for calendar-based resolutions."""
        return _FIXED_HOURS.get(self)

    def bucket_of(self, hour_offset: int) -> int:
        """Map an hour offset from :data:`EPOCH` to a bucket ordinal.

        Fixed-width resolutions divide; calendar resolutions count months /
        quarters / years since the epoch.
        """
        fixed = self.fixed_hours
        if fixed is not None:
            return int(hour_offset) // fixed
        when = EPOCH + _dt.timedelta(hours=int(hour_offset))
        months = (when.year - EPOCH.year) * 12 + (when.month - EPOCH.month)
        if self is Resolution.MONTHLY:
            return months
        if self is Resolution.QUARTERLY:
            return months // 3
        if self is Resolution.YEARLY:
            return when.year - EPOCH.year
        raise AssertionError(f"unhandled resolution {self}")  # pragma: no cover

    def bucket_bounds(self, bucket: int) -> tuple[int, int]:
        """Nominal hour span ``[start, end)`` of a bucket ordinal.

        The inverse of :meth:`bucket_of` up to bucket membership: every
        hour offset ``h`` with ``start <= h < end`` satisfies
        ``bucket_of(h) == bucket``.  Fixed-width resolutions multiply;
        calendar resolutions walk the calendar from :data:`EPOCH`.
        """
        fixed = self.fixed_hours
        if fixed is not None:
            return int(bucket) * fixed, (int(bucket) + 1) * fixed
        bucket = int(bucket)
        if self is Resolution.MONTHLY:
            months = bucket
            span = 1
        elif self is Resolution.QUARTERLY:
            months = bucket * 3
            span = 3
        else:  # YEARLY
            months = bucket * 12
            span = 12

        def month_start(total_months: int) -> _dt.datetime:
            year, month0 = divmod(EPOCH.month - 1 + total_months, 12)
            return _dt.datetime(EPOCH.year + year, month0 + 1, 1)

        start = datetime_to_hour(month_start(months))
        end = datetime_to_hour(month_start(months + span))
        return start, end

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_FIXED_HOURS: dict[Resolution, int] = {
    Resolution.HOURLY: 1,
    Resolution.FOUR_HOURLY: 4,
    Resolution.DAILY: HOURS_PER_DAY,
    Resolution.WEEKLY: HOURS_PER_DAY * DAYS_PER_WEEK,
}

#: The S2 sweep order, coarsening left to right.
ALL_RESOLUTIONS: tuple[Resolution, ...] = (
    Resolution.HOURLY,
    Resolution.FOUR_HOURLY,
    Resolution.DAILY,
    Resolution.WEEKLY,
    Resolution.MONTHLY,
    Resolution.QUARTERLY,
    Resolution.YEARLY,
)


def hour_to_datetime(hour_offset: int) -> _dt.datetime:
    """Convert an hour offset from :data:`EPOCH` to a naive datetime."""
    return EPOCH + _dt.timedelta(hours=int(hour_offset))


def datetime_to_hour(when: _dt.datetime) -> int:
    """Convert a naive datetime to a whole hour offset from :data:`EPOCH`.

    Raises
    ------
    ValueError
        If ``when`` is not aligned to a whole hour.
    """
    delta = when - EPOCH
    seconds = delta.total_seconds()
    hours = seconds / 3600.0
    if hours != int(hours):
        raise ValueError(f"{when!r} is not aligned to a whole hour")
    return int(hours)


@dataclass(slots=True)
class TimeSeries:
    """A single regular hourly series with possible gaps (NaN).

    Attributes
    ----------
    start_hour:
        Offset of the first reading, in hours since :data:`EPOCH`.
    values:
        1-D float array of consumption in kWh per hour; NaN marks missing.
    """

    start_hour: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {self.values.shape}")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    @property
    def end_hour(self) -> int:
        """Hour offset one past the final reading (half-open interval)."""
        return self.start_hour + len(self)

    @property
    def hours(self) -> np.ndarray:
        """Hour offsets of every reading."""
        return np.arange(self.start_hour, self.end_hour, dtype=np.int64)

    @property
    def missing_fraction(self) -> float:
        """Share of readings that are NaN."""
        if len(self) == 0:
            return 0.0
        return float(np.isnan(self.values).mean())

    def slice_hours(self, start_hour: int, end_hour: int) -> "TimeSeries":
        """Readings within ``[start_hour, end_hour)``, clipped to the series.

        The result may be empty but is never out of bounds.
        """
        if end_hour < start_hour:
            raise ValueError(
                f"end_hour {end_hour} precedes start_hour {start_hour}"
            )
        lo = max(start_hour, self.start_hour)
        hi = min(end_hour, self.end_hour)
        if hi <= lo:
            return TimeSeries(start_hour=lo, values=np.empty(0))
        a = lo - self.start_hour
        b = hi - self.start_hour
        return TimeSeries(start_hour=lo, values=self.values[a:b].copy())

    def total(self) -> float:
        """Sum of non-missing readings (kWh)."""
        return float(np.nansum(self.values))

    def mean(self) -> float:
        """Mean of non-missing readings; NaN if everything is missing."""
        if len(self) == 0 or np.isnan(self.values).all():
            return float("nan")
        return float(np.nanmean(self.values))


class SeriesSet:
    """A dense matrix of aligned hourly series for many customers.

    This is the workhorse container: rows are customers, columns are hours.
    All model code (reduction, KDE, clustering) consumes a ``SeriesSet``.

    Parameters
    ----------
    customer_ids:
        Row labels; must be unique.
    start_hour:
        Hour offset (since :data:`EPOCH`) of column 0.
    matrix:
        ``(n_customers, n_steps)`` float array; NaN marks missing readings.
    """

    def __init__(
        self,
        customer_ids: Sequence[int],
        start_hour: int,
        matrix: np.ndarray,
    ) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        self.customer_ids = np.asarray(customer_ids, dtype=np.int64)
        if self.customer_ids.ndim != 1:
            raise ValueError("customer_ids must be a 1-D sequence")
        if self.customer_ids.shape[0] != self.matrix.shape[0]:
            raise ValueError(
                f"{self.customer_ids.shape[0]} customer ids for "
                f"{self.matrix.shape[0]} matrix rows"
            )
        self._row_of: dict[int, int] = dict(
            zip(self.customer_ids.tolist(), range(self.customer_ids.shape[0]))
        )
        if len(self._row_of) != self.customer_ids.shape[0]:
            raise ValueError("customer_ids contains duplicates")
        self.start_hour = int(start_hour)

    # ------------------------------------------------------------------
    # basic shape / lookup
    # ------------------------------------------------------------------
    @property
    def n_customers(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def end_hour(self) -> int:
        """Hour offset one past the final column (half-open)."""
        return self.start_hour + self.n_steps

    @property
    def hours(self) -> np.ndarray:
        """Hour offsets of every column."""
        return np.arange(self.start_hour, self.end_hour, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_customers

    def __contains__(self, customer_id: int) -> bool:
        return int(customer_id) in self._row_of

    def row_index(self, customer_id: int) -> int:
        """Matrix row of ``customer_id``; raises ``KeyError`` if unknown."""
        return self._row_of[int(customer_id)]

    def series(self, customer_id: int) -> TimeSeries:
        """Extract one customer's readings as a :class:`TimeSeries`."""
        row = self.row_index(customer_id)
        return TimeSeries(start_hour=self.start_hour, values=self.matrix[row].copy())

    # ------------------------------------------------------------------
    # construction / reshaping
    # ------------------------------------------------------------------
    @classmethod
    def from_series(cls, pairs: Iterable[tuple[int, TimeSeries]]) -> "SeriesSet":
        """Stack per-customer series that share one time axis.

        Raises
        ------
        ValueError
            If the iterable is empty or the series are not aligned.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("cannot build a SeriesSet from zero series")
        first = pairs[0][1]
        for cid, ts in pairs:
            if ts.start_hour != first.start_hour or len(ts) != len(first):
                raise ValueError(
                    f"series for customer {cid} is not aligned with the first "
                    f"series (start {ts.start_hour} vs {first.start_hour}, "
                    f"length {len(ts)} vs {len(first)})"
                )
        matrix = np.vstack([ts.values for _, ts in pairs])
        return cls(
            customer_ids=[cid for cid, _ in pairs],
            start_hour=first.start_hour,
            matrix=matrix,
        )

    def select_customers(self, customer_ids: Sequence[int]) -> "SeriesSet":
        """Row-subset preserving the requested order."""
        rows = [self.row_index(cid) for cid in customer_ids]
        return SeriesSet(
            customer_ids=[int(self.customer_ids[r]) for r in rows],
            start_hour=self.start_hour,
            matrix=self.matrix[rows].copy(),
        )

    def slice_hours(self, start_hour: int, end_hour: int) -> "SeriesSet":
        """Column-subset over ``[start_hour, end_hour)``, clipped to bounds."""
        if end_hour < start_hour:
            raise ValueError(
                f"end_hour {end_hour} precedes start_hour {start_hour}"
            )
        lo = max(start_hour, self.start_hour)
        hi = min(end_hour, self.end_hour)
        if hi <= lo:
            return SeriesSet(
                customer_ids=self.customer_ids.tolist(),
                start_hour=lo,
                matrix=np.empty((self.n_customers, 0)),
            )
        a = lo - self.start_hour
        b = hi - self.start_hour
        return SeriesSet(
            customer_ids=self.customer_ids.tolist(),
            start_hour=lo,
            matrix=self.matrix[:, a:b].copy(),
        )

    # ------------------------------------------------------------------
    # aggregates used by the models
    # ------------------------------------------------------------------
    def mean_profile(self) -> np.ndarray:
        """Column-wise NaN-aware mean — the "aggregated consumption pattern"
        view B draws for a selection."""
        if self.n_customers == 0:
            return np.full(self.n_steps, np.nan)
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.matrix, axis=0)

    def per_customer_mean(self) -> np.ndarray:
        """Row-wise NaN-aware mean consumption, the ``c_i`` weight input of
        the paper's Eq. 3."""
        out = np.full(self.n_customers, np.nan)
        valid = ~np.isnan(self.matrix).all(axis=1)
        if valid.any():
            with np.errstate(invalid="ignore"):
                out[valid] = np.nanmean(self.matrix[valid], axis=1)
        return out

    def missing_fraction(self) -> float:
        """Overall share of NaN cells."""
        if self.matrix.size == 0:
            return 0.0
        return float(np.isnan(self.matrix).mean())

    def copy(self) -> "SeriesSet":
        return SeriesSet(
            customer_ids=self.customer_ids.tolist(),
            start_hour=self.start_hour,
            matrix=self.matrix.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SeriesSet(n_customers={self.n_customers}, n_steps={self.n_steps}, "
            f"start_hour={self.start_hour})"
        )


@dataclass(slots=True)
class HourWindow:
    """A half-open hour interval ``[start_hour, end_hour)``.

    Used by the shift model to name the ``t1`` and ``t2`` aggregation windows
    of Eq. 4, and by the REST API as the wire format for time ranges.
    """

    start_hour: int
    end_hour: int

    def __post_init__(self) -> None:
        if self.end_hour < self.start_hour:
            raise ValueError(
                f"end_hour {self.end_hour} precedes start_hour {self.start_hour}"
            )

    @property
    def n_hours(self) -> int:
        return self.end_hour - self.start_hour

    def shifted(self, hours: int) -> "HourWindow":
        """The same-width window offset by ``hours``."""
        return HourWindow(self.start_hour + hours, self.end_hour + hours)

    def overlaps(self, other: "HourWindow") -> bool:
        return self.start_hour < other.end_hour and other.start_hour < self.end_hour

    def to_record(self) -> dict[str, int]:
        return {"start_hour": self.start_hour, "end_hour": self.end_hour}

    @classmethod
    def from_record(cls, record: dict[str, object]) -> "HourWindow":
        return cls(
            start_hour=int(record["start_hour"]),  # type: ignore[arg-type]
            end_hour=int(record["end_hour"]),  # type: ignore[arg-type]
        )
