"""Shift fields and flow arrows — the paper's Eq. 4 and Figure 2b.

``Shift(x) = f(x)|t2 - f(x)|t1``: positive cells gained demand density,
negative cells lost it.  Two arrow constructions render the shift:

- :func:`flow_vectors` — a *vector field*: arrows follow the gradient of
  the shift surface (pointing from loss toward gain), drawn on a coarse
  sub-grid; arrow colour depth encodes the local rate of change.  This is
  the dense texture of arrows in the paper's view A.
- :func:`major_flows` — *blob-to-blob transport*: the connected regions of
  loss and gain are extracted, and loss mass is greedily matched to gain
  mass by proximity.  This produces the headline "commercial area →
  residential area" arrow of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.shift.grids import DensityGrid, GridSpec


@dataclass(frozen=True, slots=True)
class FlowArrow:
    """One arrow of a flow map, in (lon, lat) coordinates.

    ``magnitude`` is the demand-density change the arrow carries; the
    renderer maps it to colour depth ("the darker the colour, the higher
    the rate" in the paper).
    """

    lon: float
    lat: float
    dlon: float
    dlat: float
    magnitude: float

    @property
    def tip(self) -> tuple[float, float]:
        return (self.lon + self.dlon, self.lat + self.dlat)


@dataclass(slots=True)
class ShiftField:
    """Eq. 4 on a grid: the density difference between two time steps."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.spec.ny}, {self.spec.nx})"
            )

    @classmethod
    def between(cls, before: DensityGrid, after: DensityGrid) -> "ShiftField":
        """Eq. 4: ``after - before``.  Grids must share a spec.

        Raises
        ------
        ValueError
            If the grids were evaluated on different specs.
        """
        if before.spec != after.spec:
            raise ValueError(
                "density grids have different specs; evaluate both on one "
                "GridSpec"
            )
        return cls(spec=before.spec, values=after.values - before.values)

    # ------------------------------------------------------------------
    # scalar summaries the S2 sensitivity sweeps report
    # ------------------------------------------------------------------
    def energy(self) -> float:
        """Mean |shift| over the grid — overall churn between t1 and t2."""
        return float(np.abs(self.values).mean())

    def peak_gain(self) -> tuple[float, float, float]:
        """``(lon, lat, value)`` of the strongest gaining cell."""
        row, col = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return (
            float(self.spec.lon_centers()[col]),
            float(self.spec.lat_centers()[row]),
            float(self.values[row, col]),
        )

    def peak_loss(self) -> tuple[float, float, float]:
        """``(lon, lat, value)`` of the strongest losing cell."""
        row, col = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return (
            float(self.spec.lon_centers()[col]),
            float(self.spec.lat_centers()[row]),
            float(self.values[row, col]),
        )


def flow_vectors(
    field: ShiftField,
    stride: int = 6,
    min_magnitude_quantile: float = 0.6,
) -> list[FlowArrow]:
    """Gradient-following arrows on a coarse sub-grid.

    The shift surface's gradient points from loss toward gain; each arrow
    sits at a sub-sampled cell centre, its direction is the local gradient
    and its magnitude the gradient norm.  Arrows weaker than the given
    quantile of non-zero magnitudes are dropped to keep the map readable.

    Raises
    ------
    ValueError
        For a non-positive stride or a quantile outside [0, 1).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not 0.0 <= min_magnitude_quantile < 1.0:
        raise ValueError(
            f"min_magnitude_quantile must be in [0, 1), got "
            f"{min_magnitude_quantile}"
        )
    spec = field.spec
    # Gradient in grid units: d/dlat rows, d/dlon cols.
    grad_lat, grad_lon = np.gradient(field.values, spec.cell_height, spec.cell_width)
    lons = spec.lon_centers()
    lats = spec.lat_centers()
    rows = np.arange(stride // 2, spec.ny, stride)
    cols = np.arange(stride // 2, spec.nx, stride)
    magnitudes = np.sqrt(grad_lon**2 + grad_lat**2)
    sampled = magnitudes[np.ix_(rows, cols)]
    nonzero = sampled[sampled > 0]
    if nonzero.size == 0:
        return []
    threshold = float(np.quantile(nonzero, min_magnitude_quantile))
    # Arrow length: fixed fraction of the grid extent, scaled by relative
    # magnitude so strong flows read longer as well as darker.
    max_len = 0.75 * stride * max(spec.cell_width, spec.cell_height)
    max_mag = float(sampled.max())
    arrows: list[FlowArrow] = []
    for r in rows:
        for c in cols:
            mag = float(magnitudes[r, c])
            if mag < threshold or mag == 0.0:
                continue
            scale = max_len * (mag / max_mag) / mag
            arrows.append(
                FlowArrow(
                    lon=float(lons[c]),
                    lat=float(lats[r]),
                    dlon=float(grad_lon[r, c] * scale),
                    dlat=float(grad_lat[r, c] * scale),
                    magnitude=mag,
                )
            )
    return arrows


def _connected_blobs(
    mask: np.ndarray, weights: np.ndarray, spec: GridSpec, max_blobs: int
) -> list[tuple[float, float, float]]:
    """Connected components of ``mask`` as ``(lon, lat, mass)`` centroids,
    heaviest first, equal masses in raster order of each blob's first
    cell (4-connectivity; ``weights`` must be positive on ``mask``)."""
    # Imported here: scipy.ndimage takes ~0.4 s to import, which would
    # otherwise land on every process's startup path.
    from scipy import ndimage

    labels, n_blobs = ndimage.label(mask)
    cells = np.flatnonzero(labels)
    rows, cols = np.divmod(cells, mask.shape[1])
    blob = labels.ravel()[cells] - 1
    w = weights.ravel()[cells]
    mass = np.bincount(blob, w, n_blobs)
    lon = np.bincount(blob, w * spec.lon_centers()[cols], n_blobs) / mass
    lat = np.bincount(blob, w * spec.lat_centers()[rows], n_blobs) / mass
    order = np.argsort(-mass, kind="stable")[:max_blobs]
    return list(zip(lon[order].tolist(), lat[order].tolist(), mass[order].tolist()))


def major_flows(
    field: ShiftField,
    max_flows: int = 5,
    threshold_quantile: float = 0.75,
) -> list[FlowArrow]:
    """Blob-to-blob transport arrows, strongest first.

    Cells beyond the ``threshold_quantile`` of |shift| form loss and gain
    regions; their weighted centroids are matched greedily (largest
    remaining loss to nearest substantial gain), each match emitting an
    arrow carrying ``min(loss, gain)`` mass.

    Raises
    ------
    ValueError
        For a quantile outside [0, 1) or non-positive ``max_flows``.
    """
    if max_flows < 1:
        raise ValueError(f"max_flows must be >= 1, got {max_flows}")
    if not 0.0 <= threshold_quantile < 1.0:
        raise ValueError(
            f"threshold_quantile must be in [0, 1), got {threshold_quantile}"
        )
    with obs.span("kernel.flows", nx=field.spec.nx, ny=field.spec.ny), \
            obs.get_registry().timer("kernel_runtime_seconds", kernel="flows"):
        magnitude = np.abs(field.values)
        nonzero = magnitude[magnitude > 0]
        if nonzero.size == 0:
            return []
        threshold = float(np.quantile(nonzero, threshold_quantile))
        gain_mask = field.values > threshold
        loss_mask = field.values < -threshold
        gains = _connected_blobs(gain_mask, magnitude, field.spec, max_flows * 3)
        losses = _connected_blobs(loss_mask, magnitude, field.spec, max_flows * 3)
        if not gains or not losses:
            return []
        remaining_gain = [list(g) for g in gains]  # mutable copies
        arrows: list[FlowArrow] = []
        for lon_l, lat_l, mass_l in losses:
            if len(arrows) >= max_flows:
                break
            # Nearest gain blob with remaining capacity.
            best = None
            best_d2 = np.inf
            for blob in remaining_gain:
                if blob[2] <= 0:
                    continue
                d2 = (blob[0] - lon_l) ** 2 + (blob[1] - lat_l) ** 2
                if d2 < best_d2:
                    best_d2 = d2
                    best = blob
            if best is None:
                break
            carried = min(mass_l, best[2])
            best[2] -= carried
            arrows.append(
                FlowArrow(
                    lon=lon_l,
                    lat=lat_l,
                    dlon=best[0] - lon_l,
                    dlat=best[1] - lat_l,
                    magnitude=carried,
                )
            )
        arrows.sort(key=lambda a: a.magnitude, reverse=True)
        return arrows
