"""Loop reference for the flow-blob labelling in ``repro.core.shift.flow``.

``connected_blobs_loop`` is the original cell-by-cell 4-connected flood
fill.  :func:`oracle_flows` runs :func:`~repro.core.shift.flow.major_flows`
with it in place of the vectorised labeller, so a parity test compares the
whole arrow construction, not only the blob table.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.core.shift import flow
from repro.core.shift.flow import FlowArrow, ShiftField
from repro.core.shift.grids import GridSpec


def connected_blobs_loop(
    mask: np.ndarray, weights: np.ndarray, spec: GridSpec, max_blobs: int
) -> list[tuple[float, float, float]]:
    """Connected components of ``mask`` as ``(lon, lat, mass)`` centroids,
    heaviest first (4-connectivity, iterative flood fill)."""
    ny, nx = mask.shape
    labels = np.full(mask.shape, -1, dtype=np.int64)
    blobs: list[tuple[float, float, float]] = []
    lons = spec.lon_centers()
    lats = spec.lat_centers()
    next_label = 0
    for start_row in range(ny):
        for start_col in range(nx):
            if not mask[start_row, start_col] or labels[start_row, start_col] >= 0:
                continue
            stack = [(start_row, start_col)]
            labels[start_row, start_col] = next_label
            cells: list[tuple[int, int]] = []
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (
                        0 <= rr < ny
                        and 0 <= cc < nx
                        and mask[rr, cc]
                        and labels[rr, cc] < 0
                    ):
                        labels[rr, cc] = next_label
                        stack.append((rr, cc))
            w = np.array([weights[r, c] for r, c in cells])
            mass = float(w.sum())
            if mass <= 0:
                continue
            lon = float(sum(lons[c] * wi for (_, c), wi in zip(cells, w)) / mass)
            lat = float(sum(lats[r] * wi for (r, _), wi in zip(cells, w)) / mass)
            blobs.append((lon, lat, mass))
            next_label += 1
    blobs.sort(key=lambda b: b[2], reverse=True)
    return blobs[:max_blobs]


def oracle_flows(field: ShiftField, **kwargs) -> list[FlowArrow]:
    """``major_flows(field, **kwargs)`` labelled by the flood fill."""
    with mock.patch.object(flow, "_connected_blobs", connected_blobs_loop):
        return flow.major_flows(field, **kwargs)


def assert_same_arrows(
    got: list[FlowArrow], want: list[FlowArrow], rtol: float = 1e-9
) -> None:
    """Same count and order; both endpoints and the magnitude within rtol.

    Endpoints, not ``dlon``/``dlat``: a near-zero offset is the difference
    of two centroids, so its relative error is unbounded.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(
            [a.lon, a.lat, *a.tip, a.magnitude],
            [b.lon, b.lat, *b.tip, b.magnitude],
            rtol=rtol,
            atol=0.0,
        )
