"""Vectorised blob labelling vs the flood-fill oracle (``flow_oracle``).

The two label the same 4-connected blobs in the same raster order; only
the summation order of the centroid sums differs, hence rtol 1e-9.
"""

import numpy as np
import pytest

from repro.core.shift.flow import ShiftField, _connected_blobs, major_flows
from repro.core.shift.grids import GridSpec
from repro.data.timeseries import HourWindow
from repro.db.spatial import BBox
from tests.shift.flow_oracle import (
    assert_same_arrows,
    connected_blobs_loop,
    oracle_flows,
)


def _spec(ny: int, nx: int) -> GridSpec:
    return GridSpec(BBox(4.3, 50.7, 4.5, 50.9), nx=nx, ny=ny)


def _field(values) -> ShiftField:
    values = np.asarray(values, dtype=np.float64)
    return ShiftField(spec=_spec(*values.shape), values=values)


def _assert_same_blobs(mask, weights, spec, max_blobs=50):
    got = _connected_blobs(mask, weights, spec, max_blobs)
    want = connected_blobs_loop(mask, weights, spec, max_blobs)
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", [(23, 37), (96, 96)])
def test_random_normal_fields(seed, shape):
    rng = np.random.default_rng(seed)
    field = _field(rng.normal(size=shape))
    for kwargs in ({}, {"max_flows": 1}, {"max_flows": 9, "threshold_quantile": 0.4}):
        assert_same_arrows(major_flows(field, **kwargs), oracle_flows(field, **kwargs))


@pytest.mark.parametrize("seed", range(4))
def test_random_masks_blob_table(seed):
    rng = np.random.default_rng(100 + seed)
    mask = rng.random((31, 19)) < 0.45
    weights = rng.uniform(0.1, 2.0, size=mask.shape)
    _assert_same_blobs(mask, weights, _spec(*mask.shape), max_blobs=1000)


@pytest.mark.parametrize(
    "t1,t2",
    [((0, 24), (24, 48)), ((6, 9), (18, 21)), ((100, 124), (300, 324))],
)
def test_real_session_shift_fields(small_session, t1, t2):
    field = small_session.shift(HourWindow(*t1), HourWindow(*t2))
    flows = major_flows(field)
    assert flows
    assert_same_arrows(flows, oracle_flows(field))


def test_all_zero_field():
    field = _field(np.zeros((12, 15)))
    assert major_flows(field) == [] == oracle_flows(field)


def test_single_cell_blobs():
    values = np.zeros((10, 10))
    values[1, 1], values[1, 5], values[6, 8] = 3.0, 2.0, 1.5
    values[4, 2], values[8, 3], values[8, 6] = -2.5, -1.0, -4.0
    values[9, 9] = 0.01  # the quantile-0 threshold: excluded itself
    field = _field(values)
    flows = major_flows(field, threshold_quantile=0.0)
    assert len(flows) == 3
    assert_same_arrows(flows, oracle_flows(field, threshold_quantile=0.0))


def test_diagonal_neighbours_stay_two_blobs():
    mask = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=bool)
    weights = np.array([[1.0, 0, 0], [0, 3.0, 0], [0, 0, 0]])
    spec = _spec(3, 3)
    blobs = _connected_blobs(mask, weights, spec, 10)
    assert [b[2] for b in blobs] == [3.0, 1.0]
    _assert_same_blobs(mask, weights, spec)

    values = np.zeros((6, 6))
    values[0, 0], values[1, 1] = 1.0, 2.0  # gains: diagonal only
    values[4, 4], values[5, 5] = -1.0, -2.0  # losses: diagonal only
    values[0, 5] = 0.01  # the quantile-0 threshold: excluded itself
    field = _field(values)
    flows = major_flows(field, threshold_quantile=0.0)
    assert len(flows) == 2
    assert_same_arrows(flows, oracle_flows(field, threshold_quantile=0.0))


def test_equal_mass_blobs_keep_raster_order():
    mask = np.zeros((9, 9), dtype=bool)
    weights = np.ones((9, 9))
    # Four unit-mass blobs; first cells in raster order (0,6), (2,1),
    # (5,4), (7,0) — a blob's later cells must not move it.
    mask[0, 6] = mask[1, 6] = True
    mask[2, 1] = mask[2, 2] = True
    mask[5, 4] = mask[6, 4] = True
    mask[7, 0] = mask[7, 1] = True
    weights[mask] = 0.5
    spec = _spec(9, 9)
    blobs = _connected_blobs(mask, weights, spec, 10)
    lons, lats = spec.lon_centers(), spec.lat_centers()
    assert [b[1] for b in blobs] == pytest.approx(
        [(lats[0] + lats[1]) / 2, lats[2], (lats[5] + lats[6]) / 2, lats[7]]
    )
    assert blobs[0][0] == pytest.approx(lons[6])
    _assert_same_blobs(mask, weights, spec)

    values = np.where(mask, 1.0, 0.0)
    values[3, 7] = values[8, 8] = values[4, 0] = -1.0
    values[0, 0] = 0.01  # the quantile-0 threshold: excluded itself
    field = _field(values)
    flows = major_flows(field, threshold_quantile=0.0)
    assert len(flows) == 3
    assert_same_arrows(flows, oracle_flows(field, threshold_quantile=0.0))
