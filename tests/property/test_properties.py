"""Property-based tests (hypothesis) on core invariants.

Each property states a mathematical guarantee of a model or data structure
and lets hypothesis search for counterexamples: KDE mass/positivity, shift
zero-sum, distance-matrix axioms, t-SNE P-matrix normalisation, k-means
assignment optimality, resampling sum preservation, selection set algebra,
imputation idempotence and spatial-index agreement with brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.cluster.kmeans import kmeans
from repro.core.patterns.selection import RadiusSelection, RectSelection
from repro.core.reduction.distances import pearson_distance_matrix
from repro.core.reduction.tsne import joint_probabilities
from repro.core.shift.flow import ShiftField
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density, normalize_weights
from repro.data.timeseries import Resolution, SeriesSet
from repro.db.index.rtree import RTree
from repro.db.spatial import BBox
from repro.preprocess.imputation import impute
from repro.preprocess.normalize import normalize_matrix
from repro.preprocess.resample import resample

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def feature_matrices(draw, min_rows=3, max_rows=12, min_cols=4, max_cols=20):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    return draw(
        npst.arrays(np.float64, (rows, cols), elements=finite_floats)
    )


@st.composite
def point_clouds(draw, min_points=2, max_points=60):
    n = draw(st.integers(min_points, max_points))
    lons = draw(
        npst.arrays(
            np.float64,
            (n,),
            elements=st.floats(12.0, 13.0, allow_nan=False),
        )
    )
    lats = draw(
        npst.arrays(
            np.float64,
            (n,),
            elements=st.floats(55.0, 56.0, allow_nan=False),
        )
    )
    return lons, lats


@st.composite
def gapped_series(draw):
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(4, 60))
    matrix = draw(
        npst.arrays(
            np.float64,
            (n_rows, n_cols),
            elements=st.floats(0.0, 50.0, allow_nan=False),
        )
    )
    mask = draw(
        npst.arrays(np.bool_, (n_rows, n_cols), elements=st.booleans())
    )
    matrix = matrix.copy()
    matrix[mask] = np.nan
    return SeriesSet(list(range(n_rows)), draw(st.integers(0, 100)), matrix)


# ---------------------------------------------------------------------------
# distances / embeddings
# ---------------------------------------------------------------------------


class TestDistanceProperties:
    @given(feature_matrices())
    @settings(max_examples=40, deadline=None)
    def test_pearson_is_valid_dissimilarity(self, feats):
        dist = pearson_distance_matrix(feats)
        assert (dist >= 0).all()
        assert (dist <= 2.0 + 1e-9).all()
        np.testing.assert_array_equal(dist, dist.T)
        np.testing.assert_allclose(np.diag(dist), 0.0, atol=1e-12)

    @given(feature_matrices(min_rows=4, max_rows=10))
    @settings(max_examples=15, deadline=None)
    def test_joint_probabilities_normalised(self, feats):
        dist = pearson_distance_matrix(feats)
        p = joint_probabilities(dist, perplexity=2.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        assert (p > 0).all()


# ---------------------------------------------------------------------------
# KDE / shift
# ---------------------------------------------------------------------------


class TestKdeProperties:
    @given(point_clouds(), st.floats(100.0, 3000.0))
    @settings(max_examples=25, deadline=None)
    def test_density_nonnegative_and_finite(self, cloud, bandwidth):
        lons, lats = cloud
        positions = np.column_stack([lons, lats])
        spec = GridSpec(BBox(11.5, 54.5, 13.5, 56.5), nx=16, ny=16)
        grid = kde_density(positions, None, spec, bandwidth_m=bandwidth)
        assert np.isfinite(grid.values).all()
        assert (grid.values >= 0).all()

    @given(point_clouds())
    @settings(max_examples=25, deadline=None)
    def test_shift_of_identical_densities_is_zero(self, cloud):
        lons, lats = cloud
        positions = np.column_stack([lons, lats])
        spec = GridSpec(BBox(11.5, 54.5, 13.5, 56.5), nx=12, ny=12)
        a = kde_density(positions, None, spec, bandwidth_m=500.0)
        b = kde_density(positions, None, spec, bandwidth_m=500.0)
        field = ShiftField.between(a, b)
        assert field.energy() == 0.0

    @given(
        npst.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_normalize_weights_sums_to_n(self, values):
        w = normalize_weights(values)
        assert w.shape == values.shape
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(values.size)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


class TestKmeansProperties:
    @given(feature_matrices(min_rows=4, max_rows=15), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_assignments_are_nearest_centroid(self, feats, k):
        k = min(k, feats.shape[0])
        result = kmeans(feats, k=k, n_init=1, seed=0)
        d2 = ((feats[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        best = d2.min(axis=1)
        chosen = d2[np.arange(feats.shape[0]), result.labels]
        np.testing.assert_allclose(chosen, best, atol=1e-9)

    @given(feature_matrices(min_rows=4, max_rows=15))
    @settings(max_examples=20, deadline=None)
    def test_inertia_never_increases(self, feats):
        result = kmeans(feats, k=2, n_init=1, seed=1)
        trace = result.inertia_trace
        assert all(a >= b - 1e-6 for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


class TestPreprocessProperties:
    @given(gapped_series())
    @settings(max_examples=30, deadline=None)
    def test_impute_removes_all_nan_and_is_idempotent(self, series):
        filled = impute(series)
        assert not np.isnan(filled.matrix).any()
        again = impute(filled)
        np.testing.assert_array_equal(again.matrix, filled.matrix)

    @given(gapped_series())
    @settings(max_examples=30, deadline=None)
    def test_impute_preserves_observed_cells(self, series):
        filled = impute(series)
        observed = ~np.isnan(series.matrix)
        np.testing.assert_array_equal(
            filled.matrix[observed], series.matrix[observed]
        )

    @given(gapped_series())
    @settings(max_examples=30, deadline=None)
    def test_resample_sum_preserves_observed_total(self, series):
        out = resample(series, Resolution.DAILY, aggregate="sum")
        want = np.nansum(series.matrix)
        got = np.nansum(out.matrix)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(feature_matrices())
    @settings(max_examples=30, deadline=None)
    def test_zscore_bounds(self, feats):
        out = normalize_matrix(feats, "zscore")
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# selection set algebra
# ---------------------------------------------------------------------------


class TestSelectionProperties:
    @given(
        npst.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-5.0, 5.0, allow_nan=False),
        ),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        # Sub-ulp radii make d^2 underflow to zero while the rectangle
        # bounds stay exact; such gestures are not physically drawable.
        st.floats(1e-6, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_radius_subset_of_enclosing_rect(self, emb, x, y, radius):
        inside_circle = set(RadiusSelection(x, y, radius).apply(emb).tolist())
        # Pad the rectangle by one part in 10^9: points on the circle's
        # boundary can round inside the circle test while sitting a ulp
        # outside the exact enclosing square.
        pad = radius * (1.0 + 1e-9) + 1e-12
        inside_rect = set(
            RectSelection(x - pad, y - pad, x + pad, y + pad)
            .apply(emb)
            .tolist()
        )
        assert inside_circle <= inside_rect

    @given(
        npst.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-5.0, 5.0, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_growing_rect_is_monotone(self, emb):
        small = set(RectSelection(-1, -1, 1, 1).apply(emb).tolist())
        large = set(RectSelection(-2, -2, 2, 2).apply(emb).tolist())
        assert small <= large


# ---------------------------------------------------------------------------
# spatial indexes vs brute force
# ---------------------------------------------------------------------------


class TestIndexProperties:
    @given(
        point_clouds(min_points=2, max_points=40),
        st.floats(12.0, 13.0),
        st.floats(55.0, 56.0),
        st.floats(12.0, 13.0),
        st.floats(55.0, 56.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_indexes_agree_with_brute_force(self, cloud, x0, y0, x1, y1):
        lons, lats = cloud
        ids = np.arange(lons.size)
        box = BBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        want = sorted(ids[box.contains_many(lons, lats)].tolist())
        assert RTree(ids, lons, lats).query_bbox(box).tolist() == want


# ---------------------------------------------------------------------------
# Procrustes invariance
# ---------------------------------------------------------------------------


class TestProcrustesProperties:
    @given(
        npst.arrays(
            np.float64,
            st.tuples(st.integers(3, 25), st.just(2)),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        ),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.5, 3.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_similarity_transforms_align_perfectly(
        self, points, theta, scale, dx, dy
    ):
        from hypothesis import assume

        from repro.core.reduction.procrustes import procrustes_align

        # Degenerate (all-coincident) configurations are rejected by the
        # aligner; skip them.
        assume(np.ptp(points[:, 0]) + np.ptp(points[:, 1]) > 1e-6)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        transformed = scale * (points @ rot) + np.array([dx, dy])
        _, disparity = procrustes_align(transformed, points)
        assert disparity == pytest.approx(0.0, abs=1e-9)
