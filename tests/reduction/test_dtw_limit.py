"""The DTW row ceiling: typed error, dispatch, and the API mapping.

``dtw_distance_matrix`` is O(n²) DTW evaluations — at fleet scale it
would run for hours, so oversize inputs raise :class:`DtwLimitError`
up front.  The error is a ``ValueError`` subclass carrying the offending
row count and the limit, which the server's ValueError→400 mapping turns
into a client error that *names the limit* instead of a hung request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reduction.distances import (
    METRICS,
    cross_distances,
    pairwise_distances,
)
from repro.core.reduction.dtw import (
    MAX_DTW_ROWS,
    MAX_DTW_ROWS_CEILING,
    DtwLimitError,
    dtw_cross_distance_matrix,
    dtw_distance_matrix,
)


class TestDtwLimitError:
    def test_typed_error_with_limit_in_message(self):
        features = np.random.default_rng(0).normal(size=(7, 20))
        with pytest.raises(DtwLimitError) as excinfo:
            dtw_distance_matrix(features, max_rows=6)
        err = excinfo.value
        assert isinstance(err, ValueError)
        assert err.n_rows == 7
        assert err.max_rows == 6
        assert "max_rows=6" in str(err)
        assert "7 rows" in str(err)

    def test_default_ceiling(self):
        assert MAX_DTW_ROWS == 512
        features = np.zeros((MAX_DTW_ROWS + 1, 4))
        with pytest.raises(DtwLimitError, match=r"max_rows=512"):
            dtw_distance_matrix(features)

    def test_at_the_ceiling_is_allowed(self):
        features = np.random.default_rng(1).normal(size=(5, 16))
        out = dtw_distance_matrix(features, max_rows=5)
        assert out.shape == (5, 5)
        assert np.allclose(np.diag(out), 0.0)

    def test_raised_before_any_dtw_work(self):
        # NaN input past the guard would raise a different ValueError;
        # the limit check must fire first (fail fast, not fail late).
        features = np.full((9, 4), np.nan)
        with pytest.raises(DtwLimitError):
            dtw_distance_matrix(features, max_rows=8)


class TestMaxRowsOverride:
    """The explicit ``max_rows=`` override and its hard ceiling."""

    def test_override_lifts_the_default(self):
        features = np.random.default_rng(4).normal(size=(MAX_DTW_ROWS + 2, 4))
        out = dtw_distance_matrix(features, max_rows=MAX_DTW_ROWS + 2)
        assert out.shape == (MAX_DTW_ROWS + 2, MAX_DTW_ROWS + 2)

    def test_override_threads_through_dispatch(self):
        features = np.random.default_rng(5).normal(size=(9, 8))
        np.testing.assert_array_equal(
            pairwise_distances(features, metric="dtw", dtw_max_rows=9),
            dtw_distance_matrix(features, max_rows=9),
        )
        with pytest.raises(DtwLimitError):
            pairwise_distances(features, metric="dtw", dtw_max_rows=8)

    def test_pipeline_rejects_values_over_the_ceiling(self, small_session):
        with pytest.raises(ValueError, match="dtw_max_rows"):
            small_session.embed(
                metric="dtw", dtw_max_rows=MAX_DTW_ROWS_CEILING + 1
            )
        with pytest.raises(ValueError, match="dtw_max_rows"):
            small_session.embed(metric="dtw", dtw_max_rows=0)


class TestCrossBudget:
    """The (m, n) landmark-placement form shares the square budget."""

    def test_small_cross_matrix_matches_pair_dtw(self):
        from repro.core.reduction.dtw import dtw_distance

        rng = np.random.default_rng(6)
        queries, references = rng.normal(size=(3, 24)), rng.normal(size=(4, 24))
        cross = dtw_cross_distance_matrix(queries, references)
        assert cross.shape == (3, 4)
        assert cross[1, 2] == dtw_distance(queries[1], references[2])

    def test_pair_budget_enforced(self):
        queries = np.zeros((5, 6))
        references = np.zeros((6, 6))
        with pytest.raises(DtwLimitError):
            dtw_cross_distance_matrix(queries, references, max_rows=5)
        out = dtw_cross_distance_matrix(queries, references, max_rows=6)
        assert out.shape == (5, 6)

    def test_cross_dispatch_propagates_budget(self):
        queries = np.zeros((4, 6))
        references = np.zeros((5, 6))
        with pytest.raises(DtwLimitError):
            cross_distances(
                queries, references, metric="dtw", dtw_max_rows=4
            )


class TestMetricDispatch:
    def test_dtw_is_a_registered_metric(self):
        assert "dtw" in METRICS

    def test_dispatch_matches_direct_call(self):
        features = np.random.default_rng(2).normal(size=(6, 24))
        np.testing.assert_array_equal(
            pairwise_distances(features, metric="dtw"),
            dtw_distance_matrix(features),
        )

    def test_dispatch_propagates_the_limit(self):
        features = np.zeros((MAX_DTW_ROWS + 1, 3))
        with pytest.raises(DtwLimitError):
            pairwise_distances(features, metric="dtw")


class TestServerMapping:
    """Regression: an oversize DTW embedding request is a 400, not a hang."""

    def test_oversize_fleet_gets_400_naming_the_limit(self):
        from repro.core.pipeline import VapSession
        from repro.data.generator.simulate import CityConfig, generate_city
        from repro.server import VapApp
        from repro.server.client import TestClient

        city = generate_city(
            CityConfig(n_customers=MAX_DTW_ROWS + 8, n_days=7, seed=3)
        )
        client = TestClient(VapApp(VapSession.from_city(city)))
        response = client.get(
            "/api/embedding?metric=dtw&method=mds_classical"
        )
        assert response.status == 400
        assert f"max_rows={MAX_DTW_ROWS}" in response.json["error"]

    def test_tightened_limit_param_gets_400(self):
        from repro.core.pipeline import VapSession
        from repro.data.generator.simulate import CityConfig, generate_city
        from repro.server import VapApp
        from repro.server.client import TestClient

        city = generate_city(CityConfig(n_customers=12, n_days=7, seed=3))
        client = TestClient(VapApp(VapSession.from_city(city)))
        response = client.get(
            "/api/embedding?metric=dtw&method=mds_classical&dtw_max_rows=8"
        )
        assert response.status == 400
        assert "max_rows=8" in response.json["error"]
        # Values beyond the hard ceiling are abuse, not a bigger budget.
        response = client.get(
            "/api/embedding?metric=dtw&method=mds_classical"
            "&dtw_max_rows=99999"
        )
        assert response.status == 400
        assert "dtw_max_rows" in response.json["error"]

    def test_small_fleet_dtw_embedding_succeeds(self):
        from repro.core.pipeline import VapSession
        from repro.data.generator.simulate import CityConfig, generate_city
        from repro.server import VapApp
        from repro.server.client import TestClient

        city = generate_city(CityConfig(n_customers=12, n_days=7, seed=3))
        client = TestClient(VapApp(VapSession.from_city(city)))
        response = client.get(
            "/api/embedding?metric=dtw&method=mds_classical"
        )
        assert response.status == 200
        assert response.json["metric"] == "dtw"
        assert len(response.json["points"]) == 12
