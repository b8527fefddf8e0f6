"""One-matrix DBSCAN vs the two-matrix, full-sort oracle (``dbscan_oracle``).

The kernel shares one squared-distance matrix between the epsilon
estimate and the neighbourhoods, and reads the k-distance with
``np.partition``: the same order statistic as the oracle's full row sort,
so epsilon and labels must match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.patterns.autodiscover import auto_epsilon, dbscan
from tests.patterns.dbscan_oracle import auto_epsilon_oracle, dbscan_oracle

MIN_POINTS = range(1, 9)


def _blobs(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-10.0, 10.0, size=(4, 2))
    parts = [rng.normal(c, rng.uniform(0.2, 1.0), size=(30, 2)) for c in centres]
    parts.append(rng.uniform(-15.0, 15.0, size=(10, 2)))
    return np.vstack(parts)


def _rounded(seed: int) -> np.ndarray:
    """Points on a coarse lattice: many tied distances and duplicates."""
    rng = np.random.default_rng(seed)
    return np.round(rng.normal(0.0, 1.5, size=(90, 2)))


CASES = {
    **{f"blobs-{seed}": _blobs(seed) for seed in (0, 1, 2)},
    **{f"rounded-{seed}": _rounded(seed) for seed in (0, 1)},
}


def _assert_parity(points: np.ndarray, min_points: int) -> None:
    epsilon = auto_epsilon(points, min_points)
    assert epsilon == auto_epsilon_oracle(points, min_points)
    if epsilon > 0:
        assert np.array_equal(
            dbscan(points, min_points=min_points),
            dbscan_oracle(points, min_points=min_points),
        )
    for fixed in (0.5, 1.0, 2.0):
        assert np.array_equal(
            dbscan(points, epsilon=fixed, min_points=min_points),
            dbscan_oracle(points, epsilon=fixed, min_points=min_points),
        )


@pytest.mark.parametrize("min_points", MIN_POINTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_labels_and_epsilon_match_the_oracle(name, min_points):
    _assert_parity(CASES[name], min_points)


def test_duplicates_give_zero_epsilon_in_both():
    points = np.zeros((12, 2))
    assert auto_epsilon(points, 3) == auto_epsilon_oracle(points, 3) == 0.0
    with pytest.raises(ValueError, match="epsilon must be positive, got 0.0"):
        dbscan(points, min_points=3)


@pytest.mark.parametrize("n", [0, 3, 5])
def test_too_few_points_message_unchanged(n):
    points = np.zeros((n, 2))
    with pytest.raises(ValueError) as want:
        auto_epsilon_oracle(points, 5)
    for call in (
        lambda: auto_epsilon(points, 5),
        lambda: dbscan(points, min_points=5),
    ):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)
    assert str(want.value) == (
        f"need more than 5 points to estimate epsilon, got {n}"
    )


@pytest.fixture(scope="module")
def brush_city_embeddings():
    """View C of an ``s1_brush``-sized city (800 customers): a short
    t-SNE run and classical MDS."""
    from repro.core.pipeline import VapSession
    from repro.data.generator.simulate import CityConfig, generate_city

    city = generate_city(CityConfig(n_customers=800, n_days=14, seed=17))
    session = VapSession.from_city(city, preprocess=False)
    return {
        "tsne": session.embed(n_iter=250).coords,
        "mds_classical": session.embed(method="mds_classical").coords,
    }


@pytest.mark.parametrize("min_points", MIN_POINTS)
@pytest.mark.parametrize("method", ["tsne", "mds_classical"])
def test_city_embedding_matches_the_oracle(
    brush_city_embeddings, method, min_points
):
    points = brush_city_embeddings[method]
    assert points.shape == (800, 2)
    _assert_parity(points, min_points)
