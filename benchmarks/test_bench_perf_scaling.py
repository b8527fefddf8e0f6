"""PERF — scaling of the interactive operations.

The paper's demo stands or falls on interactivity; this bench measures how
the expensive operations scale with customer count (reducers, KDE, the
R-tree spatial index) and the latency of the hot REST endpoints.
"""

import numpy as np
import pytest

from repro.core.reduction.mds import mds
from repro.core.reduction.tsne import tsne
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.data.generator.simulate import CityConfig, generate_city
from repro.db.index.rtree import RTree
from repro.db.spatial import BBox
from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def features_by_n(bench_session):
    feats = bench_session.features()
    return {n: feats[:n] for n in (75, 150, 300)}


@pytest.mark.parametrize("n", [75, 150, 300])
def test_perf_tsne_scaling(benchmark, features_by_n, n):
    benchmark(tsne, features_by_n[n], perplexity=20, n_iter=250, seed=0)


@pytest.mark.parametrize("n", [75, 150, 300])
def test_perf_mds_scaling(benchmark, features_by_n, n):
    benchmark(mds, features_by_n[n], method="smacof")


@pytest.mark.parametrize("n", [300, 1200, 4800])
def test_perf_kde_scaling(benchmark, n):
    rng = np.random.default_rng(1)
    pts = rng.normal([12.57, 55.68], 0.02, size=(n, 2))
    demand = rng.uniform(0.2, 3.0, n)
    spec = GridSpec.covering(pts, nx=96, ny=96)
    benchmark(kde_density, pts, demand, spec, 400.0)


@pytest.mark.parametrize("cls", [RTree], ids=["rtree"])
def test_perf_index_query(benchmark, cls):
    rng = np.random.default_rng(4)
    n = 20_000
    lons = rng.uniform(12.4, 12.8, n)
    lats = rng.uniform(55.5, 55.9, n)
    index = cls(np.arange(n), lons, lats)
    box = BBox(12.55, 55.65, 12.6, 55.7)

    def run():
        return index.query_bbox(box)

    out = benchmark(run)
    assert out.size > 0


@pytest.fixture(scope="module")
def api_client():
    city = generate_city(CityConfig(n_customers=150, n_days=90, seed=31))
    from repro.core.pipeline import VapSession

    session = VapSession.from_city(city)
    session.embed(n_iter=300)  # warm the cache like a running deployment
    return TestClient(VapApp(session, layout=city.layout))


@pytest.mark.parametrize(
    "path",
    [
        "/api/customers?zone=residential",
        "/api/embedding",
        "/api/shift?t1_start=61&t1_end=63&t2_start=67&t2_end=69",
    ],
    ids=["customers", "embedding", "shift"],
)
def test_perf_rest_latency(benchmark, api_client, path):
    response = benchmark(api_client.get, path)
    assert response.ok
