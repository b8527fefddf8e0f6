"""The embed cache key is exact: two requests share one run when — and
only when — their outputs are byte-identical.

The oracle for each pair of option sets is two fresh sessions: the pair
*should* share exactly when their coordinates (and objective, or error)
are byte-identical.  A few pairs are keyed apart on purpose although
their outputs agree (``CONSERVATIVE``): the key cannot see what makes
them agree, and keeping them apart is never wrong.  Sharing a key with
different outputs always is.

CI re-runs this file under a seeded ``kernel.tsne`` fault plan: a
faulted leader must leave nothing behind, and no shared entry may answer
another request's body unmarked.  References are computed with the plan
disarmed.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext
from urllib.parse import urlencode

import pytest

from repro.core.params import EmbedParams
from repro.core.pipeline import VapSession
from repro.core.reduction.tsne import BH_THRESHOLD, clamp_perplexity, resolve_engine
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry
from repro.preprocess.features import FeatureKind
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.server import TestClient, VapApp

N = 40  # perplexity clamps to (N - 1) / 3 = 13
BASE = {"n_iter": 40, "perplexity": 5.0}
SHARED, DISTINCT, CONSERVATIVE = "shared", "distinct", "conservative"
DAY = {"feature_kind": FeatureKind.MEAN_DAY}  # keeps DTW pairs fast

# (a, b, expected): every row of the inert-option table, plus n_iter,
# metric, feature kind and the MDS variants.
PAIRS = [
    ({"seed": 1, "tsne_method": "exact"}, {"seed": 2, "tsne_method": "exact"}, SHARED),
    ({"seed": 1, "tsne_method": "bh"}, {"seed": 2, "tsne_method": "bh"}, SHARED),
    ({"tsne_method": "auto"}, {"tsne_method": "exact"}, SHARED),
    ({"theta": 0.3, "tsne_method": "exact"}, {"theta": 0.7, "tsne_method": "exact"}, SHARED),
    ({"perplexity": 20.0}, {"perplexity": 30.0}, SHARED),
    ({"n_landmarks": 8, "tsne_method": "exact"}, {"n_landmarks": 16, "tsne_method": "exact"},
     SHARED),
    ({"dtw_max_rows": 8}, {"dtw_max_rows": 200}, SHARED),
    ({"method": "mds", "seed": 1}, {"method": "mds", "seed": 2}, SHARED),
    ({"method": "mds", "perplexity": 5.0}, {"method": "mds", "perplexity": 8.0}, SHARED),
    ({"method": "mds", "theta": 0.3}, {"method": "mds", "theta": 0.7}, SHARED),
    ({"feature_kind": None}, {"feature_kind": FeatureKind.MEAN_WEEK}, SHARED),
    ({"tsne_method": "landmark", "n_landmarks": 64}, {"tsne_method": "landmark"}, SHARED),
    ({"perplexity": 5.0}, {"perplexity": 8.0}, DISTINCT),
    ({"perplexity": 8.0}, {"perplexity": 20.0}, DISTINCT),
    ({"n_iter": 40}, {"n_iter": 41}, DISTINCT),
    ({"metric": "pearson"}, {"metric": "euclidean"}, DISTINCT),
    ({"feature_kind": FeatureKind.MEAN_DAY}, {"feature_kind": FeatureKind.MEAN_WEEK}, DISTINCT),
    ({"tsne_method": "exact"}, {"tsne_method": "bh"}, DISTINCT),
    ({"theta": 0.3, "tsne_method": "bh"}, {"theta": 0.7, "tsne_method": "bh"}, DISTINCT),
    ({"seed": 1, "tsne_method": "landmark", "n_landmarks": 12},
     {"seed": 2, "tsne_method": "landmark", "n_landmarks": 12}, DISTINCT),
    ({"tsne_method": "landmark", "n_landmarks": 8},
     {"tsne_method": "landmark", "n_landmarks": 12}, DISTINCT),
    ({"tsne_method": "landmark", "n_landmarks": N - 1},
     {"tsne_method": "landmark", "n_landmarks": N}, DISTINCT),
    ({"theta": 0.3, "tsne_method": "landmark", "n_landmarks": 20},
     {"theta": 0.7, "tsne_method": "landmark", "n_landmarks": 20}, DISTINCT),
    ({"method": "mds"}, {"method": "mds_classical"}, DISTINCT),
    ({"method": "mds", "metric": "pearson"}, {"method": "mds", "metric": "euclidean"},
     DISTINCT),
    # One ceiling refuses the 40-row DTW run, the other admits it.
    ({**DAY, "method": "mds_classical", "metric": "dtw", "dtw_max_rows": 8},
     {**DAY, "method": "mds_classical", "metric": "dtw"}, DISTINCT),
    # Landmark selection covers every row once n_landmarks >= n, so the
    # seed stops mattering — unless feature rows repeat, which the key
    # cannot see.
    ({"seed": 1, "tsne_method": "landmark"}, {"seed": 2, "tsne_method": "landmark"},
     CONSERVATIVE),
    # Landmark perplexity clamps against the sampled landmark count.
    ({"perplexity": 20.0, "tsne_method": "landmark", "n_landmarks": 12},
     {"perplexity": 30.0, "tsne_method": "landmark", "n_landmarks": 12}, CONSERVATIVE),
    # Two DTW ceilings that both admit the run: the ceiling is keyed as
    # given, since it decides admission.
    ({**DAY, "method": "mds_classical", "metric": "dtw", "dtw_max_rows": 100},
     {**DAY, "method": "mds_classical", "metric": "dtw", "dtw_max_rows": 200},
     CONSERVATIVE),
]


def _ids(pairs):
    def label(options):
        return ",".join(f"{k}={getattr(v, 'value', v)}" for k, v in options.items())

    return [f"{label(a)}-vs-{label(b)}" for a, b, _ in pairs]


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(n_customers=N, n_days=7, seed=29))


def _options(extra: dict) -> dict:
    return {**BASE, **extra}


def _output(city, options: dict) -> bytes:
    """What a fresh session answers for ``options``: coordinates plus
    objective, or the error message."""
    session = VapSession.from_city(city, metrics=MetricsRegistry(), breakers={})
    with faults.disarmed():
        try:
            info = session.embed(**_options(options))
        except ValueError as exc:
            return str(exc).encode()
    return info.coords.tobytes() + repr(info.objective).encode()


def _embed(session: VapSession, options: dict):
    """``session.embed``, retrying injected kernel faults (the failed
    leader must leave the key uncached, so a retry recomputes)."""
    for _ in range(50):
        try:
            return session.embed(**_options(options))
        except faults.InjectedFault:
            continue
    pytest.fail("embed kept faulting")


def _shares(city, a: dict, b: dict) -> bool:
    session = VapSession.from_city(city, metrics=MetricsRegistry(), breakers={})
    try:
        first = _embed(session, a)
    except ValueError:
        return False
    try:
        return _embed(session, b) is first
    except ValueError:
        return False


@pytest.mark.parametrize("a, b, expected", PAIRS, ids=_ids(PAIRS))
def test_sharing_iff_byte_identical(city, a, b, expected):
    identical = _output(city, a) == _output(city, b)
    shared = _shares(city, a, b)
    assert not shared or identical, "a shared key served different outputs"
    assert (identical, shared) == {
        SHARED: (True, True),
        DISTINCT: (False, False),
        CONSERVATIVE: (True, False),
    }[expected]


def test_auto_resolves_like_the_kernel_at_the_threshold(city, monkeypatch):
    """``auto`` is Barnes–Hut from ``BH_THRESHOLD`` rows up, for the key
    and the kernel alike; lowering the threshold below this city's size
    shows it with small runs."""
    assert resolve_engine("auto", BH_THRESHOLD - 1) == "exact"
    assert resolve_engine("auto", BH_THRESHOLD) == "bh"
    assert resolve_engine("auto", BH_THRESHOLD, n_components=3) == "exact"
    for engine in ("exact", "bh", "landmark"):
        assert resolve_engine(engine, 10) == engine
    auto, bh = EmbedParams(tsne_method="auto"), EmbedParams(tsne_method="bh")
    assert auto.key(BH_THRESHOLD) == bh.key(BH_THRESHOLD)
    assert auto.key(BH_THRESHOLD - 1) != bh.key(BH_THRESHOLD - 1)

    tsne_module = importlib.import_module("repro.core.reduction.tsne")
    monkeypatch.setattr(tsne_module, "BH_THRESHOLD", N)
    shared = {"tsne_method": "auto"}, {"tsne_method": "bh"}
    assert _output(city, shared[0]) == _output(city, shared[1])
    assert _shares(city, *shared)
    theta = {"theta": 0.3}, {"theta": 0.7}
    assert _output(city, theta[0]) != _output(city, theta[1])
    assert not _shares(city, *theta)


def test_key_clamps_perplexity_like_the_kernel():
    # The inert-option table's n=250 rows, at the key level.
    assert clamp_perplexity(90.0, 250) == clamp_perplexity(120.0, 250) == 83.0
    assert EmbedParams(perplexity=90.0).key(250) == EmbedParams(perplexity=120.0).key(250)
    assert EmbedParams(perplexity=20.0).key(250) != EmbedParams(perplexity=30.0).key(250)
    for method in ("exact", "bh"):
        assert (EmbedParams(seed=1, tsne_method=method).key(250)
                == EmbedParams(seed=2, tsne_method=method).key(250))
    assert (EmbedParams(seed=1, tsne_method="landmark", n_landmarks=64).key(250)
            != EmbedParams(seed=2, tsne_method="landmark", n_landmarks=64).key(250))


# ----------------------------------------------------------------------
# Validation runs before the cache lookup
# ----------------------------------------------------------------------
BAD = [
    ("theta=2", "theta"),
    ("dtw_max_rows=0", "dtw_max_rows"),
    ("tsne_method=nope", "tsne_method"),
    ("perplexity=0.5", "perplexity"),
    ("n_landmarks=1", "n_landmarks"),
    ("n_iter=0", "n_iter"),
    ("seed=-1", "seed"),
    ("metric=cosine", "metric"),
    ("method=umap", "method"),
    ("method=mds&theta=2", "theta"),
    ("method=mds&n_landmarks=1", "n_landmarks"),
]


@pytest.fixture(scope="module")
def warm_app(city, tmp_path_factory):
    """An app whose default embedding is cached."""
    session = VapSession.from_city(city, metrics=MetricsRegistry(), breakers={})
    with faults.disarmed():
        session.embed()
    app = VapApp(session, jobs_root=str(tmp_path_factory.mktemp("jobs")))
    yield app
    app.jobs.shutdown()


@pytest.mark.parametrize("query, field", BAD)
def test_invalid_option_is_400_even_when_the_key_is_cached(warm_app, query, field):
    client = TestClient(warm_app)
    response = client.get(f"/api/embedding?{query}")
    assert response.status == 400
    assert field in response.json["error"]
    options = dict(pair.split("=") for pair in query.split("&"))
    submitted = client.post("/api/jobs", json={"kind": "embed", "params": options})
    assert submitted.status == 400
    assert field in submitted.json["error"]


def test_parse_reads_query_strings_and_json_values_alike():
    query = {"perplexity": "8", "n_iter": "60", "tsne_method": "bh", "workers": "2",
             "tenant": "ignored"}
    json_params = {"perplexity": 8, "n_iter": 60, "tsne_method": "bh", "workers": 2,
                   "n_landmarks": None}
    assert EmbedParams.parse(query) == EmbedParams.parse(json_params)
    assert EmbedParams.parse(query) == EmbedParams(perplexity=8.0, n_iter=60, tsne_method="bh")
    assert EmbedParams.parse({}) == EmbedParams()
    for params, message in (
        ({"n_iter": "6.5"}, "'n_iter' must be an integer"),
        ({"n_iter": 6.5}, "'n_iter' must be an integer"),
        ({"theta": "x"}, "'theta' must be a number"),
        ({"perplexity": "inf"}, "'perplexity' must be a finite number"),
    ):
        with pytest.raises(ValueError, match=message):
            EmbedParams.parse(params)


# ----------------------------------------------------------------------
# Under injected faults, through HTTP with the embed breaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _http_options(options: dict) -> dict:
    return {k: v for k, v in _options(options).items() if k != "feature_kind"}


def test_shared_entries_never_answer_another_body_unmarked(city):
    """Every pair through one breaker-guarded session under
    ``kernel.tsne`` faults (the CI plan, or the same plan armed here):
    each 200 (and each 400) is byte-equal to a fresh session's answer
    for that very request; everything else is a 503."""
    queries = []
    for a, b, _ in PAIRS:
        for options in (a, b):
            if "feature_kind" not in options:
                queries.append(urlencode(_http_options(options)))
    reference = {}
    for query in queries:
        fresh = VapSession.from_city(city, metrics=MetricsRegistry(), breakers={})
        with faults.disarmed():
            reference[query] = TestClient(VapApp(fresh)).get(f"/api/embedding?{query}")
    clock = FakeClock()
    breaker = CircuitBreaker(
        name="pipeline.embed", clock=clock, failure_threshold=0.25, min_calls=2
    )
    session = VapSession.from_city(
        city, metrics=MetricsRegistry(), breakers={"embed": breaker}
    )
    client = TestClient(VapApp(session))
    plan = (
        nullcontext()
        if faults.active_injector() is not None
        else faults.injected(faults.FaultPlan.parse("kernel.tsne=error:0.3", seed=42))
    )
    seen = {"exact": 0, "shed": 0}
    with plan:
        for step, query in enumerate(queries):
            response = client.get(f"/api/embedding?{query}")
            want = reference[query]
            if response.status == 503:
                seen["shed"] += 1
            else:
                assert response.status == want.status, query
                assert response.body == want.body, query
                seen["exact"] += 1
            if step % 3 == 2:
                clock.now += breaker.open_seconds
    assert seen["exact"] > 0, seen
