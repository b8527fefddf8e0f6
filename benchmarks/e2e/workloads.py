"""The four workloads: data, warm-up, request scripts and output checks.

The ``--seed`` draws the synthetic city (through ``generate_city``) and
every request's parameters; the server sees only the generated data and
the requests.  The *order* of request kinds follows a fixed schedule of
shuffled blocks, each holding the workload's exact mix: every seed then
exercises the same mix in the same order, and any prefix a run gets
through has nearly that mix.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from harness import from_due, percentile, tick_to_view
from loadgen import Client, Request, Sample, SharedScript, closed_loop, encode_payload


@dataclass
class Run:
    """What one measured phase produced.

    ``latency_ms`` holds the latency of the operation a user waits on —
    one request for the closed loops, tick-to-view for ``s2_live`` —
    with ``inf`` for a failed one.  ``extra`` holds further printed
    metrics as ``name -> (value, unit)``.
    """

    samples: list[Sample]
    latency_ms: list[float]
    makespan_s: float
    kept: list = field(default_factory=list)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    lateness_ms: list[float] = field(default_factory=list)
    state: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _request_latencies(samples: list[Sample]) -> list[float]:
    return [s.latency * 1000.0 if s.ok else math.inf for s in samples]


def _makespan(samples: list[Sample]) -> float:
    return max(s.end for s in samples) - min(s.start for s in samples)


def _closed_run(client: Client, scripts, seconds: float) -> Run:
    samples, kept = closed_loop(client, scripts, seconds)
    return Run(
        samples=samples,
        latency_ms=_request_latencies(samples),
        makespan_s=_makespan(samples),
        kept=kept,
    )


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _kinds(block: list[str], client: int, stream: int) -> Iterator[str]:
    """One client's request kinds: ``block`` reshuffled again and again
    by a generator that does not depend on the seed."""
    order = np.random.default_rng([stream, client])
    while True:
        kinds = list(block)
        order.shuffle(kinds)
        yield from kinds


class Workload:
    """One workload: its data set's size and three hooks run in order
    against a fresh server."""

    name = ""
    why = ""
    n_customers = 0
    n_days = 0

    def city(self, seed: int):
        from repro.data.generator.simulate import CityConfig, generate_city

        return generate_city(
            CityConfig(n_customers=self.n_customers, n_days=self.n_days, seed=seed)
        )

    def payload(self, city) -> bytes:
        # The server builds its session from ``raw``; ``clean`` (ground
        # truth) stays with the load generator.
        return encode_payload(_served(city, city.raw))

    def warm_up(self, client: Client, city, seed: int) -> dict:
        """Untimed: fill the caches the workload assumes warm; returns
        the context ``measure`` and ``check`` read."""
        raise NotImplementedError

    def measure(self, client: Client, ctx: dict, seed: int, seconds: float) -> Run:
        """The timed phase."""
        raise NotImplementedError

    def check(self, client: Client, city, ctx: dict, run: Run) -> list[Check]:
        """Compare the answers with what the load generator computes."""
        raise NotImplementedError


def _served(city, raw):
    """A copy of ``city`` whose readings are ``raw`` in both slots."""
    from repro.data.generator.simulate import CityDataset

    return CityDataset(
        config=city.config,
        layout=city.layout,
        customers=city.customers,
        clean=raw,
        raw=raw,
        temperature=city.temperature,
        calendar=city.calendar,
    )


# ----------------------------------------------------------------------
# S1: brush-and-link over a warm view C
# ----------------------------------------------------------------------
BRUSH_BLOCK = (
    ["rect"] * 10 + ["knn"] * 2 + ["embedding"] * 3 + ["readings"] * 4 + ["proposals"]
)
CHECKED_RECTS = 20


class S1Brush(Workload):
    name = "s1_brush"
    why = (
        "brush-and-link on a warm view C: cheap selection, drill-down and "
        "cache-hit requests, so serving and pattern code dominate and no kernel runs"
    )
    n_customers = 800
    n_days = 90

    def warm_up(self, client, city, seed):
        emb = json.loads(client.get("/api/embedding"))
        points = np.asarray(emb["points"], dtype=np.float64)
        lo, hi = points.min(axis=0), points.max(axis=0)
        client.post(
            "/api/selection",
            _json_body({"type": "rect", "x_min": float(lo[0]), "y_min": float(lo[1]),
                        "x_max": float(hi[0]), "y_max": float(hi[1])}),
        )
        client.get("/api/proposals")
        client.get(f"/api/customers/{emb['customer_ids'][0]}/readings")
        return {"points": points, "customer_ids": emb["customer_ids"]}

    def _script(self, client: int, seed: int, ctx, keep_rects: int) -> Iterator[Request]:
        rng = np.random.default_rng([seed, 1, client])
        points = ctx["points"]
        lo, hi = points.min(axis=0), points.max(axis=0)
        span = hi - lo
        ids = ctx["customer_ids"]
        kept = 0
        for kind in _kinds(BRUSH_BLOCK, client, 1):
            if kind == "rect":
                size = rng.uniform(0.05, 0.3, 2) * span
                corner = lo + rng.uniform(0.0, 1.0, 2) * (span - size)
                geom = {
                    "type": "rect",
                    "x_min": float(corner[0]),
                    "y_min": float(corner[1]),
                    "x_max": float(corner[0] + size[0]),
                    "y_max": float(corner[1] + size[1]),
                }
                keep = kept < keep_rects
                kept += keep
                yield Request("rect", "POST", "/api/selection",
                              _json_body(geom), key=geom, keep=keep)
            elif kind == "knn":
                x, y = lo + rng.uniform(0.0, 1.0, 2) * span
                body = {"type": "knn", "x": float(x), "y": float(y),
                        "k": int(rng.integers(5, 51))}
                yield Request("knn", "POST", "/api/selection", _json_body(body))
            elif kind == "embedding":
                yield Request("embedding", "GET", "/api/embedding")
            elif kind == "readings":
                cid = ids[int(rng.integers(0, len(ids)))]
                yield Request("readings", "GET", f"/api/customers/{cid}/readings")
            else:
                yield Request("proposals", "GET", "/api/proposals")

    def measure(self, client, ctx, seed, seconds):
        scripts = [
            self._script(i, seed, ctx, CHECKED_RECTS if i == 0 else 0)
            for i in range(2)
        ]
        return _closed_run(client, scripts, seconds)

    def check(self, client, city, ctx, run):
        points = ctx["points"]
        mismatched = 0
        for request, _, body in run.kept:
            g = request.key
            expected = np.flatnonzero(
                (points[:, 0] >= g["x_min"]) & (points[:, 0] <= g["x_max"])
                & (points[:, 1] >= g["y_min"]) & (points[:, 1] <= g["y_max"])
            ).tolist()
            if json.loads(body)["indices"] != expected:
                mismatched += 1
        ok = len(run.kept) == CHECKED_RECTS and mismatched == 0
        return [Check(
            "rect selections",
            ok,
            f"{len(run.kept) - mismatched}/{CHECKED_RECTS} recomputed index sets equal",
        )]


# ----------------------------------------------------------------------
# S1: never-seen embedding parameter sets (t-SNE + single-flight)
# ----------------------------------------------------------------------
PERPLEXITIES = (10, 20, 30, 50)
MIN_PAIRS = 4
MIN_RECALL = 0.80


def knn_label_recall(points: np.ndarray, labels: np.ndarray, k: int = 10) -> float:
    """Mean share of each point's ``k`` nearest neighbours (itself
    excluded) that carry its label."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argpartition(d2, k, axis=1)[:, :k]
    return float((labels[nearest] == labels[:, None]).mean())


class S1Embed(Workload):
    name = "s1_embed"
    why = (
        "never-seen t-SNE parameter sets, each requested twice back to back: "
        "nearly all time is core.reduction, and the repeat exercises single-flight"
    )
    # 250 customers keep one t-SNE near 0.3 s on a 2-core Xeon VM, so a
    # 15 s run holds about 100 requests: ten beyond the 90th percentile.
    n_customers = 250
    n_days = 90

    def warm_up(self, client, city, seed):
        # Features and code paths warm; seed 0 never recurs below.
        client.get("/api/embedding?seed=0")
        return {}

    @staticmethod
    def _sequence(seed: int) -> Iterator[Request]:
        base = int(np.random.default_rng([seed, 2]).integers(1, 2**31))
        for i in itertools.count():
            path = (f"/api/embedding?seed={base + i}"
                    f"&perplexity={PERPLEXITIES[i % len(PERPLEXITIES)]}")
            for _ in range(2):
                yield Request("embedding", "GET", path, key=i, keep=True)

    def measure(self, client, ctx, seed, seconds):
        shared = SharedScript(self._sequence(seed))
        return _closed_run(client, [shared, shared], seconds)

    def check(self, client, city, ctx, run):
        by_key: dict[int, list[bytes]] = {}
        for request, sample, body in run.kept:
            if sample.ok:
                by_key.setdefault(request.key, []).append(body)
        pairs = [bodies for bodies in by_key.values() if len(bodies) == 2]
        identical = sum(a == b for a, b in pairs)
        archetype = {c.customer_id: c.archetype.value for c in city.customers}
        recalls = []
        finite = True
        for bodies in by_key.values():
            emb = json.loads(bodies[0])
            points = np.asarray(emb["points"], dtype=np.float64)
            finite &= bool(np.isfinite(points).all())
            labels = np.array([archetype[int(cid)] for cid in emb["customer_ids"]])
            recalls.append(knn_label_recall(points, labels))
        return [
            Check(
                "pairs byte-identical",
                len(pairs) >= MIN_PAIRS and identical == len(pairs),
                f"{identical}/{len(pairs)} complete pairs identical",
            ),
            Check("points finite", finite, f"{len(by_key)} embeddings"),
            Check(
                "kNN(10) label recall",
                bool(recalls) and min(recalls) >= MIN_RECALL,
                f"min {min(recalls, default=0):.3f} mean "
                f"{np.mean(recalls) if recalls else 0:.3f} (need >= {MIN_RECALL})",
            ),
        ]


# ----------------------------------------------------------------------
# S2: the map view over stored history
# ----------------------------------------------------------------------
WINDOW_LENGTHS = (4, 24, 168)
WINDOWS_PER_LENGTH = 32
ZIPF_EXPONENT = 1.0
MAP_BLOCK = ["density"] * 16 + ["shift"] * 10 + ["quantile"] * 6 + ["granularity"]
CHECKED_DENSITIES = 5


def _shift_query(start: int, length: int) -> str:
    return (f"t1_start={start}&t1_end={start + length}"
            f"&t2_start={start + length}&t2_end={start + 2 * length}")


class S2Map(Workload):
    name = "s2_map"
    why = (
        "density, shift and sweeps over Zipf-drawn windows about 3x the density "
        "cache: KDE misses, db.demand, large JSON grids and rollup sweeps, no t-SNE"
    )
    n_customers = 1000
    n_days = 180

    def _windows(self, seed: int) -> list[tuple[int, int]]:
        """The seeded windows, most popular first; lengths alternate so
        every popularity band mixes 4 h, 24 h and 168 h."""
        rng = np.random.default_rng([seed, 3])
        n_hours = self.n_days * 24
        lengths = WINDOW_LENGTHS * WINDOWS_PER_LENGTH
        return [
            (int(rng.integers(0, n_hours - 2 * length + 1)), length)
            for length in lengths
        ]

    def warm_up(self, client, city, seed):
        windows = self._windows(seed)
        start, length = windows[0]
        client.get("/api/sweep/granularity")
        client.get(f"/api/sweep/quantile?{_shift_query(start, length)}")
        client.get(f"/api/shift?{_shift_query(start, length)}")
        return {"windows": windows}

    def _script(self, client: int, windows, keep_densities: int) -> Iterator[Request]:
        # Popularity ranks are drawn on a fixed schedule too, so every
        # seed has the same cache hit pattern; the seed decides where
        # each ranked window lies.
        ranks = np.random.default_rng([4, client, 1])
        weights = 1.0 / np.arange(1, len(windows) + 1) ** ZIPF_EXPONENT
        probs = weights / weights.sum()
        kept = 0
        for kind in _kinds(MAP_BLOCK, client, 4):
            start, length = windows[int(ranks.choice(len(windows), p=probs))]
            if kind == "density":
                keep = kept < keep_densities
                kept += keep
                yield Request(
                    "density", "GET",
                    f"/api/density?t_start={start}&t_end={start + length}",
                    key=(start, start + length), keep=keep,
                )
            elif kind == "shift":
                yield Request("shift", "GET", f"/api/shift?{_shift_query(start, length)}")
            elif kind == "quantile":
                yield Request("quantile", "GET",
                              f"/api/sweep/quantile?{_shift_query(start, length)}")
            else:
                yield Request("granularity", "GET", "/api/sweep/granularity")

    def measure(self, client, ctx, seed, seconds):
        windows = self._windows(seed)
        scripts = [
            self._script(i, windows, CHECKED_DENSITIES if i == 0 else 0)
            for i in range(2)
        ]
        return _closed_run(client, scripts, seconds)

    def check(self, client, city, ctx, run):
        from repro.core.shift.grids import GridSpec
        from repro.core.shift.kde import kde_density
        from repro.data.timeseries import HourWindow
        from repro.db.engine import EnergyDatabase

        db = EnergyDatabase(city.customers, city.raw)
        spec = GridSpec.covering(db.positions_of(db.customer_ids), nx=96, ny=96)
        worst = 0.0
        for request, _, body in run.kept:
            served = json.loads(body)
            positions, values = db.demand(HourWindow(*request.key))
            oracle = kde_density(positions, values, spec, method="exact").values
            got = np.asarray(served["values"], dtype=np.float64)
            if got.shape != oracle.shape:
                worst = math.inf
                continue
            worst = max(worst, float(np.abs(got - oracle).max() / np.abs(oracle).max()))
        start, length = ctx["windows"][0]
        query = f"/api/sweep/quantile?{_shift_query(start, length)}"
        rollup = json.loads(client.get(query))
        raw = json.loads(client.get(query + "&source=raw"))
        return [
            Check(
                "density vs exact KDE",
                len(run.kept) == CHECKED_DENSITIES and worst <= 1e-3,
                f"{len(run.kept)} grids, max error / max value {worst:.2e} (need <= 1e-3)",
            ),
            Check(
                "quantile sweep rollup vs raw",
                _close(rollup, raw, 1e-6),
                "equal within rtol 1e-6" if _close(rollup, raw, 1e-6) else "differ",
            ),
        ]


def _close(a, b, rtol: float) -> bool:
    """Structural equality with numbers compared at relative ``rtol``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a == b


# ----------------------------------------------------------------------
# S2: live replay — writes beside reads
# ----------------------------------------------------------------------
# Four ticks a second leave the refresh cycle (about 130 ms on a 2-core
# Xeon VM) headroom; at eight, slow phases of that VM pushed the cycle
# past the tick interval and tick-to-view spread 0.3-0.4 over ten seeds.
TICKS_PER_SECOND = 4.0
HISTORY_DAYS = 120
WARM_TICKS = 4


def _refresh(end: int) -> list[Request]:
    """The reader's view refresh for data up to hour ``end``."""
    windows = f"t1_start={end - 8}&t1_end={end - 4}&t2_start={end - 4}&t2_end={end}"
    return [
        Request("density", "GET", f"/api/density?t_start={end - 24}&t_end={end}"),
        Request("shift", "GET", f"/api/shift?{windows}"),
        Request("quantile", "GET", f"/api/sweep/quantile?{windows}"),
    ]


TICK = Request("tick", "POST", "/_bench/tick", b"")


class S2Live(Workload):
    name = "s2_live"
    why = (
        "open-loop replay ticks at 4/s beside a closed-loop reader refreshing the "
        "map: ingest copies and rollup catch-up inside reads; latency is tick-to-view"
    )
    n_customers = 1000
    n_days = HISTORY_DAYS + 30

    def payload(self, city) -> bytes:
        split = city.raw.start_hour + HISTORY_DAYS * 24
        history = city.raw.slice_hours(city.raw.start_hour, split)
        replay = city.raw.slice_hours(split, city.raw.end_hour)
        return encode_payload(_served(city, history), replay)

    def warm_up(self, client, city, seed):
        end = json.loads(client.get("/api/health"))["end_hour"]
        for req in _refresh(end):
            client.get(req.path)
        for _ in range(WARM_TICKS):
            end = json.loads(client.post(TICK.path, TICK.body))["end_hour"]
            for req in _refresh(end):
                client.get(req.path)
        return {"end_hour": end}

    def measure(self, client, ctx, seed, seconds):
        """The writer (one thread) sends tick ``k`` when it is due,
        whatever the server is doing.  The reader (this thread) refreshes
        the view back to back, each time for the newest hour a tick has
        landed, until a refresh has started after the last tick."""
        n_ticks = max(1, int(seconds * TICKS_PER_SECOND))
        t0 = time.perf_counter() + 0.05
        dues = [t0 + k / TICKS_PER_SECOND for k in range(n_ticks)]
        ticks: list[tuple[Sample, float, int | None]] = []
        samples: list[Sample] = []
        views: list[tuple[int, float]] = []
        landed = [(-1, ctx["end_hour"])]
        finished = threading.Event()

        def writer() -> None:
            try:
                for k, due in enumerate(dues):
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    sample, body = client.call(TICK)
                    end = json.loads(body)["end_hour"] if sample.ok else None
                    ticks.append((sample, sent, end))
                    samples.append(sample)
                    if end is not None:
                        landed[0] = (k, end)
            finally:
                finished.set()

        thread = threading.Thread(target=writer, name="loadgen-writer")
        thread.start()
        while True:
            last = finished.is_set()
            k, end = landed[0]
            for req in _refresh(end):
                sample, _ = client.call(req)
                samples.append(sample)
            views.append((k, time.perf_counter()))
            if last:
                break
        thread.join()

        freshness = tick_to_view(dues, views)
        latency = [x * 1000.0 for x in freshness]
        latency += [math.inf] * (n_ticks - len(latency))
        tick_ms = [
            x * 1000.0 if s.ok else math.inf
            for x, (s, _, _) in zip(from_due(dues, [s.end for s, _, _ in ticks]), ticks)
        ]
        reads = [s for s in samples if s.tag != "tick"]
        return Run(
            samples=samples,
            latency_ms=latency,
            makespan_s=views[-1][1] - t0,
            lateness_ms=[x * 1000.0 for x in from_due(dues, [sent for _, sent, _ in ticks])],
            extra={
                "tick_to_view_p50_ms": (percentile(latency, 50), "ms"),
                "tick_to_view_p90_ms": (percentile(latency, 90), "ms"),
                "tick_p50_ms": (percentile(tick_ms, 50), "ms"),
                "tick_p90_ms": (percentile(tick_ms, 90), "ms"),
                "read_p50_ms": (percentile(_request_latencies(reads), 50), "ms"),
            },
            state={"ends": [end for _, _, end in ticks], "start_end": ctx["end_hour"]},
        )

    def check(self, client, city, ctx, run):
        ends = run.state["ends"]
        first = run.state["start_end"] + 1
        rollups = json.loads(client.get("/api/rollups"))
        return [
            Check(
                "end_hour +1 per tick",
                ends == list(range(first, first + len(ends))),
                f"{len(ends)} ticks",
            ),
            Check(
                "rollups caught up",
                rollups.get("lag_hours") == 0,
                f"lag_hours {rollups.get('lag_hours')}",
            ),
        ]


WORKLOADS = {w.name: w for w in (S1Brush(), S1Embed(), S2Map(), S2Live())}
