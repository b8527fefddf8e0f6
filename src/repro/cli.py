"""Command-line interface: ``python -m repro <command>``.

Six commands cover the tool's operational surface:

- ``generate`` — synthesise a city and write customers + readings CSVs;
- ``dashboard`` — build the composed Figure-3 HTML page from CSVs (or a
  freshly generated city when no input is given);
- ``quality`` — print the data-quality report for a readings CSV;
- ``sql`` — run a SQL SELECT against a customers CSV;
- ``stats`` — run a representative workload through the full stack and
  print the observability snapshot (metrics, slowest operations and,
  with ``--spans``, trace trees); ``--dashboard out.svg`` also writes
  the self-monitoring telemetry panel;
- ``serve`` — serve the REST API with the threaded WSGI server
  (``--threads``/``--max-inflight``/``--deadline-seconds`` control
  concurrency and backpressure, ``--fault-plan`` arms deterministic
  chaos injection, ``--profile-hz`` runs the continuous profiler; same
  as ``python -m repro.server``);
- ``jobs`` — drive a running server's async job API:
  ``submit <kind> --param k=v``, ``status <id>``, ``wait <id>
  [--artifact out]``, ``cancel <id>``;
- ``profile`` — stack-sample a representative in-process workload and
  write folded stacks or a flamegraph SVG;
- ``bench`` — time the fast kernels against their exact twins and write
  the machine-readable ``BENCH_PERF.json`` perf-trajectory document
  (``--quick`` for the CI smoke variant; also measures continuous-
  profiler overhead);
- ``rollup`` — rebuild or inspect the materialized rollup layer over a
  generated workload: ``rebuild`` forces a fresh derived-table build,
  ``status`` prints staleness (last-applied hour, lag vs the source)
  and maintenance counters; ``--ticks N`` streams N extra hours through
  the stream router first to demonstrate incremental maintenance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.loader import (
    load_customers,
    load_readings_wide,
    save_customers,
    save_readings_wide,
)
from repro.data.timeseries import HourWindow
from repro.db import EnergyDatabase
from repro.preprocess.quality import assess_quality
from repro.viz.dashboard import render_dashboard


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="VAP reproduction command line"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="synthesise a city to CSV")
    gen.add_argument("--customers", type=int, default=200)
    gen.add_argument("--days", type=int, default=90)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out-dir", type=Path, default=Path("."))

    dash = commands.add_parser("dashboard", help="render the Figure-3 page")
    dash.add_argument("--customers-csv", type=Path, default=None)
    dash.add_argument("--readings-csv", type=Path, default=None)
    dash.add_argument("--t1", type=int, nargs=2, default=(61, 63),
                      metavar=("START", "END"))
    dash.add_argument("--t2", type=int, nargs=2, default=(67, 69),
                      metavar=("START", "END"))
    dash.add_argument("--out", type=Path, default=Path("vap_dashboard.html"))
    dash.add_argument("--seed", type=int, default=7)

    quality = commands.add_parser("quality", help="data-quality report")
    quality.add_argument("readings_csv", type=Path)

    sql = commands.add_parser("sql", help="query a customers CSV with SQL")
    sql.add_argument("customers_csv", type=Path)
    sql.add_argument("query")

    stats = commands.add_parser(
        "stats", help="run a sample workload and print collected metrics"
    )
    stats.add_argument("--customers", type=int, default=60)
    stats.add_argument("--days", type=int, default=21)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--json", action="store_true", help="print the raw JSON snapshot"
    )
    stats.add_argument(
        "--spans", type=int, default=0, metavar="N",
        help="also print up to N recorded span trees",
    )
    stats.add_argument(
        "--dashboard", type=Path, default=None, metavar="OUT_SVG",
        help="also write the self-monitoring telemetry panel as SVG",
    )

    bench = commands.add_parser(
        "bench", help="benchmark fast kernels vs exact, write BENCH_PERF.json"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (same document shape)",
    )
    bench.add_argument(
        "--out", type=Path, default=Path("BENCH_PERF.json"),
        help="output path for the JSON document",
    )
    bench.add_argument(
        "--kernel", action="append", default=None, metavar="NAME",
        help="restrict to one kernel (repeatable): tsne/kde/perplexity/dtw",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--no-profiler", action="store_true",
        help="skip the continuous-profiler overhead measurement",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print the document to stdout instead of writing --out",
    )

    serve = commands.add_parser(
        "serve", help="serve the REST API (threaded WSGI server)"
    )
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--customers", type=int, default=200)
    serve.add_argument("--days", type=int, default=90)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--threads", type=int, default=8,
        help="worker threads handling requests concurrently",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="concurrent-request cap; excess requests get 503 + "
             "Retry-After (0 disables)",
    )
    serve.add_argument(
        "--deadline-seconds", type=float, default=None,
        help="per-request time budget for heavy kernel endpoints",
    )
    serve.add_argument(
        "--fault-plan", type=str, default=None, metavar="PLAN",
        help="arm a deterministic fault-injection plan (chaos demo): "
             "JSON file, inline JSON, or 'site=kind:rate' pairs",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's injection streams",
    )
    serve.add_argument(
        "--tenants", type=str, default=None, metavar="NAMES",
        help="comma-separated tenant ids, each with an isolated "
             "database; select per request via X-Tenant / tenant=",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="per-tenant request quota (429 beyond it; unset = unlimited)",
    )
    serve.add_argument(
        "--profile-hz", type=float, default=0.0, metavar="HZ",
        help="run the continuous stack-sampling profiler at this rate "
             "(0 disables; /api/profile burst-samples on demand)",
    )

    rollup = commands.add_parser(
        "rollup",
        help="rebuild or inspect the materialized rollup layer",
    )
    rollup.add_argument(
        "action", choices=("status", "rebuild"),
        help="'rebuild' forces a fresh derived-table build; 'status' "
             "builds lazily and reports staleness",
    )
    rollup.add_argument("--customers", type=int, default=60)
    rollup.add_argument("--days", type=int, default=21)
    rollup.add_argument("--seed", type=int, default=7)
    rollup.add_argument(
        "--ticks", type=int, default=0, metavar="N",
        help="after the build, stream N extra hourly ticks through the "
             "stream router so the rollups are maintained incrementally",
    )
    rollup.add_argument(
        "--json", action="store_true", help="print the raw status JSON"
    )

    jobs = commands.add_parser(
        "jobs", help="drive the async job API of a running server"
    )
    jobs.add_argument(
        "action", choices=("submit", "status", "wait", "cancel"),
        help="submit a job, poll one, block until it finishes, or cancel",
    )
    jobs.add_argument(
        "target", nargs="?", default=None,
        help="job kind for 'submit' (embed/render/export), job id otherwise",
    )
    jobs.add_argument(
        "--url", type=str, default="http://127.0.0.1:8765",
        help="base URL of the running server (default http://127.0.0.1:8765)",
    )
    jobs.add_argument(
        "--tenant", type=str, default=None,
        help="tenant to act as (X-Tenant header; server default when unset)",
    )
    jobs.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="job parameter for 'submit' (repeatable); values parse as "
             "JSON when possible, else stay strings",
    )
    jobs.add_argument(
        "--priority", type=int, default=0,
        help="submission priority (higher runs first; default 0)",
    )
    jobs.add_argument(
        "--timeout", type=float, default=600.0,
        help="'wait' gives up after this many seconds (default 600)",
    )
    jobs.add_argument(
        "--interval", type=float, default=0.5,
        help="'wait' polling interval in seconds (default 0.5)",
    )
    jobs.add_argument(
        "--artifact", type=Path, default=None, metavar="OUT",
        help="after a successful 'wait', download the artifact here",
    )

    profile = commands.add_parser(
        "profile", help="stack-sample a workload, write folded stacks or SVG"
    )
    profile.add_argument("--seconds", type=float, default=5.0,
                         help="how long to sample (default 5)")
    profile.add_argument("--hz", type=float, default=100.0,
                         help="samples per second (default 100)")
    profile.add_argument(
        "--out", type=Path, default=Path("profile.svg"),
        help="output path; .svg renders a flamegraph, anything else "
             "writes folded-stack text",
    )
    profile.add_argument("--customers", type=int, default=60)
    profile.add_argument("--days", type=int, default=21)
    profile.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    city = generate_city(
        CityConfig(n_customers=args.customers, n_days=args.days, seed=args.seed)
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    customers_path = args.out_dir / "customers.csv"
    readings_path = args.out_dir / "readings.csv"
    save_customers(city.customers, customers_path)
    save_readings_wide(city.raw, readings_path)
    print(
        f"wrote {len(city.customers)} customers to {customers_path} and "
        f"{city.raw.n_steps} hourly readings each to {readings_path}"
    )
    return 0


def _load_or_generate(args: argparse.Namespace):
    if (args.customers_csv is None) != (args.readings_csv is None):
        raise SystemExit(
            "pass both --customers-csv and --readings-csv, or neither"
        )
    if args.customers_csv is None:
        city = generate_city(CityConfig(seed=args.seed))
        session = VapSession.from_city(city)
        return session, city.layout, city.archetype_labels()
    customers = load_customers(args.customers_csv)
    readings = load_readings_wide(args.readings_csv)
    session = VapSession(EnergyDatabase(customers, readings))
    return session, None, None


def _cmd_dashboard(args: argparse.Namespace) -> int:
    session, layout, labels = _load_or_generate(args)
    html_text = render_dashboard(
        session,
        HourWindow(*args.t1),
        HourWindow(*args.t2),
        labels=labels,
        layout=layout,
    )
    args.out.write_text(html_text)
    print(f"dashboard written to {args.out}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    readings = load_readings_wide(args.readings_csv)
    record = assess_quality(readings).to_record()
    width = max(len(k) for k in record)
    for key, value in record.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.db.sql import SqlError, execute_sql
    from repro.db.table import Table
    from repro.db.engine import CUSTOMER_SCHEMA

    customers = load_customers(args.customers_csv)
    table = Table("customers", CUSTOMER_SCHEMA)
    table.insert_columns(
        {
            "customer_id": [c.customer_id for c in customers],
            "lon": [c.lon for c in customers],
            "lat": [c.lat for c in customers],
            "zone": [c.zone.value for c in customers],
            "archetype": [c.archetype.value for c in customers],
        }
    )
    try:
        rows = execute_sql({"customers": table}, args.query)
    except SqlError as exc:
        print(f"SQL error: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("(no rows)")
        return 0
    headers = list(rows[0])
    print("\t".join(headers))
    for row in rows:
        print("\t".join(str(row[h]) for h in headers))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Exercise the full stack once and print what the obs layer saw."""
    from repro import obs
    from repro.server import TestClient, VapApp

    registry = obs.MetricsRegistry()
    sink = obs.RingBufferSink(capacity=64)
    window_store = obs.TimeWindowStore()
    slow_log = obs.SlowOpLog()
    previous_registry, previous_tracer = obs.get_registry(), obs.get_tracer()
    previous_window, previous_slow = obs.get_window_store(), obs.get_slow_log()
    obs.configure(
        registry=registry, sink=sink, window_store=window_store,
        slow_log=slow_log,
    )
    try:
        city = generate_city(
            CityConfig(n_customers=args.customers, n_days=args.days,
                       seed=args.seed)
        )
        session = VapSession.from_city(city)
        client = TestClient(VapApp(session, layout=city.layout))
        day = min(2, args.days - 1) * 24
        for url in (
            "/api/health",
            "/api/embedding?n_iter=100",
            "/api/embedding?n_iter=100",  # second call exercises the cache
            f"/api/shift?t1_start={day + 13}&t1_end={day + 15}"
            f"&t2_start={day + 19}&t2_end={day + 21}",
            "/api/kmeans?k=4",
        ):
            response = client.get(url)
            if not response.ok:
                print(f"workload request {url} failed: {response.json}",
                      file=sys.stderr)
                return 1
        if args.dashboard is not None:
            panel = client.get("/api/telemetry?format=svg")
            if not panel.ok:
                print(f"telemetry panel failed: {panel.json}", file=sys.stderr)
                return 1
            args.dashboard.write_bytes(panel.body)
            print(f"telemetry dashboard written to {args.dashboard}")
    finally:
        # Leave the process-wide defaults as we found them (tests call
        # this in-process).
        obs.configure(
            registry=previous_registry, tracer=previous_tracer,
            window_store=previous_window, slow_log=previous_slow,
        )

    if args.json:
        from repro.server import json_codec

        snapshot = registry.snapshot()
        snapshot["slow_ops"] = slow_log.records()
        snapshot["windows"] = window_store.snapshot()
        if args.spans:
            snapshot["spans"] = [
                r.to_record() for r in sink.records()[-args.spans:]
            ]
        print(json_codec.dumps(snapshot))
        return 0

    snapshot = registry.snapshot()
    print(f"workload: {args.customers} customers x {args.days} days "
          f"(seed {args.seed})\n")
    print("counters")
    for record in snapshot["counters"]:
        labels = " ".join(f"{k}={v}" for k, v in record["labels"].items())
        print(f"  {record['name']:<28}{record['value']:>10.0f}  {labels}")
    print("\ngauges")
    for record in snapshot["gauges"]:
        labels = " ".join(f"{k}={v}" for k, v in record["labels"].items())
        print(f"  {record['name']:<28}{record['value']:>10.4g}  {labels}")
    print("\nhistograms (count / p50 / p99, seconds)")
    for record in snapshot["histograms"]:
        labels = " ".join(f"{k}={v}" for k, v in record["labels"].items())
        print(
            f"  {record['name']:<28}{record['count']:>6d}"
            f"{record['p50']:>10.4g}{record['p99']:>10.4g}  {labels}"
        )
    slow = slow_log.records()[:5]
    if slow:
        print("\nslowest operations (with request IDs)")
        for record in slow:
            rid = record.get("request_id") or "-"
            print(
                f"  {record['duration_ms']:>9.1f} ms  "
                f"{record['name']:<20} req={rid}"
            )
    if args.spans:
        print("\nspan trees (most recent last)")
        for root in sink.records()[-args.spans:]:
            print("\n".join(root.format_tree(indent=1)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time fast kernels vs exact twins; write the perf-trajectory JSON."""
    import json as json_mod

    from repro.bench import run_bench, write_bench

    document = run_bench(
        quick=args.quick, kernels=args.kernel, seed=args.seed,
        profiler=not args.no_profiler,
    )
    if args.json:
        # Machine-readable mode (CI comparator): document on stdout,
        # nothing written to disk.
        print(json_mod.dumps(document, indent=2))
        return 0
    write_bench(args.out, document)
    print(f"{'kernel':<12}{'n':>8}{'exact s':>10}{'fast s':>10}{'speedup':>9}")
    for kernel, payload in document["kernels"].items():
        for run in payload["runs"]:
            size = run.get("n", run.get("length", "?"))
            exact = run.get("exact_seconds")
            speedup = run.get("speedup")
            print(
                f"{kernel:<12}{size:>8}"
                + (f"{exact:>10.3f}" if exact is not None else f"{'-':>10}")
                + f"{run['fast_seconds']:>10.3f}"
                + (
                    f"{speedup:>8.1f}x" if speedup is not None
                    else f"{'-':>9}"
                )
            )
    prof = document.get("profiler")
    if prof is not None:
        print(
            f"profiler overhead @ {prof['hz']:g} hz: "
            f"{prof['baseline_ops_per_s']:.1f} -> "
            f"{prof['profiled_ops_per_s']:.1f} ops/s "
            f"({prof['overhead_pct']:.1f}% cost, {prof['samples']} samples)"
        )
    print(f"perf document written to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Sample a representative workload and write the profile."""
    import threading

    from repro.obs.profiler import StackProfiler, render_folded

    city = generate_city(
        CityConfig(n_customers=args.customers, n_days=args.days,
                   seed=args.seed)
    )
    session = VapSession.from_city(city)
    profiler = StackProfiler(hz=args.hz)
    profiler.start()
    stop = threading.Event()

    def workload() -> None:
        # Loop the heavy endpoints until the sampling window closes so
        # the profile actually contains kernel frames, not idle waits.
        # A new n_iter each round is a new embedding (a new seed would
        # be a cache hit: exact t-SNE with PCA init never reads it).
        seed = 0
        while not stop.is_set():
            session.embed(n_iter=50 + seed)
            session.kmeans_baseline(k=4, seed=seed)
            seed += 1

    worker = threading.Thread(target=workload, daemon=True)
    worker.start()
    try:
        counts = profiler.collect(args.seconds)
    finally:
        stop.set()
        worker.join(timeout=10.0)
        profiler.stop()
    total = sum(counts.values())
    if args.out.suffix.lower() == ".svg":
        from repro.viz.flamegraph import render_flamegraph

        args.out.write_text(render_flamegraph(
            counts, title=f"repro profile ({args.seconds:g}s @ {args.hz:g}hz)"
        ))
    else:
        args.out.write_text(render_folded(counts))
    print(
        f"profiled {args.seconds:g}s at {args.hz:g} hz: {total} samples, "
        f"{len(counts)} distinct stacks -> {args.out}"
    )
    return 0


def _cmd_rollup(args: argparse.Namespace) -> int:
    """Build/inspect the rollup layer over a generated workload."""
    import time

    from repro.stream.feed import ReplayFeed
    from repro.stream.routing import ShardRouter

    hold = max(args.ticks, 0)
    extra_days = (hold + 23) // 24
    city = generate_city(
        CityConfig(
            n_customers=args.customers,
            n_days=args.days + extra_days,
            seed=args.seed,
        )
    )
    series = city.raw
    head_end = series.start_hour + args.days * 24
    head = series.slice_hours(series.start_hour, head_end)
    db = EnergyDatabase(city.customers, head)
    session = VapSession(db, preprocess=False)
    start = time.perf_counter()
    store = session.rollups(rebuild=args.action == "rebuild")
    build_seconds = time.perf_counter() - start
    if hold:
        tail = series.slice_hours(head_end, head_end + hold)
        router = ShardRouter(
            db, [int(cid) for cid in tail.customer_ids], rollups=store
        )
        router.replay(ReplayFeed(tail, retry=None))
    status = session.rollup_status()["status"]

    if args.json:
        from repro.server import json_codec

        print(json_codec.dumps(status))
        return 0

    print(
        f"rollup store: {status['n_customers']} customers, "
        f"bandwidth {status['bandwidth_m']:.1f} m "
        f"(built in {build_seconds * 1000.0:.1f} ms)"
    )
    print(
        f"  applied through hour {status['last_applied_hour']} "
        f"(source end {status['source_end_hour']}, "
        f"lag {status['lag_hours']} h)"
    )
    print(
        f"  rebuilds {status['rebuilds_total']}, "
        f"hours applied {status['hours_applied_total']}, "
        f"grids built/added/refolded "
        f"{status['grid_builds_total']}/"
        f"{status['grid_adds_total']}/"
        f"{status['grid_refolds_total']} "
        f"(refold every {status['refold_every']} h)"
    )
    print(f"\n{'resolution':<14}{'buckets':>9}{'grids cached':>14}")
    for table in status["tables"]:
        print(
            f"{table['resolution']:<14}{table['n_buckets']:>9}"
            f"{table['grids_cached']:>14}"
        )
    return 0


def _jobs_http(
    method: str,
    url: str,
    tenant: str | None,
    body: dict | None = None,
) -> tuple[int, dict, bytes, dict[str, str]]:
    """One HTTP round trip to the jobs API; returns (status, json-or-{},
    raw body, headers).  4xx/5xx are returned, not raised, so callers
    can print the server's error document."""
    import json as json_mod
    import urllib.error
    import urllib.request

    data = None if body is None else json_mod.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if tenant is not None:
        request.add_header("X-Tenant", tenant)
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            raw = response.read()
            status = response.status
            headers = dict(response.headers.items())
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        status = exc.code
        headers = dict(exc.headers.items())
    try:
        payload = json_mod.loads(raw)
    except ValueError:
        payload = {}
    return status, payload if isinstance(payload, dict) else {}, raw, headers


def _parse_job_params(pairs: list[str] | None) -> dict:
    """``KEY=VALUE`` pairs to a params dict; values parse as JSON when
    they can (so ``n_iter=500`` is an int) and stay strings otherwise."""
    import json as json_mod

    params: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param must be KEY=VALUE, got {pair!r}")
        try:
            params[key] = json_mod.loads(value)
        except ValueError:
            params[key] = value
    return params


def _print_job(record: dict) -> None:
    line = (
        f"job {record.get('job_id')}  kind={record.get('kind')}  "
        f"state={record.get('state')}  "
        f"progress={record.get('progress', 0.0):.1%}"
    )
    eta = record.get("eta_seconds")
    if eta is not None:
        line += f"  eta={eta:.1f}s"
    if record.get("message"):
        line += f"  ({record['message']})"
    print(line)
    if record.get("error"):
        print(f"  error: {record['error']}")
    artifact = record.get("artifact")
    if artifact:
        print(
            f"  artifact: {artifact['digest']} "
            f"({artifact['size']} bytes, {artifact['content_type']})"
        )


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Drive a running server's async job API over HTTP."""
    import time

    base = args.url.rstrip("/")
    if args.action == "submit":
        if args.target is None:
            raise SystemExit("jobs submit needs a kind (embed/render/export)")
        status, payload, _, _ = _jobs_http(
            "POST", f"{base}/api/jobs", args.tenant,
            body={
                "kind": args.target,
                "params": _parse_job_params(args.param),
                "priority": args.priority,
            },
        )
        if status != 202:
            print(f"submit failed ({status}): {payload.get('error', '?')}",
                  file=sys.stderr)
            return 1
        _print_job(payload)
        return 0

    if args.target is None:
        raise SystemExit(f"jobs {args.action} needs a job id")
    job_url = f"{base}/api/jobs/{args.target}"

    if args.action == "cancel":
        status, payload, _, _ = _jobs_http("DELETE", job_url, args.tenant)
        if status != 200:
            print(f"cancel failed ({status}): {payload.get('error', '?')}",
                  file=sys.stderr)
            return 1
        _print_job(payload)
        return 0

    deadline = time.monotonic() + args.timeout
    while True:
        status, payload, _, _ = _jobs_http("GET", job_url, args.tenant)
        if status != 200:
            print(f"poll failed ({status}): {payload.get('error', '?')}",
                  file=sys.stderr)
            return 1
        _print_job(payload)
        if args.action == "status":
            return 0
        if payload.get("state") in ("succeeded", "failed", "cancelled"):
            break
        if time.monotonic() >= deadline:
            print(f"gave up after {args.timeout:g}s", file=sys.stderr)
            return 1
        time.sleep(args.interval)
    if payload.get("state") != "succeeded":
        return 1
    if args.artifact is not None:
        status, _, raw, headers = _jobs_http(
            "GET", f"{job_url}/artifact", args.tenant
        )
        if status != 200:
            print(f"artifact fetch failed ({status})", file=sys.stderr)
            return 1
        args.artifact.write_bytes(raw)
        print(
            f"artifact written to {args.artifact} "
            f"({len(raw)} bytes, {headers.get('Content-Type', '?')})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Delegate to the ``python -m repro.server`` entry point."""
    from repro.server.__main__ import main as server_main

    argv = [
        "--port", str(args.port),
        "--customers", str(args.customers),
        "--days", str(args.days),
        "--seed", str(args.seed),
        "--threads", str(args.threads),
        "--max-inflight", str(args.max_inflight),
    ]
    if args.deadline_seconds is not None:
        argv += ["--deadline-seconds", str(args.deadline_seconds)]
    if args.fault_plan is not None:
        argv += ["--fault-plan", args.fault_plan,
                 "--fault-seed", str(args.fault_seed)]
    if args.tenants is not None:
        argv += ["--tenants", args.tenants]
    if args.tenant_quota is not None:
        argv += ["--tenant-quota", str(args.tenant_quota)]
    if args.profile_hz:
        argv += ["--profile-hz", str(args.profile_hz)]
    server_main(argv)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "dashboard": _cmd_dashboard,
    "quality": _cmd_quality,
    "sql": _cmd_sql,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "jobs": _cmd_jobs,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "rollup": _cmd_rollup,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
