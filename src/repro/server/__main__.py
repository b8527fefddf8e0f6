"""Serve the VAP API over HTTP with a threaded stdlib WSGI server.

Usage::

    python -m repro.server [--port 8765] [--customers 200] [--days 90]
                           [--threads 8] [--max-inflight 32]
                           [--deadline-seconds 30] [--profile-hz 100]
                           [--trace-capacity 256]

Generates a synthetic city (there is no bundled real data set) and serves
the REST API for it — the closest headless equivalent of the paper's demo
deployment.  Requests are handled by a bounded worker pool
(``--threads``); admission beyond ``--max-inflight`` concurrent requests
is shed with ``503`` + ``Retry-After``, and ``--deadline-seconds`` bounds
how long any single request may hold a worker on the heavy kernel paths.
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.server.app import VapApp
from repro.server.serving import make_threaded_server
from repro.tenancy import TenantQuota, TenantRegistry

# Module-level alias so tests (and embedders) can swap the server factory.
make_server = make_threaded_server


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--customers", type=int, default=200)
    parser.add_argument("--days", type=int, default=90)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--threads", type=int, default=8,
        help="worker threads handling requests concurrently (default 8)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=32,
        help="admit at most this many concurrent requests; the rest get "
             "503 + Retry-After (0 disables the cap; default 32)",
    )
    parser.add_argument(
        "--deadline-seconds", type=float, default=None,
        help="per-request time budget for the heavy kernel endpoints "
             "(unset = no deadline)",
    )
    parser.add_argument(
        "--fault-plan", type=str, default=None, metavar="PLAN",
        help="arm a deterministic fault-injection plan for chaos demos: "
             "a JSON file path, inline JSON, or compact "
             "'site=kind:rate[:seconds]' pairs (comma-separated); kinds "
             "are error/latency/truncate",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's injection streams (default 0)",
    )
    parser.add_argument(
        "--tenants", type=str, default=None, metavar="NAMES",
        help="comma-separated tenant ids; each gets its own isolated "
             "city/database/caches, selected per request via the "
             "X-Tenant header or tenant= parameter (the first listed "
             "tenant is the default)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="per-tenant request quota; beyond it requests get 429 "
             "(unset = unlimited)",
    )
    parser.add_argument(
        "--profile-hz", type=float, default=0.0, metavar="HZ",
        help="run the continuous stack-sampling profiler at this rate; "
             "0 disables it (GET /api/profile then burst-samples on "
             "demand)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=256, metavar="N",
        help="finished traces retained for GET /api/traces (default 256; "
             "0 disables tracing)",
    )
    parser.add_argument(
        "--jobs-root", type=str, default=None, metavar="DIR",
        help="directory for async-job artifacts and checkpoints "
             "(default: a throwaway temp directory)",
    )
    parser.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="worker threads for the async job service (default 2)",
    )
    args = parser.parse_args(argv)

    injector = None
    if args.fault_plan is not None:
        plan = FaultPlan.load(args.fault_plan, seed=args.fault_seed)
        injector = faults.install(plan)

    # Tracing is on by default for the served deployment: ids + trace
    # store for /api/traces, ring-buffer sink for /api/metrics spans.
    trace_store = None
    if args.trace_capacity > 0:
        trace_store = obs.TraceStore(max_traces=args.trace_capacity)
        obs.configure(sink=obs.RingBufferSink(), trace_store=trace_store)
    profiler = None
    if args.profile_hz > 0:
        profiler = obs.StackProfiler(hz=args.profile_hz)
        profiler.start()

    city = generate_city(
        CityConfig(n_customers=args.customers, n_days=args.days, seed=args.seed)
    )
    tenants = None
    if args.tenants:
        quota = (
            TenantQuota(max_requests=args.tenant_quota)
            if args.tenant_quota is not None
            else None
        )
        names = [name.strip() for name in args.tenants.split(",") if name.strip()]
        tenants = TenantRegistry(default_tenant=names[0])
        for offset, name in enumerate(names):
            # Distinct seeds per tenant: isolation is visible, not just
            # asserted.
            tenant_city = city if offset == 0 else generate_city(
                CityConfig(
                    n_customers=args.customers, n_days=args.days,
                    seed=args.seed + offset,
                )
            )
            tenants.create_from_city(name, tenant_city, quota=quota)
        session = None
    else:
        session = VapSession.from_city(city)
    app = VapApp(
        session,
        layout=city.layout,
        max_inflight=args.max_inflight if args.max_inflight > 0 else None,
        deadline_seconds=args.deadline_seconds,
        tenants=tenants,
        profiler=profiler,
        jobs_root=args.jobs_root,
        job_workers=args.job_workers,
    )
    with make_server("127.0.0.1", args.port, app, threads=args.threads) as server:
        base = f"http://127.0.0.1:{args.port}"
        print(
            f"VAP API listening on {base}/api/health "
            f"({args.threads} worker threads, "
            f"max {args.max_inflight or 'unbounded'} in flight)"
        )
        print(f"  metrics:   {base}/api/metrics  (?format=prometheus)")
        print(f"  telemetry: {base}/api/telemetry  (?format=svg)")
        if trace_store is not None:
            print(f"  traces:    {base}/api/traces  (/api/traces/<id>)")
        print(
            f"  profile:   {base}/api/profile  (?seconds=N&format=svg)"
            + (f"  [continuous @ {args.profile_hz:g} hz]" if profiler else "")
        )
        print(
            f"  jobs:      {base}/api/jobs  "
            f"({args.job_workers} job workers; POST to submit)"
        )
        if tenants is not None:
            print(
                f"  tenants:   {', '.join(tenants.names())} "
                f"(select with X-Tenant header or tenant= param)"
            )
        if injector is not None:
            sites = ", ".join(
                f"{s.site}={s.kind}:{s.rate}" for s in injector.plan.specs
            )
            print(
                f"  chaos:     fault plan armed (seed "
                f"{injector.plan.seed}): {sites}"
            )
        server.serve_forever()


if __name__ == "__main__":
    main()
