"""End-to-end benchmark of the VAP server over HTTP.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 17]
                                  [--seconds 15] [--trace [0|1]]
                                  [--json PATH]

For each workload (all four by default) it generates the city from the
seed, launches ``server.py`` in a child process, warms it up untimed,
drives it over a socket for ``--seconds`` and checks the answers.  It
prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace`` the per-layer metrics.  ``--json`` also
writes the full result documents that ``compare.py`` reads.

Exit codes: 0 when every check passed, 1 when one failed (the result is
still printed), 2 when the program could not be run at all (no result).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from harness import beyond, eligible, percentile  # noqa: E402

SETUP_LAUNCHES = 3
DEFAULT_SECONDS = 15
# An open-loop run whose writer was later than this at p90 measured the
# load generator, not the server.
MAX_LATENESS_MS = 10.0

# The end-to-end metrics and their units; bounds live in BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass
class Phase:
    """One server launch driven through warm-up, measurement and checks."""

    run: object
    checks: list
    warmup_s: float
    peak_rss_mb: float
    counters: tuple[dict, dict]
    trace: dict
    profiler_samples: int


def drive(workload, server, city, seed: int, seconds: float) -> Phase:
    from loadgen import Client
    from workloads import Check

    client = Client(server.port)
    t0 = time.perf_counter()
    ctx = workload.warm_up(client, city, seed)
    warmup_s = time.perf_counter() - t0
    before = json.loads(client.get("/api/metrics?spans=0"))
    start_trace = json.loads(client.get("/_bench/trace"))
    run = workload.measure(client, ctx, seed, seconds)
    trace = json.loads(client.get("/_bench/trace"))
    after = json.loads(client.get("/api/metrics?spans=0"))
    rss = server.peak_rss_mb()
    failed = sum(not s.ok for s in run.samples)
    checks = [Check("all responses 2xx", failed == 0,
                    f"{len(run.samples) - failed}/{len(run.samples)}")]
    checks += workload.check(client, city, ctx, run)
    return Phase(
        run=run,
        checks=checks,
        warmup_s=warmup_s,
        peak_rss_mb=rss,
        counters=(before, after),
        trace=trace,
        profiler_samples=trace["profiler_samples"] - start_trace["profiler_samples"],
    )


def measured(workload, city, payload, seed, seconds, flags, launches=1):
    """Launch ``launches`` servers in turn (timing each start) and drive
    the last; returns ``(phase, setup times)``."""
    from loadgen import ServerProcess

    setups = []
    server = None
    try:
        for _ in range(launches):
            if server is not None:
                server.stop()
            server = ServerProcess(payload, flags, OUT / "jobs")
            setups.append(server.start())
        return drive(workload, server, city, seed, seconds), setups
    finally:
        if server is not None:
            server.stop()


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.4g}"


def e2e_metrics(phase: Phase, setups: list[float]) -> dict[str, float]:
    run = phase.run
    ok = sum(s.ok for s in run.samples)
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": ok / run.makespan_s,
        "latency_p50_ms": percentile(run.latency_ms, 50),
        "latency_p90_ms": percentile(run.latency_ms, 90),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def print_e2e(name: str, phase: Phase, metrics: dict, setups: list[float]) -> None:
    run = phase.run
    n = len(run.latency_ms)
    failed = sum(not s.ok for s in run.samples)
    print(f"  {'setup_s':<22}{_fmt(metrics['setup_s']):>12} s     "
          f"median of {len(setups)} launches: "
          + " ".join(f"{s:.3f}" for s in setups))
    print(f"  {'warmup_s':<22}{_fmt(phase.warmup_s):>12} s     untimed")
    print(f"  {'throughput_rps':<22}{_fmt(metrics['throughput_rps']):>12} 1/s   "
          f"{len(run.samples) - failed} requests in {run.makespan_s:.2f} s")
    what = "tick-to-view" if name == "s2_live" else "request latency"
    for pct in (50, 90, 99):
        value = percentile(run.latency_ms, pct)
        note = f"{what}, n={n}, {beyond(n, pct)} beyond"
        if not eligible(n, pct):
            note += " (fewer than 10 beyond: indicative only)"
        print(f"  {'latency_p%d_ms' % pct:<22}{_fmt(value):>12} ms    {note}")
    for key, (value, unit) in run.extra.items():
        print(f"  {key:<22}{_fmt(value):>12} {unit}")
    if run.lateness_ms:
        late = percentile(run.lateness_ms, 90)
        print(f"  {'lateness_p90_ms':<22}{_fmt(late):>12} ms    writer sends after their due time"
              + ("  INVALID open-loop run (> 10 ms)" if late > MAX_LATENESS_MS else ""))
    rate = failed / len(run.samples) if run.samples else 0.0
    print(f"  {'error_rate':<22}{_fmt(rate):>12}       {failed}/{len(run.samples)} failed")
    print(f"  {'peak_rss_mb':<22}{_fmt(metrics['peak_rss_mb']):>12} MiB   server VmHWM")


def print_checks(phases: dict[str, Phase]) -> bool:
    ok = True
    for label, phase in phases.items():
        for check in phase.checks:
            ok &= check.ok
            print(f"  check {'ok  ' if check.ok else 'FAIL'} {label}{check.name}: "
                  f"{check.detail}")
    return ok


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    city = workload.city(seed)
    payload = workload.payload(city)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  why: {workload.why}")
    if not trace:
        phase, setups = measured(workload, city, payload, seed, seconds, [],
                                 launches=SETUP_LAUNCHES)
        phases = {"": phase}
        values = e2e_metrics(phase, setups)
        units = E2E_UNITS
        print_e2e(name, phase, values, setups)
    else:
        import layers

        plain, _ = measured(workload, city, payload, seed, seconds, [])
        traced, _ = measured(workload, city, payload, seed, seconds, ["--trace"])
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}_spans.json").write_text(json.dumps(traced.trace))
        profiled, _ = measured(workload, city, payload, seed, seconds,
                               ["--profile-hz", "100"])
        phases = {"untraced: ": plain, "traced: ": traced, "profiled: ": profiled}
        values = layers.per_layer(traced, plain, profiled)
        units = layers.metric_units()
        for key in units:
            print(f"  {key:<34}{_fmt(values[key]):>14} {units[key]}")
        print(f"  attributed {values['trace.attributed_ms']:.4f} + residual "
              f"{values['trace.residual_ms']:.4f} = client "
              f"{values['trace.client_ms']:.4f} ms per request "
              f"({values['obs.trace_requests']:.0f} traced requests)")
    correct = print_checks(phases)
    attempted = sum(len(p.run.samples) for p in phases.values())
    failed = sum(not s.ok for p in phases.values() for s in p.run.samples)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": _finite(values[key]), "unit": units[key]} for key in units
        },
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for p in phases.values() for c in p.checks
        ],
    }


def _finite(value: float) -> float | None:
    # JSON has no infinity: a percentile that reached a failed request
    # is written as null (the run is then not correct anyway).
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="s1_brush, s1_embed, s2_map or s2_live (repeatable; "
                             "default: all four)")
    parser.add_argument("--seed", type=int, default=17,
                        help="seeds the city and every request script "
                             "(taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 reports the per-layer metrics of traced, "
                             "untraced and profiled runs instead")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result documents here")
    args = parser.parse_args(argv)
    # A plain SIGTERM would skip the ``finally`` blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        import repro  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; pick from {list(WORKLOADS)}")

    seed = args.seed % 2**32
    docs = []
    try:
        for name in names:
            docs.append(run_workload(name, seed, args.seconds, bool(args.trace)))
    except RuntimeError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(docs, indent=1) + "\n")
    for doc in docs:
        print(json.dumps({key: doc[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(doc["correct"] for doc in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
