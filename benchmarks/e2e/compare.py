"""Compare two sets of end-to-end benchmark results.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json... -- B.json...

Each file is one written by ``run.py --json PATH``.  For every workload
and every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, the change of B's median against A's, the wider
side's quartile spread, the metric's bound and a verdict:

- ``regression``: B's median is worse than A's by more than the bound;
- ``unresolved``: a side's quartile spread exceeds the bound, unless
  every B run beats every A run;
- ``failed``: a B run has no value for the metric (a failed run);
- ``ok`` otherwise.

Exits 1 when any verdict is not ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

from harness import quartiles, relative_spread, verdict, worse_by  # noqa: E402


def load(paths: list[str]) -> dict[tuple[str, str], list[float | None]]:
    """``(workload, metric) -> values`` over the untraced documents."""
    values: dict[tuple[str, str], list[float | None]] = {}
    for path in paths:
        for doc in json.loads(Path(path).read_text()):
            if doc.get("trace"):
                continue
            for name, metric in doc["metrics"].items():
                values.setdefault((doc["workload"], name), []).append(metric["value"])
    return values


def compare(a: dict, b: dict, specs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
        for spec in specs:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            row = {"workload": workload, **spec}
            if None in b[key] or None in a[key]:
                rows.append({**row, "verdict": "failed"})
                continue
            va, vb = a[key], b[key]
            rows.append({
                **row,
                "a": quartiles(va),
                "b": quartiles(vb),
                "change": worse_by(va, vb, spec["better"]),
                "spread": max(relative_spread(va), relative_spread(vb)),
                "verdict": verdict(va, vb, spec["better"], spec["bound"]),
            })
    return rows


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1:]
    if not a_paths or not b_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load(a_paths), load(b_paths), specs)
    print(f"{'workload':<10} {'metric':<16} {'A median [q1, q3]':<28} "
          f"{'B median [q1, q3]':<28} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        if row["verdict"] == "failed":
            print(f"{row['workload']:<10} {row['name']:<16} {'':<28} {'':<28} "
                  f"{'':>9} {'':>7} {row['bound']:>6.0%}  failed")
            continue
        print(f"{row['workload']:<10} {row['name']:<16} {_side(row['a']):<28} "
              f"{_side(row['b']):<28} {row['change']:>+9.1%} {row['spread']:>7.1%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    return 0 if rows and all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
