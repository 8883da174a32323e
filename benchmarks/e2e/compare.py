"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` files: A is the parent (or
the first set), B the change (or the second set).  For every workload x
metric the script prints each side's median and quartiles and, for the
end-to-end metrics ``BENCHMARK.json`` bounds, a verdict:

* ``improved``   — B wins at least 9 of 10 pairs (runs paired by seed, ties
  count for neither) and the medians differ by more than A's quartile
  spread, in B's favour;
* ``unresolved`` — A's quartile spread is wider than the bound and B does
  not read better on every run;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``no worse``   — otherwise.

Per-layer metrics carry no bound and are printed for attribution only.
The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_metric(records: list[dict]) -> dict:
    """``{(workload, metric): {seed: value}}`` (a repeated seed keeps a list
    position of its own)."""
    out: dict = {}
    for i, rec in enumerate(records):
        for name, value in rec["metrics"].items():
            runs = out.setdefault((rec["workload"], name), {})
            key = rec["seed"] if rec["seed"] not in runs else (rec["seed"], i)
            runs[key] = value
    return out


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def wins(x: float, y: float) -> bool:
        return sign * (x - y) > 0          # y (from B) better than x (from A)

    av, bv = list(a.values()), list(b.values())
    q1, med_a, q3 = quartiles(av)
    med_b = statistics.median(bv)
    common = [k for k in a if k in b] or None
    pairs = ([(a[k], b[k]) for k in common] if common
             else list(zip(av, bv)))
    won = sum(wins(x, y) for x, y in pairs)
    if (pairs and won >= 0.9 * len(pairs) and wins(med_a, med_b)
            and abs(med_b - med_a) > q3 - q1):
        return "improved"
    if (q3 - q1) / abs(med_a) > bound:
        return ("no worse" if all(wins(x, y) for x in av for y in bv)
                else "unresolved")
    if sign * (med_b - med_a) / abs(med_a) > bound:
        return "regressed"
    return "no worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    a, b = (by_metric(json.loads(Path(p).read_text())) for p in argv)
    regressed = False
    print(f"{'workload':<14} {'metric':<26} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        qa, qb = quartiles(list(a[key].values())), quartiles(list(b[key].values()))
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        metric = bounded.get(name)
        word = (verdict(a[key], b[key], metric["better"], metric["bound"])
                if metric else "-")
        regressed |= word == "regressed"
        print(f"{workload:<14} {name:<26} {cell(qa):>32} {cell(qb):>32} "
              f"{change:>+8.1%}  {word}")
    return 1 if regressed else 0


def cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
