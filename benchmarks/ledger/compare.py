"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 benchmarks/ledger/run.py compare BASE NEW

``BASE`` and ``NEW`` are ``--out`` directories (or their ``results.jsonl``
files).  Each row gives both sides' median and quartiles.  A metric with a
bound is ``worse`` when its median moved the wrong way by more than the
bound, ``unresolved`` when either side's quartile spread is wider than the
bound (unless every new run beats every base run), ``better`` when it
moved the right way by more than the base runs' own spread, else ``same``.
Per-layer metrics carry no bound and are listed without a verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(path: str) -> list[dict]:
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Classify one metric's move from ``base`` runs to ``new`` runs."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    if max(spread(base), spread(new)) > bound:
        beats_all = all(sign * n < sign * b for n in new for b in base)
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "same"


def rows(base_runs: list[dict], new_runs: list[dict], bench: dict) -> list[tuple]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    grouped: dict[tuple, tuple[list, list]] = {}
    for side, runs in ((0, base_runs), (1, new_runs)):
        for run in runs:
            for name, metric in run["metrics"].items():
                key = (run["workload"], name)
                grouped.setdefault(key, ([], []))[side].append(metric["value"])
    out = []
    for (workload, name), (base, new) in sorted(grouped.items()):
        if not base or not new or name not in specs:
            continue
        spec = specs[name]
        bound = spec.get("bound")
        result = verdict(base, new, spec["better"], bound) if bound is not None else "-"
        out.append((workload, name, quartiles(base), quartiles(new), result))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE NEW", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    table = rows(load_runs(argv[0]), load_runs(argv[1]), bench)
    header = f"{'base q1/med/q3':>32s} {'new q1/med/q3':>32s}"
    print(f"{'workload':12s} {'metric':34s} {header}  verdict")
    for workload, name, base, new, result in table:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{workload:12s} {name:34s} {fmt(base):>32s} {fmt(new):>32s}  {result}")
    return 1 if any(row[-1] == "worse" for row in table) else 0
