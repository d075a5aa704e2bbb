"""Compare mode: two sets of result files, one verdict per metric.

``python3 perfbench/run.py --compare BASE CHANGE`` reads every result
JSON file in the two directories (as written by plain runs with
``--out``), groups the end-to-end metrics by (workload, metric), and
prints for each pair both medians, both spreads and a verdict under the
bound that ``BENCHMARK.json`` fixes for the metric:

- the *spread* of a side is the distance between its first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of its
  median; a side with fewer than three runs has no known spread;
- ``better`` / ``worse`` — every run of one side beats every run of the
  other; or, with both spreads within the bound, the change's median is
  worse than the base's by more than the bound (``worse``), or better by
  more than the base's own spread (``better``);
- ``unresolved`` — a spread is wider than the bound, or unknown, and the
  runs overlap: the data cannot tell a change from noise;
- ``unchanged`` — otherwise.

The exit status is 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load(directory: str) -> "dict[tuple[str, str], list[float]]":
    """``(workload, metric) -> values`` over the untraced results."""
    values: "dict[tuple[str, str], list[float]]" = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("trace") != 0 or not result.get("correct"):
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(
                metric["value"])
    return values


def spread(values: "list[float]") -> "float | None":
    """Interquartile range as a share of the median; ``None`` if unknown."""
    if len(values) < 3:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: "list[float]", change: "list[float]", bound: float,
            better: str) -> "tuple[str, float]":
    """(verdict, signed relative change; positive means better)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if base_median:
        delta = sign * (change_median - base_median) / abs(base_median)
    else:
        delta = sign * (change_median - base_median)
    if min(sign * c for c in change) > max(sign * b for b in base):
        return "better", delta
    if max(sign * c for c in change) < min(sign * b for b in base):
        return "worse", delta
    spreads = (spread(base), spread(change))
    if any(s is None or s > bound for s in spreads):
        return "unresolved", delta
    if delta < -bound:
        return "worse", delta
    if delta > spreads[0] and delta > 0:
        return "better", delta
    return "unchanged", delta


def _fmt(value: "float | None") -> str:
    return "n/a" if value is None else f"{value:.1%}"


def compare_dirs(base_dir: str, change_dir: str, benchmark_json: str) -> int:
    with open(benchmark_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, change = load(base_dir), load(change_dir)
    print(f"{'workload':8s} {'metric':16s} {'base':>12s} {'spread':>7s} "
          f"{'change':>12s} {'spread':>7s} {'delta':>7s} {'bound':>6s} verdict")
    worse = False
    for workload, name in sorted(set(base) & set(change)):
        if name not in bounds:
            continue
        bound, better = bounds[name]
        a, b = base[(workload, name)], change[(workload, name)]
        outcome, delta = verdict(a, b, bound, better)
        worse = worse or outcome == "worse"
        print(f"{workload:8s} {name:16s} {statistics.median(a):12.4f} "
              f"{_fmt(spread(a)):>7s} {statistics.median(b):12.4f} "
              f"{_fmt(spread(b)):>7s} {delta:+7.1%} {bound:6.0%} {outcome}"
              f"  (runs {len(a)} vs {len(b)})")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"only on one side: {missing}")
    return 1 if worse else 0
