"""Compare two sets of system-benchmark runs, metric by metric.

Usage::

    python3 benchmarks/system/compare.py BASE.json CHANGE.json

Each file is a ``run.py --output`` results file holding several untraced
runs per workload (``--output`` appends, so one file collects a loop
over ``--seed``); runs with wrong outputs are left out.  For every
workload and end-to-end metric in ``BENCHMARK.json`` it prints both
medians with their quartiles, the ratio CHANGE/BASE, and a verdict:

``worse``
    CHANGE's median is worse than BASE's by more than the metric's bound.
``better``
    Every CHANGE run beats every BASE run, or the medians differ in
    CHANGE's favour by more than BASE's own quartile spread.
``unresolved``
    The run-to-run spread (quartile distance over median) of either side
    exceeds the bound, so the bound cannot be judged.
``unchanged``
    None of the above.

Exit status is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> Tuple[Dict[str, Any], Dict[str, Dict[str, List[float]]]]:
    """``(env, {workload: {metric: [values]}})`` over untraced, full and
    correct runs (a run with a failed operation has no finite latency)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in payload["runs"]:
        if run["trace"] or run["quick"] or not run["result"]["correct"]:
            continue
        metrics = values.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return payload.get("env", {}), values


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, ratio change/base)`` for one workload and metric."""
    base_median, base_q1, base_q3 = summary(base)
    change_median, change_q1, change_q3 = summary(change)
    ratio = change_median / base_median
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change_median - base_median) / base_median
    base_spread = (base_q3 - base_q1) / base_median
    change_spread = (change_q3 - change_q1) / change_median
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if all_better:
        return "better", ratio
    if max(base_spread, change_spread) > bound:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if -worse_by > base_spread:
        return "better", ratio
    return "unchanged", ratio


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="results file of the parent (BASE)")
    parser.add_argument("change", help="results file of the change (CHANGE)")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"),
        help="metric bounds (default: BENCHMARK.json at the repo root)",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    base_env, base = load_runs(args.base)
    change_env, change = load_runs(args.change)
    for key in sorted(set(base_env) | set(change_env)):
        if key != "git_revision" and base_env.get(key) != change_env.get(key):
            print(f"env differs: {key}: {base_env.get(key)!r} vs {change_env.get(key)!r}")
    print(
        f"{'workload':16} {'metric':18} {'unit':5} {'n':>5} "
        f"{'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
        f"{'ratio':>7}  verdict"
    )
    failing = 0
    for workload in [name for name in base if name in change]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                print(f"{workload:16} {name:18} missing on one side")
                failing += 1
                continue
            result, ratio = verdict(a, b, metric["better"], metric["bound"])
            failing += result in ("worse", "unresolved")
            sides = [
                "{:.5g} [{:.5g}, {:.5g}]".format(*summary(values))
                for values in (a, b)
            ]
            print(
                f"{workload:16} {name:18} {metric['unit']:5} "
                f"{len(a):>2}/{len(b):<2} {sides[0]:>32} {sides[1]:>32} "
                f"{ratio:7.3f}  {result} (bound {metric['bound']:g})"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
