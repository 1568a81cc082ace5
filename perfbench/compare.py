"""Compare two sets of benchmark results: parent and change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out DIR``. For each
workload and end-to-end metric the table shows both sides' median and
quartiles, the share of seed-paired runs the change won (ties count for
neither side), and a verdict:

- ``better``: the change won at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile distance, or every change run beats
  every parent run;
- ``unresolved``: either side's quartile distance, as a share of its median,
  exceeds the metric's bound in BENCHMARK.json;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``same``: none of the above.

Traced results (``*-trace.json``) are listed as per-layer medians without a
verdict; per-layer metrics have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from every result file."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"])
        runs.setdefault(key, {})[rec["run"]["seed"]] = {k: v["value"] for k, v in rec["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple], lower: bool, bound: float):
    """Won share and verdict for one metric, following the rule above."""
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if all_better or (won >= 0.9 and sign * (pm - cm) > p3 - p1):
        return won, "better"
    if _share(p3 - p1, pm) > bound or _share(c3 - c1, cm) > bound:
        return won, "unresolved"
    if _share(sign * (cm - pm), pm) > bound:
        return won, "worse"
    return won, "same"


def _share(delta: float, base: float) -> float:
    return delta / abs(base) if base else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    header = f"{'workload':14} {'metric':44} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'won':>5}  verdict"
    print(header)
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get((wl, 0), {}), change.get((wl, 0), {})
        if not p_runs or not c_runs:
            print(f"{wl:14} (no results on one side)")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [m[name] for m in p_runs.values()]
            c = [m[name] for m in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in sorted(set(p_runs) & set(c_runs))]
            won, v = verdict(p, c, pairs, metric["better"] == "lower", metric["bound"])
            pq = "/".join(f"{x:.4g}" for x in quartiles(p))
            cq = "/".join(f"{x:.4g}" for x in quartiles(c))
            print(f"{wl:14} {name:44} {pq:>30} {cq:>30} {won:5.2f}  {v}")
        p_tr, c_tr = parent.get((wl, 1), {}), change.get((wl, 1), {})
        if p_tr and c_tr:
            for metric in bench["per_layer"]:
                name = metric["name"]
                pm = statistics.median(m[name] for m in p_tr.values())
                cm = statistics.median(m[name] for m in c_tr.values())
                print(f"{wl:14} {name:44} {pm:>30.4g} {cm:>30.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
