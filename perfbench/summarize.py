"""Medians, quartiles, layer shares and deltas of benchmark results.

Usage::

    python3 perfbench/summarize.py perfbench/out/results.jsonl \\
        [--save SUMMARY.json] [--against perfbench/baseline.json]

Reads the records ``run.py`` appends, groups them by workload, and prints
for every metric the sample count, median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median.  End-to-end metrics come
from untraced runs, per-layer metrics from traced ones.  It also prints each
workload's share of failed driver calls and the layer-share table.
``--save`` writes the summary as JSON; ``--against`` prints each metric's
delta against a summary saved earlier, one row per workload.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import LAYERS  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(records: list[dict]) -> dict:
    """Per workload: metric statistics, fail share, layer shares, manifest."""
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"metrics": {}, "attempted": 0, "failed": 0,
                                             "seeds": [], "manifest": rec["manifest"]})
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        w["seeds"].append(rec["seed"])
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, ([], m["unit"]))[0].append(m["value"])
    for w in out.values():
        w["fail_share"] = w["failed"] / w["attempted"]
        w["metrics"] = {name: {**quartiles(vals), "unit": unit}
                        for name, (vals, unit) in w["metrics"].items()}
        m = w["metrics"]
        if "trace.wall_s" in m:
            wall = m["trace.wall_s"]["median"]
            w["layer_share"] = {layer: m[f"{layer}.self_s"]["median"] / wall
                                for layer in LAYERS}
    return out


def print_summary(summary: dict) -> None:
    for name, w in summary.items():
        print(f"\n== {name}: {w['attempted']} driver calls, fail_share "
              f"{w['fail_share']:.3f}, seeds {sorted(set(w['seeds']))}")
        print(f"  {'metric':<40} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for metric, s in w["metrics"].items():
            print(f"  {metric:<40} {s['n']:>3} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g} {100 * s['spread']:>7.2f}% {s['unit']}")
        if "layer_share" in w:
            print("  layer self time / traced wall_s:")
            for layer, share in sorted(w["layer_share"].items(), key=lambda kv: -kv[1]):
                print(f"    {layer:<11} {100 * share:6.2f} %")
            print(f"    trace.overhead_s {w['metrics']['trace.overhead_s']['median']:+.3f} s")


def delta(old: float, new: float) -> str:
    if old == new:
        return "0"
    return f"{100 * (new - old) / old:+.1f}%" if old else "new"


def print_deltas(previous: dict, current: dict) -> None:
    print("\nend-to-end deltas of the medians, current against previous:")
    print(f"  {'workload':<12}" + "".join(f"{m:>24}" for m in END_TO_END))
    for name, w in current.items():
        old = previous.get(name, {}).get("metrics", {})
        cells = []
        for m in END_TO_END:
            if m in w["metrics"] and m in old:
                a, b = old[m]["median"], w["metrics"][m]["median"]
                cells.append(f"{a:.4g}->{b:.4g} {delta(a, b)}")
            else:
                cells.append("-")
        print(f"  {name:<12}" + "".join(f"{c:>24}" for c in cells))
    print("\nper-layer deltas of the medians (changed metrics only):")
    for name, w in current.items():
        old = previous.get(name, {}).get("metrics", {})
        changed = [f"{m} {delta(old[m]['median'], s['median'])}"
                   for m, s in w["metrics"].items()
                   if m not in END_TO_END and m in old and old[m]["median"] != s["median"]]
        print(f"  {name:<12} " + ("; ".join(changed) or "-"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+", help="results.jsonl files from run.py")
    ap.add_argument("--save", help="write the summary to this JSON file")
    ap.add_argument("--against", help="summary JSON saved earlier, to print deltas")
    args = ap.parse_args(argv)
    records = [json.loads(line) for path in args.results
               for line in Path(path).read_text().splitlines() if line.strip()]
    summary = summarize(records)
    print_summary(summary)
    if args.against:
        print_deltas(json.loads(Path(args.against).read_text()), summary)
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
