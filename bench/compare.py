"""Compare benchmark results of two commits, metric by metric.

    python3 bench/compare.py OLD NEW

OLD and NEW are result files written by run.py (.bench_results/*.json) or
directories of them, paired by file name (workload, seed, trace).  For each
workload and metric it prints both sides' median over the paired seeds and
the change, and flags an end-to-end metric that got worse by more than its
bound in BENCHMARK.json.  It refuses, with exit code 2, to compare a pair
whose machine or corpus fingerprint differ, since the two numbers would
not measure the same work on the same machine.  Exit code 1 means some
metric got worse beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict[str, dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return {f.name: json.loads(f.read_text()) for f in files}


def pairs(old: Path, new: Path) -> list[tuple[dict, dict]]:
    a, b = load(old), load(new)
    if old.is_file() and new.is_file():
        return [(a[old.name], b[new.name])]
    return [(a[name], b[name]) for name in sorted(a.keys() & b.keys())]


def mismatch(a: dict, b: dict) -> str | None:
    for key in ("workload", "seed", "trace", "machine", "corpus"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]} vs {b[key]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    matched = pairs(Path(argv[0]), Path(argv[1]))
    if not matched:
        print("compare: no results with matching names", file=sys.stderr)
        return 2
    for a, b in matched:
        reason = mismatch(a, b)
        if reason:
            print(f"compare: refusing {a['workload']} seed {a['seed']}: {reason}", file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple[str, int], list[tuple[dict, dict]]] = defaultdict(list)
    for a, b in matched:
        groups[a["workload"], a["trace"]].append((a, b))

    worse = 0
    for (workload, trace), group in sorted(groups.items()):
        print(f"== {workload}  trace {trace}  ({len(group)} seeds)")
        for name in group[0][0]["metrics"]:
            old = statistics.median(a["metrics"][name]["value"] for a, _ in group)
            new = statistics.median(b["metrics"][name]["value"] for _, b in group)
            change = (new - old) / old if old else 0.0
            sign = 1 if metrics[name]["better"] == "lower" else -1
            verdict = ""
            if "bound" in metrics[name] and sign * change > metrics[name]["bound"]:
                verdict = f"  WORSE than bound {metrics[name]['bound']:.0%}"
                worse += 1
            print(f"  {name:38} {old:14.6g} -> {new:14.6g}  {change:+8.2%}{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
