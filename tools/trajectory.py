"""The benchmark trajectory: each PR's within-pair median ratios, chained.

    python3 tools/trajectory.py        # the BENCH_<n>.json files at the repo root
    python3 tools/trajectory.py DIR

Reads every BENCH_<n>.json in DIR with n >= 7 that has the shared keys
command/host/method/parent_commit/claim/workloads. For each workload entry
(a workload and seed, as `binary_784_600_s1`) and each metric, it prints one
line per PR: the median over the PR's alternating pairs of change/parent
(each pair's change run over its parent run; the file's own
`median_ratio_change_over_parent` where the runs are not listed pair by
pair), and the running product of those medians over the PRs so far that
measured that entry. A ratio above 1 means the change read higher: better
for a rate, worse for a time. Absolute figures drift from one set of runs
to the next, so only this chain of ratios compares across PRs. Files that
lack a shared key are named on one line at the end, not read.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED_KEYS = ("command", "host", "method", "parent_commit", "claim", "workloads")
FIRST = 7  # the trajectory starts at BENCH_7, the earliest BENCH file kept


def pair_ratio(metric: dict) -> float:
    """Median over pairs of change/parent, from the runs when both sides list one per pair."""
    parent, change = metric["parent"].get("runs"), metric["change"].get("runs")
    if parent and change and len(parent) == len(change) and all(parent):
        return statistics.median(c / p for p, c in zip(parent, change))
    return metric["median_ratio_change_over_parent"]


def bench_files(directory: Path) -> list[tuple[int, Path]]:
    found = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match[1]) >= FIRST:
            found.append((int(match[1]), path))
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path, nargs="?", default=ROOT)
    args = parser.parse_args(argv)

    rows = {}  # (workload entry, metric) -> [(PR, ratio)]
    lacking = []
    for pr, path in bench_files(args.directory):
        bench = json.loads(path.read_text())
        if not all(key in bench for key in SHARED_KEYS):
            lacking.append(path.name)
            continue
        for entry, workload in bench["workloads"].items():
            for metric, figures in workload.get("metrics", {}).items():
                rows.setdefault((entry, metric), []).append((pr, pair_ratio(figures)))
    for (entry, metric), ratios in sorted(rows.items()):
        print(f"{entry} {metric}")
        product = 1.0
        for pr, ratio in ratios:
            product *= ratio
            print(f"  BENCH_{pr:<4d} change/parent {ratio:8.4f}  running product {product:8.4f}")
    if lacking:
        print(f"lacking {', '.join(SHARED_KEYS)}, not read: {', '.join(lacking)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
