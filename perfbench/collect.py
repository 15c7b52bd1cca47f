"""Run the benchmark over many seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 --out perfbench/results/NAME.json
        [--workloads binary_784_600,corpus_stream] [--trace-seeds 1-3]

Runs one process at a time. For every workload and metric it records the
values, their median and quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median. Untraced runs give the end-to-end metrics;
the --trace-seeds runs give the per-module ones. Use it to record a BENCH
point of the trajectory before and after a change, with the same seeds
and seconds on both sides.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list, unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "unit": unit,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    catalogue = json.loads((HERE / "metrics.json").read_text())
    names = args.workloads.split(",") if args.workloads else list(catalogue["workloads"])

    report = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "host": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "reading_note": catalogue["reading_note"],
        "workloads": {},
    }
    ok = True
    for workload in names:
        section = {}
        walls = []
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            values = {}
            for seed in seeds:
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900,
                )
                walls.append(time.monotonic() - t0)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                if proc.returncode or not last[0].startswith("{"):
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    ok = False
                    continue
                result = json.loads(last[0])
                ok &= result["correct"] and not result["failed"]
                print(
                    f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
                    f"{walls[-1]:.1f}s wall",
                    flush=True,
                )
                for name, m in result["metrics"].items():
                    values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            for name, (vals, unit) in values.items():
                section[name] = summarise(vals, unit)
                s = section[name]
                spread = "" if s["spread"] is None else f"spread {s['spread']:.4f}"
                print(f"  {name:<30} median {s['median']:<14.6g} {unit:<7} {spread}")
        section["run_wall_s"] = {"max": max(walls), "median": statistics.median(walls)} if walls else {}
        report["workloads"][workload] = section
    report["all_correct"] = ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
