"""Self-check of the benchmark itself; exits 0 only if every check holds.

    python3 perfbench/selfcheck.py [--seconds 3]

For every workload:
  * two untraced runs on the default seed produce identical inputs and
    identical simulated outputs (every class, decision time, UART frame
    and exact count) and the same soc_cycles_per_sample;
  * the traced run on the default seed agrees with them on every
    simulated output, and passes its own trace-consistency checks;
  * a held-out seed, never used while the benchmark was tuned, generates
    different inputs and passes with error_rate 0.
It also checks that metrics.json and BENCHMARK.json name the same metrics
with the same units and directions.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for line in lines:
        for key in ("inputs sha256 ", "outputs sha256 "):
            if line.startswith(key):
                out[key.split()[0]] = line[len(key):]
    out["result"] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out


def catalogue_problems() -> list:
    catalogue = json.loads((HERE / "metrics.json").read_text())
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.exists():
        return ["BENCHMARK.json is missing"]
    bench = json.loads(bench_path.read_text())
    problems = []
    for section in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in catalogue[section]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        if ours != theirs:
            problems.append(f"{section}: metrics.json and BENCHMARK.json disagree")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(catalogue["workloads"]):
        problems.append("workloads: metrics.json and BENCHMARK.json disagree")
    return problems


def check_workload(workload: str, seconds: float) -> list:
    problems = []
    first = run(workload, DEFAULT_SEED, seconds, 0)
    again = run(workload, DEFAULT_SEED, seconds, 0)
    traced = run(workload, DEFAULT_SEED, seconds, 1)
    held = run(workload, HELD_OUT_SEED, seconds, 0)
    for label, r in (("first", first), ("repeat", again), ("traced", traced), ("held-out", held)):
        res = r["result"]
        if r["rc"] != 0 or res is None:
            problems.append(f"{label} run exited {r['rc']}: {r['stderr'][-500:]}")
        elif not res["correct"] or res["failed"]:
            problems.append(f"{label} run: correct={res['correct']} failed={res['failed']}\n{r['stdout'][-1500:]}")
    if problems:
        return problems
    if first["inputs"] != again["inputs"] or first["inputs"] != traced["inputs"]:
        problems.append("the same seed generated different inputs")
    if first["outputs"] != again["outputs"]:
        problems.append("two untraced runs of the same seed differ in simulated outputs")
    if first["outputs"] != traced["outputs"]:
        problems.append("traced and untraced runs differ in simulated outputs")
    cycles = [r["result"]["metrics"]["soc_cycles_per_sample"]["value"] for r in (first, again)]
    if cycles[0] != cycles[1]:
        problems.append(f"soc_cycles_per_sample differs: {cycles}")
    if held["inputs"] == first["inputs"]:
        problems.append(f"seed {HELD_OUT_SEED} generated the same inputs as seed {DEFAULT_SEED}")
    print(
        f"{workload}: seed {DEFAULT_SEED} x2 untraced, x1 traced, held-out seed {HELD_OUT_SEED}: "
        f"soc_cycles_per_sample {cycles[0]} / "
        f"{held['result']['metrics']['soc_cycles_per_sample']['value']}, "
        f"attempted {first['result']['attempted']} / {held['result']['attempted']}, failed 0"
    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    catalogue = json.loads((HERE / "metrics.json").read_text())
    problems = catalogue_problems()
    for workload in catalogue["workloads"]:
        problems += [f"{workload}: {p}" for p in check_workload(workload, args.seconds)]
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck PASS" if not problems else f"selfcheck FAIL ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
