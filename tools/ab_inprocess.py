"""In-process interleaved A/B of two spikesoc source trees on one perfbench workload.

    python3 tools/ab_inprocess.py --base ../parent/src --workload corpus_stream --pairs 15

Each tree is imported under its own package name (spikesoc_base and
spikesoc_change), so both live in one process and meet the same host load.
The workload's bytes come from this checkout's perfbench/workloads.py, built
with the base tree. A pass sends every sample through a long-lived
Controller as the benchmark's steady loop does: a corpus_stream instance
is one LoadModel+LoadInput+Run stream through run_script, a single-model
workload loads its model once, untimed, and then sends LoadInput+Run per
frame. An untimed warm-up pass of each tree comes first (lazy transposes,
caches). Each pair then times one pass of each tree, base first in even
pairs and change first in odd ones. The two trees' UART bytes must be
equal on every pass, and a corpus pass's equal to its warm-up's, or the
script exits 1.

Prints, per pair, each tree's pass time and base/change (above 1: the
change is faster), then the median ratio, the number of pairs the change
won and the quartiles of the base's pass times.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_tree(src: Path, name: str):
    """The package at src/spikesoc, imported as `name` with its submodules."""
    package = src / "spikesoc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workload(sk, name: str, seed: int):
    """perfbench's generator for `name`, with `spikesoc` bound to the tree sk."""
    saved = {k: v for k, v in sys.modules.items() if k == "spikesoc" or k.startswith("spikesoc.")}
    sys.modules["spikesoc"] = sk
    sys.modules["spikesoc.model"] = sk.model
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up there
        spec.loader.exec_module(workloads)
        return workloads.WORKLOADS[name](seed)
    finally:
        for key in ("spikesoc", "spikesoc.model"):
            sys.modules.pop(key, None)
        sys.modules.update(saved)


class Side:
    """One tree's controller and the command streams of a pass."""

    def __init__(self, sk, work):
        C = sk.controller
        self.controller = C.Controller()
        if len(work.images) == 1:
            self.controller.handle(C.LoadModel(image=work.images[0]))
            self.scripts = [
                C.encode_command(C.LoadInput(pixels=frame)) + C.encode_command(C.Run())
                for frame in work.frames
            ]
        else:
            self.scripts = [
                C.encode_command(C.LoadModel(image=image))
                + C.encode_command(C.LoadInput(pixels=frame))
                + C.encode_command(C.Run())
                for image, frame in zip(work.images, work.frames)
            ]

    def run_pass(self) -> tuple[float, bytes]:
        """(seconds, UART bytes) of one pass over every sample; sample indices
        count on, so only the corpus's frames repeat byte for byte."""
        run_script = self.controller.run_script
        uart = []
        t0 = perf_counter()
        for script in self.scripts:
            uart.append(run_script(script)[0])
        return perf_counter() - t0, b"".join(uart)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the base tree's src directory")
    parser.add_argument(
        "--change", type=Path, default=ROOT / "src", help="the changed tree's src directory"
    )
    parser.add_argument(
        "--workload",
        default="corpus_stream",
        choices=("binary_784_600", "fixed16_784_128_sparse", "corpus_stream"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=15, help="timed pairs after the warm-up")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base = import_tree(args.base.resolve(), "spikesoc_base")
    change = import_tree(args.change.resolve(), "spikesoc_change")
    work = load_workload(base, args.workload, args.seed)
    sides = {"base": Side(base, work), "change": Side(change, work)}
    single = len(work.images) == 1
    warmup = {}
    for name, side in sides.items():
        warmup[name] = side.run_pass()[1]
    if warmup["base"] != warmup["change"]:
        print("FAIL: the trees' UART bytes differ on the warm-up pass", file=sys.stderr)
        return 1

    times = {"base": [], "change": []}
    ratios = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        uart = {}
        for name in order:
            seconds, uart[name] = sides[name].run_pass()
            times[name].append(seconds)
        # Both controllers have run as many passes, so their sample indices agree;
        # only the corpus, where every instance starts at index 0, repeats its frames.
        if uart["base"] != uart["change"] or (not single and uart["base"] != warmup["base"]):
            print(f"FAIL: pair {pair}: the UART bytes differ", file=sys.stderr)
            return 1
        ratios.append(times["base"][-1] / times["change"][-1])
        print(
            f"pair {pair:2d} ({order[0]} first): base {times['base'][-1] * 1e3:9.2f} ms"
            f"  change {times['change'][-1] * 1e3:9.2f} ms  base/change {ratios[-1]:.4f}"
        )
    wins = sum(r > 1 for r in ratios)
    q = statistics.quantiles(times["base"], n=4) if len(ratios) > 1 else times["base"] * 3
    print(
        f"{args.workload} seed {args.seed}, {len(work.frames)} samples a pass, {args.pairs} pairs:"
        f" median base/change {statistics.median(ratios):.4f}, change faster in {wins}/{args.pairs};"
        f" base pass quartiles {' / '.join(f'{x * 1e3:.2f}' for x in q)} ms; UART bytes equal"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
