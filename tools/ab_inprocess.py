"""In-process interleaved A/B of two spikesoc source trees on one perfbench workload.

    python3 tools/ab_inprocess.py --base ../parent/src --workload corpus_stream --pairs 15
    python3 tools/ab_inprocess.py --base ../parent/src --workload fixed16_784_128_sparse --checked

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

With --checked, a pass times what the benchmark's checked unit does. On a
single-model workload that is `cli.run_batch(..., oracle=True)` over IDX
files of the workload's batches, one model image and one image/label pair
per batch, written untimed to a temporary directory with the base tree; the
two trees' per-sample report records (class, decision time, cycles) must be
equal on every pass, and a sample on which a tree's datapath and its dense
reference disagree raises there. On corpus_stream it is, per instance, the
same run_script plus `oracle.dense_infer` on that instance's model (as the
tree's own `deserialize_model` reads the image) and frame, and the two
trees' dense results must be equal on every pass (class, decision time, the
input train's codes and t_max, every layer's fire codes and potentials).
Either way a difference makes the script exit 1.

An in-process ratio can disagree with perfbench when a change resizes the
process's largest short-lived array: glibc moves its mmap and trim
thresholds after the largest freed block, so the other code in a process
pays for that size too, and here both trees share one heap. An int32
oracle (table and `matrix()`) read 1.14x faster here with --checked on
binary_784_600 (21/21 pairs), yet in three perfbench pairs it lowered
checked_samples_per_s there from 171-186/s to 168-170/s and raised setup_s,
which never calls the oracle, from 1.7-1.9 ms to 2.6-2.8 ms. Confirm an
in-process gain with perfbench pairs.

One process also carries a bias of its own: this checkout against itself
read base/change from 0.91 to 1.23 on corpus_stream in different
processes, each process's pairs leaning the same way. A ratio therefore
needs several processes, or the trees swapped (--base and --change
exchanged) between processes; the pairs won in one process show nothing.

Prints, per pair, each tree's pass time and base/change (above 1: the
change is faster), then the median ratio, the number of pairs the change
won and the quartiles of the base's pass times.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
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
    importlib.import_module(f"{name}.cli")  # the package itself does not import it
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
    """One tree's work for a pass: the command streams through one long-lived
    controller, with `checked` each corpus instance's dense reference, or
    with `batches` the IDX batches through `cli.run_batch(oracle=True)`."""

    def __init__(self, sk, work, checked=False, batches=()):
        self.run_batch, self.batches = sk.cli.run_batch, batches
        if batches:  # run_batch loads the model and sends the commands itself
            return
        C = sk.controller
        self.dense_infer = sk.oracle.dense_infer
        self.models = [sk.model.deserialize_model(image) for image in work.images] if checked else None
        self.samples = list(zip(work.model_of, work.frames))
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

    def run_pass(self) -> tuple[float, bytes, list]:
        """(seconds, UART bytes, checked results) of one pass over every sample.
        With `batches`: no UART bytes, and each batch's per-sample report
        records. Otherwise every script's UART bytes (sample indices count on,
        so only the corpus's frames repeat byte for byte) and, if the side is
        checked, each instance's dense result."""
        if self.batches:
            run_batch = self.run_batch
            t0 = perf_counter()
            reports = [run_batch(*paths, oracle=True) for paths in self.batches]
            return perf_counter() - t0, b"", [report["per_sample"] for report in reports]
        run_script, dense_infer, models = self.controller.run_script, self.dense_infer, self.models
        uart, dense = [], []
        t0 = perf_counter()
        if models is None:
            for script in self.scripts:
                uart.append(run_script(script)[0])
        else:
            for script, (m, frame) in zip(self.scripts, self.samples):
                uart.append(run_script(script)[0])
                dense.append(dense_infer(models[m], frame))
        seconds = perf_counter() - t0
        return seconds, b"".join(uart), [plain(result) for result in dense]


def write_batches(sk, work, directory: Path) -> list:
    """The (model, images, labels) paths of each of work's IDX batches, written
    with sk's IDX writers as the benchmark's checked unit writes them."""
    model = directory / "model.bin"
    model.write_bytes(work.images[0])
    rows, cols = work.idx_shape
    batches = []
    for b, batch in enumerate(work.idx_batches):
        images, labels = directory / f"images_{b}.idx", directory / f"labels_{b}.idx"
        sk.cli.write_idx_images(images, [work.frames[k] for k in batch], rows, cols)
        sk.cli.write_idx_labels(labels, [work.labels[k] for k in batch])
        batches.append((model, images, labels))
    return batches


def plain(result) -> tuple:
    """A dense result's class, decision time, input train (codes and t_max)
    and each layer's fire codes and potentials."""
    train = result.input_train.codes.tolist(), result.input_train.t_max
    layers = [(state.fire_codes.tolist(), list(state.potentials)) for state in result.layer_states]
    return result.predicted, result.decision_time, train, layers


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
    parser.add_argument(
        "--checked",
        action="store_true",
        help="time the checked unit: run_batch(oracle=True) per IDX batch, or dense_infer per corpus instance",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base = import_tree(args.base.resolve(), "spikesoc_base")
    change = import_tree(args.change.resolve(), "spikesoc_change")
    work = load_workload(base, args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        single = work.single_model
        batches = write_batches(base, work, Path(tmp)) if args.checked and single else ()
        sides = {
            name: Side(sk, work, args.checked and not single, batches)
            for name, sk in (("base", base), ("change", change))
        }
        return run_pairs(sides, work, args)


def run_pairs(sides: dict, work, args) -> int:
    """The warm-up pass of each side, then args.pairs timed pairs; 1 if the
    sides' outputs differ."""
    single = work.single_model
    results = "run_batch reports" if args.checked and single else "dense results"
    if not args.checked:
        compared = "UART bytes"
    elif single:  # a run_batch pass sends no UART bytes of its own
        compared = results
    else:
        compared = f"UART bytes and {results}"
    warmup = {}
    for name, side in sides.items():
        warmup[name] = side.run_pass()[1:]
    if warmup["base"][0] != warmup["change"][0]:
        print("FAIL: the trees' UART bytes differ on the warm-up pass", file=sys.stderr)
        return 1
    if warmup["base"][1] != warmup["change"][1]:
        print(f"FAIL: the trees' {results} differ on the warm-up pass", file=sys.stderr)
        return 1

    times = {"base": [], "change": []}
    ratios = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        uart, checked = {}, {}
        for name in order:
            seconds, uart[name], checked[name] = sides[name].run_pass()
            times[name].append(seconds)
        # Both controllers have run as many passes, so their sample indices agree;
        # only the corpus, where every instance starts at index 0, repeats its frames.
        if uart["base"] != uart["change"] or (not single and uart["base"] != warmup["base"][0]):
            print(f"FAIL: pair {pair}: the UART bytes differ", file=sys.stderr)
            return 1
        if checked["base"] != checked["change"]:
            print(f"FAIL: pair {pair}: the {results} differ", file=sys.stderr)
            return 1
        ratios.append(times["base"][-1] / times["change"][-1])
        print(
            f"pair {pair:2d} ({order[0]} first): base {times['base'][-1] * 1e3:9.2f} ms"
            f"  change {times['change'][-1] * 1e3:9.2f} ms  base/change {ratios[-1]:.4f}"
        )
    wins = sum(r > 1 for r in ratios)
    q = statistics.quantiles(times["base"], n=4) if len(ratios) > 1 else times["base"] * 3
    print(
        f"{args.workload} seed {args.seed}{', checked' * args.checked}, {len(work.frames)} samples a pass, {args.pairs} pairs:"
        f" median base/change {statistics.median(ratios):.4f}, change faster in {wins}/{args.pairs};"
        f" base pass quartiles {' / '.join(f'{x * 1e3:.2f}' for x in q)} ms; {compared} equal"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
