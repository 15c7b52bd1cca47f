"""Mutant table: known ways to break src/spikesoc, each with the tests that catch it.

    python3 tools/mutants.py

Each entry names its mutant, the test files that must catch it and one or
more edits: a file under src/spikesoc, an exact snippet that occurs once in
it, and the snippet's replacement. For each entry the tool copies src/ to a
temporary directory, applies the edits there and runs pytest -x -q on the
named test files with that copy first on PYTHONPATH; the checkout itself is
never written. A run with a failing test (pytest's exit code 1) kills the
mutant. The tool prints killed, SURVIVED or ERROR per mutant and exits 1
if one survives, if a run ends with any other exit code (say, a test file
that is not there), if a snippet no longer occurs exactly once (so the
table has to follow the code), or if the tests do not import spikesoc
from the copy.

A survivor is a missing test, to be added, or an equivalent mutant, to be
dropped from the table with the reason recorded.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    tests: tuple  # test files, relative to the checkout, that must fail
    edits: tuple  # (file under src/spikesoc, snippet, replacement) triples


MUTANTS = (
    Mutant(
        "LoadModel starts a new batch before its MAX_CLASSES check",
        ("tests/test_controller.py",),
        ((
            "controller.py",
            "            if model is not None and model.output_dim > MAX_CLASSES:\n",
            "            self.model, self.pending_input, self.last_result, self.sample_index = model, None, None, 0\n"
            "            if model is not None and model.output_dim > MAX_CLASSES:\n",
        ),),
    ),
    Mutant(
        "LoadInput stores the pixels before its length check",
        ("tests/test_controller.py",),
        ((
            "controller.py",
            "            if len(command.pixels) != self.model.input_dim:\n",
            "            self.pending_input = bytes(command.pixels)\n"
            "            if len(command.pixels) != self.model.input_dim:\n",
        ),),
    ),
    Mutant(
        "LoadInput stores any pixel sequence through bytes()",
        ("tests/test_encoder.py",),
        ((
            "controller.py",
            "            if not isinstance(command.pixels, (bytes, bytearray)):\n"
            '                raise TypeError(f"{_PAYLOAD_RULE[LoadInput]}, got {type(command.pixels).__name__}")\n',
            "",
        ),),
    ),
    Mutant(
        "Reset keeps last_result",
        ("tests/test_controller.py",),
        ((
            "controller.py",
            "= model, None, None, 0",
            "= model, None, None if model else self.last_result, 0",
        ),),
    ),
    Mutant(
        "LoadModel keeps the sample index",
        ("tests/test_controller.py",),
        (("controller.py", "= model, None, None, 0", "= model, None, None, self.sample_index if model else 0"),),
    ),
    Mutant(
        "Run keeps the pending input",
        ("tests/test_controller.py",),
        (("controller.py", "            self.pending_input = None\n            return [Interrupt", "            return [Interrupt"),),
    ),
    Mutant(
        "Run advances the sample index before format_uart_frame",
        ("tests/test_controller.py",),
        ((
            "controller.py",
            "            frame = format_uart_frame(self.sample_index, result)\n",
            "            self.sample_index += 1\n"
            "            frame = format_uart_frame(self.sample_index - 1, result)\n"
            "            self.sample_index -= 1\n",
        ),),
    ),
    Mutant(
        "run_script drops the interrupts before a failing command",
        ("tests/test_controller.py",),
        (("controller.py", "error.interrupts = bytes(uart), interrupts", "error.interrupts = bytes(uart), []"),),
    ),
    Mutant(
        "run_script runs nothing before a malformed command",
        ("tests/test_controller.py",),
        (("controller.py", "commands, failed = exc.commands, exc", "commands, failed = [], exc"),),
    ),
    Mutant(
        "deserialize_model drops its bytes check",
        ("tests/test_controller.py",),
        ((
            "model.py",
            "    if not isinstance(data, (bytes, bytearray)):\n"
            '        raise TypeError(f"a flash image is bytes, got {type(data).__name__}")\n',
            "",
        ),),
    ),
    Mutant(
        "LayerTally.total sums all but the last tally",
        ("tests/test_perf.py",),
        (("perf.py", "        for t in tallies:", "        for t in tallies[:-1]:"),),
    ),
    Mutant(
        "memory_footprint counts binary bytes without row padding",
        ("tests/test_perf.py",),
        (("perf.py", "c.out_dim * words_per_row(c.in_dim) * 2", "c.out_dim * c.in_dim // 8"),),
    ),
    Mutant(
        "BinaryWeights.from_rows packs an array of float cells as it is",
        ("tests/test_model.py",),
        (("model.py", 'signs.dtype.kind not in "iu"', 'signs.dtype.kind not in "iuf"'),),
    ),
    Mutant(
        "run_batch raises a controller error before checking the samples ahead of it",
        ("tests/test_cli.py",),
        ((
            "cli.py",
            "        reference = decoded(model) if oracle and runs else None\n",
            "        if failed is not None:\n"
            "            raise type(failed)(f\"sample {start + len(runs)}: {failed}\") from failed\n"
            "        reference = decoded(model) if oracle and runs else None\n",
        ),),
    ),
    Mutant(
        "run_batch checks only a phase's first sample",
        ("tests/test_cli.py",),
        (("cli.py", "            if oracle:\n                divergence", "            if oracle and idx == start:\n                divergence"),),
    ),
    Mutant(
        "run_batch decodes the weights for every sample",
        ("tests/test_cli.py",),
        (("cli.py", "dense_infer(reference, frames[idx])", "dense_infer(decoded(model), frames[idx])"),),
    ),
    Mutant(
        "run_batch reports a sample's neuron cycles as its cycles",
        ("tests/test_cli.py",),
        (("cli.py", '"cycles": result.cycles.total_cycles', '"cycles": result.cycles.neuron_cycles'),),
    ),
    Mutant(
        "LayerConfig keeps a field that is not an integer",
        ("tests/test_model.py",),
        (("model.py", "object.__setattr__(self, name, operator.index(value))", "object.__setattr__(self, name, value)"),),
    ),
    Mutant(
        "cycles of the last layer only",
        ("tests/test_perf.py",),
        (("perf.py", "    for t in trace.layers:", "    for t in trace.layers[-1:]:"),),
    ),
    Mutant(
        "the oracle fires at > the threshold",
        ("tests/test_oracle.py",),
        (("oracle.py", "crossed = contributions >= layer", "crossed = contributions > layer"),),
    ),
    Mutant(
        "the oracle's table has a row for every timestep, so it fires at steps without events",
        ("tests/test_oracle.py",),
        (
            ("oracle.py", "steps = np.flatnonzero(carries)", "steps = np.arange(len(carries))"),
            ("oracle.py", "row_of = np.add.accumulate(carries) - 1", "row_of = np.arange(len(carries))"),
        ),
    ),
    Mutant(
        "a neuron the oracle never fires reads row 0",
        ("tests/test_oracle.py",),
        (("oracle.py", "rows = np.where(fires, first, len(steps) - 1)", "rows = first"),),
    ),
    Mutant(
        "the oracle sums no time table rows",
        ("tests/test_oracle.py",),
        (("oracle.py", "    np.add.accumulate(contributions, axis=0, out=contributions)", "    pass"),),
    ),
    # The next three break check_layer_input, and so both layer paths.
    Mutant(
        "run_layer accepts codes that are not a 1-D integer array",
        ("tests/test_oracle.py",),
        ((
            "model.py",
            '    if not isinstance(codes, np.ndarray) or codes.ndim != 1 or codes.dtype.kind not in "iu":\n',
            "    if False:\n",
        ),),
    ),
    Mutant(
        "run_layer drops its length check",
        ("tests/test_oracle.py",),
        ((
            "model.py",
            "    if len(codes) != layer.in_dim:\n"
            '        raise DimensionMismatch(f"train length {len(codes)} != layer in_dim {layer.in_dim}")\n',
            "",
        ),),
    ),
    Mutant(
        "a layer accepts spike codes above 255",
        ("tests/test_oracle.py",),
        (("model.py", "codes[codes.argmin()] < -1 or codes[codes.argmax()] > 255:", "codes[codes.argmin()] < -1:"),),
    ),
    Mutant(
        "early stop one group after the first that fires",
        ("tests/test_core.py",),
        ((
            "core.py",
            "first = k // layer.out_dim if crossed.item(k) else last",
            "first = min(k // layer.out_dim + 1, last) if crossed.item(k) else last",
        ),),
    ),
    Mutant(
        "early-stop fire times from the last group",
        ("tests/test_core.py",),
        (("core.py", "np.where(fires, group_times[first], -1)", "np.where(fires, group_times[last], -1)"),),
    ),
    Mutant(
        "early stop on every layer",
        ("tests/test_core.py",),
        (("core.py", "stop_at_first_fire=early_stop and k == last_layer", "stop_at_first_fire=early_stop"),),
    ),
    Mutant(
        "blocked-scan offsets skip block 0",
        ("tests/test_core.py",),
        (("core.py", "    for k in range(blocks):", "    for k in range(1, blocks):"),),
    ),
    Mutant(
        "the blocked scan sums blocks in int8 whatever their height",
        ("tests/test_core.py",),
        (("core.py", "if b * weights.max_abs > INT8_MAX:", "if weights.max_abs > INT8_MAX:"),),
    ),
    Mutant(
        "a transposed blocked-scan row map",
        ("tests/test_core.py",),
        (("core.py", "(rows % b) * blocks + block", "block * blocks + rows % b"),),
    ),
    Mutant(
        "a neuron that never crosses stops at group 0",
        ("tests/test_core.py",),
        (("core.py", "            crossed[last] = True  # so", "            crossed[last] = False  # so"),),
    ),
    Mutant(
        "touched leaves out each neuron's own stop group",
        ("tests/test_core.py",),
        (("core.py", "touched = int(stop_rows.sum()) + layer.out_dim", "touched = int(stop_rows.sum())"),),
    ),
    Mutant(
        "every layer after the first reads a silent input",
        ("tests/test_oracle.py",),
        ((
            "core.py",
            "        codes = state.fire_codes  # the next layer's input, as they are\n",
            "        codes = state.fire_codes * 0 - 1\n",
        ),),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Apply mutant's edits to the package under src; ValueError if a snippet
    does not occur exactly once in its file."""
    for name, snippet, replacement in mutant.edits:
        path = src / "spikesoc" / name
        text = path.read_text()
        if text.count(snippet) != 1:
            raise ValueError(f"{name}: snippet occurs {text.count(snippet)} times: {snippet!r}")
        path.write_text(text.replace(snippet, replacement))


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _copy_src(workdir: str) -> Path:
    src = Path(workdir) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        src = _copy_src(workdir)
        where = subprocess.run(
            [sys.executable, "-c", "import spikesoc; print(spikesoc.__file__)"],
            cwd=ROOT, env=_env(src), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            print(f"spikesoc imports from {where or 'nowhere'}, not from the copy of src/ at {src}")
            return 1
    failures = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
            src = _copy_src(workdir)
            try:
                apply(mutant, src)
            except ValueError as exc:
                print(f"STALE    {mutant.name}: {exc}")
                failures += 1
                continue
            start = perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        # pytest exits 1 when a test failed; 0 is a survivor, any other code an error
        verdict = {0: "SURVIVED", 1: "killed  "}.get(run.returncode, f"ERROR {run.returncode}")
        failures += run.returncode != 1
        print(f"{verdict} {mutant.name} ({perf_counter() - start:.1f} s)")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
