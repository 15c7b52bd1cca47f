"""spikesoc benchmark: one workload, one seed, one JSON line at the end.

    python3 perfbench/run.py --workload binary_784_600 --seed 1 --seconds 30 --trace 0

Run from a source checkout: spikesoc is imported from ./src and nowhere
else. --trace 0 measures the end-to-end metrics with nothing wrapped;
--trace 1 makes the traced run and reports the per-module metrics. Metric
and workload definitions, units and the reading note are in
perfbench/metrics.json.

Load is a closed loop from one process and one thread: each sample is
sent only after the previous result has returned. Every sample is checked:
its class and decision time against the dense reference simulator, its
UART frame against its result, and its simulated counts against every
other run of the same sample.

The host's speed moves by up to 2x, within a second and over minutes,
because other tenants share its cores. So the kinds of measurement
(steady samples, dense-checked repetitions, fresh loads) take turns in
small units across the whole run, and a fixed pure-Python calibration
chunk takes its turn among them. The mean time of that chunk gives the
host's speed during the run, and every host time is reported scaled to
the reference speed (REFERENCE_CHUNK_S): as it would read on the
reference host. The run also prints the unscaled figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CATALOGUE = json.loads((HERE / "metrics.json").read_text())

WARMUP = 2          # untimed samples before a steady loop's first pass
SETUP_GROUP = 36    # corpus_stream: instances per fresh-load repeat (2 per cell)
CHECK_GROUP = 36    # corpus_stream: instances per steady unit and per checked slice
# Mean seconds of one Speed.chunk() on the reference host: a 2-vCPU
# x86_64 Xeon VM shared with other tenants, CPython 3.11.7.
REFERENCE_CHUNK_S = 2.4e-3
MAX_LAYERS = 3

COUNT_NAMES = (
    "encoder.events_per_sample",
    "sorter.events_per_sample",
    "core.events_processed",
    "core.events_skipped",
    "core.additions",
    "core.subtractions",
    "core.multiplications",
    *(f"core.neurons_fired.l{k}" for k in range(MAX_LAYERS)),
    "perf.encode_cycles",
    "perf.sort_cycles",
    "perf.neuron_cycles",
    "perf.decode_cycles",
    "soc_cycles_per_sample",
)


def load_spikesoc():
    """Import spikesoc from the checkout's src; refuse any installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import spikesoc
        import spikesoc.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import spikesoc from {src}: {exc}")
    if src not in Path(spikesoc.__file__).resolve().parents:
        raise SystemExit(f"error: spikesoc imported from {spikesoc.__file__}, not {src}")
    return spikesoc


def exact_counts(result, no_spike) -> tuple:
    """Simulated statistics of one inference, in COUNT_NAMES order."""
    c = result.counters
    cy = result.cycles
    fired = [sum(t is not no_spike for t in s.fire_times) for s in result.layer_states]
    fired += [0] * (MAX_LAYERS - len(fired))
    return (
        result.input_train.active_count,
        sum(t.events_sorted for t in result.trace.layers),
        c.events_processed,
        c.events_skipped,
        c.additions,
        c.subtractions,
        c.multiplications,
        *fired[:MAX_LAYERS],
        cy.encode_cycles,
        cy.sort_cycles,
        cy.neuron_cycles,
        cy.decode_cycles,
        cy.total_cycles,
    )


def quartiles(values) -> tuple:
    """(q1, median, q3); NaN when there is nothing to summarise."""
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Speed:
    """The host's speed over a run, sampled by a fixed pure-Python
    calibration chunk that takes its turn among the measurements.

    The chunk mixes, in about equal time, the three kinds of work the
    simulator's host time goes to: a tight integer loop with range checks
    (binary accumulate), a column walk over rows of weight tuples (fixed16
    accumulate) and building small bytes, tuples and dicts (model parsing,
    command streams). factor turns host seconds into seconds on the
    reference host: below 1 when this host ran slower than the reference.
    """

    def __init__(self):
        rng = random.Random(0)
        self.rows = [tuple(rng.randint(-128, 128) for _ in range(784)) for _ in range(128)]
        self.times = []

    def chunk(self) -> int:
        table = list(range(64))
        seen = {}
        acc = 0
        for i in range(300):
            for j in range(0, 64, 4):
                v = table[j] + i
                if -(1 << 31) <= v < 1 << 31:
                    acc += v & 7
                else:
                    acc -= 1
            seen[i & 63] = acc
            acc = len(seen) + (acc & 0xFFFF)
        potentials = [0] * len(self.rows)
        for e in range(18):
            col = e * 97 % 784
            for j, row in enumerate(self.rows):
                v = potentials[j] + row[col] * 3
                if -(1 << 31) <= v < 1 << 31:
                    potentials[j] = v
        records = []
        for i in range(30):
            raw = bytes((i + k) & 255 for k in range(64))
            words = tuple(int.from_bytes(raw[k : k + 2], "little") for k in range(0, 64, 2))
            records.append({"words": words, "n": len(words), "sum": sum(words)})
        return acc + sum(potentials) + len(records)

    def sample(self) -> None:
        t0 = perf_counter()
        self.chunk()
        self.times.append(perf_counter() - t0)

    @property
    def factor(self) -> float:
        return REFERENCE_CHUNK_S / statistics.fmean(self.times)

    def note(self) -> str:
        return (
            f"host speed {self.factor:.4g} x reference: {len(self.times)} calibration "
            f"chunks, mean {statistics.fmean(self.times) * 1e3:.4g} ms, reference {REFERENCE_CHUNK_S * 1e3:.4g} ms"
        )


def interleave(t_end: float, tasks: list, spent: list, ready) -> None:
    """Run one unit of whichever task is furthest behind its share of the
    time, until t_end has passed, every task has run at least once and
    ready() holds.

    tasks holds (share, callable) pairs; spent holds seconds already used
    by each task and is updated in place.
    """
    runs = [0] * len(tasks)
    while perf_counter() < t_end or 0 in runs or not ready():
        i = min(range(len(tasks)), key=lambda j: spent[j] / tasks[j][0])
        t0 = perf_counter()
        tasks[i][1]()
        spent[i] += perf_counter() - t0
        runs[i] += 1


class Bench:
    """Drives one workload through the simulator and checks every sample."""

    def __init__(self, sk, work):
        self.sk = sk
        self.w = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ref = {}         # sample -> (class, decision time, cycles), dense-checked
        self.counts = {}      # sample -> exact_counts
        self.first_uart = {}  # sample -> UART frame of its first run in a steady loop
        self.checked_reps = 0
        self.checked_times = {}  # checked unit -> seconds of each clean repetition
        C = sk.controller
        if work.single_model:
            self.idx_files = self._write_idx()
            self.checked_units = work.idx_batches
        else:
            # One LoadModel+LoadInput+Run command stream per instance; the
            # checked pass sends CHECK_GROUP instances per stream.
            self.scripts = [
                C.encode_command(C.LoadModel(image=image))
                + C.encode_command(C.LoadInput(pixels=frame))
                + C.encode_command(C.Run())
                for image, frame in zip(work.images, work.frames)
            ]
            n = len(work.frames)
            self.checked_units = [list(range(k, min(k + CHECK_GROUP, n))) for k in range(0, n, CHECK_GROUP)]
            self.streams = [b"".join(self.scripts[k] for k in unit) for unit in self.checked_units]
            self.dense_models = [sk.model.deserialize_model(img) for img in work.images]

    # -- bookkeeping -------------------------------------------------------

    def problem(self, message: str, failed: int = 0) -> None:
        self.failed += failed
        if len(self.problems) < 20:
            self.problems.append(message)

    def expect(self, k: int, outcome: tuple) -> bool:
        """Record or compare the (class, decision time, cycles) of sample k."""
        known = self.ref.setdefault(k, outcome)
        if known != outcome:
            self.problem(f"sample {k}: outcome {outcome} differs from {known}", 1)
            return False
        return True

    def check(self, k: int, result, uart: bytes, sample_index: int) -> None:
        """Check one controller run of sample k; counts one attempted sample."""
        self.attempted += 1
        outcome = (result.predicted, result.decision_time, result.cycles.total_cycles)
        try:
            parsed = self.sk.controller.parse_uart_frame(uart)
        except ValueError as exc:
            self.problem(f"sample {k}: UART frame does not parse: {exc}", 1)
            return
        if parsed != {
            "sample_index": sample_index,
            "predicted": outcome[0],
            "decision_time": outcome[1],
            "total_cycles": outcome[2],
        }:
            self.problem(f"sample {k}: UART frame {parsed} does not match its result", 1)
            return
        if k not in self.ref:
            self.problem(f"sample {k}: no dense-checked reference", 1)
            return
        if not self.expect(k, outcome):
            return
        counts = exact_counts(result, self.sk.model.NO_SPIKE)
        if self.counts.setdefault(k, counts) != counts:
            self.problem(f"sample {k}: simulated counts differ between runs", 1)

    def count_of(self, k: int) -> tuple:
        """Exact counts of sample k; zeros if it never ran cleanly (already failed)."""
        return self.counts.get(k, (0,) * len(COUNT_NAMES))

    def crashed(self, what: str, samples: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += samples
        self.problem(f"{what} raised {sys.exc_info()[1]!r}", samples)

    def outputs_digest(self) -> str:
        """SHA-256 over every simulated output: outcomes, counts, UART frames."""
        h = hashlib.sha256()
        for k in range(len(self.w.frames)):
            rec = (self.ref.get(k), self.counts.get(k), self.first_uart.get(k, b"").hex())
            h.update(repr(rec).encode())
        return h.hexdigest()

    # -- units of measurement ----------------------------------------------

    def setup_once(self):
        """One fresh Controller from image bytes to the first UART frame.

        Returns (seconds, first Run minus a second Run of the same frame).
        On corpus_stream both are means over SETUP_GROUP instances.
        """
        C = self.sk.controller
        group = [0] if self.w.single_model else range(min(SETUP_GROUP, len(self.w.frames)))
        load = extra = 0.0
        for k in group:
            image, frame = self.w.images[self.w.model_of[k]], self.w.frames[k]
            try:
                t0 = perf_counter()
                c = C.Controller()
                c.handle(C.LoadModel(image=image))
                c.handle(C.LoadInput(pixels=frame))
                t1 = perf_counter()
                _, uart = c.handle(C.Run())
                t2 = perf_counter()
                first = c.last_result
                c.handle(C.LoadInput(pixels=frame))
                t3 = perf_counter()
                _, uart2 = c.handle(C.Run())
                t4 = perf_counter()
            except Exception:
                self.crashed(f"fresh load of sample {k}", 2)
                continue
            self.check(k, first, uart, 0)
            self.check(k, c.last_result, uart2, 1)
            load += t2 - t0
            extra += (t2 - t1) - (t4 - t3)
        return load / len(group), extra / len(group)

    def checked_round(self) -> None:
        """Every checked unit once; sets the dense-checked reference of
        every sample before anything else runs."""
        for _ in self.checked_units:
            self.checked_rep()

    def checked_rep(self) -> None:
        """One checked unit, inference plus the dense cross-check as
        `spikesoc --oracle` runs it; units take turns."""
        u = self.checked_reps % len(self.checked_units)
        self.checked_reps += 1
        if self.w.single_model:
            dt = self._checked_batch(self.checked_units[u], *self.idx_files[u])
        else:
            dt = self._checked_stream(u)
        if dt is not None:
            self.checked_times.setdefault(u, []).append(dt)

    @property
    def checked_samples_per_s(self) -> float:
        """Host samples/s: the pool over the summed mean times of the checked units."""
        if len(self.checked_times) < len(self.checked_units):
            return math.nan
        return len(self.w.frames) / sum(map(statistics.fmean, self.checked_times.values()))

    def _write_idx(self) -> list:
        """Model image and one IDX image/label pair per batch, written untimed."""
        cli = self.sk.cli
        d = OUT / self.w.name
        d.mkdir(parents=True, exist_ok=True)
        model = d / "model.bin"
        model.write_bytes(self.w.images[0])
        rows, cols = self.w.idx_shape
        files = []
        for b, batch in enumerate(self.w.idx_batches):
            images, labels = d / f"images_{b}.idx", d / f"labels_{b}.idx"
            cli.write_idx_images(images, [self.w.frames[k] for k in batch], rows, cols)
            cli.write_idx_labels(labels, [self.w.labels[k] for k in batch])
            files.append((model, images, labels))
        return files

    def _checked_batch(self, batch: list, model, images, labels):
        t0 = perf_counter()
        try:
            report = self.sk.cli.run_batch(model, images, labels, oracle=True)
        except Exception:
            self.crashed(f"run_batch on {images.name}", len(batch))
            return None
        dt = perf_counter() - t0
        self.attempted += len(batch)
        if len(report["per_sample"]) != len(batch):
            self.problem(f"run_batch on {images.name} reported {report['n_samples']} samples", len(batch))
            return None
        ok = [
            self.expect(k, (rec["pred"], rec["decision_time"], rec["cycles"]))
            for k, rec in zip(batch, report["per_sample"])
        ]
        return dt if all(ok) else None

    def _checked_stream(self, u: int):
        sk = self.sk
        unit = self.checked_units[u]
        n = len(unit)
        t0 = perf_counter()
        try:
            uart, _ = sk.controller.Controller().run_script(self.streams[u])
            refs = [sk.oracle.dense_infer(self.dense_models[i], self.w.frames[i]) for i in unit]
        except Exception:
            self.crashed(f"run_script over corpus instances {unit[0]}-{unit[-1]}", n)
            return None
        dt = perf_counter() - t0
        self.attempted += n
        size = sk.controller.UART_FRAME_LEN
        if len(uart) != n * size:
            self.problem(f"corpus stream returned {len(uart)} UART bytes for {n} runs", n)
            return None
        clean = True
        for j, (i, ref) in enumerate(zip(unit, refs)):
            frame = sk.controller.parse_uart_frame(uart[j * size : (j + 1) * size])
            got = (frame["predicted"], frame["decision_time"])
            if got != (ref.predicted, ref.decision_time) or frame["sample_index"] != 0:
                self.problem(
                    f"instance {i}: datapath frame {frame}, dense reference "
                    f"{(ref.predicted, ref.decision_time)}",
                    1,
                )
                clean = False
                continue
            clean = self.expect(i, (*got, frame["total_cycles"])) and clean
        return dt if clean else None


class SteadyLoop:
    """Closed loop over the sample pool on one long-lived Controller.

    Single-model workloads load the model once and send LoadInput+Run per
    sample; corpus_stream sends each instance's LoadModel+LoadInput+Run
    through run_script. Each call of run_unit sends the next sample of the
    pool (corpus_stream: the next CHECK_GROUP instances), so steady work
    takes turns with the other measurements in short units. With a tracer,
    every sample gets a root span and the unit runs with the wrappers
    installed.
    """

    def __init__(self, bench: Bench, tracer=None):
        self.bench = bench
        self.tracer = tracer
        self.controller = None
        self.pos = 0
        self.unit = 1 if bench.w.single_model else CHECK_GROUP
        self.times = [[] for _ in bench.w.frames]  # seconds of each clean timed run, per sample

    @property
    def all_times(self) -> list:
        return [t for ts in self.times for t in ts]

    @property
    def covered(self) -> bool:
        """Whether every sample of the pool has had a timed run."""
        return self.pos >= len(self.times) + WARMUP

    @property
    def passes(self) -> float:
        return max(self.pos - WARMUP, 0) / len(self.times)

    @property
    def samples_per_s(self) -> float:
        """Host samples/s: the pool over the summed mean times of its samples."""
        if not all(self.times):
            return math.nan
        return len(self.times) / sum(map(statistics.fmean, self.times))

    def latency_ms(self, percent: int) -> float:
        """Percentile over the pool of each sample's mean time, in host ms.

        The spread left in it is the inputs' own: how long one run of a
        sample takes otherwise depends on what the host's other tenants
        are doing at that moment.
        """
        means = [statistics.fmean(t) for t in self.times]
        if len(means) == 1:
            return means[0] * 1e3
        return statistics.quantiles(means, n=100, method="inclusive")[percent - 1] * 1e3

    def run_unit(self) -> None:
        if self.tracer is None:
            self._run_unit()
        else:
            with self.tracer.installed(self.bench.sk):
                self._run_unit()

    def _run_unit(self) -> None:
        b, w, tracer = self.bench, self.bench.w, self.tracer
        C = b.sk.controller
        pool = len(w.frames)
        single = w.single_model
        if self.controller is None:
            if tracer is not None:
                tracer.sample = "load"
            self.controller = C.Controller()
            if single:
                self.controller.handle(C.LoadModel(image=w.images[0]))
        c = self.controller
        stop = self.pos + self.unit + (WARMUP if self.pos == 0 else 0)
        while self.pos < stop:
            pos = self.pos
            self.pos += 1
            k = pos % pool
            if tracer is not None:
                tracer.sample = pos
                root = tracer.begin("bench.sample")
            try:
                t0 = perf_counter()
                if single:
                    c.handle(C.LoadInput(pixels=w.frames[k]))
                    _, uart = c.handle(C.Run())
                else:
                    uart, _ = c.run_script(b.scripts[k])
                dt = perf_counter() - t0
            except Exception:
                b.crashed(f"steady run of sample {k}", 1)
                continue
            finally:
                if tracer is not None:
                    tracer.end(root)
            failed = b.failed
            b.check(k, c.last_result, uart, pos if single else 0)
            if pos < pool and b.first_uart.setdefault(k, uart) != uart:
                b.problem(f"sample {k}: UART frame differs between steady loops", 1)
            if pos >= WARMUP and b.failed == failed:
                self.times[k].append(dt)


# -- the two kinds of run -------------------------------------------------


def untraced_run(bench: Bench, seconds: float) -> tuple:
    t_end = perf_counter() + seconds
    t0 = perf_counter()
    bench.checked_round()
    spent = [0.0, perf_counter() - t0, 0.0, 0.0]
    steady = SteadyLoop(bench)
    speed = Speed()
    setups = []
    interleave(
        t_end,
        [
            (0.40, steady.run_unit),
            (0.40, bench.checked_rep),
            (0.08, lambda: setups.append(bench.setup_once())),
            (0.12, speed.sample),
        ],
        spent,
        ready=lambda: steady.covered,
    )
    f = speed.factor
    pool = len(bench.w.frames)
    setup_s = [s for s, _ in setups]
    host = {
        "samples_per_s": steady.samples_per_s,
        "sample_ms_p50": steady.latency_ms(50),
        "sample_ms_p90": steady.latency_ms(90),
        "checked_samples_per_s": bench.checked_samples_per_s,
        "setup_s": quartiles(setup_s)[1],
    }
    values = {
        "samples_per_s": host["samples_per_s"] / f,
        "sample_ms_p50": host["sample_ms_p50"] * f,
        "sample_ms_p90": host["sample_ms_p90"] * f,
        "checked_samples_per_s": host["checked_samples_per_s"] / f,
        "setup_s": host["setup_s"] * f,
        "soc_cycles_per_sample": sum(bench.count_of(k)[-1] for k in range(pool)) / pool,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(steady.all_times)
    units = len(bench.checked_units)
    notes = {name: f"host {value:.6g}" for name, value in host.items()}
    notes["samples_per_s"] += f", {pool} samples, {steady.passes:.3g} passes, n={n}"
    notes["sample_ms_p50"] += f", over the means of {pool} samples, n={n}"
    notes["sample_ms_p90"] += f", over the means of {pool} samples, {pool - math.ceil(0.9 * pool)} beyond"
    notes["checked_samples_per_s"] += f", {units} units, {bench.checked_reps / units:.3g} repetitions each"
    notes["setup_s"] += ", median of {} fresh loads, q1 {:.6g} q3 {:.6g}".format(
        len(setup_s), *quartiles(setup_s)[::2]
    )
    notes["soc_cycles_per_sample"] = f"simulated, mean over the {pool}-sample pool, exact"
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    print(speed.note())
    return values, notes


def traced_run(bench: Bench, seconds: float, tracing) -> tuple:
    sk = bench.sk
    tracer = tracing.Tracer()
    t_end = perf_counter() + seconds
    t0 = perf_counter()
    with tracer.installed(sk):
        tracer.sample = "checked"
        bench.checked_round()
        tracer.sample = "serialize"
        for m, image in zip(bench.w.models, bench.w.images):
            if sk.model.serialize_model(m) != image:
                bench.problem("serialize_model output differs from the generated image")
    spent = [0.0, 0.0, perf_counter() - t0, 0.0, 0.0]
    untraced = SteadyLoop(bench)
    traced = SteadyLoop(bench, tracer)
    speed = Speed()
    setups = []

    def traced_checked():
        with tracer.installed(sk):
            tracer.sample = "checked"
            bench.checked_rep()

    interleave(
        t_end,
        [
            (0.25, untraced.run_unit),
            (0.30, traced.run_unit),
            (0.25, traced_checked),
            (0.08, lambda: setups.append(bench.setup_once())),
            (0.12, speed.sample),
        ],
        spent,
        ready=lambda: untraced.covered and traced.covered,
    )

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans_{bench.w.name}.tsv")
    table = tracing.SpanTable(tracer)
    timed = table.select(lambda s: isinstance(s, int) and s >= WARMUP)
    checked = table.select(lambda s: s == "checked")
    everything = range(len(tracer))
    for message in table.check_nesting(timed) + table.check_nesting(checked):
        bench.problem(f"trace: {message}")

    n = max(table.total(timed, "bench.sample")[0], 1)
    pool = len(bench.w.frames)

    def per_sample_ms(name, *, self_only=False):
        return table.total(timed, name, self_only=self_only)[1] / n * 1e3

    def per_call_ms(indices, name):
        calls, secs = table.total(indices, name)
        return secs / calls * 1e3 if calls else 0.0

    dense_calls = max(table.total(checked, "oracle.dense_infer")[0], 1)
    batch_calls = table.total(checked, "cli.run_batch")[0]
    events = sum(bench.count_of((WARMUP + i) % pool)[2] for i in range(n))
    values = {
        "model.deserialize_ms": per_call_ms(everything, "model.deserialize_model"),
        "model.serialize_ms": per_call_ms(everything, "model.serialize_model"),
        "model.first_run_excess_ms": quartiles([x for _, x in setups])[1] * 1e3,
        "encoder.ms_per_sample": per_sample_ms("encoder.encode_ttfs"),
        "sorter.ms_per_sample": per_sample_ms("sorter.sort_spikes"),
        **{
            f"core.run_layer_ms.l{k}": per_sample_ms(f"core.run_layer.l{k}")
            for k in range(MAX_LAYERS)
        },
        "core.accumulate_ms_per_sample": per_sample_ms("core.accumulate"),
        "core.fire_check_ms_per_sample": per_sample_ms("core.fire_check"),
        "core.us_per_event": table.total(timed, "core.run_network")[1] / max(events, 1) * 1e6,
        "decoder.ms_per_sample": per_sample_ms("decoder.decode"),
        "perf.estimate_cycles_ms": per_sample_ms("perf.estimate_cycles"),
        "controller.handle_self_ms": per_sample_ms("controller.handle", self_only=True),
        "controller.uart_ms": per_sample_ms("controller.format_uart_frame"),
        "controller.parse_stream_ms": per_sample_ms("controller.parse_command_stream"),
        "oracle.ms_per_sample": per_call_ms(checked, "oracle.dense_infer"),
        "oracle.sweep_ms.l0": per_call_ms(checked, "oracle.dense_layer_sweep.l0"),
        "oracle.weight_matrix_ms": table.total(checked, "oracle.dense_weight_matrix")[1]
        / dense_calls
        * 1e3,
        "cli.load_idx_ms": table.total(checked, "cli.load_idx")[1] / max(batch_calls, 1) * 1e3,
        "cli.run_batch_self_ms": table.total(checked, "cli.run_batch", self_only=True)[1]
        / dense_calls
        * 1e3,
    }
    totals = [sum(col) for col in zip(*(bench.count_of(k) for k in range(pool)))]
    for name, total in zip(COUNT_NAMES, totals):
        values[name] = total / pool
    processed, skipped = totals[2], totals[3]
    values["core.skip_ratio"] = skipped / (processed + skipped) if processed + skipped else 0.0
    # Host times, like the end-to-end ones, are scaled to the reference speed.
    for entry in CATALOGUE["per_layer"]:
        if entry["unit"] in ("ms", "us"):
            values[entry["name"]] *= speed.factor
    print(speed.note())
    values["trace.overhead_pct"] = (
        (untraced.samples_per_s - traced.samples_per_s) / untraced.samples_per_s * 100
    )

    # A metric is absent when none of the public names behind it exists,
    # or when this workload never calls them (no layer 2, no IDX files,
    # no command stream). It is then reported as 0.
    layers = max(len(m.layers) for m in bench.w.models)
    absent = {
        "core.accumulate_ms_per_sample": "core.accumulate" in tracer.missing,
        "core.fire_check_ms_per_sample": "core.fire_check" in tracer.missing,
        "cli.load_idx_ms": batch_calls == 0,
        "cli.run_batch_self_ms": batch_calls == 0,
        "controller.parse_stream_ms": bench.w.single_model,
        **{f"core.run_layer_ms.l{k}": k >= layers for k in range(MAX_LAYERS)},
        **{f"core.neurons_fired.l{k}": k >= layers for k in range(MAX_LAYERS)},
    }
    notes = {name: "absent" for name, gone in absent.items() if gone}
    notes["trace.overhead_pct"] = (
        f"host samples/s untraced {untraced.samples_per_s:.6g} over {untraced.passes:.3g} passes, "
        f"traced {traced.samples_per_s:.6g} over {traced.passes:.3g}"
    )
    modules = table.module_self_ms(timed)
    root_ms = table.total(timed, "bench.sample")[1] * 1e3
    print(f"traced samples: {n}; self time per sample by module (host ms, unscaled):")
    for module, ms in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<12} {ms / n:10.4f}")
    print(f"  {'sum':<12} {sum(modules.values()) / n:10.4f}  root span {root_ms / n:.4f}")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CATALOGUE["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sk = load_spikesoc()
    import tracing
    import workloads

    t0 = perf_counter()
    work = workloads.WORKLOADS[args.workload](args.seed)
    print(
        f"workload {work.name} seed {args.seed} trace {args.trace}: "
        f"{len(work.images)} model(s), {len(work.frames)} samples, "
        f"generated in {perf_counter() - t0:.2f}s"
    )
    print(f"inputs sha256 {work.digest()}")
    bench = Bench(sk, work)
    if args.trace:
        values, notes = traced_run(bench, args.seconds, tracing)
        catalogue = CATALOGUE["per_layer"]
    else:
        values, notes = untraced_run(bench, args.seconds)
        catalogue = CATALOGUE["end_to_end"]

    metrics = {}
    for entry in catalogue:
        name, unit = entry["name"], entry["unit"]
        value = values[name]
        if not math.isfinite(value):
            bench.problem(f"{name} could not be measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<30} {value:>14.6g} {unit:<7} {notes.get(name, '')}")
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(
        f"{'error_rate':<30} {error_rate:>14.6g} {'ratio':<7} "
        f"{bench.failed} failed of {bench.attempted} attempted"
    )
    print(f"outputs sha256 {bench.outputs_digest()}")
    for message in bench.problems:
        print(f"problem: {message}")
    correct = bench.failed == 0 and not bench.problems and bench.attempted > 0
    print(f"{'PASS' if correct else 'FAIL'}: {work.name} seed {args.seed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(bench.attempted, 1),
                "failed": bench.failed if bench.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
