"""Span tracing from outside the program.

The traced run replaces module-level names in spikesoc (for example
spikesoc.core.sort_spikes) with timing wrappers. Every call then records a
span: name, start, end, parent span and sample id. Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
child spans cover; the self times inside one sample add up to that
sample's root span.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans whose name gets a .l<k> suffix: the k-th call under the same parent
# is network layer k.
LAYERED = ("core.run_layer", "oracle.dense_layer_sweep")


def targets(spikesoc):
    """(owner, attribute, span name) for every public name the trace wraps.

    Names are replaced where their callers look them up: core looks up
    encode_ttfs in its own namespace, the controller looks up run_network
    in its own, and so on.
    """
    core, controller, cli, oracle, model = (
        spikesoc.core, spikesoc.controller, spikesoc.cli, spikesoc.oracle, spikesoc.model,
    )
    return [
        (model, "serialize_model", "model.serialize_model"),
        (controller, "deserialize_model", "model.deserialize_model"),
        (controller.Controller, "handle", "controller.handle"),
        (controller.Controller, "run_script", "controller.run_script"),
        (controller, "parse_command_stream", "controller.parse_command_stream"),
        (controller, "format_uart_frame", "controller.format_uart_frame"),
        (controller, "run_network", "core.run_network"),
        (core, "encode_ttfs", "encoder.encode_ttfs"),
        (core, "sort_spikes", "sorter.sort_spikes"),
        (core, "run_layer", "core.run_layer"),
        (core, "accumulate_event_binary", "core.accumulate"),
        (core, "accumulate_event_fixed16", "core.accumulate"),
        (core, "fire_check", "core.fire_check"),
        (core, "decode", "decoder.decode"),
        (core, "estimate_cycles", "perf.estimate_cycles"),
        (cli, "run_batch", "cli.run_batch"),
        (cli, "load_idx_images", "cli.load_idx"),
        (cli, "load_idx_labels", "cli.load_idx"),
        (cli, "dense_infer", "oracle.dense_infer"),
        (oracle, "dense_infer", "oracle.dense_infer"),
        (oracle, "dense_layer_sweep", "oracle.dense_layer_sweep"),
        (oracle, "dense_weight_matrix", "oracle.dense_weight_matrix"),
    ]


class Tracer:
    """In-memory span recorder; set .sample before each sample's calls.

    Spans are stored column-wise (plain arrays of floats and ints) so that
    a long trace adds no objects for the garbage collector to walk.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, -1 for a root
        self.samples = []
        self.sample = None
        self.missing = set()  # span names none of whose public names exist
        self._stack = []
        self._siblings = defaultdict(int)

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name in LAYERED:
            key = (parent, name)
            name = f"{name}.l{self._siblings[key]}"
            self._siblings[key] += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.samples.append(self.sample)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    @contextmanager
    def installed(self, spikesoc):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        found = set()
        wanted = set()
        try:
            for owner, attr, name in targets(spikesoc):
                wanted.add(name)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                found.add(name)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            self.missing |= wanted - found
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, sample."""
        rows = zip(self.names, self.starts, self.ends, self.parents, self.samples)
        with open(path, "w") as f:
            f.write("name\tstart_s\tend_s\tparent\tsample\n")
            f.writelines(f"{n}\t{s!r}\t{e!r}\t{p}\t{m}\n" for n, s, e, p, m in rows)


class SpanTable:
    """Self times and per-name totals over the spans of chosen samples."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer)
        self.dur = array("d", (e - s for s, e in zip(tracer.starts, tracer.ends)))
        child = array("d", bytes(8 * n))
        self.root = array("q", range(n))  # outermost enclosing span
        for i, parent in enumerate(tracer.parents):
            if parent >= 0:
                child[parent] += self.dur[i]
                self.root[i] = self.root[parent]  # a parent always precedes its children
        self.self_time = array("d", (d - c for d, c in zip(self.dur, child)))

    def select(self, pred):
        return [i for i, sample in enumerate(self.t.samples) if pred(sample)]

    def total(self, indices, name, *, self_only=False):
        """(calls, seconds) of spans called `name` among indices."""
        times = self.self_time if self_only else self.dur
        names = self.t.names
        hits = [times[i] for i in indices if names[i] == name]
        return len(hits), sum(hits)

    def check_nesting(self, indices) -> list:
        """Each span lies inside its parent and has non-negative self time,
        and the self times under each root add up to the root's duration."""
        t = self.t
        problems = []
        self_sum = defaultdict(float)
        roots = []
        for i in indices:
            if self.self_time[i] < -1e-9:
                problems.append(f"span {i} {t.names[i]}: children cover more than its duration")
            parent = t.parents[i]
            if parent >= 0 and not (t.starts[parent] <= t.starts[i] and t.ends[i] <= t.ends[parent]):
                problems.append(f"span {i} {t.names[i]}: outside its parent {t.names[parent]}")
            root = self.root[i]
            self_sum[root] += self.self_time[i]
            if root == i:
                roots.append(i)
        for root in roots:
            dur = self.dur[root]
            if abs(self_sum[root] - dur) > 1e-9 + 1e-9 * dur:
                problems.append(
                    f"sample root {root}: self times sum to {self_sum[root]!r}s, root lasts {dur!r}s"
                )
        return problems

    def module_self_ms(self, indices) -> dict:
        """Self time per module (first part of the span name), ms."""
        out = defaultdict(float)
        for i in indices:
            out[self.t.names[i].split(".")[0]] += self.self_time[i] * 1e3
        return dict(out)
