"""Cycle-cost and weight-memory model.

The pipeline is modeled as sequential per-layer stages at one cycle per
pixel, per sorted event, per neuron scanned and per decoded neuron, plus a
t_max bucket sweep per sort:

    encode = in_dim
    sort   = sum over layers of (t_max + events entering the sorter)
    neuron = sum over layers of (events processed * out_dim)
    decode = out_dim of the last layer
    total  = encode + sort + neuron + decode, derived, never stored

Events skipped by early termination or by a fully-fired layer cost
nothing in the neuron stage, which is the whole point of skipping them.
The model is fixed: unit costs keep the breakdown internally consistent,
they are not calibrated silicon timings. Energy is reported as operation
counts, never as watts: each layer's LayerTally records its events and its
adds, subs and multiplies, and LayerTally.total sums them over the network.
Memory is counted as weight bytes only: memory_footprint gives the model's
topology packed binary and as fixed16, the two figures the CLI reports.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

from .model import NetworkModel, words_per_row


@dataclass(frozen=True)
class LayerTally:
    """What one layer did: the events its sorter emitted, the events that
    reached the core, and the synaptic updates those events made."""

    in_dim: int
    out_dim: int
    events_sorted: int
    events_processed: int
    additions: int = 0
    subtractions: int = 0
    multiplications: int = 0

    @property
    def events_skipped(self) -> int:
        return self.events_sorted - self.events_processed

    @classmethod
    def total(cls, tallies) -> "LayerTally":
        """The network as one tally: the first in_dim, the last out_dim, every count summed."""
        sorted_ = processed = adds = subs = muls = 0
        for t in tallies:  # plain sums: dataclasses.astuple deep-copies each tally
            sorted_ += t.events_sorted
            processed += t.events_processed
            adds += t.additions
            subs += t.subtractions
            muls += t.multiplications
        return cls(tallies[0].in_dim, tallies[-1].out_dim, sorted_, processed, adds, subs, muls)


@dataclass(frozen=True)
class RunTrace:
    """One inference's layer tallies, in layer order."""

    t_max: int
    layers: tuple


@dataclass(frozen=True)
class CycleReport:
    """Latency breakdown by stage; the total is derived from the stages."""

    encode_cycles: int
    sort_cycles: int
    neuron_cycles: int
    decode_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.encode_cycles + self.sort_cycles + self.neuron_cycles + self.decode_cycles


def estimate_cycles(trace: RunTrace) -> CycleReport:
    """The stage cycles of a run trace (formulas in the module docstring)."""
    sort = neuron = 0
    for t in trace.layers:  # one loop: two generator sums cost twice as long
        sort += trace.t_max + t.events_sorted
        neuron += t.events_processed * t.out_dim
    return CycleReport(trace.layers[0].in_dim, sort, neuron, trace.layers[-1].out_dim)


@dataclass(frozen=True)
class MemoryReport:
    """Weight bytes of a model's topology in each format, whichever format it uses."""

    binary_bytes: int
    fixed16_bytes: int


def memory_footprint(model: NetworkModel) -> MemoryReport:
    """The flash weight blobs' bytes packed binary, rows padded to whole words, and as fixed16."""
    configs = [cfg for cfg, _ in model.layers]
    return MemoryReport(
        binary_bytes=sum(c.out_dim * words_per_row(c.in_dim) * 2 for c in configs),
        fixed16_bytes=sum(c.out_dim * c.in_dim * 2 for c in configs),
    )


def cycles_to_ms(cycles: int, clock_mhz: float) -> float:
    """Wall time for a cycle count at a given clock, for report readability only.

    The clock must be positive with a finite rate in Hz. A sample costs at
    least one cycle, so no rate derived from these times can pass that one.
    """
    if not 0 < clock_mhz * 1e6 < math.inf:
        raise ValueError(f"clock_mhz {clock_mhz:g} is not positive with a finite rate in Hz")
    return cycles / (clock_mhz * 1e3)


def write_breakdown_csv(breakdown: Mapping[str, int], path) -> None:
    """Emit a stage -> cycles mapping as CSV rows (stage, cycles, fraction)."""
    total = sum(breakdown.values())
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "cycles", "fraction"])
        for stage, cycles in breakdown.items():
            fraction = cycles / total if total else 0.0
            writer.writerow([stage, cycles, f"{fraction:.6f}"])
