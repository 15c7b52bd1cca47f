"""Cycle-cost and memory-footprint model.

The pipeline is modeled as sequential per-layer stages at one cycle per
pixel, per sorted event, per neuron scanned and per decoded neuron, plus a
t_max bucket sweep per sort:

    encode = in_dim
    sort   = sum over layers of (t_max + events entering the sorter)
    neuron = sum over layers of (events processed * out_dim)
    decode = out_dim of the last layer
    total  = encode + sort + neuron + decode, exactly

Events skipped by early termination or by a fully-fired layer cost
nothing in the neuron stage, which is the whole point of skipping them.
The model is fixed: unit costs keep the breakdown internally consistent,
they are not calibrated silicon timings. Energy is reported as operation
counts, never as watts: each layer's LayerTally records its events and its
adds, subs and multiplies, and OpCounters is their sum over the network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

from .model import NetworkModel


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


@dataclass(frozen=True)
class OpCounters:
    """Network-wide operation totals, the simulation's energy proxy."""

    additions: int
    subtractions: int
    multiplications: int
    events_processed: int
    events_skipped: int

    @classmethod
    def total(cls, tallies) -> "OpCounters":
        """The sum of the layers' tallies, field by field."""
        per_layer = [
            (t.additions, t.subtractions, t.multiplications, t.events_processed, t.events_skipped)
            for t in tallies
        ]
        return cls(*map(sum, zip(*per_layer)))


@dataclass(frozen=True)
class RunTrace:
    """One inference's layer tallies, in layer order."""

    t_max: int
    input_dim: int
    layers: tuple

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class CycleReport:
    """Latency breakdown; total is the exact sum of the four stages."""

    encode_cycles: int
    sort_cycles: int
    neuron_cycles: int
    decode_cycles: int
    total_cycles: int

    def __post_init__(self):
        stages = (
            self.encode_cycles + self.sort_cycles + self.neuron_cycles + self.decode_cycles
        )
        if self.total_cycles != stages:
            raise ValueError(f"total {self.total_cycles} != stage sum {stages}")


def estimate_cycles(trace: RunTrace) -> CycleReport:
    """The stage cycles of a run trace (formulas in the module docstring)."""
    encode = trace.input_dim
    sort = sum(trace.t_max + t.events_sorted for t in trace.layers)
    neuron = sum(t.events_processed * t.out_dim for t in trace.layers)
    decode = trace.output_dim
    return CycleReport(
        encode_cycles=encode,
        sort_cycles=sort,
        neuron_cycles=neuron,
        decode_cycles=decode,
        total_cycles=encode + sort + neuron + decode,
    )


@dataclass(frozen=True)
class LayerMemory:
    weight_bytes: int
    spike_bytes: int


@dataclass(frozen=True)
class MemoryReport:
    """Byte-level footprint of the on-chip memories.

    Spike memories hold one byte per neuron per layer boundary; the first
    layer also owns the input spike buffer, every layer owns its output
    codes.
    """

    layers: tuple
    weight_bytes: int
    spike_bytes: int


def memory_footprint(model: NetworkModel) -> MemoryReport:
    """Exact byte counts for the model's weight and spike memories."""
    layers = []
    weight_total = 0
    spike_total = 0
    for k, (cfg, weights) in enumerate(model.layers):
        wb = weights.weight_bytes
        sb = cfg.out_dim + (cfg.in_dim if k == 0 else 0)
        layers.append(LayerMemory(weight_bytes=wb, spike_bytes=sb))
        weight_total += wb
        spike_total += sb
    return MemoryReport(
        layers=tuple(layers),
        weight_bytes=weight_total,
        spike_bytes=spike_total,
    )


def cycles_to_ms(cycles: int, clock_mhz: float = 163.0) -> float:
    """Wall time for a cycle count at a given clock, for report readability only."""
    if not 0 < clock_mhz < math.inf:
        raise ValueError("clock_mhz must be positive and finite")
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
