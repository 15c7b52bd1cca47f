"""Cycle-cost and memory-footprint model.

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
adds, subs and multiplies, and OpCounters is their sum over the network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

from .model import NetworkModel, binary_weight_bytes, fixed16_weight_bytes


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
    return CycleReport(
        encode_cycles=trace.input_dim,
        sort_cycles=sum(trace.t_max + t.events_sorted for t in trace.layers),
        neuron_cycles=sum(t.events_processed * t.out_dim for t in trace.layers),
        decode_cycles=trace.output_dim,
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
    codes. binary_bytes and fixed16_bytes are the weight bytes the model's
    topology takes in each format, whichever format the model uses.
    """

    layers: tuple
    weight_bytes: int
    spike_bytes: int
    binary_bytes: int
    fixed16_bytes: int


def memory_footprint(model: NetworkModel) -> MemoryReport:
    """Exact byte counts for the model's weight and spike memories."""
    layers = tuple(
        LayerMemory(
            weight_bytes=weights.weight_bytes,
            spike_bytes=cfg.out_dim + (cfg.in_dim if k == 0 else 0),
        )
        for k, (cfg, weights) in enumerate(model.layers)
    )
    configs = [cfg for cfg, _ in model.layers]
    return MemoryReport(
        layers=layers,
        weight_bytes=sum(m.weight_bytes for m in layers),
        spike_bytes=sum(m.spike_bytes for m in layers),
        binary_bytes=sum(binary_weight_bytes(c.in_dim, c.out_dim) for c in configs),
        fixed16_bytes=sum(fixed16_weight_bytes(c.in_dim, c.out_dim) for c in configs),
    )


def cycles_to_ms(cycles: int, clock_mhz: float = 163.0) -> float:
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
