"""Event-driven datapath: per layer, the sorter's event queue of its input
codes and one prefix scan over it; whole-network inference with event skipping.

Conventions fixed here and mirrored by the dense reference simulator:

  * firing compares potential >= the layer's effective threshold;
  * the current scale folds into the threshold in binary mode, so the
    accumulator stays add/sub only;
  * firing is evaluated once per timestep group, after all of the group's
    columns are accumulated, scanning neurons in ascending index order
    (time-multiplexed update unit), so same-time events commute;
  * a fired neuron is frozen: its potential never changes again and it
    never fires twice.

A neuron's potential depends only on its own weight column, and freezing
stops only the neuron that fired, so run_layer is one prefix sum over the
layer's gathered event columns, read at each group end for the fire test
and, per neuron, at the group it fires in (or, with early stop, the first
group that fires anything).

No prefix of n events passes n times the largest |weight|. A layer has at
most 65535 inputs (the flash record's u16 in_dim) and its queue, sorted from
its codes, holds at most one event per input, so no prefix passes
65535 * 2^15 < 2^31: int32 is exact for every layer, and the one cumsum runs
in int32. Only the blocked scan sums in the narrowest exact accumulator,
int16 while n times the largest |weight| fits (every binary layer of up to
32767 events), else int32. Inside a block of b rows no sum passes b times
the largest |weight|, so while that is at most 127 (a binary block of up
to 127 rows) the block is gathered and summed from binary's one-byte
columns in int8, and only the block offsets and the rows read are in the
accumulator; numpy's int8 adds wrap silently, so that bound is the only
guard. np.cumsum along the event axis is a scalar loop, about 2.3 ns per
cell, while adding one whole row slice into another costs about 0.07 ns
per cell. So a large layer is scanned in blocks of rows by
row-slice adds, within every block at once, then over the block totals and
the tail; only the rows read get their block's offset, and only the columns
that fire are searched for a first crossing. Below BLOCKED_SCAN_CELLS
gathered cells (every acceptance-corpus layer) one cumsum and argmax are
faster. There a numpy call's fixed cost outweighs its data, so an
early-stopped layer finds its stop group by one argmax over the row-major
fire test, and a neuron that never crosses stops at the last group because
that row of the fire test is set.

Non-informative events are skipped, never processed: events into a layer
whose neurons have all fired, and events behind the output layer's
decision time when early termination is on.

run_layer returns, with the layer's NeuronState, its LayerTally: events
sorted and processed, and the adds, subs or multiplies they made. Every
network total (LayerTally.total, the cycle report) is a sum of those tallies.
run_network hands each layer's int16 fire codes to the next run_layer as
they are, as the dense oracle hands them to its next sweep, and stores
only the states and the RunTrace of tallies; the result's counters and
cycle report are views derived from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Optional

import numpy as np

from .decoder import decode
from .encoder import encode_ttfs
from .model import (
    INT8_MAX,
    INT16_MAX,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMatrix,
    WeightMode,
    check_layer_input,
    slot_values,
)
from .perf import CycleReport, LayerTally, RunTrace, estimate_cycles
from .sorter import sort_spikes


# Measured on a 2-vCPU x86_64 VM: the blocked scan takes 1.05-1.6x the time of
# one in-place np.cumsum at 8k-16k gathered cells, and 0.6-0.9x from 32k on,
# in int16 and int32 and for 64 to 600 neurons.
BLOCKED_SCAN_CELLS = 1 << 15


def _prefix_rows(weights: WeightMatrix, events: np.ndarray, rows: np.ndarray, acc, blocked: bool):
    """Rows `rows` of weights.columns[events].cumsum(axis=0), summed in dtype acc
    that the caller has checked can hold every prefix: int32 at least unless blocked.
    Blocked, each row read is its within-block or tail sum plus the sum of the blocks
    before; a block of b rows is summed in int8 while b * max_abs <= INT8_MAX, which
    no in-block or tail sum passes (numpy's int8 adds wrap silently past it)."""
    columns = weights.columns
    n, width = len(events), columns.shape[1]
    if not blocked:
        # In int32: numpy's int16 accumulate runs up to 2x slower here.
        prefix = columns.take(events, axis=0).astype(np.int32)
        np.add.accumulate(prefix, axis=0, out=prefix)  # in place: 2x faster than into a new array
        return prefix.take(rows, axis=0)
    b = min(n, isqrt(n * width // 512))  # rows per block, near the measured optimum
    blocks = n // b
    full = blocks * b
    # Gathered block-major, slot r * blocks + k holds event k * b + r, so each
    # step adds whole contiguous (blocks, width) slices; strided slices of one
    # buffer would make numpy copy them first, as their extents overlap.
    order = np.concatenate([events[:full].reshape(blocks, b).T.ravel(), events[full:]])
    flat = columns[order]
    if b * weights.max_abs > INT8_MAX:  # else binary's int8 columns, a byte per cell, sum as they are
        flat = flat.astype(acc, copy=False)
    scan = flat[:full].reshape(b, blocks, width)
    for r in range(1, b):
        scan[r] += scan[r - 1]
    offsets = np.zeros((blocks + 1, width), acc)  # row k: the sum of blocks < k
    for k in range(blocks):
        np.add(offsets[k], scan[-1, k], out=offsets[k + 1])
    for r in range(full + 1, n):  # the tail, fewer than b rows, summed from zero
        flat[r] += flat[r - 1]
    block = rows // b
    return flat[np.where(rows < full, (rows % b) * blocks + block, rows)] + offsets[block]


@dataclass(frozen=True, eq=False)
class NeuronState:
    """One layer's potentials and fire times: fire_codes, int16 with -1 for
    NO_SPIKE, made read-only when stored, and fire_times, its list, derived on first read."""

    potentials: list
    fire_codes: np.ndarray

    def __post_init__(self):
        self.fire_codes.flags.writeable = False

    def __eq__(self, other):
        same = type(other) is type(self) and self.potentials == other.potentials
        return same and np.array_equal(self.fire_codes, other.fire_codes)

    def __reduce__(self):  # pickle and copy rebuild, so the copy's codes are read-only too
        return type(self), (self.potentials, self.fire_codes)

    @cached_property
    def fire_times(self) -> list:
        return slot_values(self.fire_codes)


def run_layer(
    codes: np.ndarray,
    layer: LayerConfig,
    weights: WeightMatrix,
    *,
    stop_at_first_fire: bool = False,
) -> tuple[NeuronState, LayerTally]:
    """Run one layer on its input codes, -1 for no spike, as dense_layer_sweep takes
    them: check_layer_input checks them and sort_spikes queues them by time. Each event
    of a group adds its weight column into every unfired neuron; then one fire check
    scans the neurons in ascending index order. Groups after every neuron has fired are
    skipped, and with stop_at_first_fire the layer stops after the first group that fires.
    """
    check_layer_input(codes, layer, weights)
    events, group_times, group_ends = sort_spikes(codes)
    if not len(events):
        state = NeuronState([0] * layer.out_dim, np.full(layer.out_dim, -1, np.int16))
        return state, LayerTally(layer.in_dim, layer.out_dim, 0, 0)

    # No prefix of these events passes len(events) * max_abs, below 2^31 (module docstring).
    acc = np.int16 if len(events) * weights.max_abs <= INT16_MAX else np.int32
    blocked = len(events) * layer.out_dim >= BLOCKED_SCAN_CELLS
    # ends[g, j]: neuron j's potential after group g, had it never frozen.
    ends = _prefix_rows(weights, events, group_ends, acc, blocked)
    threshold = layer.effective_threshold(weights.mode)
    last = len(group_ends) - 1
    if stop_at_first_fire:  # every neuron stops at the first group that fires anything
        crossed = ends >= threshold
        k = crossed.argmax()  # row-major, so the first crossing lies in that group
        first = k // layer.out_dim if crossed.item(k) else last
        potentials, fires = ends[first], crossed[first]
        processed = int(group_ends[first]) + 1
        touched = processed * layer.out_dim
        fire_codes = np.where(fires, group_times[first], -1)
    else:
        if blocked:  # few columns fire: find first crossings only in those
            firing = ends.max(axis=0) >= threshold
            stop = np.full(layer.out_dim, last)  # each neuron's last group
            stop[firing] = (ends[:, firing] >= threshold).argmax(axis=0)
        else:
            crossed = ends >= threshold
            crossed[last] = True  # so a neuron that never crosses stops at the last group
            stop = crossed.argmax(axis=0)
        potentials = ends[stop, np.arange(layer.out_dim)]
        fires = potentials >= threshold  # at its stop group, only where the neuron fired
        stop_rows = group_ends[stop]
        touched = int(stop_rows.sum()) + layer.out_dim  # tolist and sum: 3x as long at 600 neurons
        processed = int(stop_rows[stop.argmax()]) + 1  # group_ends ascends
        fire_codes = np.where(fires, group_times[stop], -1)
    values = potentials.tolist()
    if weights.mode is WeightMode.BINARY:
        # Every touch adds or subtracts 1, so the potentials' sum is adds - subs.
        adds = (touched + sum(values)) // 2
        ops = (adds, touched - adds, 0)
    else:
        ops = (0, 0, touched)
    tally = LayerTally(layer.in_dim, layer.out_dim, len(events), processed, *ops)
    return NeuronState(values, fire_codes.astype(np.int16)), tally


@dataclass
class InferenceResult:
    """Everything one inference produced, stored once.

    Stored: the class and decision time, the encoder's (codes, t_max) train,
    each layer's NeuronState (its output spikes are its fire codes) and the
    run's trace of layer tallies. Derived on first read: counters, the tallies'
    LayerTally total, and cycles, the trace's CycleReport. The dense reference
    simulator leaves trace None, and so counters and cycles.
    """

    predicted: int
    decision_time: Optional[int]
    input_train: SpikeTrain
    layer_states: list
    trace: Optional[RunTrace] = None

    @cached_property
    def counters(self) -> Optional[LayerTally]:
        return None if self.trace is None else LayerTally.total(self.trace.layers)

    @cached_property
    def cycles(self) -> Optional[CycleReport]:
        return None if self.trace is None else estimate_cycles(self.trace)


def first_divergence(
    a: InferenceResult, b: InferenceResult, *, output_layer: bool = True
) -> Optional[str]:
    """Where two results for one network and frame first differ, or None.

    Layer by layer, each neuron's fire time and then its final potential,
    then the predicted class and the decision time. output_layer=False
    leaves the last layer's fire times and potentials out: an early-stopped
    output layer legitimately stops short of a full run. The answer names
    the field, the layer and neuron where there is one, and both values.
    Fire codes are compared as arrays: the `fire_times` lists are built
    only for the layer whose codes differ.
    """
    states = list(zip(a.layer_states, b.layer_states))
    for k, (sa, sb) in enumerate(states if output_layer else states[:-1]):
        if not np.array_equal(sa.fire_codes, sb.fire_codes):
            name, xs, ys = "fire time", sa.fire_times, sb.fire_times
        elif sa.potentials != sb.potentials:
            name, xs, ys = "potential", sa.potentials, sb.potentials
        else:
            continue
        j = next(j for j, (x, y) in enumerate(zip(xs, ys)) if x != y)
        return f"layer {k} neuron {j} {name} {xs[j]} vs {ys[j]}"
    for name in ("predicted", "decision_time"):
        x, y = getattr(a, name), getattr(b, name)
        if x != y:
            return f"{name} {x} vs {y}"
    return None


def run_network(
    model: NetworkModel,
    frame: bytes,
    *,
    early_stop: bool = True,
) -> InferenceResult:
    """Full pipeline: encode, then per layer sort and run, then decode.

    With early_stop the output layer stops once a decision exists; hidden
    layers always run to completion (their later spikes still matter).
    """
    input_train = encode_ttfs(frame, model.t_max)
    codes = input_train.codes
    last_layer = len(model.layers) - 1
    layer_states = []
    tallies = []
    for k, (cfg, weights) in enumerate(model.layers):
        state, tally = run_layer(codes, cfg, weights, stop_at_first_fire=early_stop and k == last_layer)
        codes = state.fire_codes  # the next layer's input, as they are
        tallies.append(tally)
        layer_states.append(state)

    predicted, decision_time = decode(codes, state.potentials)
    trace = RunTrace(t_max=model.t_max, layers=tuple(tallies))
    return InferenceResult(predicted, decision_time, input_train, layer_states, trace)
