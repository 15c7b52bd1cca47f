"""Event-driven datapath: one prefix sum per layer over the sorter's event
queue arrays, and whole-network inference with event skipping.

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
layer's gathered event columns, read for each neuron up to the group it
fires in (or, with early stop, the first group that fires anything).

Non-informative events are skipped, never processed: events into a layer
whose neurons have all fired, and events behind the output layer's
decision time when early termination is on.

run_layer returns, with the layer's NeuronState, its LayerTally: events
sorted and processed, and the adds, subs or multiplies they made. Every
network total (OpCounters, the cycle report) is a sum of those tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decoder import decode
from .encoder import InputFrame, encode_ttfs
from .errors import AccumulatorOverflow, DimensionMismatch
from .model import (
    INT32_MAX,
    INT32_MIN,
    NO_SPIKE,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMatrix,
    WeightMode,
    slot_values,
)
from .perf import CycleCostTable, CycleReport, LayerTally, OpCounters, RunTrace, estimate_cycles
from .sorter import sort_spikes


@dataclass
class NeuronState:
    """Membrane accumulators and firing record (also as int16 codes) for one layer."""

    potentials: list
    fire_times: list
    fire_codes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def run_layer(
    events: np.ndarray,
    group_times: np.ndarray,
    group_ends: np.ndarray,
    layer: LayerConfig,
    weights: WeightMatrix,
    *,
    stop_at_first_fire: bool = False,
) -> tuple[NeuronState, LayerTally]:
    """Consume one layer's event queue, as sort_spikes returns it.

    Each event of a group adds its weight column into every unfired neuron;
    then one fire check scans the neurons in ascending index order. Groups
    after every neuron has fired are skipped, and with stop_at_first_fire
    the layer stops after the first group that fires anything.
    """
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    if not len(events):
        silent = np.full(layer.out_dim, -1, np.int16)
        state = NeuronState([0] * layer.out_dim, [NO_SPIKE] * layer.out_dim, silent)
        return state, LayerTally(layer.in_dim, layer.out_dim, 0, 0)
    if events.astype(np.uintp, copy=False).max() >= layer.in_dim:  # negatives wrap high
        bad = events[(events < 0) | (events >= layer.in_dim)][0]
        raise DimensionMismatch(f"event index {bad} outside the layer's inputs [0, {layer.in_dim})")

    # prefix[r, j]: neuron j's potential after event r, had it never frozen.
    prefix = weights.columns[events].astype(np.int64)
    prefix.cumsum(axis=0, out=prefix)  # in place: 2x faster than into a new array
    crossed = prefix[group_ends] >= layer.effective_threshold(weights.mode)
    fires = crossed.any(axis=0)
    stop = np.where(fires, crossed.argmax(axis=0), len(group_ends) - 1)  # each neuron's last group
    if stop_at_first_fire and fires.any():
        first = stop[fires].min()
        stop, fires = np.minimum(stop, first), crossed[first]
    stop_rows = group_ends[stop]
    may_overflow = len(events) * (1 << 15) > INT32_MAX  # 2**15: the largest |weight|
    if may_overflow and (prefix.min() < INT32_MIN or prefix.max() > INT32_MAX):
        live = np.arange(len(events))[:, None] <= stop_rows
        bad = np.flatnonzero((live & ((prefix < INT32_MIN) | (prefix > INT32_MAX))).any(axis=1))
        if bad.size:
            time = group_times[np.searchsorted(group_ends, bad[0])]
            raise AccumulatorOverflow(
                f"event {events[bad[0]]} at time {time} took an accumulator out of 32-bit range"
            )

    potentials = prefix[stop_rows, np.arange(layer.out_dim)]
    touched = int(stop_rows.sum()) + layer.out_dim
    if weights.mode is WeightMode.BINARY:
        # Every touch adds or subtracts 1, so the potentials' sum is adds - subs.
        adds = (touched + int(potentials.sum())) // 2
        ops = (adds, touched - adds, 0)
    else:
        ops = (0, 0, touched)
    tally = LayerTally(layer.in_dim, layer.out_dim, len(events), int(stop_rows.max()) + 1, *ops)
    fire_codes = np.where(fires, group_times[stop], -1).astype(np.int16)
    return NeuronState(potentials.tolist(), slot_values(fire_codes), fire_codes), tally


@dataclass
class InferenceResult:
    """Everything one inference produced.

    The dense reference simulator returns the same shape with counters,
    cycles, and trace left as None.
    """

    predicted: int
    decision_time: Optional[int]
    input_train: SpikeTrain
    layer_trains: list
    layer_states: list
    counters: Optional[OpCounters] = None
    cycles: Optional[CycleReport] = None
    trace: Optional[RunTrace] = None


def run_network(
    model: NetworkModel,
    frame: InputFrame,
    *,
    early_stop: bool = True,
    spike_on_zero: bool = False,
    costs: Optional[CycleCostTable] = None,
) -> InferenceResult:
    """Full pipeline: encode, then per layer sort and run, then decode.

    With early_stop the output layer stops once a decision exists; hidden
    layers always run to completion (their later spikes still matter).
    spike_on_zero switches the encoder to the last-timestep convention for
    zero pixels, used by the skip-safety equivalence checks.
    """
    train = encode_ttfs(
        frame, model.t_max, spike_on_zero=spike_on_zero, expected_dim=model.input_dim
    )
    input_train = train
    last_layer = len(model.layers) - 1
    layer_trains = []
    layer_states = []
    tallies = []
    for k, (cfg, weights) in enumerate(model.layers):
        state, tally = run_layer(
            *sort_spikes(train),
            cfg,
            weights,
            stop_at_first_fire=early_stop and k == last_layer,
        )
        train = SpikeTrain(state.fire_times, model.t_max, state.fire_codes)
        tallies.append(tally)
        layer_trains.append(train)
        layer_states.append(state)

    predicted, decision_time = decode(layer_trains[-1], layer_states[-1].potentials)
    trace = RunTrace(t_max=model.t_max, input_dim=model.input_dim, layers=tuple(tallies))
    cycles = estimate_cycles(trace, costs)
    return InferenceResult(
        predicted=predicted,
        decision_time=decision_time,
        input_train=input_train,
        layer_trains=layer_trains,
        layer_states=layer_states,
        counters=OpCounters.total(tallies),
        cycles=cycles,
        trace=trace,
    )
