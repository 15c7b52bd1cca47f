"""Event-driven datapath: one accumulate-and-fire loop per layer over the
sorter's timestep groups, and whole-network inference with event skipping.

Conventions fixed here and mirrored by the dense reference simulator:

  * firing compares potential >= the layer's effective threshold;
  * the current scale folds into the threshold in binary mode, so the
    accumulator stays add/sub only;
  * firing is evaluated once per timestep group, after all of the group's
    columns are accumulated, scanning neurons in ascending index order
    (time-multiplexed update unit), so same-time events commute;
  * a fired neuron is frozen: its potential never changes again and it
    never fires twice.

Non-informative events are skipped, never processed: events into a layer
whose neurons have all fired, and events behind the output layer's
decision time when early termination is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
)
from .perf import CycleCostTable, CycleReport, LayerTally, RunTrace, estimate_cycles
from .sorter import sort_spikes


@dataclass
class OpCounters:
    """Datapath operation tallies, the simulation's energy proxy."""

    additions: int = 0
    subtractions: int = 0
    multiplications: int = 0
    events_processed: int = 0
    events_skipped: int = 0


@dataclass
class NeuronState:
    """Membrane accumulators and firing record for one layer."""

    potentials: list
    fire_times: list

    @property
    def fired(self) -> list:
        return [t is not NO_SPIKE for t in self.fire_times]


def run_layer(
    groups: list,
    layer: LayerConfig,
    weights: WeightMatrix,
    counters: OpCounters,
    *,
    stop_at_first_fire: bool = False,
) -> NeuronState:
    """Consume one layer's timestep groups, as sort_spikes returns them.

    Each event of a group adds its weight column into every unfired neuron;
    then one fire check scans the neurons in ascending index order. Groups
    after every neuron has fired are skipped, and with stop_at_first_fire
    the layer stops after the first group that fires anything.
    """
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    for _, indices in groups:
        if max(indices) >= layer.in_dim:
            raise DimensionMismatch(
                f"event index {max(indices)} >= layer in_dim {layer.in_dim}"
            )
    binary = weights.mode is WeightMode.BINARY
    threshold = layer.effective_threshold(weights.mode)
    columns = weights.columns
    potentials = [0] * layer.out_dim
    fire_times = [NO_SPIKE] * layer.out_dim
    unfired = list(range(layer.out_dim))
    processed = 0
    for t, indices in groups:
        if not unfired:
            break
        before = sum(potentials)
        for i in indices:
            column = columns[i]
            for j in unfired:
                potentials[j] += column[j]
            if min(potentials) < INT32_MIN or max(potentials) > INT32_MAX:
                raise AccumulatorOverflow(
                    f"event {i} at time {t} took an accumulator out of 32-bit range"
                )
        touched = len(unfired) * len(indices)
        if binary:
            # Fired neurons are frozen, so the potentials' sum moved by the
            # net of the +-1 weights added, which is adds - subs.
            adds = (touched + sum(potentials) - before) // 2
            counters.additions += adds
            counters.subtractions += touched - adds
        else:
            counters.multiplications += touched
        processed += len(indices)
        newly = [j for j in unfired if potentials[j] >= threshold]
        if newly:
            for j in newly:
                fire_times[j] = t
            unfired = [j for j in unfired if fire_times[j] is NO_SPIKE]
            if stop_at_first_fire:
                break
    counters.events_processed += processed
    counters.events_skipped += sum(len(indices) for _, indices in groups) - processed
    return NeuronState(potentials, fire_times)


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
    counters = OpCounters()
    train = encode_ttfs(
        frame, model.t_max, spike_on_zero=spike_on_zero, expected_dim=model.input_dim
    )
    input_train = train
    last_layer = len(model.layers) - 1
    layer_trains = []
    layer_states = []
    tallies = []
    for k, (cfg, weights) in enumerate(model.layers):
        groups = sort_spikes(train)
        before = counters.events_processed
        state = run_layer(
            groups,
            cfg,
            weights,
            counters,
            stop_at_first_fire=early_stop and k == last_layer,
        )
        train = SpikeTrain(tuple(state.fire_times), model.t_max)
        tallies.append(
            LayerTally(
                in_dim=cfg.in_dim,
                out_dim=cfg.out_dim,
                events_sorted=sum(len(indices) for _, indices in groups),
                events_processed=counters.events_processed - before,
            )
        )
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
        counters=counters,
        cycles=cycles,
        trace=trace,
    )
