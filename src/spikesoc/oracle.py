"""Dense brute-force reference simulator.

Ground truth for equivalence checks: sweeps every timestep of every layer
with dense matrix arithmetic, no sorting, no skipping, no early
termination. It shares the convention constants with the event-driven
datapath (the >= comparison, the threshold fold, firing only at timesteps
that carried at least one event) through the same LayerConfig record, but
none of its code paths. Runtime is O(t_max * sum(in_dim * out_dim)) per
inference; fine at desk scale, nothing more.
"""

from __future__ import annotations

import numpy as np

from .core import InferenceResult, NeuronState
from .decoder import decode
from .encoder import InputFrame, encode_ttfs
from .errors import DimensionMismatch
from .model import LayerConfig, NetworkModel, SpikeTrain, WeightMatrix, slot_values


def dense_layer_sweep(
    train: SpikeTrain, layer: LayerConfig, weights: WeightMatrix
) -> tuple[SpikeTrain, NeuronState]:
    """Run one layer over the whole window with dense accumulation.

    For every timestep that carries at least one input spike, add the
    dense column sum into unfired neurons, then fire everything at or
    above the effective threshold. Timesteps with no events are not
    checked, matching the event-driven rule that crossings happen only at
    event times.
    """
    if len(train) != layer.in_dim:
        raise DimensionMismatch(f"train length {len(train)} != layer in_dim {layer.in_dim}")
    eff = layer.effective_threshold(weights.mode)
    w = weights.matrix()
    times = train.codes

    potentials = np.zeros(layer.out_dim, dtype=np.int64)
    unfired = np.ones(layer.out_dim, dtype=bool)
    fire_codes = np.full(layer.out_dim, -1, dtype=np.int16)
    for t in range(train.t_max):
        arrived = times == t
        if not arrived.any():
            continue
        contribution = w[:, arrived].sum(axis=1)
        potentials = np.where(unfired, potentials + contribution, potentials)
        newly = unfired & (potentials >= eff)
        fire_codes[newly] = t
        unfired &= ~newly

    fire_times = slot_values(fire_codes)
    state = NeuronState([int(v) for v in potentials], fire_times, fire_codes)
    return SpikeTrain(fire_times, train.t_max, fire_codes), state


def dense_infer(
    model: NetworkModel, frame: InputFrame, *, spike_on_zero: bool = False
) -> InferenceResult:
    """Whole-network dense sweep with the same decode rule as the datapath."""
    train = encode_ttfs(
        frame, model.t_max, spike_on_zero=spike_on_zero, expected_dim=model.input_dim
    )
    input_train = train
    layer_trains = []
    layer_states = []
    for cfg, weights in model.layers:
        train, state = dense_layer_sweep(train, cfg, weights)
        layer_trains.append(train)
        layer_states.append(state)
    predicted, decision_time = decode(layer_trains[-1], layer_states[-1].potentials)
    return InferenceResult(
        predicted=predicted,
        decision_time=decision_time,
        input_train=input_train,
        layer_trains=layer_trains,
        layer_states=layer_states,
    )
