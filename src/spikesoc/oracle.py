"""Dense brute-force reference simulator.

Ground truth for equivalence checks: reads every synapse of every layer,
with no sorting, no skipping and no early termination. It shares the
convention constants with the event-driven datapath (the >= comparison,
the threshold fold, firing only at timesteps that carried at least one
event) through the same LayerConfig record, and the weights' one decoder
`matrix()` (pinned by the packing tests), but none of its code paths.
Each layer is two int64 passes, exact with no range argument: O(in_dim *
out_dim) to build the contribution table, then O(out_dim) per timestep
that carries spikes to scan it. There is no BLAS raster product: its worker
threads and temporaries slowed the single-threaded datapath run after it.
"""

from __future__ import annotations

import numpy as np

from .core import InferenceResult, NeuronState
from .decoder import decode
from .encoder import InputFrame, encode_ttfs
from .errors import DimensionMismatch
from .model import LayerConfig, NetworkModel, SpikeTrain, WeightMatrix


def dense_layer_sweep(
    train: SpikeTrain, layer: LayerConfig, weights: WeightMatrix
) -> tuple[SpikeTrain, NeuronState]:
    """Run one layer over the whole window with dense accumulation.

    Add each input's weight column into the table row of its spike time
    (silent inputs into a spare row, never read); then at every timestep
    that carries an input spike, in order, add its row into the unfired
    neurons and fire all at or above the effective threshold. Timesteps
    with no events are not checked, as in the event-driven datapath.
    """
    if len(train) != layer.in_dim:
        raise DimensionMismatch(f"train length {len(train)} != layer in_dim {layer.in_dim}")
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    eff = layer.effective_threshold(weights.mode)
    rows = np.where(train.codes < 0, train.t_max, train.codes)
    contributions = np.zeros((train.t_max + 1, layer.out_dim), dtype=np.int64)
    for row, column in zip(rows.tolist(), weights.matrix().T):
        contributions[row] += column

    potentials = np.zeros(layer.out_dim, dtype=np.int64)
    unfired = np.ones(layer.out_dim, dtype=bool)
    fire_codes = np.full(layer.out_dim, -1, dtype=np.int16)
    for t in np.flatnonzero(np.bincount(rows, minlength=train.t_max + 1)[:-1]).tolist():
        potentials += contributions[t] * unfired
        newly = (potentials >= eff) & unfired
        fire_codes[newly] = t
        unfired ^= newly

    state = NeuronState(potentials.tolist(), fire_codes)
    return SpikeTrain.from_codes(fire_codes, train.t_max), state


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
