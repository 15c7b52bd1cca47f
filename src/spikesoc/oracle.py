"""Dense brute-force reference simulator.

Ground truth for equivalence checks: reads every synapse of every spiking
input, with no sorting, no event skipping and no early termination. It
shares the convention constants with the event-driven datapath (the >=
comparison, the threshold fold, firing only at timesteps that carried at
least one event) through the same LayerConfig record, and the weights' one
decoder `matrix()` (pinned by the packing tests), but none of its code paths.
Each layer is two int64 passes, exact with no range argument. The first
adds the full weight column of every spiking input into a table of t_max
rows, one per timestep: O(spiking inputs * out_dim), each column read
contiguously from `matrix().T`. The second scans the table at every
timestep that carries spikes, O(out_dim) each, in place in buffers made
once per layer. There is no BLAS raster product: its worker threads and
temporaries slowed the single-threaded datapath run after it. Nor is there
a gathered copy of the spiking columns: it was slower and took more memory.
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

    Add each spiking input's full weight column into the table row of its
    spike time (t_max rows; a silent input has no row); then at every
    timestep that carries an input spike, in order, add its row into the
    unfired neurons and fire all at or above the effective threshold.
    Timesteps with no events are not checked, as in the event-driven
    datapath.
    """
    if len(train) != layer.in_dim:
        raise DimensionMismatch(f"train length {len(train)} != layer in_dim {layer.in_dim}")
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    eff = layer.effective_threshold(weights.mode)
    spiking = np.flatnonzero(train.codes >= 0)
    times = train.codes[spiking]
    columns = weights.matrix().T  # C-contiguous (in_dim, out_dim)
    contributions = np.zeros((train.t_max, layer.out_dim), dtype=np.int64)
    for i, t in zip(spiking.tolist(), times.tolist()):
        row = contributions[t]
        row += columns[i]  # `contributions[t] += ...` would also copy the row back

    potentials = np.zeros(layer.out_dim, dtype=np.int64)
    unfired = np.ones(layer.out_dim, dtype=bool)
    newly = np.empty(layer.out_dim, dtype=bool)
    fire_codes = np.full(layer.out_dim, -1, dtype=np.int16)
    for t in np.flatnonzero(np.bincount(times, minlength=train.t_max)).tolist():
        np.add(potentials, contributions[t], out=potentials, where=unfired)
        np.greater_equal(potentials, eff, out=newly)
        newly &= unfired
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
