"""Dense brute-force reference simulator.

Ground truth for equivalence checks: reads every synapse of every spiking
input, with no sorting, no event skipping and no early termination. It
shares the convention constants with the event-driven datapath (the >=
comparison, the threshold fold, firing only at timesteps that carried at
least one event) through the same LayerConfig record, and the weights' one
decoder `matrix()` (pinned by the packing tests), but none of its code paths.
Each layer is two int64 passes over a table of t_max rows, one per timestep,
exact with no range argument. The first adds the full weight column of every
spiking input into the row of its spike time: O(spiking inputs * out_dim),
each column read contiguously from `matrix().T`. The second is one running
sum down the table, in place, then one fire test over every timestep and
every neuron. A neuron's potential depends only on its own column, so a
fired neuron's frozen potential is its running sum at the timestep it fired.
There is no BLAS raster product: its worker threads and temporaries slowed
the single-threaded datapath run after it. Nor is there a gathered copy of
the spiking columns or of the table's rows: each took more memory, and its
fresh pages faulting in made checked runs slower.
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
    spike time (t_max rows; a silent input has no row); sum the rows down
    the window, so row t holds every neuron's potential after timestep t had
    none frozen; then each neuron fires at the first timestep that carries
    an input spike and finds it at or above the effective threshold, and
    keeps the potential of that row (of the last row if it never fires).
    Timesteps with no events are not checked, as in the event-driven
    datapath.
    """
    if len(train) != layer.in_dim:
        raise DimensionMismatch(f"train length {len(train)} != layer in_dim {layer.in_dim}")
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    spiking = np.flatnonzero(train.codes >= 0)
    times = train.codes[spiking]
    columns = weights.matrix().T  # C-contiguous (in_dim, out_dim)
    contributions = np.zeros((train.t_max, layer.out_dim), dtype=np.int64)
    for i, t in zip(spiking.tolist(), times.tolist()):
        row = contributions[t]
        row += columns[i]  # `contributions[t] += ...` would also copy the row back

    np.cumsum(contributions, axis=0, out=contributions)  # in place: no second table
    crossed = contributions >= layer.effective_threshold(weights.mode)
    crossed[np.bincount(times, minlength=train.t_max) == 0] = False
    fires = crossed.any(axis=0)
    rows = np.where(fires, crossed.argmax(axis=0), train.t_max - 1)  # row t is time t
    fire_codes = np.where(fires, rows, -1).astype(np.int16)
    state = NeuronState(contributions[rows, np.arange(layer.out_dim)].tolist(), fire_codes)
    return SpikeTrain.from_codes(fire_codes, train.t_max), state


def dense_infer(
    model: NetworkModel, frame: InputFrame, *, spike_on_zero: bool = False
) -> InferenceResult:
    """Whole-network dense sweep with the same decode rule as the datapath."""
    train = encode_ttfs(
        frame, model.t_max, spike_on_zero=spike_on_zero, expected_dim=model.input_dim
    )
    input_train = train
    layer_states = []
    for cfg, weights in model.layers:
        train, state = dense_layer_sweep(train, cfg, weights)
        layer_states.append(state)
    predicted, decision_time = decode(train.codes, state.potentials)
    return InferenceResult(predicted, decision_time, input_train, layer_states)
