"""Dense brute-force reference simulator.

Ground truth for equivalence checks: reads every synapse of every spiking
input, with no sorting, no event skipping and no early termination. It
shares the convention constants with the event-driven datapath (the >=
comparison, the threshold fold, firing only at timesteps that carried at
least one event) through the same LayerConfig record, the input rule of
`check_layer_input` and the weights' one decoder `matrix()` (pinned by the
packing tests), but none of its code paths. Its layers keep the datapath's
contract: int16 fire codes in (the input train's codes, then each layer's),
a NeuronState out, no SpikeTrain between.
Each layer is two int64 passes over a table with one row per timestep that
carries spikes, in time order, exact with no range argument. The rows are
counted, not sorted: `bincount` marks the timesteps that carry spikes and a
running sum of the marks numbers them, so no input is ordered. The first
pass adds the full weight column of every spiking input into the row of its
spike time, each column read contiguously from `matrix().T`. The second is
one running sum down the rows, in place, then a fire test of every neuron
at every row. A neuron's potential depends only on its own column, so a
fired neuron's frozen potential is its running sum at the row it fired.
There is no BLAS raster product: its worker threads and temporaries slowed
the single-threaded datapath run after it. Nor is there a gathered copy of
the spiking columns or of the table's rows: each took more memory, and its
fresh pages faulting in made checked runs slower.

A batch checked against one model decodes its weights once per phase:
`decoded(model)` is a copy of the model whose layers hold their `matrix()`
result in a small read-only record, and `dense_infer` reads it as it reads
the model's own weights. Caching `matrix()` on each weights object instead
kept every loaded model's int64 copy alive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import InferenceResult, NeuronState
from .decoder import decode
from .encoder import encode_ttfs
from .model import LayerConfig, NetworkModel, WeightMatrix, WeightMode, check_layer_input


@dataclass(frozen=True, eq=False)
class DecodedWeights:
    """A layer's weights as dense_layer_sweep reads them, decoded once: the
    mode, the dimensions and `matrix()`, the read-only int64 matrix."""

    mode: WeightMode
    in_dim: int
    out_dim: int
    weights: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.weights


def decoded(model: NetworkModel) -> NetworkModel:
    """A copy of model whose layers hold their weights decoded, one `matrix()` call each."""
    layers = []
    for cfg, weights in model.layers:
        matrix = weights.matrix()
        matrix.flags.writeable = False
        layers.append((cfg, DecodedWeights(weights.mode, weights.in_dim, weights.out_dim, matrix)))
    return replace(model, layers=layers)


def dense_layer_sweep(
    codes: np.ndarray, layer: LayerConfig, weights: WeightMatrix | DecodedWeights
) -> NeuronState:
    """Run one layer over the whole window with dense accumulation.

    codes are its input spike times, int16 with -1 for none: the input
    train's codes or the previous layer's fire codes. Add each spiking
    input's full weight column into the table row of its spike time (one row
    per timestep that carries spikes, in time order); sum the rows down, so
    row k holds every neuron's potential after the k-th such timestep had
    none frozen; then each neuron fires at the first row where it is at or
    above the effective threshold, and keeps the potential of that row (of
    the last row if it never fires). Timesteps with no events have no row, so
    they are not checked, as in the event-driven datapath. Input is checked as in run_layer.
    """
    check_layer_input(codes, layer, weights)
    spiking = np.flatnonzero(codes >= 0)
    if not len(spiking):  # argmax over no rows would raise
        return NeuronState([0] * layer.out_dim, np.full(layer.out_dim, -1, dtype=np.int16))
    times = codes[spiking]
    carries = np.bincount(times) > 0  # up to the latest spike time: later steps carry none
    steps = np.flatnonzero(carries)  # row k is timestep steps[k]
    columns = weights.matrix().T  # C-contiguous (in_dim, out_dim)
    contributions = np.zeros((len(steps), layer.out_dim), dtype=np.int64)
    row_of = np.add.accumulate(carries) - 1  # add counts bools in int, as np.cumsum does
    for i, k in zip(spiking.tolist(), row_of[times].tolist()):
        row = contributions[k]
        row += columns[i]  # `contributions[k] += ...` would also copy the row back

    np.add.accumulate(contributions, axis=0, out=contributions)  # in place: no second table
    crossed = contributions >= layer.effective_threshold(weights.mode)
    first, neurons = crossed.argmax(axis=0), np.arange(layer.out_dim)
    fires = crossed[first, neurons]  # False at row 0 for a neuron that never crosses
    rows = np.where(fires, first, len(steps) - 1)
    fire_codes = np.where(fires, steps[rows], -1).astype(np.int16)
    return NeuronState(contributions[rows, neurons].tolist(), fire_codes)


def dense_infer(model: NetworkModel, frame: bytes) -> InferenceResult:
    """Whole-network dense sweep with the same decode rule as the datapath."""
    input_train = encode_ttfs(frame, model.t_max)
    codes = input_train.codes
    layer_states = []
    for cfg, weights in model.layers:
        state = dense_layer_sweep(codes, cfg, weights)
        codes = state.fire_codes  # the next layer's input, as they are
        layer_states.append(state)
    predicted, decision_time = decode(codes, state.potentials)
    return InferenceResult(predicted, decision_time, input_train, layer_states)
