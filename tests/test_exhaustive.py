"""Bounded-exhaustive oracle checks: every one-layer network in a small scope.

The random corpus and the Hypothesis properties sample; these tests
enumerate. Each case runs the dense oracle, the event-driven datapath
(`run_layer`, which sorts with `sort_spikes`) and the one-event-at-a-time
reference (on the naive insertion sort) and compares them through
`first_divergence`:
- binary layers with in_dim, out_dim <= 2, every sign pattern, with alpha_raw
  256 and 512 (whose threshold fold meets ties at every odd threshold);
- fixed16 layers of one or two inputs, every weight from FIXED16_CELLS;
- every input code vector at t_max 4 (codes -1..3);
- thresholds at every reachable potential and one above it, so negatives,
  0, a potential met exactly and one missed by one are all in scope.

Two-layer networks run whole pipelines instead: `run_network` with early
stop on and off, `dense_infer` and the reference chained layer by layer,
from every frame of two pixels at t_max 4. Every 2x2 binary layer (16 sign
patterns, thresholds -1, 0 and 1) runs as the output layer behind a hidden
layer that passes its input through, and as the hidden layer in front of
that same layer as output. Those frames give every input train at t_max 4,
so all-spike frames (helpers.zero_pixels_spike_last), whose zero pixels
encode like pixel 1, add none; tests/test_oracle.py checks that both paths
encode through it.
"""

import itertools
from fractions import Fraction
from operator import itemgetter

import numpy as np

from spikesoc import (
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    dense_infer,
    run_network,
)
from spikesoc.core import first_divergence, run_layer
from spikesoc.oracle import dense_layer_sweep
from helpers import reference_encode, reference_run_layer, reference_sort, spike_train, states_result

T_MAX = 4
FIXED16_CELLS = (-32768, -1, 0, 1, 32767)
# One pixel per code at T_MAX 4: silent, 3, 2, 1, 0.
PIXELS = (0, 1, 64, 128, 192)


def _groups(train):
    """The train's (time, indices) groups, from the naive insertion sort."""
    pairs = reference_sort(train)
    return [(t, [i for i, _ in group]) for t, group in itertools.groupby(pairs, key=itemgetter(1))]


def _trains(in_dim):
    """Every train of in_dim inputs at T_MAX, each with its reference groups."""
    for codes in itertools.product(range(-1, T_MAX), repeat=in_dim):
        train = SpikeTrain(np.array(codes, dtype=np.int16), T_MAX)
        yield train, _groups(train)


def _assert_all_agree(train, groups, layer, weights):
    dense = dense_layer_sweep(train.codes, layer, weights)
    event, _ = run_layer(train.codes, layer, weights)
    reference, _ = reference_run_layer(groups, layer, weights)
    expected = states_result([dense])
    for other in (event, reference):
        divergence = first_divergence(expected, states_result([other]))
        assert divergence is None, f"{weights.matrix().tolist()} {train.codes} {layer}: {divergence}"


def _fold(threshold, alpha_raw):
    """threshold * 256 / alpha_raw rounded half away from zero, in exact rationals."""
    q = Fraction(threshold * 256, alpha_raw)
    magnitude = int(abs(q) + Fraction(1, 2))
    return magnitude if q >= 0 else -magnitude


def test_every_small_binary_layer_agrees():
    cases = 0
    for in_dim, out_dim in itertools.product((1, 2), repeat=2):
        trains = list(_trains(in_dim))
        for signs in itertools.product((-1, 1), repeat=in_dim * out_dim):
            rows = [list(signs[j * in_dim : (j + 1) * in_dim]) for j in range(out_dim)]
            weights = BinaryWeights.from_rows(rows)
            # Reachable potentials are -2..2 at most. Alpha 1.0 takes thresholds
            # -3..3 as they are; alpha 2.0 folds the odd ones from -5 to 5, each
            # a tie, onto -3, -2, -1, 1, 2, 3.
            for alpha_raw, threshold in [(256, t) for t in range(-3, 4)] + [
                (512, t) for t in range(-5, 6, 2)
            ]:
                layer = LayerConfig(in_dim, out_dim, alpha_raw, threshold)
                assert layer.effective_threshold(WeightMode.BINARY) == _fold(threshold, alpha_raw)
                for train, groups in trains:
                    _assert_all_agree(train, groups, layer, weights)
                    cases += 1
    assert cases == 13 * (6 * 5 + 20 * 25)


def test_every_small_fixed16_layer_agrees():
    cases = 0
    for in_dim in (1, 2):
        trains = list(_trains(in_dim))
        for row in itertools.product(FIXED16_CELLS, repeat=in_dim):
            weights = Fixed16Weights([list(row)])
            # Each reachable potential p, and p + 1 just out of reach.
            thresholds = sorted({p + d for p in (0, *row, sum(row)) for d in (0, 1)})
            for threshold in thresholds:
                layer = LayerConfig(in_dim, 1, 256, threshold)
                for train, groups in trains:
                    _assert_all_agree(train, groups, layer, weights)
                    cases += 1
    assert cases == 3080  # every (weights, threshold, train) triple


def _decide(state):
    """The decode rule on a reference state: the earliest fire time, then the
    lowest index; with no fire, the first largest potential and no time."""
    fired = [(t, j) for j, t in enumerate(state.fire_times) if t is not None]
    if fired:
        t, j = min(fired)
        return j, t
    return state.potentials.index(max(state.potentials)), None


# Passes its input through at threshold 0: each neuron fires exactly when its
# own input spikes, and never at time 0 unless an input does.
PASS_THROUGH = (LayerConfig(2, 2, 256, 0), BinaryWeights.from_rows([[1, -1], [-1, 1]]))


def _frames():
    """Every frame of two pixels at T_MAX, with its input train and the train's groups."""
    for pixels in itertools.product(PIXELS, repeat=2):
        train = spike_train(reference_encode(pixels, T_MAX), T_MAX)
        yield bytes(pixels), train, _groups(train)


def _every_2x2_binary_layer():
    """Every 2x2 binary layer with thresholds -1, 0 and 1: 16 sign patterns x 3."""
    for signs in itertools.product((-1, 1), repeat=4):
        weights = BinaryWeights.from_rows([list(signs[:2]), list(signs[2:])])
        for threshold in (-1, 0, 1):
            yield LayerConfig(2, 2, 256, threshold), weights


def _signs(model):
    """Each layer's weights and threshold, to name a failing case."""
    return [(weights.matrix().tolist(), cfg.threshold) for cfg, weights in model.layers]


def _assert_pipeline_agrees(model, frame, train, between, hidden_groups):
    """run_network with early stop off and on, dense_infer and the reference
    chained layer by layer (between: the reference hidden state from the input's
    groups) all agree on frame. Returns dense_infer's result and the early-stopped one."""
    dense = dense_infer(model, frame)
    output = model.layers[1]
    for early_stop in (False, True):
        last, _ = reference_run_layer(hidden_groups, *output, stop_at_first_fire=early_stop)
        reference = states_result([between, last], *_decide(last))
        event = run_network(model, frame, early_stop=early_stop)
        assert event.input_train == dense.input_train == train
        # An early-stopped output layer stops short of the dense full run.
        pairs = [(event, reference), (dense, reference), (event, dense)]
        for (a, b), whole in zip(pairs, (True, not early_stop, not early_stop)):
            divergence = first_divergence(a, b, output_layer=whole)
            assert divergence is None, f"{_signs(model)} {frame} early stop {early_stop}: {divergence}"
    return dense, event


def test_every_small_two_layer_pipeline_agrees():
    """Every 2-neuron binary output layer over 2 hidden neurons (16 sign
    patterns, thresholds -1, 0 and 1) behind the hidden layer PASS_THROUGH,
    so the output layer sees every code vector as its input train."""
    inputs = []  # (frame, input train, hidden state, the train's groups)
    for frame, train, groups in _frames():
        between, _ = reference_run_layer(groups, *PASS_THROUGH)
        assert np.array_equal(between.fire_codes, train.codes)  # so the output layer reads groups too
        inputs.append((frame, train, between, groups))
    cases = stopped_short = fallbacks = 0
    for output in _every_2x2_binary_layer():
        model = NetworkModel(WeightMode.BINARY, T_MAX, [PASS_THROUGH, output])
        for frame, train, between, groups in inputs:
            dense, event = _assert_pipeline_agrees(model, frame, train, between, groups)
            cases += 2
            stopped_short += event.layer_states[1] != dense.layer_states[1]
            fallbacks += dense.decision_time is None
    assert cases == 16 * 3 * 25 * 2  # sign patterns, thresholds, frames, early stop
    assert stopped_short and fallbacks  # early stop and the fallback decode both bite


def test_every_small_hidden_layer_agrees_in_a_two_layer_pipeline():
    """The mirror of the test above: every 2x2 binary hidden layer (16 sign
    patterns, thresholds -1, 0 and 1) in front of the output layer
    PASS_THROUGH, which hands on the hidden layer's fire codes as they are.
    Together the two tests run every such layer in each position."""
    frames = list(_frames())
    cases = stopped_short = fallbacks = 0
    for hidden in _every_2x2_binary_layer():
        model = NetworkModel(WeightMode.BINARY, T_MAX, [hidden, PASS_THROUGH])
        for frame, train, groups in frames:
            between, _ = reference_run_layer(groups, *hidden)
            hidden_groups = _groups(SpikeTrain(between.fire_codes, T_MAX))
            last, _ = reference_run_layer(hidden_groups, *PASS_THROUGH)
            assert np.array_equal(last.fire_codes, between.fire_codes)  # passed through
            dense, event = _assert_pipeline_agrees(model, frame, train, between, hidden_groups)
            cases += 2
            stopped_short += event.layer_states[1] != dense.layer_states[1]
            fallbacks += dense.decision_time is None
    assert cases == 16 * 3 * 25 * 2  # sign patterns, thresholds, frames, early stop
    assert stopped_short and fallbacks  # early stop and the fallback decode both bite
