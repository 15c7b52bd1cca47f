from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spikesoc import (
    NO_SPIKE,
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    WeightMode,
    dense_infer,
    run_network,
    SpikeTrain,
)
from spikesoc.core import NeuronState
from spikesoc.errors import DimensionMismatch
from spikesoc.oracle import dense_layer_sweep
from helpers import (
    COPIES,
    assert_same_state,
    dense_potentials,
    make_rng,
    random_frame,
    random_model,
)


def test_all_zero_frame_matches_event_driven_fallback():
    model = NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[(LayerConfig(8, 3, 256, 1), BinaryWeights.from_rows([[1] * 8] * 3))],
    )
    r = dense_infer(model, bytes(8))
    assert (r.predicted, r.decision_time) == (0, NO_SPIKE)


def test_negative_threshold_fires_everything_at_first_event():
    model = NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[
            (
                LayerConfig(4, 3, 256, -1),
                BinaryWeights.from_rows([[1, -1, 1, -1]] * 3),
            )
        ],
    )
    frame = bytes([200, 10, 90, 0])  # earliest event at 255 - 200 = 55
    r = dense_infer(model, frame)
    assert r.layer_trains[0].times == (55, 55, 55)
    assert (r.predicted, r.decision_time) == (0, 55)


def test_no_events_means_no_fire_even_below_zero_threshold():
    cfg = LayerConfig(2, 2, 256, -5)
    w = BinaryWeights.from_rows([[1, 1], [-1, -1]])
    train = SpikeTrain((NO_SPIKE, NO_SPIKE), 64)
    out, state = dense_layer_sweep(train, cfg, w)
    assert out.times == (NO_SPIKE, NO_SPIKE)
    assert state.potentials == [0, 0]


def test_dimension_check():
    w = BinaryWeights.from_rows([[1, 1, -1]])
    for cfg, train in [
        (LayerConfig(3, 1, 256, 0), SpikeTrain((1, 2), 16)),  # train shorter than in_dim
        (LayerConfig(4, 1, 256, 0), SpikeTrain((1, 2, 3, 4), 16)),  # matrix has 3 inputs
        (LayerConfig(3, 2, 256, 0), SpikeTrain((1, 2, 3), 16)),  # matrix has 1 neuron
    ]:
        with pytest.raises(DimensionMismatch, match="train length|weight shape"):
            dense_layer_sweep(train, cfg, w)


def test_independent_of_the_datapath_column_cache(monkeypatch):
    """The oracle must not read `columns`, the datapath's transposed cache."""
    rng = make_rng(74)
    models = [random_model(rng) for _ in range(60)]
    cases = [(model, random_frame(rng, model.input_dim)) for model in models]
    expected = [run_network(model, frame, early_stop=False) for model, frame in cases]

    def forbidden(self):
        raise AssertionError("the dense oracle read `columns`")

    monkeypatch.setattr(BinaryWeights, "columns", property(forbidden))
    monkeypatch.setattr(Fixed16Weights, "columns", property(forbidden))
    for (model, frame), event in zip(cases, expected):
        assert_same_state(event, dense_infer(model, frame))


@pytest.mark.parametrize("fill", ["plus", "minus", "mixed"])
def test_exact_beyond_float32_integers(fill):
    """Sums reach 3.4e7, past 2**24, above which float32 skips integers."""
    rng = make_rng(75)
    in_dim, out_dim = 1024, 6
    cells = {"plus": (32767,), "minus": (-32768,), "mixed": (32767, -32768)}[fill]
    rows = [[rng.choice(cells) for _ in range(in_dim)] for _ in range(out_dim - 1)]
    rows.append([32767] * 900 + [-32768] * 124)  # passes 2**24 before falling back
    sums = dense_potentials(rows, range(in_dim))
    model = NetworkModel(
        mode=WeightMode.FIXED16,
        t_max=256,
        layers=[(LayerConfig(in_dim, out_dim, 256, sorted(sums)[2]), Fixed16Weights.from_rows(rows))],
    )
    frame = bytes([255]) * in_dim  # every input spikes at t = 0
    dense = dense_infer(model, frame)
    assert dense.input_train.times == (0,) * in_dim
    assert dense.layer_states[0].potentials == sums
    assert max(map(abs, sums)) > 2**24
    assert_same_state(run_network(model, frame, early_stop=False), dense)


def test_unconditioned_equivalence_with_event_driven_datapath():
    """Exact agreement on class, decision time, every fire time, and final
    potentials, with no corpus conditioning: silent outputs, fallback
    decisions, and extreme weights are all in play here."""
    rng = make_rng(71)
    fallbacks = 0
    for _ in range(400):
        model = random_model(rng)
        frame = random_frame(rng, model.input_dim)
        dense = dense_infer(model, frame)
        event = run_network(model, frame, early_stop=False)
        assert_same_state(event, dense)
        if dense.decision_time is NO_SPIKE:
            fallbacks += 1
    assert fallbacks >= 10  # the fallback path must actually be exercised


def test_equivalence_with_extreme_fixed_weights():
    rng = make_rng(72)
    for _ in range(50):
        in_dim = rng.randint(1, 16)
        out_dim = rng.randint(1, 8)
        rows = [
            [rng.choice((-32768, 32767, 0, 1, -1)) for _ in range(in_dim)]
            for _ in range(out_dim)
        ]
        model = NetworkModel(
            mode=WeightMode.FIXED16,
            t_max=64,
            layers=[
                (
                    LayerConfig(in_dim, out_dim, 256, rng.randint(-40000, 40000)),
                    Fixed16Weights.from_rows(rows),
                )
            ],
        )
        frame = random_frame(rng, in_dim)
        assert_same_state(
            run_network(model, frame, early_stop=False), dense_infer(model, frame)
        )


def test_equivalence_holds_under_spike_on_zero_variant():
    rng = make_rng(73)
    for _ in range(100):
        model = random_model(rng)
        frame = random_frame(rng, model.input_dim, zero_fraction=0.3)
        dense = dense_infer(model, frame, spike_on_zero=True)
        event = run_network(model, frame, early_stop=False, spike_on_zero=True)
        assert_same_state(event, dense)


def test_datapath_states_equal_the_oracle_states_as_values():
    rng = make_rng(76)
    for _ in range(100):
        model = random_model(rng)
        frame = random_frame(rng, model.input_dim)
        event = run_network(model, frame, early_stop=False)
        dense = dense_infer(model, frame)
        for a, b in zip(event.layer_states, dense.layer_states):
            assert a == b
            assert a.fire_times == b.fire_times  # the derived views agree too
            bumped = list(b.potentials)
            bumped[-1] += 1
            assert a != NeuronState(bumped, b.fire_codes)
            codes = b.fire_codes.copy()
            codes[0] = 0 if codes[0] else 1
            assert a != NeuronState(a.potentials, codes)
            assert a != b.fire_codes


def test_states_are_frozen_and_their_codes_read_only():
    model = random_model(make_rng(77))
    frame = random_frame(make_rng(78), model.input_dim)
    for result in (run_network(model, frame), dense_infer(model, frame)):
        for state in result.layer_states:
            with pytest.raises(ValueError):
                state.fire_codes[0] = 0
            with pytest.raises(FrozenInstanceError):
                state.potentials = [0] * len(state.potentials)
            with pytest.raises(FrozenInstanceError):
                state.fire_codes = np.zeros_like(state.fire_codes)


@pytest.mark.parametrize("clone", COPIES, ids=["pickle", "deepcopy", "copy"])
def test_pickled_and_copied_states_stay_read_only(clone):
    model = random_model(make_rng(80))
    frame = random_frame(make_rng(81), model.input_dim)
    for result in (run_network(model, frame), dense_infer(model, frame)):
        for state in result.layer_states:
            times = state.fire_times  # cached before the copy is made
            twin = clone(state)
            with pytest.raises(ValueError):
                twin.fire_codes[0] = 0
            assert twin == state and twin.fire_times == times


@pytest.mark.parametrize("infer", [run_network, dense_infer])
def test_inference_builds_no_python_view(infer):
    """Trains and states store only int16 codes; times and fire_times are
    built on first read and then equal those of SpikeTrain(times, t_max)."""
    rng = make_rng(79)
    for _ in range(50):
        model = random_model(rng)
        result = infer(model, random_frame(rng, model.input_dim))
        trains = [result.input_train, *result.layer_trains]
        assert all("times" not in vars(train) for train in trains)
        assert all("fire_times" not in vars(state) for state in result.layer_states)
        for train in trains:
            times = tuple(None if c < 0 else c for c in train.codes.tolist())
            assert train.times == SpikeTrain(times, model.t_max).times == times
        for train, state in zip(result.layer_trains, result.layer_states):
            assert state.fire_times == list(train.times)
