import sys
import tracemalloc
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
from spikesoc import core, oracle
from spikesoc.core import NeuronState, _prefix_rows, first_divergence, run_layer
from spikesoc.encoder import encode_ttfs
from spikesoc.errors import DimensionMismatch, InvalidSpikeCode, SpikeSocError
from spikesoc.model import slot_values
from spikesoc.oracle import dense_layer_sweep
from spikesoc.sorter import sort_spikes
from helpers import (
    COPIES,
    as_codes,
    assert_same_state,
    dense_potentials,
    make_rng,
    random_binary_weights,
    random_fixed_weights,
    random_frame,
    random_layer,
    random_model,
    spike_train,
    states_result,
    zero_pixels_spike_last,
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
    assert r.layer_states[0].fire_times == [55, 55, 55]
    assert (r.predicted, r.decision_time) == (0, 55)


@pytest.mark.parametrize("t_max", [1, 16, 64, 256])
def test_no_events_means_no_fire_even_below_zero_threshold(t_max):
    """An all-silent layer has no table rows: potentials 0 and codes -1."""
    cfg = LayerConfig(2, 2, 256, -5)
    w = BinaryWeights.from_rows([[1, 1], [-1, -1]])
    train = spike_train((NO_SPIKE, NO_SPIKE), t_max)
    state = dense_layer_sweep(train.codes, cfg, w)
    assert state.fire_times == [NO_SPIKE, NO_SPIKE]
    assert state.potentials == [0, 0]
    rng = make_rng(82)
    for random_weights in (random_binary_weights, random_fixed_weights):
        w = random_weights(rng, 40, 7)
        for threshold in (0, -1, -(2**31)):
            state = dense_layer_sweep(
                spike_train((NO_SPIKE,) * 40, t_max).codes, LayerConfig(40, 7, 256, threshold), w
            )
            assert SpikeTrain(state.fire_codes, t_max) == spike_train((NO_SPIKE,) * 7, t_max)
            assert state.potentials == [0] * 7
            assert state.fire_codes.tolist() == [-1] * 7


@pytest.mark.parametrize("t_max", [1, 4, 256])
def test_inputs_all_at_the_last_timestep_fire_there_or_never(t_max):
    rng = make_rng(83)
    outcomes = set()
    for _ in range(20):
        cfg, weights = random_layer(rng, rng.randint(1, 30), rng.randint(1, 12), rng.choice(list(WeightMode)))
        state = dense_layer_sweep(spike_train((t_max - 1,) * cfg.in_dim, t_max).codes, cfg, weights)
        sums = weights.matrix().sum(axis=1)
        fired = sums >= cfg.effective_threshold(weights.mode)
        assert state.fire_codes.tolist() == np.where(fired, t_max - 1, -1).tolist()
        assert state.potentials == sums.tolist()
        assert set(state.fire_times) <= {t_max - 1, NO_SPIKE}
        outcomes.update(fired.tolist())
    assert outcomes == {True, False}


def test_dimension_check():
    """Both layer paths reject codes of the wrong length, then weights of the
    wrong shape, with one message."""
    w = BinaryWeights.from_rows([[1, 1, -1]])
    for cfg, codes, weights in [
        (LayerConfig(3, 1, 256, 0), spike_train((1, 2), 16).codes, w),  # train shorter than in_dim
        (LayerConfig(4, 1, 256, 0), spike_train((1, 2, 3, 4), 16).codes, w),  # matrix has 3 inputs
        (LayerConfig(3, 2, 256, 0), spike_train((1, 2, 3), 16).codes, w),  # matrix has 1 neuron
        # Input 5 spikes into a layer of 2 inputs.
        (LayerConfig(2, 1, 256, 2), as_codes([(0, [5])], 6), BinaryWeights.from_rows([[1, 1]])),
        # Codes name no input below 0; the nearest case is a train with no slots.
        (LayerConfig(2, 1, 256, 100), as_codes([], 0), Fixed16Weights([[5, 7]])),
    ]:
        with pytest.raises(DimensionMismatch, match="train length|weight shape") as dense:
            dense_layer_sweep(codes, cfg, weights)
        with pytest.raises(DimensionMismatch, match="train length|weight shape") as event:
            run_layer(codes, cfg, weights)
        assert str(event.value) == str(dense.value)


@pytest.mark.parametrize(
    "codes, dtype, named",
    [
        ([-2, 3], np.int16, "input 0 has spike code -2,"),
        ([3, -1, -7, -2], np.int16, "input 2 has spike code -7,"),
        ([0, 256, -1], np.int16, "input 1 has spike code 256,"),
        ([70000, 3], np.int32, "input 0 has spike code 70000,"),
        ([5, -1, 4_000_000], np.int64, "input 2 has spike code 4000000,"),
        ([1 << 63, 0], np.uint64, "input 0 has spike code 9223372036854775808,"),
        ([0, 255, (1 << 64) - 1], np.uint64, "input 2 has spike code 18446744073709551615,"),
    ],
    ids=["int16_-2", "int16_-7_after_-1", "int16_256", "int32_70000", "int64_4000000", "uint64_2**63", "uint64_2**64-1"],
)
def test_codes_outside_a_byte_raise_one_typed_error_on_both_paths(codes, dtype, named):
    """A layer's codes are one byte each: -1 for no spike or a time in [0, 255].
    A hand-fed code outside, of any integer dtype, is rejected by run_layer and
    the oracle's sweep with the same message, naming the first such input, and
    before anything is sized by the code (a bincount up to 4_000_000 would take 64 MB)."""
    codes = np.array(codes, dtype)
    layer, weights = LayerConfig(len(codes), 2), BinaryWeights.from_rows([[1] * len(codes)] * 2)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpikeCode, match=named) as datapath:
            run_layer(codes, layer, weights)
        with pytest.raises(InvalidSpikeCode, match=named) as dense:
            dense_layer_sweep(codes, layer, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(datapath.value) == str(dense.value) == f"{named} outside [-1, 255]"
    assert isinstance(dense.value, SpikeSocError) and not isinstance(dense.value, ValueError)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
)
def test_codes_in_a_byte_run_alike_in_any_integer_dtype(dtype):
    """Both paths accept every code in [-1, 255] that an integer dtype holds, the
    edges -1, 0 and 255 included, and give the state of the same codes in int16."""
    rng = make_rng(75)
    info = np.iinfo(dtype)
    for _ in range(30):
        n = rng.randint(1, 40)
        values = [min(max(rng.choice([-1, 0, 255, rng.randint(-1, 255)]), info.min), info.max) for _ in range(n)]
        layer, weights = random_layer(rng, n, rng.randint(1, 12), rng.choice(list(WeightMode)))
        codes, narrow = np.array(values, dtype), np.array(values, np.int16)
        assert run_layer(codes, layer, weights) == run_layer(narrow, layer, weights)
        assert dense_layer_sweep(codes, layer, weights) == dense_layer_sweep(narrow, layer, weights)


@pytest.mark.parametrize(
    "codes, got",
    [
        (np.array([True, False, True]), "1-D bool"),
        (np.array([0.0, 1.0, 2.0]), "1-D float64"),
        (np.zeros((3, 3), np.int16), "2-D int16"),
        ([0, 1, 2], "list"),
        (np.array(1, np.int16), "0-D int16"),
    ],
    ids=["bool", "float64", "3x3 int16", "list", "0-d int16"],
)
def test_codes_that_are_not_an_integer_array_raise_one_typed_error_on_both_paths(codes, got):
    """A layer's codes are a 1-D integer array. Anything else, even of the
    layer's length, is rejected before the length check with one message on
    both paths, so a bool array is not read as codes 0 and 1."""
    layer, weights = LayerConfig(3, 2), BinaryWeights.from_rows([[1, 1, 1], [1, -1, 1]])
    message = f"codes must be a 1-D integer array, got {got}"
    with pytest.raises(InvalidSpikeCode) as datapath:
        run_layer(codes, layer, weights)
    with pytest.raises(InvalidSpikeCode) as dense:
        dense_layer_sweep(codes, layer, weights)
    assert str(datapath.value) == str(dense.value) == message


def test_independent_of_the_datapath_column_cache(monkeypatch):
    """The oracle must not read `columns`, the datapath's transposed cache,
    nor call the sorter, `run_layer` or its prefix scan, under any name."""
    rng = make_rng(74)
    models = [random_model(rng) for _ in range(60)]
    cases = [(model, random_frame(rng, model.input_dim)) for model in models]
    expected = [run_network(model, frame, early_stop=False) for model, frame in cases]

    def forbidden(name):
        def raise_(*args, **kwargs):
            raise AssertionError(f"the dense oracle used `{name}`")

        return raise_

    monkeypatch.setattr(BinaryWeights, "columns", property(forbidden("columns")))
    monkeypatch.setattr(Fixed16Weights, "columns", property(forbidden("columns")))
    datapath = [sort_spikes, run_layer, _prefix_rows]
    patched = 0
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "spikesoc"]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in datapath):
                monkeypatch.setattr(module, name, forbidden(name))
                patched += 1
    assert patched >= 4  # sort_spikes in sorter and core; run_layer and _prefix_rows in core
    with monkeypatch.context() as numpy_patch:
        # Its rows are numbered by a count of the timesteps that carry spikes, not an ordering.
        for name in ("sort", "argsort", "lexsort", "searchsorted", "unique"):
            numpy_patch.setattr(np, name, forbidden(f"np.{name}"))
        dense = [dense_infer(model, frame) for model, frame in cases]
    for event, reference in zip(expected, dense):
        assert_same_state(event, reference)


def test_no_train_is_built_between_layers(monkeypatch):
    """Both paths take a layer's int16 input codes and hand its fire codes on
    as they are. With SpikeTrain unbuildable, the oracle's sweeps and the
    datapath's layer runs, chained from input codes encoded beforehand, give
    the states of run_network with early stop off; so do dense_infer and
    run_network themselves, handed those inputs' trains for their encoders'."""
    rng = make_rng(85)
    cases, trains = [], {}
    for _ in range(60):
        model = random_model(rng)
        frame = random_frame(rng, model.input_dim)
        trains[frame, model.t_max] = encode_ttfs(frame, model.t_max)
        cases.append((model, frame, run_network(model, frame, early_stop=False).layer_states))

    def forbidden(*args, **kwargs):
        raise AssertionError("a SpikeTrain was built")

    monkeypatch.setattr(SpikeTrain, "__init__", forbidden)
    monkeypatch.setattr(SpikeTrain, "__post_init__", forbidden)
    for module in (oracle, core):
        monkeypatch.setattr(module, "encode_ttfs", lambda frame, t_max: trains[frame, t_max])
    for model, frame, expected in cases:
        dense_codes = event_codes = trains[frame, model.t_max].codes
        for (cfg, weights), state in zip(model.layers, expected, strict=True):
            dense = dense_layer_sweep(dense_codes, cfg, weights)
            event, _ = run_layer(event_codes, cfg, weights)
            assert dense == state and event == state
            dense_codes, event_codes = dense.fire_codes, event.fire_codes
        assert dense_infer(model, frame).layer_states == expected
        assert run_network(model, frame, early_stop=False).layer_states == expected


@pytest.mark.parametrize("threshold", [0, -1, -100])
@pytest.mark.parametrize("mode", list(WeightMode))
def test_nonpositive_threshold_fires_at_the_first_spike_not_at_time_zero(mode, threshold):
    """With an effective threshold <= 0 every potential already meets it at
    time 0, but no neuron may fire before a timestep that carries a spike."""
    rows = [[1, 1, -1], [-1, 1, -1], [1, 1, 1]]
    weights = BinaryWeights.from_rows(rows) if mode is WeightMode.BINARY else Fixed16Weights(rows)
    layer = LayerConfig(3, 3, 256, threshold)
    model = NetworkModel(mode=mode, t_max=8, layers=[(layer, weights)])
    frame = bytes([0, 128, 64])  # t_max 8 reads pixel >> 5: silent, times 3 and 5
    train = spike_train((NO_SPIKE, 3, 5), 8)
    dense = dense_layer_sweep(train.codes, layer, weights)
    event, _ = run_layer(train.codes, layer, weights)
    for state in (dense, event):
        assert state.fire_times == [3, 3, 3]
        assert state.potentials == [1, 1, 1]  # input 1's weights alone
    assert slot_values(SpikeTrain(dense.fire_codes, 8).codes) == [3, 3, 3]
    for infer in (dense_infer, run_network):
        result = infer(model, frame)
        assert result.input_train == train
        assert result.layer_states[0] == dense
        assert (result.predicted, result.decision_time) == (0, 3)


def test_sweep_makes_no_second_table():
    """The running sum goes down the contribution table in place: one warmed
    sweep of a 784x600 binary layer at t_max 256 holds the int64 weight
    matrix, the table and less than half a table besides (a gathered copy of
    the rows that carry spikes would pass that)."""
    gen = np.random.default_rng(84)
    weights = BinaryWeights.from_rows(gen.choice((-1, 1), size=(600, 784)).tolist())
    layer = LayerConfig(784, 600, 256, 8)
    codes = np.where(gen.random(784) < 0.1, -1, gen.integers(0, 256, 784)).astype(np.int16)
    codes = SpikeTrain(codes, 256).codes
    dense_layer_sweep(codes, layer, weights)
    tracemalloc.start()
    try:
        state = dense_layer_sweep(codes, layer, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < (state.fire_codes >= 0).sum() < 600
    matrix_bytes, table_bytes = 600 * 784 * 8, 256 * 600 * 8
    assert peak < matrix_bytes + 1.5 * table_bytes, peak // 1024


def test_table_has_a_row_only_per_timestep_that_carries_spikes():
    """The sweep's peak, for the layer above with its spiking inputs on only
    2 of 256 timesteps, stays below that of `matrix()` alone plus a tenth of a
    t_max-row table: the table has a row per timestep that carries spikes."""
    gen = np.random.default_rng(84)  # the layer of test_sweep_makes_no_second_table
    weights = BinaryWeights.from_rows(gen.choice((-1, 1), size=(600, 784)).tolist())
    layer = LayerConfig(784, 600, 256, 8)
    codes = np.where(gen.random(784) < 0.1, -1, gen.choice((40, 200), 784)).astype(np.int16)
    codes = SpikeTrain(codes, 256).codes
    warm = dense_layer_sweep(codes, layer, weights)
    peaks = []
    for call in (weights.matrix, lambda: dense_layer_sweep(codes, layer, weights)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    matrix_peak, sweep_peak = peaks
    assert set(warm.fire_codes.tolist()) == {-1, 40, 200}
    assert sweep_peak < matrix_peak + 256 * 600 * 8 / 10, (sweep_peak // 1024, matrix_peak // 1024)


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
        layers=[(LayerConfig(in_dim, out_dim, 256, sorted(sums)[2]), Fixed16Weights(rows))],
    )
    frame = bytes([255]) * in_dim  # every input spikes at t = 0
    dense = dense_infer(model, frame)
    assert slot_values(dense.input_train.codes) == [0] * in_dim
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
                    Fixed16Weights(rows),
                )
            ],
        )
        frame = random_frame(rng, in_dim)
        assert_same_state(
            run_network(model, frame, early_stop=False), dense_infer(model, frame)
        )


def test_equivalence_holds_under_spike_on_zero_variant():
    rng = make_rng(73)
    with_zeros = 0
    for _ in range(100):
        model = random_model(rng)
        frame = random_frame(rng, model.input_dim, zero_fraction=0.3)
        with zero_pixels_spike_last() as encode:
            dense = dense_infer(model, frame)
            event = run_network(model, frame, early_stop=False)
            # Both paths encode through the patched encoder: zero pixels spike last.
            train = encode(frame, model.t_max)
        assert_same_state(event, dense)
        assert event.input_train == dense.input_train == train
        zeros = np.frombuffer(frame, np.uint8) == 0
        assert (train.codes[zeros] == model.t_max - 1).all()
        with_zeros += zeros.any()
    assert with_zeros >= 50  # the check must not be vacuous


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
    """Trains and states store only int16 codes; fire_times is built on first
    read, and the codes' slot values equal those of spike_train(times, t_max)."""
    rng = make_rng(79)
    for _ in range(50):
        model = random_model(rng)
        result = infer(model, random_frame(rng, model.input_dim))
        outputs = [SpikeTrain(s.fire_codes, model.t_max) for s in result.layer_states]
        trains = [result.input_train, *outputs]
        assert all(vars(train).keys() == {"codes", "t_max"} for train in trains)
        assert all("fire_times" not in vars(state) for state in result.layer_states)
        for train in trains:
            times = tuple(None if c < 0 else c for c in train.codes.tolist())
            rebuilt = spike_train(times, model.t_max)
            assert tuple(slot_values(train.codes)) == tuple(slot_values(rebuilt.codes)) == times
        for train, state in zip(outputs, result.layer_states):
            assert state.fire_times == slot_values(train.codes)


def test_divergence_messages_name_the_first_difference():
    def states(p0=7, c1=4):
        return [
            NeuronState([5, -2, p0], np.array([3, -1, 3], np.int16)),
            NeuronState([1, 2], np.array([-1, c1], np.int16)),
        ]

    clean = states_result(states())
    assert first_divergence(clean, states_result(states())) is None
    assert all("fire_times" not in vars(state) for state in clean.layer_states)
    cases = [
        (states(c1=-1), "layer 1 neuron 1 fire time 4 vs None"),
        (states(p0=8), "layer 0 neuron 2 potential 7 vs 8"),
        (states(p0=8, c1=-1), "layer 0 neuron 2 potential 7 vs 8"),
    ]
    for other, message in cases:
        assert first_divergence(clean, states_result(other)) == message
    one_layer = [NeuronState([5, -2, 8], np.array([3, -1, 2], np.int16))]
    assert first_divergence(states_result(states()[:1]), states_result(one_layer)) == (
        "layer 0 neuron 2 fire time 3 vs 2"
    )
    assert first_divergence(clean, states_result(states(), predicted=1)) == "predicted 0 vs 1"
    assert first_divergence(clean, states_result(states(c1=-1)), output_layer=False) is None


@pytest.mark.parametrize("mode", list(WeightMode))
def test_a_decoded_model_gives_the_same_results(mode):
    rng = make_rng(86)
    for _ in range(30):
        model = random_model(rng, mode=mode)
        reference = oracle.decoded(model)
        for _ in range(3):
            frame = random_frame(rng, model.input_dim)
            assert dense_infer(reference, frame) == dense_infer(model, frame)


def test_decoded_calls_each_layers_matrix_once(monkeypatch):
    """One decode per layer, kept read-only; the model's own weights stay as they were."""
    rng = make_rng(87)
    models = [random_model(rng, mode=mode, max_layers=3) for mode in WeightMode]
    calls = []
    matrix = BinaryWeights.matrix  # both formats inherit it

    def counted(weights):
        calls.append(weights)
        return matrix(weights)

    monkeypatch.setattr(BinaryWeights, "matrix", counted)
    monkeypatch.setattr(Fixed16Weights, "matrix", counted)
    for model in models:
        calls.clear()
        reference = oracle.decoded(model)
        assert calls == [weights for _, weights in model.layers]
        for (cfg, weights), (decoded_cfg, decoded_weights) in zip(model.layers, reference.layers):
            assert decoded_cfg is cfg
            assert (decoded_weights.mode, decoded_weights.in_dim, decoded_weights.out_dim) == (
                weights.mode, weights.in_dim, weights.out_dim
            )
            assert not decoded_weights.matrix().flags.writeable
            assert np.array_equal(decoded_weights.matrix(), matrix(weights))
        frame = random_frame(rng, model.input_dim)
        calls.clear()
        dense_infer(reference, frame)
        assert calls == []
