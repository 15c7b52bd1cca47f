from math import isqrt

import numpy as np
import pytest

from spikesoc import (
    NO_SPIKE,
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    deserialize_model,
    estimate_cycles,
    run_network,
    serialize_model,
)
from spikesoc.core import _prefix_rows, run_layer
from spikesoc.errors import DimensionMismatch
from spikesoc.model import slot_values
from spikesoc.oracle import dense_layer_sweep
from spikesoc.perf import LayerTally
from spikesoc.sorter import sort_spikes
from helpers import (
    COPIES,
    as_codes,
    as_groups,
    dense_potentials,
    fired_flags,
    make_rng,
    random_binary_weights,
    random_fixed_weights,
    random_frame,
    random_instance,
    random_model,
    reference_run_layer,
    spike_train,
    truncate_after,
)


def _one_event_per_timestep(indices, in_dim):
    return as_codes([(t, [i]) for t, i in enumerate(indices)], in_dim)


class TestAccumulateBinary:
    def test_three_events_net_plus_one(self):
        cfg = LayerConfig(3, 1, threshold=100)
        w = BinaryWeights.from_rows([[1, -1, 1]])
        state, tally = run_layer(_one_event_per_timestep(range(3), 3), cfg, w)
        assert state.potentials == [1]
        assert tally.additions == 2
        assert tally.subtractions == 1
        assert tally.multiplications == 0

    def test_fired_neuron_is_frozen(self):
        # neuron 0 fires at 7 after timestep 0; the timestep-1 event then
        # reaches only neuron 1
        cfg = LayerConfig(8, 2, threshold=7)
        w = BinaryWeights.from_rows([[1] * 8, [-1] * 7 + [1]])
        state, _ = run_layer(as_codes([(0, list(range(7))), (1, [7])], 8), cfg, w)
        assert state.fire_times == [0, NO_SPIKE]
        assert state.potentials == [7, -6]

    def test_matches_dense_accumulation_64x8(self):
        rng = make_rng(51)
        rows = [[rng.choice((-1, 1)) for _ in range(64)] for _ in range(8)]
        w = BinaryWeights.from_rows(rows)
        cfg = LayerConfig(64, 8, threshold=10**6)  # never fires
        arrived = rng.sample(range(64), 48)  # each input spikes at most once
        state, _ = run_layer(_one_event_per_timestep(arrived, 64), cfg, w)
        assert state.potentials == dense_potentials(rows, arrived)


class TestAccumulateFixed16:
    def test_single_event_weight_300(self):
        cfg = LayerConfig(1, 1, threshold=10**6)
        w = Fixed16Weights([[300]])
        state, tally = run_layer(as_codes([(0, [0])], 1), cfg, w)
        assert state.potentials == [300]
        assert tally.multiplications == 1

    def test_twos_complement_extremes(self):
        cfg = LayerConfig(2, 1, threshold=10**6)
        w = Fixed16Weights([[-32768, 32767]])
        state, _ = run_layer(_one_event_per_timestep([0, 1], 2), cfg, w)
        assert state.potentials == [-1]

    def test_matches_dense_accumulation_128x10(self):
        rng = make_rng(52)
        rows = [[rng.randint(-2000, 2000) for _ in range(128)] for _ in range(10)]
        w = Fixed16Weights(rows)
        cfg = LayerConfig(128, 10, threshold=10**8)
        arrived = rng.sample(range(128), 96)  # each input spikes at most once
        state, _ = run_layer(_one_event_per_timestep(arrived, 128), cfg, w)
        assert state.potentials == dense_potentials(rows, arrived)


class TestAccumulatorWidth:
    """run_layer sums in int16 while events x the largest |weight| fits, else
    in int32, which holds every layer a flash record can declare (65535 x
    2**15 < 2**31). The edges of that rule must not wrap, and the fire test
    compares an int16 prefix with thresholds far outside int16 exactly."""

    @pytest.mark.parametrize("events", [32767, 32768])
    @pytest.mark.parametrize("out_dim", [1, 2])  # one cumsum, and the blocked scan
    def test_all_plus_one_neurons_count_every_event(self, events, out_dim):
        cfg = LayerConfig(events, out_dim, threshold=2**31 - 1)
        w = BinaryWeights.from_rows([[1] * events] * out_dim)
        state, tally = run_layer(as_codes([(3, list(range(events)))], events), cfg, w)
        assert state.potentials == [events] * out_dim
        assert state.fire_times == [NO_SPIKE] * out_dim
        assert (tally.additions, tally.subtractions) == (events * out_dim, 0)

    @pytest.mark.parametrize("alpha_raw", [256, 1])  # 1: the folded threshold passes 2**38
    def test_threshold_beyond_int16_compares_exactly(self, alpha_raw):
        # 16384 events x 2 neurons reach the blocked scan, summed in int16.
        n = 16384
        w = BinaryWeights.from_rows([[1] * n, [-1] * n])
        codes = as_codes([(2, list(range(n // 2))), (6, list(range(n // 2, n)))], n)
        never = LayerConfig(n, 2, alpha_raw, threshold=2**31 - 1)
        state, _ = run_layer(codes, never, w)
        assert state.fire_times == [NO_SPIKE, NO_SPIKE]
        assert state.potentials == [n, -n]
        always = LayerConfig(n, 2, alpha_raw, threshold=-(2**31 - 1))
        state, _ = run_layer(codes, always, w)
        assert state.fire_times == [2, 2]
        assert state.potentials == [n // 2, -n // 2]

    @pytest.mark.parametrize("weight, potential", [(-32768, -2147450880), (32767, 2147385345)])
    def test_widest_flashable_fixed16_layer_agrees_everywhere(self, weight, potential):
        n = 0xFFFF  # the largest in_dim a flash layer record holds
        layer = (LayerConfig(n, 1, threshold=2**31 - 1), Fixed16Weights([[weight] * n]))
        model = NetworkModel(mode=WeightMode.FIXED16, t_max=256, layers=[layer])
        [(cfg, w)] = deserialize_model(serialize_model(model)).layers
        train = SpikeTrain(np.arange(n) % 256, 256)  # every input spikes once
        state, tally = run_layer(train.codes, cfg, w)
        assert state.potentials == [potential]
        assert state.fire_times == [NO_SPIKE]
        assert dense_layer_sweep(train.codes, cfg, w) == state
        assert reference_run_layer(as_groups(*sort_spikes(train.codes)), cfg, w) == (state, tally)

    def test_the_widest_layer_in_one_group_sums_in_int32(self):
        # Every input spikes at time 0: one group of 65535 events, each
        # adding -32768, the lowest sum a layer's one prefix can reach.
        cfg = LayerConfig(0xFFFF, 1, threshold=0)
        w = Fixed16Weights([[-32768] * 0xFFFF])
        state, _ = run_layer(np.zeros(0xFFFF, np.int16), cfg, w)
        assert state.potentials == [-2147450880]


class TestFireCheck:
    def test_fires_at_threshold(self):
        cfg = LayerConfig(4, 1, threshold=2)
        w = BinaryWeights.from_rows([[1, 1, 1, 1]])
        state, _ = run_layer(as_codes([(7, [0, 1])], 4), cfg, w)
        assert state.potentials == [2]
        assert fired_flags(state) == [True]
        assert state.fire_times == [7]

    def test_zero_threshold_uses_geq(self):
        cfg = LayerConfig(2, 1, threshold=0)
        w = BinaryWeights.from_rows([[-1, 1]])
        state, _ = run_layer(as_codes([(3, [0])], 2), cfg, w)
        assert state.fire_times == [NO_SPIKE]
        state, _ = run_layer(as_codes([(3, [0]), (5, [1])], 2), cfg, w)
        assert state.potentials == [0]
        assert state.fire_times == [5]

    def test_alpha_fold_identity(self):
        # alpha 2.0 with raw threshold 4 behaves like alpha 1 with threshold 2
        folded = LayerConfig(4, 1, alpha_raw=512, threshold=4)
        plain = LayerConfig(4, 1, alpha_raw=256, threshold=2)
        w = BinaryWeights.from_rows([[1, 1, 1, -1]])
        events_for = {-1: [3], 0: [0, 3], 1: [0], 2: [0, 1], 3: [0, 1, 2]}
        for potential, events in events_for.items():
            a, _ = run_layer(as_codes([(0, events)], 4), folded, w)
            b, _ = run_layer(as_codes([(0, events)], 4), plain, w)
            assert a.potentials == b.potentials == [potential]
            assert a.fire_times == b.fire_times == [0 if potential >= 2 else NO_SPIKE]

    def test_scan_order_is_ascending(self):
        cfg = LayerConfig(1, 4, threshold=0)
        w = BinaryWeights.from_rows([[1]] * 4)
        state, _ = run_layer(as_codes([(0, [0])], 1), cfg, w)
        assert [j for j, t in enumerate(state.fire_times) if t == 0] == [0, 1, 2, 3]


class TestRunLayer:
    def test_empty_queue_leaves_layer_silent(self):
        cfg = LayerConfig(4, 3, threshold=0)
        w = BinaryWeights.from_rows([[1] * 4] * 3)
        state, _ = run_layer(as_codes([], 4), cfg, w)
        assert state.fire_times == [NO_SPIKE] * 3
        assert state.potentials == [0, 0, 0]

    def test_crosses_on_second_event(self):
        cfg = LayerConfig(2, 1, threshold=2)
        w = BinaryWeights.from_rows([[1, 1]])
        state, _ = run_layer(spike_train((3, 9), 16).codes, cfg, w)
        assert state.fire_times == [9]

    def test_events_after_all_fired_are_skipped(self):
        cfg = LayerConfig(3, 1, threshold=1)
        w = BinaryWeights.from_rows([[1, 1, 1]])
        state, tally = run_layer(spike_train((0, 4, 8), 16).codes, cfg, w)
        assert state.fire_times == [0]
        assert tally.events_processed == 1
        assert tally.events_skipped == 2
        assert state.potentials == [1]  # frozen at fire

    def test_same_timestep_events_commute(self):
        """The sorter fixes the order of a group's events, so the prefix scan
        is where that order can still vary. Shuffled within each group, the
        events give the same rows at every group end, on both scans: those
        rows are all the fire test and the potentials read."""
        rng = make_rng(53)
        for _ in range(100):
            in_dim = rng.randint(32, 96)
            out_dim = rng.randint(16, 48)  # in_dim x out_dim >= 512: a blocked scan block has rows
            w = random_binary_weights(rng, in_dim, out_dim)
            cuts = sorted(rng.sample(range(1, in_dim), rng.randint(0, 4)))
            groups = [list(range(a, b)) for a, b in zip([0, *cuts], [*cuts, in_dim])]
            shuffled = [rng.sample(indices, len(indices)) for indices in groups]
            ends = np.array([*cuts, in_dim]) - 1
            for blocked in (False, True):
                rows_a, rows_b = (
                    _prefix_rows(w, np.concatenate(g), ends, np.int16, blocked)
                    for g in (groups, shuffled)
                )
                assert np.array_equal(rows_a, rows_b)

    @pytest.mark.parametrize("n, out_dim, b", [(4064, 2032, 127), (4096, 2048, 128)], ids=["b=127", "b=128"])
    def test_blocked_scan_sums_in_int8_only_while_a_block_fits(self, n, out_dim, b):
        """All-+1 weights and one group: every block's running sum reaches its
        height b, which int8 holds at 127 and wraps at 128 with no warning, so
        a block of 128 rows must be summed in the layer's wider accumulator."""
        assert min(n, isqrt(n * out_dim // 512)) == b  # the blocked scan's rows per block
        cfg = LayerConfig(n, out_dim, 256, threshold=n)
        w = BinaryWeights(n, np.full((out_dim, n // 16), 0xFFFF, "<u2"))
        codes = np.zeros(n, np.int16)
        state, tally = run_layer(codes, cfg, w)
        assert state.potentials == [n] * out_dim and state.fire_times == [0] * out_dim
        assert state == dense_layer_sweep(codes, cfg, w)
        ref_state, ref_tally = reference_run_layer(as_groups(*sort_spikes(codes)), cfg, w)
        assert state == ref_state and tally == ref_tally

    def test_stop_at_first_fire_equals_truncation_at_decision_time(self):
        rng = make_rng(54)
        for _ in range(200):
            in_dim = rng.randint(1, 24)
            out_dim = rng.randint(1, 8)
            cfg = LayerConfig(in_dim, out_dim, threshold=rng.randint(-1, 4))
            w = random_binary_weights(rng, in_dim, out_dim)
            t_max = 16
            times = [
                NO_SPIKE if rng.random() < 0.2 else rng.randint(0, t_max - 1)
                for _ in range(in_dim)
            ]
            codes = spike_train(times, t_max).codes
            state_stop, _ = run_layer(codes, cfg, w, stop_at_first_fire=True)
            groups = as_groups(*sort_spikes(codes))
            fired = [t for t in state_stop.fire_times if t is not NO_SPIKE]
            if fired:
                cut = truncate_after(groups, min(fired))
            else:
                cut = groups
            state_cut, _ = run_layer(as_codes(cut, in_dim), cfg, w)
            assert state_stop.fire_times == state_cut.fire_times
            assert state_stop.potentials == state_cut.potentials

    def test_matches_dense_sweep_on_1000_random_layers(self):
        rng = make_rng(55)
        for _ in range(1000):
            mode = rng.choice((WeightMode.BINARY, WeightMode.FIXED16))
            in_dim = rng.randint(1, 32)
            out_dim = rng.randint(1, 16)
            t_max = rng.choice((16, 64))
            if mode is WeightMode.BINARY:
                w = random_binary_weights(rng, in_dim, out_dim)
            else:
                w = random_fixed_weights(rng, in_dim, out_dim, magnitude=64)
            cfg = LayerConfig(
                in_dim,
                out_dim,
                alpha_raw=rng.choice((256, 128, 512)),
                threshold=rng.randint(-4, max(2, in_dim)),
            )
            times = tuple(
                NO_SPIKE if rng.random() < 0.25 else rng.randint(0, t_max - 1)
                for _ in range(in_dim)
            )
            train = spike_train(times, t_max)
            got_state, _ = run_layer(train.codes, cfg, w)
            ref_state = dense_layer_sweep(train.codes, cfg, w)
            ref_train = SpikeTrain(ref_state.fire_codes, t_max)
            assert got_state.fire_times == slot_values(ref_train.codes)
            assert got_state.potentials == ref_state.potentials
            assert got_state.fire_times == ref_state.fire_times


def _identityish_net():
    rows = [[1] * 16, [-1] * 16]
    return NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[(LayerConfig(16, 2, 256, 1), BinaryWeights.from_rows(rows))],
    )


class TestRunNetwork:
    def test_all_zero_frame_falls_back_to_class_zero(self):
        r = run_network(_identityish_net(), bytes(16))
        assert r.predicted == 0
        assert r.decision_time is NO_SPIKE
        assert all(t is NO_SPIKE for t in r.layer_states[-1].fire_times)
        assert r.layer_states[-1].potentials == [0, 0]

    def test_bright_frame_decides_class_zero_at_time_zero(self):
        r = run_network(_identityish_net(), bytes([255] * 16))
        assert (r.predicted, r.decision_time) == (0, 0)

    def test_frame_length_checked(self):
        with pytest.raises(DimensionMismatch):
            run_network(_identityish_net(), bytes(15))

    def test_binary_mode_never_multiplies(self):
        rng = make_rng(56)
        for _ in range(50):
            model = random_model(rng, mode=WeightMode.BINARY)
            frame = random_frame(rng, model.input_dim)
            r = run_network(model, frame)
            assert r.counters.multiplications == 0

    def test_fixed_mode_counts_multiplies_only(self):
        rng = make_rng(57)
        model = random_model(rng, mode=WeightMode.FIXED16)
        frame = bytes([255] * model.input_dim)
        r = run_network(model, frame)
        assert r.counters.additions == 0
        assert r.counters.subtractions == 0
        assert r.counters.multiplications > 0

    def test_fired_flags_track_fire_times(self):
        rng = make_rng(58)
        for _ in range(100):
            inst = random_instance(rng)
            for state in inst.default.layer_states:
                train = SpikeTrain(state.fire_codes, inst.model.t_max)
                assert slot_values(train.codes) == state.fire_times

    def test_event_bookkeeping_is_complete(self):
        rng = make_rng(59)
        for _ in range(100):
            inst = random_instance(rng)
            total_active = sum(
                tally.events_sorted for tally in inst.default.trace.layers
            )
            c = inst.default.counters
            assert c.events_processed + c.events_skipped == total_active

    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("mode", [WeightMode.BINARY, WeightMode.FIXED16])
    def test_layer_tallies_sum_to_the_network_totals(self, mode, early_stop):
        rng = make_rng(62)
        for _ in range(50):
            model = random_model(rng, mode=mode)
            frame = random_frame(rng, model.input_dim)
            r = run_network(model, frame, early_stop=early_stop)
            tallies = r.trace.layers
            for name in (
                "additions",
                "subtractions",
                "multiplications",
                "events_processed",
                "events_skipped",
                "events_sorted",
            ):
                assert getattr(r.counters, name) == sum(getattr(t, name) for t in tallies)
            assert (r.counters.in_dim, r.counters.out_dim) == (model.input_dim, model.output_dim)
            outputs = [SpikeTrain(s.fire_codes, model.t_max) for s in r.layer_states]
            for tally, train in zip(tallies, [r.input_train, *outputs]):
                assert tally.events_sorted == train.active_count
                if mode is WeightMode.BINARY:
                    assert tally.multiplications == 0
                else:
                    assert tally.additions == tally.subtractions == 0
            assert estimate_cycles(r.trace) == r.cycles

    def test_early_stop_never_changes_the_outcome(self):
        rng = make_rng(60)
        for _ in range(200):
            inst = random_instance(rng)
            full = run_network(inst.model, inst.frame, early_stop=False)
            assert inst.default.predicted == full.predicted
            assert inst.default.decision_time == full.decision_time
            assert inst.default.cycles.total_cycles <= full.cycles.total_cycles

    def test_hidden_layers_always_run_to_completion(self):
        rng = make_rng(61)
        for _ in range(50):
            inst = random_instance(rng)
            full = run_network(inst.model, inst.frame, early_stop=False)
            for a, b in zip(inst.default.layer_states[:-1], full.layer_states[:-1]):
                assert a.fire_times == b.fire_times


def _assert_views_derive_from_the_stored_fields(result, t_max):
    assert not hasattr(result, "layer_trains")  # a layer's output is its state's fire codes
    for state in result.layer_states:
        train = SpikeTrain(state.fire_codes, t_max)  # the codes fit the window
        assert np.array_equal(train.codes, state.fire_codes)
        assert not state.fire_codes.flags.writeable
    if result.trace is None:
        assert result.counters is None and result.cycles is None
    else:
        assert result.counters == LayerTally.total(result.trace.layers)
        assert result.cycles == estimate_cycles(result.trace)


def test_derived_views_equal_the_values_they_derive_from(corpus):
    """counters and cycles are built on first read from the trace, early
    stop on and off; the dense reference has no trace, so no counters or
    cycles. Every layer's fire codes fit the input's window."""
    for runs in corpus:
        t_max = runs.inst.model.t_max
        for result in (runs.inst.default, runs.untruncated, runs.dense):
            _assert_views_derive_from_the_stored_fields(result, t_max)
        assert runs.dense.trace is None
    runs = corpus[0]
    fresh = run_network(runs.inst.model, runs.inst.frame)  # no view read yet
    for clone in COPIES:
        for result in (runs.inst.default, runs.dense, fresh):
            twin = clone(result)
            assert twin == result
            _assert_views_derive_from_the_stored_fields(twin, runs.inst.model.t_max)
            assert twin.layer_states == result.layer_states
            assert (twin.counters, twin.cycles) == (result.counters, result.cycles)
            codes = [twin.input_train.codes, *(s.fire_codes for s in twin.layer_states)]
            assert not any(c.flags.writeable for c in codes)

