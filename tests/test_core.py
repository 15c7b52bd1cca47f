import pytest

from spikesoc import (
    NO_SPIKE,
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    estimate_cycles,
    run_network,
)
from spikesoc.core import run_layer
from spikesoc.errors import AccumulatorOverflow, DimensionMismatch
from spikesoc.oracle import dense_layer_sweep
from spikesoc.sorter import sort_spikes
from helpers import (
    as_groups,
    as_queue,
    dense_potentials,
    fired_flags,
    make_rng,
    random_binary_weights,
    random_fixed_weights,
    random_frame,
    random_instance,
    random_model,
    truncate_after,
)


def _one_event_per_timestep(indices):
    return as_queue([(t, [i]) for t, i in enumerate(indices)])


class TestAccumulateBinary:
    def test_three_events_net_plus_one(self):
        cfg = LayerConfig(3, 1, threshold=100)
        w = BinaryWeights.from_rows([[1, -1, 1]])
        state, tally = run_layer(*_one_event_per_timestep(range(3)), cfg, w)
        assert state.potentials == [1]
        assert tally.additions == 2
        assert tally.subtractions == 1
        assert tally.multiplications == 0

    def test_fired_neuron_is_frozen(self):
        # neuron 0 fires at 7 after timestep 0; the timestep-1 event then
        # reaches only neuron 1
        cfg = LayerConfig(8, 2, threshold=7)
        w = BinaryWeights.from_rows([[1] * 8, [-1] * 7 + [1]])
        state, _ = run_layer(*as_queue([(0, list(range(7))), (1, [7])]), cfg, w)
        assert state.fire_times == [0, NO_SPIKE]
        assert state.potentials == [7, -6]

    def test_matches_dense_accumulation_64x8(self):
        rng = make_rng(51)
        rows = [[rng.choice((-1, 1)) for _ in range(64)] for _ in range(8)]
        w = BinaryWeights.from_rows(rows)
        cfg = LayerConfig(64, 8, threshold=10**6)  # never fires
        arrived = [rng.randrange(64) for _ in range(100)]
        state, _ = run_layer(*_one_event_per_timestep(arrived), cfg, w)
        assert state.potentials == dense_potentials(rows, arrived)

    def test_overflow_is_diagnosed(self):
        # A +-1 column cannot leave the 32-bit range in any layer an image
        # can hold; the one accumulate loop is checked through 16-bit
        # weights crossing the upper bound: 65539 * 32767 > 2**31 - 1.
        cfg = LayerConfig(65539, 1, threshold=2**31 - 1)
        w = Fixed16Weights.from_rows([[32767] * 65539])
        with pytest.raises(AccumulatorOverflow):
            run_layer(*as_queue([(0, list(range(65539)))]), cfg, w)


class TestAccumulateFixed16:
    def test_single_event_weight_300(self):
        cfg = LayerConfig(1, 1, threshold=10**6)
        w = Fixed16Weights.from_rows([[300]])
        state, tally = run_layer(*as_queue([(0, [0])]), cfg, w)
        assert state.potentials == [300]
        assert tally.multiplications == 1

    def test_twos_complement_extremes(self):
        cfg = LayerConfig(2, 1, threshold=10**6)
        w = Fixed16Weights.from_rows([[-32768, 32767]])
        state, _ = run_layer(*_one_event_per_timestep([0, 1]), cfg, w)
        assert state.potentials == [-1]

    def test_matches_dense_accumulation_128x10(self):
        rng = make_rng(52)
        rows = [[rng.randint(-2000, 2000) for _ in range(128)] for _ in range(10)]
        w = Fixed16Weights.from_rows(rows)
        cfg = LayerConfig(128, 10, threshold=10**8)
        arrived = [rng.randrange(128) for _ in range(200)]
        state, _ = run_layer(*_one_event_per_timestep(arrived), cfg, w)
        assert state.potentials == dense_potentials(rows, arrived)

    def test_overflow_is_diagnosed(self):
        # 65537 * -32768 < -2**31, all in one timestep
        cfg = LayerConfig(65537, 1, threshold=0)
        w = Fixed16Weights.from_rows([[-32768] * 65537])
        with pytest.raises(AccumulatorOverflow):
            run_layer(*as_queue([(0, list(range(65537)))]), cfg, w)


class TestOverflowRule:
    """The int32 check applies after every event into a neuron that is still
    unfired and still processed, not only at group ends."""

    def test_overflow_inside_a_group_that_ends_in_range(self):
        # 65539 * 32767 passes 2**31 - 1 at event 65538; two -32768 events
        # then bring the group's final potential back to 2**31 - 3.
        cfg = LayerConfig(65541, 1, threshold=2**31 - 1)
        w = Fixed16Weights.from_rows([[32767] * 65539 + [-32768] * 2])
        with pytest.raises(AccumulatorOverflow, match="event 65538 at time 5 "):
            run_layer(*as_queue([(5, list(range(65541)))]), cfg, w)

    def test_frozen_neuron_may_leave_range_unseen(self):
        # Neuron 0 fires on event 0; its unfrozen prefix would pass 2**31 - 1
        # in the next group, which only neuron 1 (zero weights) still takes.
        cfg = LayerConfig(65540, 2, threshold=1)
        w = Fixed16Weights.from_rows([[32767] * 65540, [0] * 65540])
        state, tally = run_layer(*as_queue([(0, [0]), (1, list(range(1, 65540)))]), cfg, w)
        assert state.fire_times == [0, NO_SPIKE]
        assert state.potentials == [32767, 0]
        assert tally.multiplications == 1 + 65540
        assert tally.events_processed == 65540

    def test_events_after_the_first_fire_cut_are_not_checked(self):
        cfg = LayerConfig(65540, 2, threshold=1)
        w = Fixed16Weights.from_rows([[1] + [0] * 65539, [0] + [32767] * 65539])
        queue = as_queue([(0, [0]), (1, list(range(1, 65540)))])
        state, tally = run_layer(*queue, cfg, w, stop_at_first_fire=True)
        assert state.fire_times == [0, NO_SPIKE]
        assert state.potentials == [1, 0]
        assert (tally.events_processed, tally.events_skipped) == (1, 65539)
        with pytest.raises(AccumulatorOverflow, match="event 65539 at time 1 "):
            run_layer(*queue, cfg, w)


class TestAccumulatorWidth:
    """run_layer's blocked scan sums in int16 while events x the largest
    |weight| fits, so the edges of that rule must not wrap, and the fire
    test compares an int16 prefix with thresholds far outside int16
    exactly."""

    @pytest.mark.parametrize("events", [32767, 32768])
    @pytest.mark.parametrize("out_dim", [1, 2])  # one cumsum, and the blocked scan
    def test_all_plus_one_neurons_count_every_event(self, events, out_dim):
        cfg = LayerConfig(events, out_dim, threshold=2**31 - 1)
        w = BinaryWeights.from_rows([[1] * events] * out_dim)
        state, tally = run_layer(*as_queue([(3, list(range(events)))]), cfg, w)
        assert state.potentials == [events] * out_dim
        assert state.fire_times == [NO_SPIKE] * out_dim
        assert (tally.additions, tally.subtractions) == (events * out_dim, 0)

    @pytest.mark.parametrize("alpha_raw", [256, 1])  # 1: the folded threshold passes 2**38
    def test_threshold_beyond_int16_compares_exactly(self, alpha_raw):
        # 16384 events x 2 neurons reach the blocked scan, summed in int16.
        n = 16384
        w = BinaryWeights.from_rows([[1] * n, [-1] * n])
        queue = as_queue([(2, list(range(n // 2))), (6, list(range(n // 2, n)))])
        never = LayerConfig(n, 2, alpha_raw, threshold=2**31 - 1)
        state, _ = run_layer(*queue, never, w)
        assert state.fire_times == [NO_SPIKE, NO_SPIKE]
        assert state.potentials == [n, -n]
        always = LayerConfig(n, 2, alpha_raw, threshold=-(2**31 - 1))
        state, _ = run_layer(*queue, always, w)
        assert state.fire_times == [2, 2]
        assert state.potentials == [n // 2, -n // 2]


class TestFireCheck:
    def test_fires_at_threshold(self):
        cfg = LayerConfig(4, 1, threshold=2)
        w = BinaryWeights.from_rows([[1, 1, 1, 1]])
        state, _ = run_layer(*as_queue([(7, [0, 1])]), cfg, w)
        assert state.potentials == [2]
        assert fired_flags(state) == [True]
        assert state.fire_times == [7]

    def test_zero_threshold_uses_geq(self):
        cfg = LayerConfig(2, 1, threshold=0)
        w = BinaryWeights.from_rows([[-1, 1]])
        state, _ = run_layer(*as_queue([(3, [0])]), cfg, w)
        assert state.fire_times == [NO_SPIKE]
        state, _ = run_layer(*as_queue([(3, [0]), (5, [1])]), cfg, w)
        assert state.potentials == [0]
        assert state.fire_times == [5]

    def test_alpha_fold_identity(self):
        # alpha 2.0 with raw threshold 4 behaves like alpha 1 with threshold 2
        folded = LayerConfig(4, 1, alpha_raw=512, threshold=4)
        plain = LayerConfig(4, 1, alpha_raw=256, threshold=2)
        w = BinaryWeights.from_rows([[1, 1, 1, -1]])
        events_for = {-1: [3], 0: [0, 3], 1: [0], 2: [0, 1], 3: [0, 1, 2]}
        for potential, events in events_for.items():
            a, _ = run_layer(*as_queue([(0, events)]), folded, w)
            b, _ = run_layer(*as_queue([(0, events)]), plain, w)
            assert a.potentials == b.potentials == [potential]
            assert a.fire_times == b.fire_times == [0 if potential >= 2 else NO_SPIKE]

    def test_scan_order_is_ascending(self):
        cfg = LayerConfig(1, 4, threshold=0)
        w = BinaryWeights.from_rows([[1]] * 4)
        state, _ = run_layer(*as_queue([(0, [0])]), cfg, w)
        assert [j for j, t in enumerate(state.fire_times) if t == 0] == [0, 1, 2, 3]


class TestRunLayer:
    def test_empty_queue_leaves_layer_silent(self):
        cfg = LayerConfig(4, 3, threshold=0)
        w = BinaryWeights.from_rows([[1] * 4] * 3)
        state, _ = run_layer(*as_queue([]), cfg, w)
        assert state.fire_times == [NO_SPIKE] * 3
        assert state.potentials == [0, 0, 0]

    def test_crosses_on_second_event(self):
        cfg = LayerConfig(2, 1, threshold=2)
        w = BinaryWeights.from_rows([[1, 1]])
        state, _ = run_layer(*sort_spikes(SpikeTrain((3, 9), 16)), cfg, w)
        assert state.fire_times == [9]

    def test_event_index_out_of_range(self):
        cfg = LayerConfig(2, 1, threshold=2)
        w = BinaryWeights.from_rows([[1, 1]])
        with pytest.raises(DimensionMismatch):
            run_layer(*as_queue([(0, [5])]), cfg, w)

    def test_negative_event_index_rejected(self):
        cfg = LayerConfig(2, 1, threshold=100)
        w = Fixed16Weights.from_rows([[5, 7]])
        with pytest.raises(DimensionMismatch, match="event index -1 "):
            run_layer(*as_queue([(0, [-1])]), cfg, w)

    def test_events_after_all_fired_are_skipped(self):
        cfg = LayerConfig(3, 1, threshold=1)
        w = BinaryWeights.from_rows([[1, 1, 1]])
        state, tally = run_layer(*sort_spikes(SpikeTrain((0, 4, 8), 16)), cfg, w)
        assert state.fire_times == [0]
        assert tally.events_processed == 1
        assert tally.events_skipped == 2
        assert state.potentials == [1]  # frozen at fire

    def test_same_timestep_events_commute(self):
        rng = make_rng(53)
        for _ in range(100):
            in_dim = rng.randint(2, 10)
            out_dim = rng.randint(1, 6)
            cfg = LayerConfig(in_dim, out_dim, threshold=rng.randint(-2, 3))
            w = random_binary_weights(rng, in_dim, out_dim)
            indices = list(range(in_dim))
            shuffled = indices[:]
            rng.shuffle(shuffled)
            state_a, _ = run_layer(*as_queue([(5, indices)]), cfg, w)
            state_b, _ = run_layer(*as_queue([(5, shuffled)]), cfg, w)
            assert state_a.fire_times == state_b.fire_times
            assert state_a.potentials == state_b.potentials

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
            queue = sort_spikes(SpikeTrain(tuple(times), t_max))
            state_stop, _ = run_layer(*queue, cfg, w, stop_at_first_fire=True)
            groups = as_groups(*queue)
            fired = [t for t in state_stop.fire_times if t is not NO_SPIKE]
            if fired:
                cut = truncate_after(groups, min(fired))
            else:
                cut = groups
            state_cut, _ = run_layer(*as_queue(cut), cfg, w)
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
            train = SpikeTrain(times, t_max)
            got_state, _ = run_layer(*sort_spikes(train), cfg, w)
            ref_train, ref_state = dense_layer_sweep(train, cfg, w)
            assert tuple(got_state.fire_times) == ref_train.times
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
        assert all(t is NO_SPIKE for t in r.layer_trains[-1].times)
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
            for train, state in zip(inst.default.layer_trains, inst.default.layer_states):
                assert train.times == tuple(state.fire_times)

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
            ):
                assert getattr(r.counters, name) == sum(getattr(t, name) for t in tallies)
            for tally, train in zip(tallies, [r.input_train, *r.layer_trains]):
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
            for a, b in zip(
                inst.default.layer_trains[:-1], full.layer_trains[:-1]
            ):
                assert a.times == b.times
