from spikesoc import NO_SPIKE, SpikeTrain
from spikesoc.sorter import sort_spikes
from helpers import as_groups, make_rng, reference_sort, truncate_after


def _train(times, t_max=16):
    return SpikeTrain(tuple(times), t_max)


def _groups(train):
    """The sorter's queue for train as (time, indices) groups."""
    return as_groups(*sort_spikes(train))


def _events(groups):
    """(neuron index, time) pairs in queue order."""
    return [(i, t) for t, indices in groups for i in indices]


def test_stable_tie_break_by_index():
    groups = _groups(_train([5, 2, NO_SPIKE, 2]))
    assert groups == [(2, [1, 3]), (5, [0])]
    assert _events(groups) == [(1, 2), (3, 2), (0, 5)]


def test_queue_arrays():
    events, group_times, group_ends = sort_spikes(_train([5, 2, NO_SPIKE, 2]))
    assert events.tolist() == [1, 3, 0]
    assert group_times.tolist() == [2, 5]
    assert group_ends.tolist() == [1, 2]


def test_all_silent_gives_empty_queue():
    assert _groups(_train([NO_SPIKE] * 8)) == []


def test_matches_reference_sort_on_1000_random_trains():
    rng = make_rng(31)
    for _ in range(1000):
        t_max = rng.choice((16, 64, 256))
        n = rng.randint(1, 80)
        times = [
            NO_SPIKE if rng.random() < 0.3 else rng.randint(0, t_max - 1)
            for _ in range(n)
        ]
        train = _train(times, t_max)
        groups = _groups(train)
        assert _events(groups) == reference_sort(train)
        assert all(indices for _, indices in groups)  # only non-empty buckets
        assert len({t for t, _ in groups}) == len(groups)  # one group per timestep


def test_output_is_permutation_of_active_events():
    rng = make_rng(32)
    for _ in range(200):
        times = [NO_SPIKE if rng.random() < 0.4 else rng.randint(0, 15) for _ in range(30)]
        train = _train(times)
        active = sorted(
            (i, t) for i, t in enumerate(times) if t is not NO_SPIKE
        )
        got = sorted(_events(_groups(train)))
        assert got == active


def test_event_count_matches_active_count():
    train = _train([1, NO_SPIKE, 3, NO_SPIKE, 3])
    assert len(_events(_groups(train))) == train.active_count == 3


def test_truncate_keeps_prefix_at_cutoff():
    groups = _groups(_train([5, 2]))
    assert _events(truncate_after(groups, 2)) == [(1, 2)]


def test_truncate_at_window_end_is_identity():
    groups = _groups(_train([5, 2, 9]))
    assert truncate_after(groups, 15) == groups


def test_truncate_below_first_event_empties_queue():
    groups = _groups(_train([5, 7]))
    assert truncate_after(groups, 4) == []
