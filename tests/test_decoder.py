import pytest

from spikesoc import NO_SPIKE
from spikesoc.decoder import decode
from spikesoc.errors import DimensionMismatch
from helpers import make_rng, spike_train


def _codes(times, t_max=16):
    """The int16 fire codes the decoder reads."""
    return spike_train(times, t_max).codes


def test_earliest_spike_wins():
    assert decode(_codes([10, 3, 7]), [0, 0, 0]) == (1, 3)


def test_fallback_argmax_when_silent():
    assert decode(_codes([NO_SPIKE] * 3), [5, 9, 2]) == (1, NO_SPIKE)


def test_spike_tie_goes_to_lowest_index():
    assert decode(_codes([4, 4]), [0, 100]) == (0, 4)


def test_fallback_tie_goes_to_lowest_index():
    assert decode(_codes([NO_SPIKE] * 3), [7, 7, 7]) == (0, NO_SPIKE)


def test_empty_inputs_rejected():
    with pytest.raises(DimensionMismatch):
        decode(_codes([]), [])


def test_length_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        decode(_codes([1]), [0, 0])


def test_label_always_in_range_and_fallback_iff_silent():
    rng = make_rng(41)
    for _ in range(500):
        n = rng.randint(1, 12)
        times = [NO_SPIKE if rng.random() < 0.5 else rng.randint(0, 15) for _ in range(n)]
        pots = [rng.randint(-50, 50) for _ in range(n)]
        label, when = decode(_codes(times), pots)
        assert 0 <= label < n
        silent = all(t is NO_SPIKE for t in times)
        assert (when is NO_SPIKE) == silent


def test_fallback_argmax_is_shift_invariant():
    rng = make_rng(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        pots = [rng.randint(-50, 50) for _ in range(n)]
        shift = rng.randint(-1000, 1000)
        base = decode(_codes([NO_SPIKE] * n), pots)
        shifted = decode(_codes([NO_SPIKE] * n), [p + shift for p in pots])
        assert base == shifted
