import re

import numpy as np
import pytest

from spikesoc import NO_SPIKE
from spikesoc.encoder import encode_ttfs
from spikesoc.errors import DimensionMismatch
from spikesoc.model import slot_values
from spikesoc.oracle import dense_infer
from helpers import conditioned_instance, make_rng


def test_max_intensity_spikes_first():
    train = encode_ttfs(bytes([255]), 256)
    assert slot_values(train.codes) == [0]


def test_inverted_code_at_full_window():
    assert slot_values(encode_ttfs(bytes([200]), 256).codes) == [55]
    for p in range(1, 256):
        assert slot_values(encode_ttfs(bytes([p]), 256).codes) == [255 - p]


def test_zero_pixel_is_silent():
    assert slot_values(encode_ttfs(bytes([0]), 256).codes) == [NO_SPIKE]


def test_zero_pixel_spike_variant_lands_on_last_step():
    assert slot_values(encode_ttfs(bytes([0]), 256, spike_on_zero=True).codes) == [255]
    assert slot_values(encode_ttfs(bytes([0]), 64, spike_on_zero=True).codes) == [63]


def test_shift_rule_for_narrow_window():
    # 131 = 0b10000011 >> 1 = 65; 127 - 65 = 62
    assert slot_values(encode_ttfs(bytes([131]), 128).codes) == [62]


def test_monotonicity_brighter_never_later():
    for t_max in (16, 64, 128, 256):
        prev_pixel_time = None
        for p in range(255, 0, -1):
            t = slot_values(encode_ttfs(bytes([p]), t_max).codes)[0]
            if prev_pixel_time is not None:
                assert t >= prev_pixel_time
            prev_pixel_time = t


def test_strict_monotonicity_at_full_window():
    times = [slot_values(encode_ttfs(bytes([p]), 256).codes)[0] for p in range(255, 0, -1)]
    assert times == sorted(set(times))


def test_emitted_times_stay_in_window():
    rng = make_rng(21)
    for t_max in (1, 2, 16, 64, 256):
        frame = bytes(rng.randint(0, 255) for _ in range(64))
        for t in slot_values(encode_ttfs(frame, t_max).codes):
            assert t is NO_SPIKE or 0 <= t < t_max


def test_output_length_matches_input():
    frame = bytes(range(10))
    assert len(encode_ttfs(frame, 256).codes) == 10


def test_dimension_check():
    with pytest.raises(DimensionMismatch):
        encode_ttfs(bytes([1, 2, 3]), 256, expected_dim=4)


def test_non_power_of_two_window_rejected():
    for t_max in (0, 3, 100, 255, 300):
        with pytest.raises(ValueError):
            encode_ttfs(bytes([1]), t_max)


def test_out_of_range_pixel_rejected():
    with pytest.raises(ValueError):
        encode_ttfs([256], 256)


@pytest.mark.parametrize("pixel", [1.5, 2.0, "a", None, [1]])
def test_non_integer_pixel_rejected_like_an_out_of_range_one(pixel):
    message = rf"^pixel {re.escape(repr(pixel))} at index 1 outside \[0, 255\]$"
    with pytest.raises(ValueError, match=message):
        encode_ttfs([7, pixel, 300], 256)


def test_integer_arrays_encode_like_bytes():
    rng = make_rng(23)
    for t_max in (1, 16, 256):
        frame = bytes(rng.randint(0, 255) for _ in range(64))
        want = slot_values(encode_ttfs(frame, t_max).codes)
        for dtype in (np.uint8, np.int16, np.int64):
            assert slot_values(encode_ttfs(np.frombuffer(frame, np.uint8).astype(dtype), t_max).codes) == want
        assert slot_values(encode_ttfs(list(frame), t_max).codes) == want


def test_zero_pixel_convention_cannot_flip_an_early_decision():
    """Dense sweeps with both zero-pixel conventions agree whenever the
    decision lands strictly before the last timestep."""
    rng = make_rng(22)
    checked = 0
    for _ in range(200):
        inst = conditioned_instance(rng)
        silent = dense_infer(inst.model, inst.frame, spike_on_zero=False)
        spiking = dense_infer(inst.model, inst.frame, spike_on_zero=True)
        assert silent.predicted == spiking.predicted
        assert silent.decision_time == spiking.decision_time
        if 0 in inst.frame:
            checked += 1
    assert checked >= 20  # the comparison must not be vacuous
