from functools import partial

import numpy as np
import pytest

from spikesoc import NO_SPIKE, Controller, LoadInput, LoadModel, encode_command, run_network, serialize_model
from spikesoc.controller import Phase
from spikesoc.encoder import encode_ttfs
from spikesoc.errors import DimensionMismatch
from spikesoc.model import slot_values
from spikesoc.oracle import dense_infer
from helpers import (
    conditioned_instance,
    make_rng,
    one_hot_output_model,
    zero_pixels_spike_last,
)


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
    with zero_pixels_spike_last() as encode:
        assert slot_values(encode(bytes([0]), 256).codes) == [255]
        assert slot_values(encode(bytes([0]), 64).codes) == [63]


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
    """The encoder takes a frame of any length; the first layer rejects a wrong
    one, with one message on the datapath and the dense reference."""
    model = one_hot_output_model(2)  # one input
    with pytest.raises(DimensionMismatch) as datapath:
        run_network(model, bytes([1, 2, 3]))
    with pytest.raises(DimensionMismatch) as dense:
        dense_infer(model, bytes([1, 2, 3]))
    assert str(datapath.value) == str(dense.value) == "train length 3 != layer in_dim 1"


def test_non_power_of_two_window_rejected():
    for t_max in (0, 3, 100, 255, 300):
        with pytest.raises(ValueError):
            encode_ttfs(bytes([1]), t_max)


FRAME = bytes([7])  # pixel bytes, for one_hot_output_model's single input
WAITING = bytes([9])
MODEL = one_hot_output_model(2)


def load_input(frame):
    """LoadInput of frame on a controller holding MODEL and an input waiting
    for Run, which a rejected frame must leave waiting."""
    controller = Controller()
    controller.handle(LoadModel(serialize_model(MODEL)))
    controller.handle(LoadInput(WAITING))
    try:
        controller.handle(LoadInput(frame))
    except TypeError:
        assert (controller.phase, controller.pending_input) == (Phase.INPUT_LOADED, WAITING)
        raise


@pytest.mark.parametrize(
    "frame",
    [
        list(FRAME),
        tuple(FRAME),
        np.frombuffer(FRAME, np.uint8),
        np.array(list(FRAME), np.int64),
        [300, 1],  # not byte values at all: bytes() of it raises ValueError
    ],
    ids=["list", "tuple", "uint8", "int64", "list-300"],
)
@pytest.mark.parametrize(
    "encode",
    [
        partial(encode_ttfs, t_max=256),
        partial(run_network, MODEL),
        partial(dense_infer, MODEL),
        load_input,
        lambda frame: encode_command(LoadInput(frame)),
    ],
    ids=["encode_ttfs", "run_network", "dense_infer", "controller", "encode_command"],
)
def test_a_frame_that_is_not_pixel_bytes_raises_type_error(frame, encode):
    encode(FRAME)  # the same pixels as bytes run
    with pytest.raises(TypeError, match=rf"^a frame is pixel bytes, got {type(frame).__name__}$"):
        encode(frame)


def test_zero_pixel_convention_cannot_flip_an_early_decision():
    """Dense sweeps with both zero-pixel conventions agree whenever the
    decision lands strictly before the last timestep."""
    rng = make_rng(22)
    checked = 0
    for _ in range(200):
        inst = conditioned_instance(rng)
        silent = dense_infer(inst.model, inst.frame)
        with zero_pixels_spike_last():
            spiking = dense_infer(inst.model, inst.frame)
        assert silent.predicted == spiking.predicted
        assert silent.decision_time == spiking.decision_time
        if 0 in inst.frame:
            checked += 1
    assert checked >= 20  # the comparison must not be vacuous
