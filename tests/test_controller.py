import itertools
import re

import numpy as np
import pytest

from spikesoc import (
    Controller,
    InferenceResult,
    LayerConfig,
    LoadInput,
    LoadModel,
    NetworkModel,
    NotAModelImage,
    ProtocolViolation,
    Reset,
    Run,
    WeightMode,
    deserialize_model,
    encode_command,
    serialize_model,
)
from spikesoc.controller import (
    COMMANDS,
    UART_FRAME_LEN,
    InterruptKind,
    Phase,
    format_uart_frame,
    parse_command_stream,
    parse_uart_frame,
    xor_checksum,
)
from spikesoc.errors import (
    CorruptFrame,
    CorruptImage,
    DimensionMismatch,
    FrameFieldOverflow,
    SpikeSocError,
    TruncatedImage,
    UnsupportedModel,
)
from spikesoc.perf import LayerTally, RunTrace, estimate_cycles
from helpers import (
    image_with_t_max,
    make_rng,
    one_hot_output_model,
    random_binary_weights,
    random_frame,
    spike_train,
)


def _small_model(in_dim=16, out_dim=4, seed=91):
    rng = make_rng(seed)
    return NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[
            (
                LayerConfig(in_dim, out_dim, 256, 2),
                random_binary_weights(rng, in_dim, out_dim),
            )
        ],
    )


COMMAND_CASES = (
    LoadModel(image=b"\x01\x02\x03"),
    LoadModel(image=b""),
    LoadInput(pixels=b"\xaa\xbb"),
    LoadInput(pixels=b""),
    Run(),
    Reset(),
)


def _snapshot(c):
    return (c.phase, c.model, c.pending_input, c.last_result, c.sample_index)


IMAGE = serialize_model(_small_model())


def _load_model(image):
    """LoadModel of image on a controller holding a model and an input waiting
    for Run, which a rejected image must leave as they were."""
    c = Controller()
    c.handle(LoadModel(IMAGE))
    c.handle(LoadInput(bytes([200] * 16)))
    before = _snapshot(c)
    try:
        c.handle(LoadModel(image))
    except TypeError:
        assert _snapshot(c) == before
        raise


@pytest.mark.parametrize(
    "image",
    [list(IMAGE), tuple(IMAGE), np.frombuffer(IMAGE, np.uint8), IMAGE.decode("latin-1"), memoryview(IMAGE)],
    ids=["list", "tuple", "uint8", "str", "memoryview"],
)
@pytest.mark.parametrize(
    "load",
    [deserialize_model, _load_model, lambda image: encode_command(LoadModel(image))],
    ids=["deserialize_model", "controller", "encode_command"],
)
def test_a_flash_image_that_is_not_bytes_raises_type_error(image, load):
    load(IMAGE)  # the same image as bytes loads
    with pytest.raises(TypeError, match=rf"^a flash image is bytes, got {type(image).__name__}$"):
        load(image)


STREAM = b"".join(map(encode_command, [LoadModel(IMAGE), LoadInput(bytes([200] * 16)), Run()]))


@pytest.mark.parametrize(
    "form",
    [list, tuple, lambda data: np.frombuffer(data, np.uint8), lambda data: data.decode("latin-1"), memoryview],
    ids=["list", "tuple", "uint8", "str", "memoryview"],
)
@pytest.mark.parametrize(
    "parse, data, what",
    [
        (parse_command_stream, STREAM, "a command stream"),
        (lambda stream: Controller().run_script(stream), STREAM, "a command stream"),
        (parse_uart_frame, Controller().run_script(STREAM)[0], "a UART frame"),
    ],
    ids=["parse_command_stream", "run_script", "parse_uart_frame"],
)
def test_a_stream_or_frame_that_is_not_bytes_raises_type_error(form, parse, data, what):
    """The stream and UART parsers take bytes or bytearray, as the command encoder and
    the flash image reader do; a list is not read as a stream of tag bytes."""
    assert parse(bytearray(data)) == parse(data)
    with pytest.raises(TypeError, match=rf"^{what} is bytes, got {type(form(data)).__name__}$"):
        parse(form(data))


def _result(predicted, decision_time, total_cycles):
    train = spike_train((decision_time,) if decision_time is not None else (None,), 256)
    # One silent layer of total_cycles - 2 inputs and 1 neuron at t_max 1 costs
    # a 1-cycle bucket sweep and a 1-cycle decode, so its pixels make the total.
    trace = RunTrace(t_max=1, layers=(LayerTally(total_cycles - 2, 1, 0, 0),))
    assert estimate_cycles(trace).total_cycles == total_cycles
    return InferenceResult(
        predicted=predicted,
        decision_time=decision_time,
        input_train=train,
        layer_states=[],
        trace=trace,
    )


class TestUartFrame:
    def test_worked_example(self):
        # sample 0, class 3, decision time 17, 1040 cycles; checksum XORs
        # the ten bytes after the marker
        frame = format_uart_frame(0, _result(3, 17, 1040))
        assert frame == bytes.fromhex("a5000000000311100400 0006".replace(" ", ""))
        assert frame[11] == 0x03 ^ 0x11 ^ 0x10 ^ 0x04

    def test_fallback_sentinel(self):
        frame = format_uart_frame(7, _result(2, None, 99))
        assert frame[6] == 0xFF

    def test_frame_length_fixed(self):
        for decision in (0, 254, None):
            assert len(format_uart_frame(1, _result(0, decision, 5))) == UART_FRAME_LEN

    def test_parse_validates_and_inverts(self):
        frame = format_uart_frame(12, _result(3, 17, 1040))
        parsed = parse_uart_frame(frame)
        assert parsed == {
            "sample_index": 12,
            "predicted": 3,
            "decision_time": 17,
            "total_cycles": 1040,
        }
        damaged = bytearray(frame)
        damaged[5] ^= 1
        with pytest.raises(CorruptFrame):
            parse_uart_frame(bytes(damaged))

    @pytest.mark.parametrize(
        "sample_index, decision_time, total_cycles",
        [
            (1 << 32, 17, 1040),  # sample index past u32
            (-1, 17, 1040),  # negative sample index
            (0, 255, 1040),  # decision time on the fallback sentinel
            (0, 17, 1 << 32),  # cycle count past u32
        ],
    )
    def test_every_field_overflow_is_typed(self, sample_index, decision_time, total_cycles):
        with pytest.raises(FrameFieldOverflow):
            format_uart_frame(sample_index, _result(3, decision_time, total_cycles))


class TestStateMachine:
    def test_run_from_idle_rejected(self):
        with pytest.raises(ProtocolViolation):
            Controller().handle(Run())

    def test_input_before_model_rejected(self):
        with pytest.raises(ProtocolViolation):
            Controller().handle(LoadInput(pixels=bytes(4)))

    def test_run_without_input_rejected(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        with pytest.raises(ProtocolViolation):
            c.handle(Run())

    def test_second_run_needs_new_input(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        c.handle(Run())
        with pytest.raises(ProtocolViolation):
            c.handle(Run())

    def test_happy_path_emissions(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        irqs, uart = c.handle(LoadInput(pixels=bytes([200] * 16)))
        assert irqs == [] and uart == b""
        irqs, uart = c.handle(Run())
        assert irqs == [
            InterruptKind.INFERENCE_DONE,
            InterruptKind.LOAD_NEXT_SAMPLE,
        ]
        assert len(uart) == UART_FRAME_LEN
        assert uart[-1] == xor_checksum(uart[1:-1])
        assert c.phase is Phase.MODEL_LOADED
        assert c.last_result is not None

    def test_bad_model_image_leaves_state_untouched(self):
        c = Controller()
        with pytest.raises(NotAModelImage):
            c.handle(LoadModel(image=b"JUNK" + bytes(20)))
        assert c.phase is Phase.IDLE
        assert c.model is None

    def test_non_power_of_two_t_max_rejected_at_load(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        before = _snapshot(c)
        with pytest.raises(CorruptImage):
            c.handle(LoadModel(image=image_with_t_max(_small_model(), 100)))
        assert _snapshot(c) == before
        assert c.phase is Phase.INPUT_LOADED

    def test_more_than_256_classes_rejected_at_load(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        before = _snapshot(c)
        with pytest.raises(UnsupportedModel):
            c.handle(LoadModel(image=serialize_model(one_hot_output_model(300))))
        assert _snapshot(c) == before
        assert c.phase is Phase.INPUT_LOADED

    def test_failed_run_leaves_state_untouched(self):
        # The inference runs, then the sample index overflows the frame's u32 field.
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        c.sample_index = 1 << 32
        before = _snapshot(c)
        with pytest.raises(FrameFieldOverflow):
            c.handle(Run())
        assert _snapshot(c) == before
        assert c.phase is Phase.INPUT_LOADED

    def test_256_classes_load_and_run(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(one_hot_output_model(256))))
        c.handle(LoadInput(pixels=bytes([255])))
        _, uart = c.handle(Run())
        assert parse_uart_frame(uart)["predicted"] == 255

    def test_wrong_input_length_rejected(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        with pytest.raises(DimensionMismatch):
            c.handle(LoadInput(pixels=bytes(15)))
        assert c.phase is Phase.MODEL_LOADED

    def test_reset_discards_everything(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        c.handle(Reset())
        assert c.phase is Phase.IDLE
        assert c.model is None and c.pending_input is None
        with pytest.raises(ProtocolViolation):
            c.handle(Run())

    def test_sample_index_counts_runs_and_resets_with_model(self):
        c = Controller()
        c.handle(LoadModel(image=serialize_model(_small_model())))
        frames = []
        for _ in range(3):
            c.handle(LoadInput(pixels=bytes([200] * 16)))
            _, uart = c.handle(Run())
            frames.append(parse_uart_frame(uart)["sample_index"])
        assert frames == [0, 1, 2]
        c.handle(LoadModel(image=serialize_model(_small_model())))
        c.handle(LoadInput(pixels=bytes([200] * 16)))
        _, uart = c.handle(Run())
        assert parse_uart_frame(uart)["sample_index"] == 0


class TestCommandStream:
    def test_roundtrip(self):
        cmds = [
            LoadModel(image=b"\x01\x02\x03"),
            LoadInput(pixels=b"\xaa\xbb"),
            Run(),
            Reset(),
        ]
        stream = b"".join(encode_command(c) for c in cmds)
        assert parse_command_stream(stream) == cmds

    @pytest.mark.parametrize("command", COMMAND_CASES, ids=repr)
    def test_each_command_round_trips_alone(self, command):
        assert parse_command_stream(encode_command(command)) == [command]

    def test_round_trip_cases_cover_every_command_class(self):
        assert {type(c) for c in COMMAND_CASES} == set(COMMANDS)

    def test_wire_bytes_of_each_command(self):
        # tag, then a little-endian u32 (LoadModel) or u16 (LoadInput) length
        assert encode_command(LoadModel(image=b"\xab")) == b"\x01\x01\x00\x00\x00\xab"
        assert encode_command(LoadInput(pixels=b"\xaa\xbb")) == b"\x02\x02\x00\xaa\xbb"
        assert encode_command(Run()) == b"\x03"
        assert encode_command(Reset()) == b"\x0f"

    @pytest.mark.parametrize("not_a_command", [None, "Run", b"\x03", Run])
    def test_encoding_a_non_command_is_a_type_error(self, not_a_command):
        with pytest.raises(TypeError, match="not a command"):
            encode_command(not_a_command)

    @pytest.mark.parametrize("not_a_command", [None, "x", b"\x03", Run])
    def test_handling_a_non_command_is_a_type_error_that_changes_nothing(self, not_a_command):
        c = Controller()
        c.handle(LoadModel(IMAGE))
        c.handle(LoadInput(bytes([200] * 16)))
        before = _snapshot(c)
        with pytest.raises(TypeError, match=rf"^not a command: {re.escape(repr(not_a_command))}$"):
            c.handle(not_a_command)
        assert _snapshot(c) == before

    @pytest.mark.parametrize("prefix", [b"", b"\x03"], ids=["first", "after-run"])
    @pytest.mark.parametrize(
        "command, length_size",
        [(LoadModel(image=b"\x01\x02\x03"), 4), (LoadInput(pixels=b"\xaa\xbb\xcc"), 2)],
        ids=["LoadModel", "LoadInput"],
    )
    def test_every_truncation_names_the_command(self, prefix, command, length_size):
        stream = prefix + encode_command(command)
        name = type(command).__name__
        for end in range(len(prefix) + 1, len(stream)):
            part = "length field" if end < len(prefix) + 1 + length_size else "payload"
            with pytest.raises(ProtocolViolation, match=f"^{name} {part} truncated$"):
                parse_command_stream(stream[:end])

    def test_largest_load_input_round_trips(self):
        command = LoadInput(pixels=bytes(range(256)) * 255 + bytes(255))  # 65535 pixels
        stream = encode_command(command)
        assert stream[:3] == b"\x02\xff\xff"
        assert parse_command_stream(stream) == [command]

    def test_oversized_load_input_is_a_protocol_violation(self):
        message = "^LoadInput payload of 65536 bytes overflows its 16-bit length field$"
        with pytest.raises(ProtocolViolation, match=message):
            encode_command(LoadInput(pixels=bytes(65536)))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolViolation, match="^unknown command tag 0x7f$"):
            parse_command_stream(b"\x7f")

    def test_truncated_payload_rejected(self):
        with pytest.raises(ProtocolViolation):
            parse_command_stream(b"\x02\x05\x00\xaa")
        with pytest.raises(ProtocolViolation):
            parse_command_stream(b"\x01\x05\x00\x00")

    def test_replaying_a_script_is_byte_identical(self):
        rng = make_rng(92)
        model = _small_model(in_dim=24, out_dim=5, seed=93)
        script = bytearray(encode_command(LoadModel(image=serialize_model(model))))
        for _ in range(10):
            script += encode_command(LoadInput(pixels=random_frame(rng, 24)))
            script += encode_command(Run())
        uart_a, irqs_a = Controller().run_script(bytes(script))
        uart_b, irqs_b = Controller().run_script(bytes(script))
        assert uart_a == uart_b
        assert irqs_a == irqs_b
        assert len(uart_a) == 10 * UART_FRAME_LEN
        for k in range(10):
            frame = uart_a[k * UART_FRAME_LEN : (k + 1) * UART_FRAME_LEN]
            assert parse_uart_frame(frame)["sample_index"] == k

    def test_a_failed_command_keeps_the_frames_before_it(self):
        commands = [LoadModel(serialize_model(one_hot_output_model(3))), LoadInput(b"\xff"), Run(), Run()]
        by_handle = Controller()
        emitted = [by_handle.handle(command) for command in commands[:3]]
        controller = Controller()
        message = r"^command 3 \(Run, tag 0x03\): Run is illegal in phase ModelLoaded$"
        with pytest.raises(ProtocolViolation, match=message) as failed:
            controller.run_script(b"".join(map(encode_command, commands)))
        assert failed.value.uart == emitted[2][1] and len(failed.value.uart) == UART_FRAME_LEN
        assert failed.value.interrupts == [irq for irqs, _ in emitted for irq in irqs]
        assert failed.value.interrupts == [InterruptKind.INFERENCE_DONE, InterruptKind.LOAD_NEXT_SAMPLE]
        assert _snapshot(controller) == _snapshot(by_handle)  # as the first three commands left it

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"\x01\x10\x00\x00\x00", r"\(LoadModel, tag 0x01\): LoadModel payload truncated$"),
            (b"\x7f", r"\(unknown, tag 0x7f\): unknown command tag 0x7f$"),
        ],
        ids=["cut-LoadModel", "unknown-tag"],
    )
    def test_the_commands_before_a_malformed_one_run(self, tail, message):
        commands = [LoadModel(serialize_model(one_hot_output_model(3))), LoadInput(b"\xff"), Run()]
        controller = Controller()
        with pytest.raises(ProtocolViolation, match="^command 3 " + message) as failed:
            controller.run_script(b"".join(map(encode_command, commands)) + tail)
        assert controller.sample_index == 1 and len(failed.value.uart) == UART_FRAME_LEN
        assert failed.value.interrupts == [InterruptKind.INFERENCE_DONE, InterruptKind.LOAD_NEXT_SAMPLE]

    def test_a_failed_first_command_emitted_nothing(self):
        stream = encode_command(LoadInput(b"\x01")) + encode_command(Run())
        with pytest.raises(ProtocolViolation, match=r"^command 0 \(LoadInput, tag 0x02\): ") as failed:
            Controller().run_script(stream)
        assert (failed.value.uart, failed.value.interrupts) == (b"", [])


_IMAGE = serialize_model(_small_model(in_dim=4, out_dim=3))
# Valid and damaged LoadModel, valid and short LoadInput, Run and Reset.
LOAD_MODEL, TRUNCATED_MODEL, WIDE_MODEL, LOAD_INPUT, SHORT_INPUT, RUN, RESET = ALPHABET = (
    LoadModel(_IMAGE),
    LoadModel(_IMAGE[:-1]),
    LoadModel(serialize_model(one_hot_output_model(257))),
    LoadInput(bytes([200, 0, 17, 255])),
    LoadInput(b"\xc8"),
    Run(),
    Reset(),
)


def _expected(state, command):
    """The documented effect of one command of ALPHABET on (model loaded, input
    pending, result kept, sample index): the next state and the error class it
    raises, None when it runs. A failed command leaves the state as it was."""
    loaded, pending, kept, index = state
    if command is RESET:
        return (False, False, False, 0), None
    if command is LOAD_MODEL:
        return (True, False, False, 0), None
    if command is TRUNCATED_MODEL:
        return state, TruncatedImage
    if command is WIDE_MODEL:
        return state, UnsupportedModel
    if not loaded:
        return state, ProtocolViolation  # LoadInput or Run before any model
    if command is SHORT_INPUT:
        return state, DimensionMismatch
    if command is LOAD_INPUT:
        return (True, True, kept, index), None
    return ((True, False, True, index + 1), None) if pending else (state, ProtocolViolation)  # Run


def _state(c):
    return (c.model is not None, c.pending_input is not None, c.last_result is not None, c.sample_index)


# The first 5 bytes of a LoadModel: its tag and length field, its payload cut short.
CUT_MODEL = encode_command(LOAD_MODEL)[:5]


def _check_sequence(sequence):
    """Send sequence through handle, command by command, against _expected,
    then twice as one run_script stream, which must emit what handle emitted
    up to the first failing command and raise that command's error there.
    The stream followed by CUT_MODEL must do the same, and where no command
    failed, run them all and raise the parse error as the next command's."""
    controller, state = Controller(), (False, False, False, 0)
    uart, interrupts, failure = b"", [], None  # what run_script must report
    for position, command in enumerate(sequence):
        state, error = _expected(state, command)
        before = _snapshot(controller)
        try:
            irqs, frame = controller.handle(command)
        except SpikeSocError as exc:
            assert type(exc) is error, (sequence, position, exc)
            assert _snapshot(controller) == before, (sequence, position)
            failure = failure or (position, exc, uart, interrupts, before)
            continue
        assert error is None and _state(controller) == state, (sequence, position)
        if command is RUN:
            assert irqs == [InterruptKind.INFERENCE_DONE, InterruptKind.LOAD_NEXT_SAMPLE]
            assert parse_uart_frame(frame)["sample_index"] == state[3] - 1
        else:
            assert (irqs, frame) == ([], b"")
        if failure is None:
            uart, interrupts = uart + frame, interrupts + irqs
    if failure is None:
        want = (uart, interrupts), _snapshot(controller)
        message = f"command {len(sequence)} (LoadModel, tag 0x01): LoadModel payload truncated"
        want_cut = (ProtocolViolation, message, uart, interrupts), _snapshot(controller)
    else:
        position, exc, uart, interrupts, before = failure
        name, tag = type(sequence[position]).__name__, COMMANDS[type(sequence[position])][0]
        message = f"command {position} ({name}, tag {tag:#04x}): {exc}"
        want = want_cut = (type(exc), message, uart, interrupts), before
    stream = b"".join(map(encode_command, sequence))
    for tail, expected in ((b"", want), (CUT_MODEL, want_cut)):
        for _ in range(2):  # a replay on a fresh controller gives the same
            script = Controller()
            try:
                got = script.run_script(stream + tail)
            except SpikeSocError as exc:
                got = (type(exc), str(exc), exc.uart, exc.interrupts)
            assert (got, _snapshot(script)) == expected, (sequence, tail)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_every_command_sequence_keeps_the_documented_state(length):
    """Every sequence of length commands drawn from ALPHABET: 7, 49, 343 and 2401,
    each alone and followed by a LoadModel cut short."""
    for sequence in itertools.product(ALPHABET, repeat=length):
        _check_sequence(sequence)
