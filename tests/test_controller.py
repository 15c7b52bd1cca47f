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
    SpikeTrain,
    WeightMode,
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
    UnsupportedModel,
)
from spikesoc.perf import CycleReport
from helpers import (
    image_with_t_max,
    make_rng,
    one_hot_output_model,
    random_binary_weights,
    random_frame,
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


def _result(predicted, decision_time, total_cycles):
    train = SpikeTrain((decision_time,) if decision_time is not None else (None,), 256)
    return InferenceResult(
        predicted=predicted,
        decision_time=decision_time,
        input_train=train,
        layer_trains=[train],
        layer_states=[],
        cycles=CycleReport(
            encode_cycles=total_cycles,
            sort_cycles=0,
            neuron_cycles=0,
            decode_cycles=0,
        ),
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
