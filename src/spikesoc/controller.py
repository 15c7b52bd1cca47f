"""Control-plane emulation: load model and input, trigger inference, raise
completion interrupts, emit UART result frames.

The controller is modeled at protocol level, not as an instruction-set
interpreter; the CPU only orchestrates. Commands arrive either as command
objects or as a byte-tagged stream. `COMMANDS` is the one definition of
that stream: each command's tag and the little-endian length field before
its payload, which both `encode_command` and `parse_command_stream` read:

    0x01  LoadModel  + u32le length + flash image bytes
    0x02  LoadInput  + u16le length + pixel bytes
    0x03  Run
    0x0F  Reset

Each completed run emits, in order: an InferenceDone interrupt, one UART
result frame, and a LoadNextSample interrupt. Interrupts are
`InterruptKind` members.

UART result frame, 12 bytes little-endian; `UART_BODY` packs and unpacks
the 11 bytes before the checksum:

    offset  size  field
    0       1     marker 0xA5
    1       4     sample index, u32
    5       1     predicted label
    6       1     decision time (0xFF = silent-layer fallback)
    7       4     total cycles, u32
    11      1     XOR checksum over the 10 bytes after the marker
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .core import InferenceResult, run_network
from .errors import (
    CorruptFrame,
    DimensionMismatch,
    FrameFieldOverflow,
    ProtocolViolation,
    UnsupportedModel,
)
from .model import NetworkModel, deserialize_model

UART_MARKER = 0xA5
UART_BODY = struct.Struct("<BIBBI")  # marker, sample index, label, time byte, cycles
UART_FRAME_LEN = UART_BODY.size + 1  # the body, then the checksum byte
FALLBACK_TIME_BYTE = 0xFF
MAX_CLASSES = 256  # the UART label field is one byte


class Phase(Enum):
    IDLE = "Idle"
    MODEL_LOADED = "ModelLoaded"
    INPUT_LOADED = "InputLoaded"


class InterruptKind(Enum):
    INFERENCE_DONE = "InferenceDone"
    LOAD_NEXT_SAMPLE = "LoadNextSample"


@dataclass(frozen=True)
class LoadModel:
    image: bytes


@dataclass(frozen=True)
class LoadInput:
    pixels: bytes


@dataclass(frozen=True)
class Run:
    pass


@dataclass(frozen=True)
class Reset:
    pass


Command = Union[LoadModel, LoadInput, Run, Reset]

# Each command's stream tag and the length field before its payload (None:
# the command carries no payload). A payload command has one bytes field.
COMMANDS = {
    LoadModel: (0x01, struct.Struct("<I")),
    LoadInput: (0x02, struct.Struct("<H")),
    Run: (0x03, None),
    Reset: (0x0F, None),
}


def xor_checksum(data: bytes) -> int:
    chk = 0
    for b in data:
        chk ^= b
    return chk


def format_uart_frame(sample_index: int, result: InferenceResult) -> bytes:
    """Fixed 12-byte result record (layout in the module docstring)."""
    if not 0 <= sample_index <= 0xFFFFFFFF:
        raise FrameFieldOverflow("sample index outside u32 range")
    if result.decision_time is None:
        time_byte = FALLBACK_TIME_BYTE
    else:
        if result.decision_time >= FALLBACK_TIME_BYTE:
            raise FrameFieldOverflow("decision time collides with the fallback sentinel")
        time_byte = result.decision_time
    total_cycles = result.cycles.total_cycles if result.cycles is not None else 0
    if total_cycles > 0xFFFFFFFF:
        raise FrameFieldOverflow("cycle count outside u32 range")
    body = UART_BODY.pack(UART_MARKER, sample_index, result.predicted, time_byte, total_cycles)
    return body + bytes([xor_checksum(body[1:])])


def parse_uart_frame(frame: bytes) -> dict:
    """Validate and unpack one result frame; raises CorruptFrame on damage."""
    if len(frame) != UART_FRAME_LEN:
        raise CorruptFrame(f"frame is {len(frame)} bytes, expected {UART_FRAME_LEN}")
    if frame[0] != UART_MARKER:
        raise CorruptFrame(f"bad marker {frame[0]:#04x}")
    if frame[-1] != xor_checksum(frame[1:-1]):
        raise CorruptFrame("checksum mismatch")
    _, sample_index, label, time_byte, cycles = UART_BODY.unpack_from(frame)
    return {
        "sample_index": sample_index,
        "predicted": label,
        "decision_time": None if time_byte == FALLBACK_TIME_BYTE else time_byte,
        "total_cycles": cycles,
    }


def encode_command(command: Command) -> bytes:
    """Byte-tagged stream form of one command."""
    if type(command) not in COMMANDS:
        raise TypeError(f"not a command: {command!r}")
    tag, length = COMMANDS[type(command)]
    if length is None:
        return bytes([tag])
    (payload,) = vars(command).values()
    return bytes([tag]) + length.pack(len(payload)) + payload


def parse_command_stream(stream: bytes) -> list:
    """Split a byte-tagged stream into command objects."""
    commands = []
    offset = 0
    n = len(stream)
    while offset < n:
        tag = stream[offset]
        offset += 1
        for cls, (cls_tag, length) in COMMANDS.items():
            if cls_tag == tag:
                break
        else:
            raise ProtocolViolation(f"unknown command tag {tag:#04x}")
        if length is None:
            commands.append(cls())
            continue
        if offset + length.size > n:
            raise ProtocolViolation(f"{cls.__name__} length field truncated")
        (size,) = length.unpack_from(stream, offset)
        offset += length.size
        if offset + size > n:
            raise ProtocolViolation(f"{cls.__name__} payload truncated")
        commands.append(cls(bytes(stream[offset : offset + size])))
        offset += size
    return commands


class Controller:
    """Single-threaded command processor; interrupts are returned, not signaled.

    A failed command leaves the state untouched. LoadModel starts a new
    batch: it discards any pending input and zeroes the sample index.
    """

    def __init__(self, *, early_stop: bool = True):
        self.early_stop = early_stop
        self.model: Optional[NetworkModel] = None
        self.pending_input: Optional[bytes] = None
        self.last_result: Optional[InferenceResult] = None
        self.sample_index = 0

    @property
    def phase(self) -> Phase:
        """IDLE without a model, INPUT_LOADED while an input waits for Run,
        MODEL_LOADED otherwise."""
        if self.model is None:
            return Phase.IDLE
        return Phase.MODEL_LOADED if self.pending_input is None else Phase.INPUT_LOADED

    def handle(self, command: Command) -> tuple[list, bytes]:
        """Apply one command; returns (interrupts in emission order, UART bytes)."""
        if isinstance(command, Reset):
            self.model = None
            self.pending_input = None
            self.last_result = None
            self.sample_index = 0
            return [], b""

        if isinstance(command, LoadModel):
            model = deserialize_model(command.image)
            if model.output_dim > MAX_CLASSES:
                raise UnsupportedModel(
                    f"{model.output_dim} output classes, the UART label byte holds {MAX_CLASSES}"
                )
            self.model = model
            self.pending_input = None
            self.last_result = None
            self.sample_index = 0
            return [], b""

        if isinstance(command, LoadInput):
            if self.model is None:
                raise ProtocolViolation("LoadInput before any model is loaded")
            if len(command.pixels) != self.model.input_dim:
                raise DimensionMismatch(
                    f"input holds {len(command.pixels)} pixels, "
                    f"model expects {self.model.input_dim}"
                )
            self.pending_input = bytes(command.pixels)
            return [], b""

        if isinstance(command, Run):
            if self.pending_input is None:
                raise ProtocolViolation(f"Run is illegal in phase {self.phase.value}")
            result = run_network(self.model, self.pending_input, early_stop=self.early_stop)
            frame = format_uart_frame(self.sample_index, result)
            # Only a run that produced its frame changes state.
            self.last_result = result
            self.sample_index += 1
            self.pending_input = None
            return [InterruptKind.INFERENCE_DONE, InterruptKind.LOAD_NEXT_SAMPLE], frame

        raise TypeError(f"not a command: {command!r}")

    def run_script(self, stream: bytes) -> tuple[bytes, list]:
        """Feed a whole byte-tagged command stream; returns (UART bytes, interrupts)."""
        uart = bytearray()
        interrupts = []
        for command in parse_command_stream(stream):
            irqs, frame = self.handle(command)
            interrupts.extend(irqs)
            uart += frame
        return bytes(uart), interrupts
