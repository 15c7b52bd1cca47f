"""Control-plane emulation: load model and input, trigger inference, raise
completion interrupts, emit UART result frames.

The controller is modeled at protocol level, not as an instruction-set
interpreter; the CPU only orchestrates. Commands arrive either as command
objects or as a byte-tagged stream:

    0x01  LoadModel  + u32le length + flash image bytes
    0x02  LoadInput  + u16le length + pixel bytes
    0x03  Run
    0x0F  Reset

Each completed run emits, in order: an InferenceDone interrupt, one UART
result frame, and a LoadNextSample interrupt.

UART result frame, 12 bytes little-endian:

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
UART_FRAME_LEN = 12
FALLBACK_TIME_BYTE = 0xFF
MAX_CLASSES = 256  # the UART label field is one byte

CMD_LOAD_MODEL = 0x01
CMD_LOAD_INPUT = 0x02
CMD_RUN = 0x03
CMD_RESET = 0x0F


class Phase(Enum):
    IDLE = "Idle"
    MODEL_LOADED = "ModelLoaded"
    INPUT_LOADED = "InputLoaded"


class InterruptKind(Enum):
    INFERENCE_DONE = "InferenceDone"
    LOAD_NEXT_SAMPLE = "LoadNextSample"


@dataclass(frozen=True)
class Interrupt:
    kind: InterruptKind


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
    body = struct.pack(
        "<BIBBI", UART_MARKER, sample_index, result.predicted, time_byte, total_cycles
    )
    return body + bytes([xor_checksum(body[1:])])


def parse_uart_frame(frame: bytes) -> dict:
    """Validate and unpack one result frame; raises CorruptFrame on damage."""
    if len(frame) != UART_FRAME_LEN:
        raise CorruptFrame(f"frame is {len(frame)} bytes, expected {UART_FRAME_LEN}")
    if frame[0] != UART_MARKER:
        raise CorruptFrame(f"bad marker {frame[0]:#04x}")
    if frame[-1] != xor_checksum(frame[1:-1]):
        raise CorruptFrame("checksum mismatch")
    _, sample_index, label, time_byte, cycles = struct.unpack("<BIBBI", frame[:-1])
    return {
        "sample_index": sample_index,
        "predicted": label,
        "decision_time": None if time_byte == FALLBACK_TIME_BYTE else time_byte,
        "total_cycles": cycles,
    }


def encode_command(command: Command) -> bytes:
    """Byte-tagged stream form of one command."""
    if isinstance(command, LoadModel):
        return bytes([CMD_LOAD_MODEL]) + struct.pack("<I", len(command.image)) + command.image
    if isinstance(command, LoadInput):
        return bytes([CMD_LOAD_INPUT]) + struct.pack("<H", len(command.pixels)) + command.pixels
    if isinstance(command, Run):
        return bytes([CMD_RUN])
    if isinstance(command, Reset):
        return bytes([CMD_RESET])
    raise TypeError(f"not a command: {command!r}")


def parse_command_stream(stream: bytes) -> list:
    """Split a byte-tagged stream into command objects."""
    commands = []
    offset = 0
    n = len(stream)
    while offset < n:
        tag = stream[offset]
        offset += 1
        if tag == CMD_LOAD_MODEL:
            if offset + 4 > n:
                raise ProtocolViolation("LoadModel length field truncated")
            (length,) = struct.unpack_from("<I", stream, offset)
            offset += 4
            if offset + length > n:
                raise ProtocolViolation("LoadModel payload truncated")
            commands.append(LoadModel(image=bytes(stream[offset : offset + length])))
            offset += length
        elif tag == CMD_LOAD_INPUT:
            if offset + 2 > n:
                raise ProtocolViolation("LoadInput length field truncated")
            (length,) = struct.unpack_from("<H", stream, offset)
            offset += 2
            if offset + length > n:
                raise ProtocolViolation("LoadInput payload truncated")
            commands.append(LoadInput(pixels=bytes(stream[offset : offset + length])))
            offset += length
        elif tag == CMD_RUN:
            commands.append(Run())
        elif tag == CMD_RESET:
            commands.append(Reset())
        else:
            raise ProtocolViolation(f"unknown command tag {tag:#04x}")
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
            return (
                [Interrupt(InterruptKind.INFERENCE_DONE), Interrupt(InterruptKind.LOAD_NEXT_SAMPLE)],
                frame,
            )

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
