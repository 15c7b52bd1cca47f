"""Desk-scale, bit-faithful model of an event-driven temporal-coding SNN SoC.

The package splits along the hardware's own seams: latency encoding
(`encoder`), spike sorting (`sorter`), the accumulate-and-fire datapath
(`core`), first-spike decoding (`decoder`), the load/run/interrupt/UART
control plane (`controller`), weight packing and the flash image format
(`model`), a cycle-cost and memory model (`perf`), a dense brute-force
reference simulator (`oracle`), and a batch CLI (`cli`).
"""

from .controller import (
    Controller,
    Interrupt,
    InterruptKind,
    LoadInput,
    LoadModel,
    Phase,
    Reset,
    Run,
    encode_command,
    format_uart_frame,
    parse_command_stream,
    parse_uart_frame,
)
from .core import (
    InferenceResult,
    NeuronState,
    run_layer,
    run_network,
)
from .decoder import decode
from .encoder import encode_ttfs
from .errors import (
    AccumulatorOverflow,
    CorruptDataset,
    CorruptImage,
    CorruptWeightWord,
    DimensionMismatch,
    InconsistentDims,
    InvalidWeight,
    ModelImageError,
    NotAModelImage,
    NotIdx,
    OracleDivergence,
    ProtocolViolation,
    SpikeSocError,
    TruncatedImage,
    UnsupportedModel,
    UnsupportedVersion,
)
from .model import (
    NO_SPIKE,
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    deserialize_model,
    pack_binary_row,
    serialize_model,
    unpack_binary_row,
)
from .oracle import dense_infer, dense_layer_sweep
from .perf import (
    CycleReport,
    LayerTally,
    MemoryReport,
    OpCounters,
    RunTrace,
    cycles_to_ms,
    estimate_cycles,
    memory_footprint,
    write_breakdown_csv,
)
from .sorter import sort_spikes

__version__ = "0.1.0"

__all__ = [
    "AccumulatorOverflow",
    "BinaryWeights",
    "Controller",
    "CorruptDataset",
    "CorruptImage",
    "CorruptWeightWord",
    "CycleReport",
    "DimensionMismatch",
    "Fixed16Weights",
    "InconsistentDims",
    "InferenceResult",
    "Interrupt",
    "InterruptKind",
    "InvalidWeight",
    "LayerConfig",
    "LayerTally",
    "LoadInput",
    "LoadModel",
    "MemoryReport",
    "ModelImageError",
    "NO_SPIKE",
    "NetworkModel",
    "NeuronState",
    "NotAModelImage",
    "NotIdx",
    "OpCounters",
    "OracleDivergence",
    "Phase",
    "ProtocolViolation",
    "Reset",
    "Run",
    "RunTrace",
    "SpikeSocError",
    "SpikeTrain",
    "TruncatedImage",
    "UnsupportedModel",
    "UnsupportedVersion",
    "WeightMode",
    "cycles_to_ms",
    "decode",
    "dense_infer",
    "dense_layer_sweep",
    "deserialize_model",
    "encode_command",
    "encode_ttfs",
    "estimate_cycles",
    "format_uart_frame",
    "memory_footprint",
    "pack_binary_row",
    "parse_command_stream",
    "parse_uart_frame",
    "run_layer",
    "run_network",
    "serialize_model",
    "sort_spikes",
    "unpack_binary_row",
    "write_breakdown_csv",
]
