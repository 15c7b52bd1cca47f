"""Desk-scale, bit-faithful model of an event-driven temporal-coding SNN SoC.

The package splits along the hardware's own seams: latency encoding
(`encoder`), spike sorting (`sorter`), the accumulate-and-fire datapath
(`core`), first-spike decoding (`decoder`), the load/run/interrupt/UART
control plane (`controller`), weight packing and the flash image format
(`model`), a cycle-cost and memory model (`perf`), a dense brute-force
reference simulator (`oracle`), typed errors (`errors`), and a batch CLI
(`cli`).

The top level exports the documented public API in `__all__`: building
and packing a network, its flash image, the controller and its commands,
inference and its dense reference, the cycle and memory models, and the
error bases. Everything else is imported from its module.
"""

from .controller import Controller, LoadInput, LoadModel, Reset, Run, encode_command
from .core import InferenceResult, run_network
from .errors import (
    CorruptWeightWord,
    ModelImageError,
    NotAModelImage,
    ProtocolViolation,
    SpikeSocError,
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
from .oracle import dense_infer
from .perf import LayerTally, RunTrace, estimate_cycles, memory_footprint

__all__ = [
    "BinaryWeights",
    "Controller",
    "CorruptWeightWord",
    "Fixed16Weights",
    "InferenceResult",
    "LayerConfig",
    "LayerTally",
    "LoadInput",
    "LoadModel",
    "ModelImageError",
    "NO_SPIKE",
    "NetworkModel",
    "NotAModelImage",
    "ProtocolViolation",
    "Reset",
    "Run",
    "RunTrace",
    "SpikeSocError",
    "SpikeTrain",
    "WeightMode",
    "dense_infer",
    "deserialize_model",
    "encode_command",
    "estimate_cycles",
    "memory_footprint",
    "pack_binary_row",
    "run_network",
    "serialize_model",
    "unpack_binary_row",
]
