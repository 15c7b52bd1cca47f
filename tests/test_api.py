"""The documented top-level API: exactly these names, each importable."""

import ast
import types
from pathlib import Path

import spikesoc

PUBLIC = {
    # what tests/test_acceptance.py imports from the top level
    "BinaryWeights",
    "Controller",
    "CorruptWeightWord",
    "LayerConfig",
    "LayerTally",
    "LoadInput",
    "LoadModel",
    "NetworkModel",
    "NotAModelImage",
    "ProtocolViolation",
    "Reset",
    "Run",
    "RunTrace",
    "WeightMode",
    "deserialize_model",
    "encode_command",
    "estimate_cycles",
    "memory_footprint",
    "pack_binary_row",
    "serialize_model",
    "unpack_binary_row",
    # inference, its reference, and the error bases
    "Fixed16Weights",
    "SpikeTrain",
    "NO_SPIKE",
    "InferenceResult",
    "run_network",
    "dense_infer",
    "SpikeSocError",
    "ModelImageError",
}


def test_all_is_the_documented_surface():
    assert len(PUBLIC) == 29
    assert sorted(spikesoc.__all__) == sorted(PUBLIC)
    for name in spikesoc.__all__:
        assert hasattr(spikesoc, name), name
    # Besides the submodules, the package holds no other public name.
    defined = {
        name
        for name, value in vars(spikesoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert defined == PUBLIC


def test_every_top_level_import_of_the_acceptance_suite_is_public():
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "spikesoc"
        for alias in node.names
    }
    assert len(imported) == 21
    assert imported <= set(spikesoc.__all__)
