"""The documented top-level API: exactly these names, each importable."""

import ast
import inspect
import types
from pathlib import Path

import spikesoc
from spikesoc.core import run_layer
from spikesoc.encoder import encode_ttfs
from spikesoc.oracle import dense_layer_sweep
from spikesoc.sorter import sort_spikes

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
    "serialize_model",
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
    assert len(PUBLIC) == 27
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
    assert len(imported) == 19
    assert imported <= set(spikesoc.__all__)


def _bare_signature(function):
    """function's signature as text, without annotations."""
    sig = inspect.signature(function)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


def test_inference_entry_points_take_no_encoding_switch():
    # A zero pixel has one encoding, no spike; the all-spike convention the
    # skip-safety checks compare against lives in tests/helpers.py.
    assert _bare_signature(spikesoc.run_network) == "(model, frame, *, early_stop=True)"
    assert _bare_signature(spikesoc.dense_infer) == "(model, frame)"
    assert _bare_signature(encode_ttfs) == "(frame, t_max)"


def test_both_layer_paths_take_a_layers_codes():
    # run_layer sorts its own input, so both paths accept and reject the same codes.
    assert _bare_signature(run_layer) == "(codes, layer, weights, *, stop_at_first_fire=False)"
    assert _bare_signature(dense_layer_sweep) == "(codes, layer, weights)"
    assert _bare_signature(sort_spikes) == "(codes)"


def test_fixed16_weights_are_built_by_their_constructor():
    # Fixed16Weights(rows) takes the rows as they are; only binary rows need a packer.
    assert not hasattr(spikesoc.Fixed16Weights, "from_rows")
    assert hasattr(spikesoc.BinaryWeights, "from_rows")
