import importlib.util
from dataclasses import replace
from pathlib import Path

from spikesoc import dense_infer
from helpers import make_rng, random_frame, random_model

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_inprocess.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checked_comparison_reads_the_input_train():
    """An encoder change that alters only the input train's codes or t_max
    makes two dense results compare unequal, so --checked fails on it."""
    plain = load_tool().plain
    rng = make_rng(130)
    model = random_model(rng, t_max=16)
    result = dense_infer(model, random_frame(rng, model.input_dim))
    train = result.input_train
    codes = train.codes.copy()
    codes[0] = 0 if codes[0] else 1
    assert plain(replace(result)) == plain(result)
    for other in (replace(train, codes=codes), replace(train, t_max=32)):
        assert plain(replace(result, input_train=other)) != plain(result)
