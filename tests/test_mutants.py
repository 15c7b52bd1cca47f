"""tools/mutants.py's table follows the code: every snippet occurs once in
its file and every named test file exists. Running the mutants is a CI step
of its own."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_tool().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_snippet_occurs_once_and_every_test_file_exists(mutant):
    for name, snippet, replacement in mutant.edits:
        assert (ROOT / "src" / "spikesoc" / name).read_text().count(snippet) == 1, snippet
        assert replacement != snippet
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)


def test_a_stale_snippet_is_reported(tmp_path):
    tool = load_tool()
    (tmp_path / "spikesoc").mkdir()
    (tmp_path / "spikesoc" / "core.py").write_text("x = 1\n")
    with pytest.raises(ValueError, match="snippet occurs 0 times"):
        tool.apply(tool.Mutant("m", ("tests/test_core.py",), (("core.py", "x = 2", "x = 3"),)), tmp_path)
