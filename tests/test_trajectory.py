import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(parent_runs, change_runs, **extra_metrics):
    metrics = {
        "samples_per_s": {
            "parent": {"median": 0.0, "runs": parent_runs},
            "change": {"median": 0.0, "runs": change_runs},
            "median_ratio_change_over_parent": 0.0,
        },
        **extra_metrics,
    }
    shared = dict.fromkeys(("command", "host", "method", "parent_commit", "claim"), "")
    return {**shared, "workloads": {"corpus_stream_s1": {"pairs": len(parent_runs), "metrics": metrics}}}


def test_chains_within_pair_medians_and_names_files_without_the_shared_keys(tmp_path, capsys):
    # Pair ratios 2.0, 1.5, 1.0: median 1.5, where the ratio of the medians is 2.0.
    (tmp_path / "BENCH_7.json").write_text(json.dumps(bench([100, 200, 400], [200, 300, 400])))
    listed_apart = {"parent": {"runs": [10]}, "change": {"runs": [1, 2]}, "median_ratio_change_over_parent": 0.5}
    eighth = bench([300, 100], [240, 80], setup_s=listed_apart)  # pair ratios 0.8 and 0.8
    (tmp_path / "BENCH_8.json").write_text(json.dumps(eighth))
    (tmp_path / "BENCH_10.json").write_text(json.dumps({"what": "", "workloads": {}}))
    (tmp_path / "BENCH_6.json").write_text(json.dumps(bench([1], [9])))  # before BENCH_7
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "corpus_stream_s1 samples_per_s",
        "  BENCH_7    change/parent   1.5000  running product   1.5000",
        "  BENCH_8    change/parent   0.8000  running product   1.2000",
        "corpus_stream_s1 setup_s",
        "  BENCH_8    change/parent   0.5000  running product   0.5000",
        "lacking command, host, method, parent_commit, claim, workloads, not read: BENCH_10.json",
    ]
