import json
import math
import re
import subprocess
import sys

import pytest

from spikesoc import (
    BinaryWeights,
    InferenceResult,
    LayerConfig,
    NO_SPIKE,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    serialize_model,
)
from spikesoc.cli import (
    load_idx_images,
    load_idx_labels,
    main,
    run_batch,
    write_idx_images,
    write_idx_labels,
)
from spikesoc.errors import CorruptDataset, NotIdx
from spikesoc.oracle import dense_infer
from helpers import (
    image_with_t_max,
    make_rng,
    one_hot_output_model,
    random_frame,
    random_layer,
    random_model,
)


def _write_dataset(tmp_path, rng, model, n_samples, name="set"):
    frames = [random_frame(rng, model.input_dim) for _ in range(n_samples)]
    labels = [rng.randrange(model.output_dim) for _ in range(n_samples)]
    images_path = tmp_path / f"{name}-images.idx"
    labels_path = tmp_path / f"{name}-labels.idx"
    write_idx_images(images_path, frames, 1, model.input_dim)
    write_idx_labels(labels_path, labels)
    model_path = tmp_path / f"{name}-model.bin"
    model_path.write_bytes(serialize_model(model))
    return model_path, images_path, labels_path


class TestIdxFiles:
    def test_minimal_image_file_layout(self, tmp_path):
        path = tmp_path / "one.idx"
        path.write_bytes(
            bytes.fromhex("00000803 00000001 00000002 00000002 AABBCCDD".replace(" ", ""))
        )
        assert load_idx_images(path) == [bytes([0xAA, 0xBB, 0xCC, 0xDD])]

    def test_label_magic_on_image_loader_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, [1, 2, 3])
        with pytest.raises(NotIdx):
            load_idx_images(path)

    def test_image_magic_on_label_loader_rejected(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx_images(path, [bytes(4)], 2, 2)
        with pytest.raises(NotIdx):
            load_idx_labels(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        write_idx_images(path, [bytes(4)], 2, 2)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptDataset):
            load_idx_images(path)

    def test_zero_size_frames_rejected(self, tmp_path):
        # A header-only file declaring 2^20 images of 0 rows, 28 columns.
        path = tmp_path / "empty-frames.idx"
        path.write_bytes(bytes.fromhex("00000803 00100000 00000000 0000001c".replace(" ", "")))
        with pytest.raises(CorruptDataset):
            load_idx_images(path)

    def test_random_idx_roundtrips_byte_exact(self, tmp_path):
        rng = make_rng(101)
        for k in range(20):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            n = rng.randint(1, 12)
            frames = [
                bytes(rng.randint(0, 255) for _ in range(rows * cols)) for _ in range(n)
            ]
            labels = [rng.randint(0, 9) for _ in range(n)]
            ipath = tmp_path / f"im{k}.idx"
            lpath = tmp_path / f"lb{k}.idx"
            write_idx_images(ipath, frames, rows, cols)
            write_idx_labels(lpath, labels)
            raw_i = ipath.read_bytes()
            raw_l = lpath.read_bytes()
            write_idx_images(ipath, load_idx_images(ipath), rows, cols)
            write_idx_labels(lpath, load_idx_labels(lpath))
            assert ipath.read_bytes() == raw_i
            assert lpath.read_bytes() == raw_l


class TestRunBatch:
    def test_oracle_checked_batch(self, tmp_path):
        rng = make_rng(102)
        model = random_model(rng, max_layers=2, max_dim=24)
        paths = _write_dataset(tmp_path, rng, model, 10)
        report = run_batch(*paths, oracle=True)
        assert report["n_samples"] == 10
        assert len(report["per_sample"]) == 10
        recount = sum(
            1 for s in report["per_sample"] if s["pred"] == s["label"]
        ) / len(report["per_sample"])
        assert report["accuracy"] == recount

    def test_report_is_deterministic(self, tmp_path):
        rng = make_rng(103)
        model = random_model(rng, max_layers=2, max_dim=16)
        paths = _write_dataset(tmp_path, rng, model, 6)
        a = run_batch(*paths)
        b = run_batch(*paths)
        assert json.dumps(a) == json.dumps(b)

    def test_early_stop_flag_changes_cycles_not_labels(self, tmp_path):
        rng = make_rng(104)
        model = random_model(rng, max_layers=2, max_dim=24)
        paths = _write_dataset(tmp_path, rng, model, 8)
        fast = run_batch(*paths, early_stop=True)
        slow = run_batch(*paths, early_stop=False)
        assert fast["accuracy"] == slow["accuracy"]
        for s_fast, s_slow in zip(fast["per_sample"], slow["per_sample"]):
            assert s_fast["pred"] == s_slow["pred"]
            assert s_fast["decision_time"] == s_slow["decision_time"]
            assert s_fast["cycles"] <= s_slow["cycles"]

    def test_cycle_totals_match_per_sample_records(self, tmp_path):
        rng = make_rng(105)
        model = random_model(rng, max_layers=2, max_dim=16)
        paths = _write_dataset(tmp_path, rng, model, 5)
        report = run_batch(*paths)
        assert report["total_cycles"] == sum(s["cycles"] for s in report["per_sample"])
        assert report["total_cycles"] == sum(report["cycles_breakdown"].values())

    def test_empty_dataset_rejected(self, tmp_path):
        rng = make_rng(106)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 0)
        with pytest.raises(CorruptDataset):
            run_batch(model_path, images_path, labels_path)

    def test_count_mismatch_rejected(self, tmp_path):
        rng = make_rng(107)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 4)
        write_idx_labels(labels_path, [0, 1])
        with pytest.raises(CorruptDataset):
            run_batch(model_path, images_path, labels_path)

    def test_t_max_override(self, tmp_path):
        rng = make_rng(108)
        model = random_model(rng, max_layers=1, max_dim=8, t_max=256)
        paths = _write_dataset(tmp_path, rng, model, 3)
        report = run_batch(*paths, t_max=64)
        for s in report["per_sample"]:
            assert s["decision_time"] is None or s["decision_time"] < 64


class TestMainExitCodes:
    def test_success_and_artifacts(self, tmp_path, capsys):
        rng = make_rng(109)
        model = random_model(rng, max_layers=2, max_dim=16)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 5)
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "breakdown.csv"
        rc = main(
            [
                str(model_path),
                str(images_path),
                str(labels_path),
                "--oracle",
                "--report-json",
                str(json_path),
                "--breakdown-csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "oracle cross-check: 5/5" in out
        report = json.loads(json_path.read_text())
        assert report["n_samples"] == 5
        assert csv_path.read_text().startswith("stage,cycles,fraction")

    def test_dataset_error_exit_1(self, tmp_path, capsys):
        rng = make_rng(110)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 0)
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 1
        assert "dataset" in capsys.readouterr().err

    def test_label_beyond_the_model_classes_exit_1(self, tmp_path, capsys):
        rng = make_rng(119)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 3)
        write_idx_labels(labels_path, [0, model.output_dim, model.output_dim + 1])
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "dataset" in err
        assert f"label {model.output_dim} at index 1" in err
        assert f"output_dim {model.output_dim}" in err

    def test_missing_dataset_exit_1(self, tmp_path):
        rng = make_rng(111)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 2)
        rc = main([str(model_path), str(tmp_path / "nope.idx"), str(labels_path)])
        assert rc == 1

    def test_model_error_exit_2(self, tmp_path, capsys):
        rng = make_rng(112)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 2)
        model_path.write_bytes(b"JUNKJUNKJUNKJUNK")
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 2
        assert "model image" in capsys.readouterr().err

    def test_non_power_of_two_t_max_image_exit_2(self, tmp_path, capsys):
        rng = make_rng(116)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 2)
        model_path.write_bytes(image_with_t_max(model, 100))
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 2
        assert "model image" in capsys.readouterr().err

    def test_padding_bit_image_exit_2(self, tmp_path, capsys):
        model = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=64,
            layers=[(LayerConfig(4, 1), BinaryWeights.from_rows([[1, 1, -1, -1]]))],
        )
        model_path, images_path, labels_path = _write_dataset(tmp_path, make_rng(117), model, 2)
        image = bytearray(serialize_model(model))
        image[-1] |= 0x80  # bit 15 of the only weight word, beyond in_dim 4
        model_path.write_bytes(bytes(image))
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 2
        assert "model image" in capsys.readouterr().err

    def test_chain_mismatch_image_exit_2(self, tmp_path, capsys):
        model = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=64,
            layers=[
                (LayerConfig(4, 2), BinaryWeights.from_rows([[1] * 4, [-1] * 4])),
                (LayerConfig(2, 1), BinaryWeights.from_rows([[1, -1]])),
            ],
        )
        model_path, images_path, labels_path = _write_dataset(tmp_path, make_rng(118), model, 2)
        image = bytearray(serialize_model(model))
        image[20] = 3  # in_dim of the second layer record
        model_path.write_bytes(bytes(image))
        rc = main([str(model_path), str(images_path), str(labels_path)])
        assert rc == 2
        assert "model image" in capsys.readouterr().err

    def test_more_than_256_classes_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "wide-model.bin"
        model_path.write_bytes(serialize_model(one_hot_output_model(300)))  # decides class 299
        write_idx_images(tmp_path / "images.idx", [bytes([255])], 1, 1)
        write_idx_labels(tmp_path / "labels.idx", [0])
        rc = main([str(model_path), str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")])
        assert rc == 2
        assert "model image" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path):
        rng = make_rng(113)
        model = random_model(rng, max_layers=1, max_dim=8)
        _, images_path, labels_path = _write_dataset(tmp_path, rng, model, 2)
        rc = main([str(tmp_path / "no-model.bin"), str(images_path), str(labels_path)])
        assert rc == 2

    # 1e306 MHz and the largest float are finite, but their rates in Hz are not.
    @pytest.mark.parametrize("clock", ["0", "-163", "nan", "inf", "1e306", repr(sys.float_info.max)])
    def test_bad_clock_exit_2_before_any_sample(self, tmp_path, capsys, monkeypatch, clock):
        rng = make_rng(120)
        model = random_model(rng, max_layers=1, max_dim=8)
        paths = _write_dataset(tmp_path, rng, model, 2)
        json_path = tmp_path / "report.json"
        monkeypatch.setattr("spikesoc.cli.run_batch", lambda *a, **k: pytest.fail("a sample ran"))
        with pytest.raises(SystemExit) as exc:
            main([*map(str, paths), "--clock-mhz", clock, "--report-json", str(json_path)])
        assert exc.value.code == 2
        assert "--clock-mhz" in capsys.readouterr().err
        assert not json_path.exists()

    def test_fastest_accepted_clock_prints_finite_figures(self, tmp_path, capsys):
        rng = make_rng(121)
        model = random_model(rng, max_layers=1, max_dim=8)
        paths = _write_dataset(tmp_path, rng, model, 2)
        assert main([*map(str, paths), "--clock-mhz", "1e302"]) == 0
        out = capsys.readouterr().out
        latency = float(re.search(r"avg latency: +(\S+) ms", out).group(1))
        fps = float(re.search(r"throughput: +(\S+) fps", out).group(1))
        assert latency == 0.0 and 0 < fps < math.inf

    def test_console_entry_point_in_subprocess(self, tmp_path):
        rng = make_rng(115)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 3)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "spikesoc.cli",
                str(model_path),
                str(images_path),
                str(labels_path),
                "--oracle",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "oracle cross-check: 3/3" in proc.stdout

    def test_divergence_exit_3(self, tmp_path, capsys, monkeypatch):
        rng = make_rng(114)
        model = random_model(rng, max_layers=1, max_dim=8)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 2)

        def wrong_dense(model, frame, **kwargs):
            train = SpikeTrain((NO_SPIKE,), model.t_max)
            return InferenceResult(
                predicted=10**6,
                decision_time=NO_SPIKE,
                input_train=train,
                layer_trains=[train],
                layer_states=[],
            )

        monkeypatch.setattr("spikesoc.cli.dense_infer", wrong_dense)
        rc = main([str(model_path), str(images_path), str(labels_path), "--oracle"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "divergence" in err and "sample 0" in err

    @pytest.mark.parametrize(
        "layer, flags, rc",
        [
            (0, [], 3),
            (0, ["--no-early-stop"], 3),
            (1, ["--no-early-stop"], 3),
            (1, [], 0),  # an early-stopped output layer is not compared
        ],
    )
    def test_one_potential_off_by_one_diverges(self, tmp_path, capsys, monkeypatch, layer, flags, rc):
        rng = make_rng(115)
        layers = [random_layer(rng, 12, 8, WeightMode.BINARY), random_layer(rng, 8, 3, WeightMode.BINARY)]
        model = NetworkModel(mode=WeightMode.BINARY, t_max=16, layers=layers)
        model_path, images_path, labels_path = _write_dataset(tmp_path, rng, model, 3)

        def off_by_one(model, frame, **kwargs):
            ref = dense_infer(model, frame, **kwargs)
            ref.layer_states[layer].potentials[2] += 1
            return ref

        monkeypatch.setattr("spikesoc.cli.dense_infer", off_by_one)
        assert main([str(model_path), str(images_path), str(labels_path), "--oracle", *flags]) == rc
        if rc:
            assert f"sample 0: layer {layer} neuron 2 potential" in capsys.readouterr().err
