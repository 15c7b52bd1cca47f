"""Batch harness: IDX datasets in, controller-driven inference, reports out.

Exit codes: 0 success, 1 dataset error, 2 model image error, 3 divergence
from the dense reference simulator.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from typing import Optional, Sequence

from .controller import Controller, LoadInput, LoadModel, Run, parse_uart_frame
from .core import first_divergence
from .errors import (
    CorruptDataset,
    ModelImageError,
    NotIdx,
    OracleDivergence,
    SpikeSocError,
)
from .model import deserialize_model, serialize_model, valid_t_max
from .oracle import dense_infer
from .perf import cycles_to_ms, memory_footprint, write_breakdown_csv

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_be32(data: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(data):
        raise CorruptDataset(f"{what} field truncated")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx_images(path) -> list:
    """Read an IDX image file into flat row-major frames (one bytes per image)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or struct.unpack_from(">I", data, 0)[0] != IDX_IMAGES_MAGIC:
        raise NotIdx(f"{path}: not an IDX image file")
    count = _read_be32(data, 4, "image count")
    rows = _read_be32(data, 8, "row count")
    cols = _read_be32(data, 12, "column count")
    frame_len = rows * cols
    if frame_len == 0:
        raise CorruptDataset(f"{path}: header declares {rows}x{cols} frames")
    expected = 16 + count * frame_len
    if len(data) != expected:
        raise CorruptDataset(
            f"{path}: {len(data)} bytes, header declares {expected}"
        )
    return [data[16 + i * frame_len : 16 + (i + 1) * frame_len] for i in range(count)]


def load_idx_labels(path) -> list:
    """Read an IDX label file into a list of class indices."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or struct.unpack_from(">I", data, 0)[0] != IDX_LABELS_MAGIC:
        raise NotIdx(f"{path}: not an IDX label file")
    count = _read_be32(data, 4, "label count")
    if len(data) != 8 + count:
        raise CorruptDataset(f"{path}: {len(data)} bytes, header declares {8 + count}")
    return list(data[8:])


def write_idx_images(path, frames: Sequence[bytes], rows: int, cols: int) -> None:
    """Emit frames as an IDX image file (inverse of load_idx_images)."""
    frame_len = rows * cols
    for i, frame in enumerate(frames):
        if len(frame) != frame_len:
            raise ValueError(f"frame {i} holds {len(frame)} bytes, expected {frame_len}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(frames), rows, cols))
        for frame in frames:
            f.write(bytes(frame))


def write_idx_labels(path, labels: Sequence[int]) -> None:
    """Emit labels as an IDX label file (inverse of load_idx_labels)."""
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(bytes(labels))


def run_batch(
    model_path,
    images_path,
    labels_path,
    *,
    oracle: bool = False,
    early_stop: bool = True,
    t_max: Optional[int] = None,
) -> dict:
    """Drive the controller over every sample and assemble the JSON-ready report.

    With oracle=True every sample is cross-checked against the dense
    reference simulator: every layer's fire times and final potentials
    (the output layer's only without early_stop, which cuts it short), the
    class and the decision time. The first disagreement raises
    OracleDivergence naming the sample and where the two differ. A label
    the loaded model cannot output raises CorruptDataset before any sample
    runs.
    """
    frames = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if not frames:
        raise CorruptDataset(f"{images_path}: dataset is empty")
    if len(frames) != len(labels):
        raise CorruptDataset(
            f"{len(frames)} images but {len(labels)} labels"
        )

    with open(model_path, "rb") as f:
        image = f.read()
    if t_max is not None:
        image = serialize_model(deserialize_model(image).with_t_max(t_max))

    controller = Controller(early_stop=early_stop)
    controller.handle(LoadModel(image=image))
    model = controller.model
    for idx, label in enumerate(labels):
        if label >= model.output_dim:
            raise CorruptDataset(
                f"{labels_path}: label {label} at index {idx} is not below the "
                f"model's output_dim {model.output_dim}"
            )

    per_sample = []
    correct = 0
    totals = dict.fromkeys(("encode", "sort", "neuron", "decode"), 0)
    for idx, (frame, label) in enumerate(zip(frames, labels)):
        try:
            controller.handle(LoadInput(pixels=frame))
            _, uart = controller.handle(Run())
        except SpikeSocError as exc:
            raise type(exc)(f"sample {idx}: {exc}") from exc
        parsed = parse_uart_frame(uart)
        result = controller.last_result
        if oracle:
            divergence = first_divergence(
                result, dense_infer(model, frame), output_layer=not early_stop
            )
            if divergence:
                raise OracleDivergence(
                    f"sample {idx}: {divergence} (datapath vs dense reference)"
                )
        for stage in totals:
            totals[stage] += getattr(result.cycles, f"{stage}_cycles")
        if result.predicted == label:
            correct += 1
        per_sample.append(
            {
                "index": idx,
                "label": label,
                "pred": result.predicted,
                "decision_time": result.decision_time,
                "cycles": parsed["total_cycles"],
            }
        )

    memory = memory_footprint(model)
    return {
        "model": str(model_path),
        "dataset": str(images_path),
        "n_samples": len(frames),
        "accuracy": correct / len(frames),
        "total_cycles": sum(totals.values()),
        "cycles_breakdown": totals,
        "memory": {
            "binary_bytes": memory.binary_bytes,
            "fixed_equiv_bytes": memory.fixed16_bytes,
            "ratio": memory.fixed16_bytes / memory.binary_bytes,
        },
        "per_sample": per_sample,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesoc",
        description="Run a flash model image over an IDX dataset and report "
        "accuracy, latency, and memory footprint.",
    )
    parser.add_argument("model", help="flash model image file")
    parser.add_argument("images", help="IDX image file")
    parser.add_argument("labels", help="IDX label file")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check every sample against the dense reference simulator",
    )
    parser.add_argument(
        "--no-early-stop",
        action="store_true",
        help="process every output-layer event even after the decision is fixed",
    )
    parser.add_argument(
        "--t-max",
        type=int,
        default=None,
        metavar="N",
        help="override the model's time window (power of two, 1..256)",
    )
    parser.add_argument(
        "--clock-mhz",
        type=float,
        default=163.0,
        metavar="F",
        help="clock used to convert cycles to milliseconds (default 163)",
    )
    parser.add_argument(
        "--report-json", metavar="PATH", default=None, help="write the full report as JSON"
    )
    parser.add_argument(
        "--breakdown-csv",
        metavar="PATH",
        default=None,
        help="write the stage cycle breakdown as CSV",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.t_max is not None and not valid_t_max(args.t_max):
        parser.error(f"--t-max {args.t_max} is not a power of two in [1, 256]")
    try:
        cycles_to_ms(1, args.clock_mhz)  # a sample costs at least one cycle
    except ValueError:
        parser.error(f"--clock-mhz {args.clock_mhz:g} is not positive with a finite rate in Hz")
    try:
        report = run_batch(
            args.model,
            args.images,
            args.labels,
            oracle=args.oracle,
            early_stop=not args.no_early_stop,
            t_max=args.t_max,
        )
    except OracleDivergence as exc:
        print(f"error: oracle divergence: {exc}", file=sys.stderr)
        return 3
    except ModelImageError as exc:
        print(f"error: model image: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is not None and str(exc.filename) == str(args.model):
            print(f"error: model image: {exc}", file=sys.stderr)
            return 2
        print(f"error: dataset: {exc}", file=sys.stderr)
        return 1
    except SpikeSocError as exc:
        print(f"error: dataset: {exc}", file=sys.stderr)
        return 1

    n = report["n_samples"]
    ms_per_sample = cycles_to_ms(report["total_cycles"] / n, args.clock_mhz)
    fps = 1000.0 / ms_per_sample
    print(f"samples:            {n}")
    print(f"accuracy:           {report['accuracy']:.4f}")
    print(f"avg cycles/sample:  {report['total_cycles'] / n:.1f}")
    print(f"avg latency:        {ms_per_sample:.4f} ms @ {args.clock_mhz:g} MHz")
    print(f"throughput:         {fps:.1f} fps")
    print(
        f"weight memory:      {report['memory']['binary_bytes']} bytes binary, "
        f"{report['memory']['fixed_equiv_bytes']} bytes fixed16 "
        f"(ratio {report['memory']['ratio']:.2f})"
    )
    if args.oracle:
        print(f"oracle cross-check: {n}/{n} samples agree")

    if args.report_json:
        with open(args.report_json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    if args.breakdown_csv:
        write_breakdown_csv(report["cycles_breakdown"], args.breakdown_csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
