import csv
import math
import sys

import pytest

from spikesoc import (
    BinaryWeights,
    LayerConfig,
    LayerTally,
    NetworkModel,
    RunTrace,
    WeightMode,
    estimate_cycles,
    memory_footprint,
    run_network,
)
from spikesoc.model import binary_weight_bytes, fixed16_weight_bytes
from spikesoc.perf import CycleReport, cycles_to_ms, write_breakdown_csv
from helpers import make_rng, random_frame, random_instance, random_model


def _trace_600_10():
    # 784 inputs into a 600-neuron layer then 10 outputs; 600 input events,
    # 40 hidden spikes, nothing skipped.
    return RunTrace(
        t_max=256,
        input_dim=784,
        layers=(
            LayerTally(in_dim=784, out_dim=600, events_sorted=600, events_processed=600),
            LayerTally(in_dim=600, out_dim=10, events_sorted=40, events_processed=40),
        ),
    )


class TestEstimateCycles:
    def test_hand_summed_breakdown(self):
        report = estimate_cycles(_trace_600_10())
        assert report.encode_cycles == 784
        assert report.sort_cycles == (256 + 600) + (256 + 40)
        assert report.neuron_cycles == 600 * 600 + 40 * 10
        assert report.decode_cycles == 10
        assert report.total_cycles == 362_346

    def test_zero_events(self):
        trace = RunTrace(
            t_max=64,
            input_dim=32,
            layers=(
                LayerTally(32, 16, 0, 0),
                LayerTally(16, 4, 0, 0),
            ),
        )
        report = estimate_cycles(trace)
        assert report.encode_cycles == 32
        assert report.sort_cycles == 2 * 64
        assert report.neuron_cycles == 0
        assert report.decode_cycles == 4

    def test_doubling_events_never_decreases_any_stage(self):
        rng = make_rng(81)
        for _ in range(200):
            layers = tuple(
                LayerTally(
                    in_dim=rng.randint(1, 100),
                    out_dim=rng.randint(1, 100),
                    events_sorted=(sorted_events := rng.randint(0, 50)),
                    events_processed=rng.randint(0, sorted_events),
                )
                for _ in range(rng.randint(1, 3))
            )
            trace = RunTrace(t_max=64, input_dim=rng.randint(1, 100), layers=layers)
            doubled = RunTrace(
                t_max=64,
                input_dim=trace.input_dim,
                layers=tuple(
                    LayerTally(t.in_dim, t.out_dim, 2 * t.events_sorted, 2 * t.events_processed)
                    for t in layers
                ),
            )
            a = estimate_cycles(trace)
            b = estimate_cycles(doubled)
            assert b.encode_cycles >= a.encode_cycles
            assert b.sort_cycles >= a.sort_cycles
            assert b.neuron_cycles >= a.neuron_cycles
            assert b.decode_cycles >= a.decode_cycles

    def test_additivity_enforced_by_construction(self):
        with pytest.raises(TypeError):
            CycleReport(
                encode_cycles=1,
                sort_cycles=1,
                neuron_cycles=1,
                decode_cycles=1,
                total_cycles=5,
            )
        assert CycleReport(1, 1, 1, 1).total_cycles == 4

    def test_additivity_on_real_runs(self):
        rng = make_rng(82)
        for _ in range(50):
            inst = random_instance(rng)
            r = inst.default.cycles
            assert r.total_cycles == (
                r.encode_cycles + r.sort_cycles + r.neuron_cycles + r.decode_cycles
            )


class TestMemoryFootprint:
    def test_binary_784_128_10(self):
        rng = make_rng(83)
        model = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=256,
            layers=[
                (
                    LayerConfig(784, 128, 256, 1),
                    BinaryWeights.from_rows(
                        [[rng.choice((-1, 1)) for _ in range(784)] for _ in range(128)]
                    ),
                ),
                (
                    LayerConfig(128, 10, 256, 1),
                    BinaryWeights.from_rows(
                        [[rng.choice((-1, 1)) for _ in range(128)] for _ in range(10)]
                    ),
                ),
            ],
        )
        report = memory_footprint(model)
        assert report.layers[0].weight_bytes == 12_544
        assert report.layers[1].weight_bytes == 160
        assert report.weight_bytes == 12_704
        # spike memories: input buffer + per-layer output codes
        assert report.layers[0].spike_bytes == 784 + 128
        assert report.layers[1].spike_bytes == 10
        assert report.spike_bytes == 784 + 128 + 10

    def test_fixed16_equivalent_and_exact_ratio(self):
        assert fixed16_weight_bytes(784, 128) == 200_704
        assert fixed16_weight_bytes(128, 10) == 2_560
        assert fixed16_weight_bytes(784, 128) + fixed16_weight_bytes(128, 10) == 203_264
        assert fixed16_weight_bytes(784, 128) / binary_weight_bytes(784, 128) == 16.0

    def test_one_by_one_binary_layer_is_one_padded_word(self):
        model = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=16,
            layers=[(LayerConfig(1, 1, 256, 0), BinaryWeights.from_rows([[1]]))],
        )
        assert memory_footprint(model).weight_bytes == 2


class TestReporting:
    def test_cycles_to_ms_at_163_mhz(self):
        assert cycles_to_ms(163_000, 163.0) == 1.0
        assert cycles_to_ms(0) == 0.0
        # 1e306 MHz and the largest float are finite, but their rates in Hz are not.
        for clock in (0.0, -163.0, math.nan, math.inf, 1e306, sys.float_info.max):
            with pytest.raises(ValueError):
                cycles_to_ms(100, clock)
        # One cycle at the fastest accepted clock: a finite time and a finite rate.
        assert 0 < 1000.0 / cycles_to_ms(1, 1e302) < math.inf

    def test_breakdown_csv(self, tmp_path):
        report = estimate_cycles(_trace_600_10())
        path = tmp_path / "breakdown.csv"
        write_breakdown_csv(
            {
                "encode": report.encode_cycles,
                "sort": report.sort_cycles,
                "neuron": report.neuron_cycles,
                "decode": report.decode_cycles,
            },
            path,
        )
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["stage", "cycles", "fraction"]
        assert [r[0] for r in rows[1:]] == ["encode", "sort", "neuron", "decode"]
        assert [int(r[1]) for r in rows[1:]] == [
            report.encode_cycles,
            report.sort_cycles,
            report.neuron_cycles,
            report.decode_cycles,
        ]
        assert abs(sum(float(r[2]) for r in rows[1:]) - 1.0) < 1e-4

    def test_early_stop_never_costs_more(self):
        rng = make_rng(84)
        for _ in range(100):
            model = random_model(rng)
            frame = random_frame(rng, model.input_dim)
            fast = run_network(model, frame, early_stop=True)
            slow = run_network(model, frame, early_stop=False)
            assert fast.cycles.total_cycles <= slow.cycles.total_cycles
