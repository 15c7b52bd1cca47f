"""Property tests: every byte string an outside parser is given either parses
or fails with the parser's documented error type, the CLI only ever returns
a documented exit code, and the array-native spike path (encoder, SpikeTrain
check, sorter, run_layer) equals its one-element-at-a-time spec."""

import dataclasses
import io
import struct
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesoc import (
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    LoadInput,
    LoadModel,
    ModelImageError,
    ProtocolViolation,
    Reset,
    Run,
    SpikeTrain,
    WeightMode,
    deserialize_model,
    encode_command,
    serialize_model,
)
from spikesoc.cli import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    load_idx_images,
    load_idx_labels,
    main,
)
from spikesoc.controller import (
    UART_MARKER,
    format_uart_frame,
    parse_command_stream,
    parse_uart_frame,
    xor_checksum,
)
from spikesoc.core import BLOCKED_SCAN_CELLS, run_layer
from spikesoc.encoder import encode_ttfs
from spikesoc.errors import CorruptDataset, CorruptFrame, NotIdx
from spikesoc.sorter import sort_spikes
from helpers import (
    as_groups,
    make_rng,
    random_frame,
    random_model,
    reference_encode,
    reference_run_layer,
    reference_sort,
    reference_train_check,
)

# Deterministic, and no example database (conftest.py moves the rest of
# Hypothesis's storage out of the working tree).
PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=200)

_rng = make_rng(120)
SEED_IMAGES = [
    serialize_model(random_model(_rng, mode=mode, max_layers=3, max_dim=20))
    for mode in (WeightMode.BINARY, WeightMode.FIXED16)
    for _ in range(4)
]


@st.composite
def mutated(draw, base):
    """base bytes with up to three byte flips, truncations or appends."""
    data = bytearray(draw(base))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("flip", "truncate", "append")))
        if op == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@PROPERTY
@given(mutated(st.sampled_from(SEED_IMAGES)) | st.binary(max_size=48))
def test_model_image_parses_canonically_or_raises_model_image_error(image):
    try:
        model = deserialize_model(image)
    except ModelImageError:
        return
    assert serialize_model(model) == image


_commands = st.lists(
    st.builds(LoadModel, image=st.binary(max_size=24))
    | st.builds(LoadInput, pixels=st.binary(max_size=24))
    | st.just(Run())
    | st.just(Reset()),
    max_size=5,
)


@PROPERTY
@given(mutated(_commands.map(lambda cs: b"".join(map(encode_command, cs)))))
def test_command_stream_reencodes_or_raises_protocol_violation(stream):
    try:
        commands = parse_command_stream(stream)
    except ProtocolViolation:
        return
    assert b"".join(map(encode_command, commands)) == stream


def _sealed(frame: bytes) -> bytes:
    """frame's ten field bytes between a valid marker and checksum."""
    return bytes([UART_MARKER]) + frame[1:11] + bytes([xor_checksum(frame[1:11])])


@PROPERTY
@given(mutated(st.binary(min_size=12, max_size=12).map(_sealed)) | st.binary(max_size=16))
def test_uart_frame_formats_back_or_raises_corrupt_frame(frame):
    try:
        fields = parse_uart_frame(frame)
    except CorruptFrame:
        return
    result = SimpleNamespace(
        predicted=fields["predicted"],
        decision_time=fields["decision_time"],
        cycles=SimpleNamespace(total_cycles=fields["total_cycles"]),
    )
    assert format_uart_frame(fields["sample_index"], result) == frame


@st.composite
def idx_files(draw):
    """IDX headers of either kind (or a stray magic) over small or arbitrary
    dimensions, with a payload of the declared size or of any size, possibly
    cut short. Counts stay below 2**16 so a header that a loader wrongly
    accepts cannot make it build a huge list."""
    magic = draw(st.sampled_from((IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC)) | st.integers(0, 2**32 - 1))
    count = draw(st.integers(0, 4) | st.integers(0, 2**16))
    n_dims = draw(st.sampled_from((0, 2)))
    dim = st.integers(0, 4) | st.integers(0, 2**32 - 1)
    dims = draw(st.lists(dim, min_size=n_dims, max_size=n_dims))
    declared = count * (dims[0] * dims[1] if dims else 1)
    size = declared if declared <= 64 and draw(st.booleans()) else draw(st.integers(0, 64))
    data = struct.pack(f">{2 + len(dims)}I", magic, count, *dims) + draw(
        st.binary(min_size=size, max_size=size)
    )
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@pytest.fixture(scope="module")
def idx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("idx") / "file.idx"


@PROPERTY
@given(data=idx_files())
def test_idx_loaders_return_or_raise_dataset_errors(idx_path, data):
    idx_path.write_bytes(data)
    try:
        frames = load_idx_images(idx_path)
    except (NotIdx, CorruptDataset):
        pass
    else:
        assert all(len(f) == len(frames[0]) > 0 for f in frames)
    try:
        labels = load_idx_labels(idx_path)
    except (NotIdx, CorruptDataset):
        pass
    else:
        assert bytes(labels) == data[8:]


def _idx_files(model, rng, n_samples=3):
    """A matching IDX image file and label file for model, as bytes."""
    frames = b"".join(random_frame(rng, model.input_dim) for _ in range(n_samples))
    labels = bytes(rng.randrange(model.output_dim) for _ in range(n_samples))
    return (
        struct.pack(">IIII", IDX_IMAGES_MAGIC, n_samples, 1, model.input_dim) + frames,
        struct.pack(">II", IDX_LABELS_MAGIC, n_samples) + labels,
    )


_rng = make_rng(121)
CLI_INPUTS = [
    (serialize_model(model), *_idx_files(model, _rng))
    for model in (
        random_model(_rng, mode=mode, max_layers=2, max_dim=12)
        for mode in (WeightMode.BINARY, WeightMode.FIXED16)
        for _ in range(2)
    )
]


@st.composite
def cli_runs(draw):
    """The three input files of one CLI run, one of them possibly mutated,
    and a valid set of flags."""
    files = list(draw(st.sampled_from(CLI_INPUTS)))
    k = draw(st.integers(0, len(files)))  # len(files): none mutated
    if k < len(files):
        files[k] = draw(mutated(st.just(files[k])))
    flags = draw(st.lists(st.sampled_from(("--oracle", "--no-early-stop")), unique=True))
    t_max = draw(st.none() | st.sampled_from([1 << n for n in range(9)]))
    if t_max is not None:
        flags += ["--t-max", str(t_max)]
    clock = draw(st.none() | st.floats(1e-3, 1e4))
    if clock is not None:
        flags += ["--clock-mhz", repr(clock)]
    return files, flags, draw(st.booleans())


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@PROPERTY
@given(run=cli_runs())
def test_main_returns_a_documented_exit_code(cli_dir, run):
    files, flags, write_outputs = run
    paths = [cli_dir / name for name in ("model.bin", "images.idx", "labels.idx")]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    if write_outputs:
        flags += ["--report-json", str(cli_dir / "r.json"), "--breakdown-csv", str(cli_dir / "b.csv")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main([*map(str, paths), *flags])
    assert rc in (0, 1, 2, 3)


@st.composite
def small_layers(draw):
    """A small layer of either mode, with thresholds near what its events
    can reach, and the sorted event queue of a random input train."""
    in_dim, out_dim = draw(st.integers(1, 24)), draw(st.integers(1, 8))
    binary = draw(st.booleans())
    magnitude = 1 if binary else draw(st.sampled_from((1, 64, 32767)))
    cells = st.sampled_from((-1, 1)) if binary else st.integers(-magnitude, magnitude)
    row = st.lists(cells, min_size=in_dim, max_size=in_dim)
    rows = draw(st.lists(row, min_size=out_dim, max_size=out_dim))
    weights = (BinaryWeights if binary else Fixed16Weights).from_rows(rows)
    threshold = draw(st.integers(-2 * magnitude, in_dim * magnitude // 2 + 1))
    layer = LayerConfig(in_dim, out_dim, draw(st.sampled_from((256, 128, 512, 1))), threshold)
    t_max = draw(st.sampled_from((1, 4, 16)))
    times = draw(st.lists(st.none() | st.integers(0, t_max - 1), min_size=in_dim, max_size=in_dim))
    return sort_spikes(SpikeTrain(tuple(times), t_max)), layer, weights


def _assert_run_layer_matches_reference(case, stop_at_first_fire):
    queue, layer, weights = case
    got, got_tally = run_layer(*queue, layer, weights, stop_at_first_fire=stop_at_first_fire)
    groups = as_groups(*queue)
    ref, ref_tally = reference_run_layer(groups, layer, weights, stop_at_first_fire=stop_at_first_fire)
    assert got.potentials == ref.potentials
    assert got.fire_times == ref.fire_times
    assert dataclasses.asdict(got_tally) == dataclasses.asdict(ref_tally)
    assert got_tally.events_skipped == ref_tally.events_skipped


@PROPERTY
@given(case=small_layers(), stop_at_first_fire=st.booleans())
def test_run_layer_equals_the_one_event_at_a_time_reference(case, stop_at_first_fire):
    _assert_run_layer_matches_reference(case, stop_at_first_fire)


# A prime event count n is never a multiple of the blocked scan's rows per
# block b, as 2 <= b < n, so those layers end in a partial block.
_PRIMES = [n for n in range(100, 700) if all(n % d for d in range(2, isqrt(n) + 1))]


@st.composite
def large_layers(draw):
    """A layer of either mode whose n x out_dim gathered event matrix reaches
    the blocked prefix scan, with its weights, spike times and input order
    drawn from one seed, and the sorted event queue of that input train."""
    out_dim = draw(st.integers(48, 160))
    low = -(-BLOCKED_SCAN_CELLS // out_dim)
    n = draw(st.sampled_from([p for p in _PRIMES if p >= low]) | st.integers(low, 2 * low))
    in_dim = n + draw(st.integers(0, 40))  # the rest stay silent
    binary = draw(st.booleans())
    magnitude = 1 if binary else draw(st.sampled_from((64, 32767)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if binary:
        weights = BinaryWeights.from_rows(gen.choice((-1, 1), (out_dim, in_dim)).tolist())
    else:
        weights = Fixed16Weights(rows=gen.integers(-magnitude, magnitude + 1, (out_dim, in_dim)))
    # Potentials walk about sqrt(n) * magnitude: thresholds around that fire
    # neurons at many different groups, and some never.
    threshold = draw(st.integers(-3 * magnitude, 2 * isqrt(n) * magnitude))
    layer = LayerConfig(in_dim, out_dim, draw(st.sampled_from((256, 128, 512))), threshold)
    t_max = draw(st.sampled_from((4, 16, 256)))
    times = [None] * in_dim
    for i in gen.permutation(in_dim)[:n].tolist():
        times[i] = int(gen.integers(t_max))
    return sort_spikes(SpikeTrain(tuple(times), t_max)), layer, weights


@settings(PROPERTY, max_examples=12)
@given(case=large_layers(), stop_at_first_fire=st.booleans())
def test_blocked_scan_equals_the_one_event_at_a_time_reference(case, stop_at_first_fire):
    _assert_run_layer_matches_reference(case, stop_at_first_fire)


def _blocked_edge_case(kind, binary):
    """A fixed layer on the blocked scan, summed in int16 (binary) or int32
    (fixed16 at full scale), whose threshold makes `kind` true."""
    gen = np.random.default_rng(12)
    magnitude = 1 if binary else 32767
    if kind == "one_event_per_group":
        # b = isqrt(255 * 129 // 512) = 8 rows per block: 31 blocks and a
        # 7-row tail, and every row is a group end, so every row is read.
        n, out_dim, t_max = 255, 129, 256
        times = gen.permutation(t_max)[:n]
    else:
        n, out_dim, t_max = 331, 100, 16  # b = 8: 41 blocks and a 3-row tail
        times = gen.integers(t_max, size=n)
    rows = gen.integers(-magnitude, magnitude + 1, (out_dim, n))
    if binary:
        rows = np.where(rows < 0, -1, 1)
    if kind == "one_column_fires":
        rows[out_dim // 3] = magnitude  # the only column that reaches n * magnitude
    queue = sort_spikes(SpikeTrain(tuple(times.tolist()), t_max))
    events, _, group_ends = queue
    # Each neuron's highest potential at a group end, had it never frozen.
    peaks = np.sort(rows.T[events].cumsum(axis=0)[group_ends].max(axis=0))
    threshold = {
        "all_fire_in_group_0": -n * magnitude,
        "none_fire": n * magnitude + 1,
        "one_column_fires": n * magnitude,  # reached exactly, at the last group
        "over_90_percent_fire": int(peaks[0]) + 1,  # all but the lowest peaks
        "one_event_per_group": int(peaks[out_dim // 2]),
    }[kind]
    weights = BinaryWeights.from_rows(rows.tolist()) if binary else Fixed16Weights(rows=rows)
    return queue, LayerConfig(n, out_dim, 256, threshold), weights


@pytest.mark.parametrize("stop_at_first_fire", [False, True])
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "fixed16"])
@pytest.mark.parametrize(
    "kind",
    [
        "all_fire_in_group_0",
        "none_fire",
        "one_column_fires",
        "over_90_percent_fire",
        "one_event_per_group",
    ],
)
def test_blocked_scan_edge_cases_equal_the_reference(kind, binary, stop_at_first_fire):
    case = _blocked_edge_case(kind, binary)
    (events, group_times, group_ends), layer, weights = case
    assert len(events) * layer.out_dim >= BLOCKED_SCAN_CELLS
    _assert_run_layer_matches_reference(case, stop_at_first_fire)
    fire_codes = run_layer(events, group_times, group_ends, layer, weights)[0].fire_codes
    fired = np.count_nonzero(fire_codes >= 0)
    assert {
        "all_fire_in_group_0": (fire_codes == group_times[0]).all(),
        "none_fire": fired == 0,
        "one_column_fires": fired == 1 and fire_codes.max() == group_times[-1],
        "over_90_percent_fire": 0.9 * layer.out_dim < fired < layer.out_dim,
        "one_event_per_group": len(group_ends) == len(events) and 0 < fired < layer.out_dim,
    }[kind]


T_MAXES = st.sampled_from([1 << n for n in range(9)])


def _accepted(reference, call) -> bool:
    """Whether reference() returns. When it raises a ValueError instead,
    call() must raise one with the same message."""
    try:
        reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(exc)
        return False
    return True


_pixels = st.just(0) | st.integers(0, 255)


@PROPERTY
@given(
    frame=st.lists(_pixels, max_size=80).map(bytes)
    | st.lists(_pixels | st.integers(-2, 260), max_size=80),
    t_max=T_MAXES,
    spike_on_zero=st.booleans(),
)
def test_encoder_equals_the_per_pixel_reference(frame, t_max, spike_on_zero):
    reference = partial(reference_encode, frame, t_max, spike_on_zero=spike_on_zero)
    encode = partial(encode_ttfs, frame, t_max, spike_on_zero=spike_on_zero)
    if _accepted(reference, encode):
        train, want = encode(), reference()
        assert train.times == want
        assert train.codes.dtype == np.int16
        assert train.codes.tolist() == [-1 if t is None else t for t in want]


_slots = (
    st.none()
    | st.integers(-3, 260)
    | st.booleans()
    | st.floats(-2, 260)
    | st.integers(-3, 260).map(np.int64)
    | st.integers(2**62, 2**70)
)


@PROPERTY
@given(times=st.lists(_slots, max_size=12), t_max=T_MAXES)
def test_spike_train_accepts_exactly_what_the_reference_accepts(times, t_max):
    if _accepted(lambda: reference_train_check(times, t_max), lambda: SpikeTrain(times, t_max)):
        train = SpikeTrain(times, t_max)
        assert train.times == tuple(times)
        assert train.codes.dtype == np.int16
        assert train.codes.tolist() == [-1 if t is None else t for t in times]
        assert train.active_count == sum(t is not None for t in times)


@PROPERTY
@given(data=st.data(), t_max=T_MAXES)
def test_sorter_arrays_flatten_to_the_reference_sort(data, t_max):
    times = data.draw(st.lists(st.none() | st.integers(0, t_max - 1), max_size=80))
    train = SpikeTrain(times, t_max)
    events, group_times, group_ends = sort_spikes(train)
    groups = as_groups(events, group_times, group_ends)
    assert [(i, t) for t, indices in groups for i in indices] == reference_sort(train)
    assert all(indices for _, indices in groups)  # only timesteps that carry events
    assert list(group_times) == sorted(set(group_times))
    assert len(events) == train.active_count
