"""Property tests: every byte string an outside parser is given either parses
or fails with the parser's documented error type."""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesoc import (
    CorruptDataset,
    LoadInput,
    LoadModel,
    ModelImageError,
    NotIdx,
    ProtocolViolation,
    Reset,
    Run,
    WeightMode,
    deserialize_model,
    encode_command,
    format_uart_frame,
    parse_command_stream,
    parse_uart_frame,
    serialize_model,
)
from spikesoc.cli import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, load_idx_images, load_idx_labels
from spikesoc.controller import UART_MARKER, xor_checksum
from spikesoc.errors import CorruptFrame
from helpers import make_rng, random_model

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
