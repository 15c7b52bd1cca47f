"""Network model types, bit-exact weight packing, and the flash image format.

Weight storage mirrors the on-chip memories: each layer's weights are one
read-only array of 16-bit cells. Binary weights pack 16 synapses per
unsigned word, fixed-point weights are plain 16-bit two's complement.
Within a packed word, bit b of word w holds presynaptic index i = 16*w + b
(bit 0 is the least significant); bit value 1 encodes +1, bit value 0
encodes -1. Padding bits past in_dim in the final word of a row must be
zero, so every packed image is canonical and corruption is detectable.

Flash image layout (little-endian throughout):

    offset  size   field
    0       4      magic "SNN1"
    4       2      format version, = 1
    6       1      weight mode (0 = binary, 1 = fixed16)
    7       1      layer count L (1..255)
    8       2      t_max (a power of two in 1..256)
    10      10*L   layer records: in_dim u16, out_dim u16,
                   alpha u16 (8.8 fixed point), threshold i32
    ...            L weight blobs in layer order, row-major:
                   binary   -> out_dim rows of ceil(in_dim/16) u16 words
                   fixed16  -> out_dim rows of in_dim i16 values
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import attrgetter, is_
from typing import ClassVar, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    CorruptImage,
    CorruptWeightWord,
    InconsistentDims,
    InvalidWeight,
    NotAModelImage,
    TruncatedImage,
    UnsupportedVersion,
)

# Distinguished "no spike in the window" marker used in spike trains and
# fire-time vectors. Kept as a named constant so call sites read as intent.
NO_SPIKE = None

FLASH_MAGIC = b"SNN1"
FLASH_VERSION = 1
FLASH_HEADER = struct.Struct("<HBBH")  # after the magic: version, mode, layer count, t_max
FLASH_LAYER = struct.Struct("<HHHi")  # in_dim, out_dim, alpha_raw, threshold

INT16_MAX = (1 << 15) - 1
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

_WORDS_PER_CELL = 16  # weights per packed memory word


class WeightMode(Enum):
    """Synaptic weight representation selected for a whole network."""

    BINARY = 0   # weights in {-1, +1}, bit-packed
    FIXED16 = 1  # 16-bit two's-complement weights


def valid_t_max(t_max: int) -> bool:
    """A time window is a power of two in [1, 256], so spike codes fit one byte
    and the encoder's inversion is a plain right shift."""
    return 1 <= t_max <= 256 and not t_max & (t_max - 1)


def words_per_row(in_dim: int) -> int:
    return (in_dim + _WORDS_PER_CELL - 1) // _WORDS_PER_CELL


def binary_weight_bytes(in_dim: int, out_dim: int) -> int:
    return out_dim * words_per_row(in_dim) * 2


def fixed16_weight_bytes(in_dim: int, out_dim: int) -> int:
    return out_dim * in_dim * 2


def pack_binary_row(weights: Sequence[int]) -> list[int]:
    """Pack a row of {-1, +1} weights into 16-bit words (LSB-first, +1 -> 1);
    padding bits beyond the row length stay zero."""
    return _pack_signs([weights])[0].tolist()


def _pack_signs(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Equal-length rows of {-1, +1} weights as a `<u2` array of packed words,
    the inverse of BinaryWeights.matrix()."""
    if len(rows[0]) < 1:
        raise ValueError("weight row must hold at least one weight")
    signs = np.array(rows, dtype=object)  # compares each cell as given
    plus = signs == 1
    if signs.ndim != 2 or not (plus | (signs == -1)).all():
        i, w = next((i, w) for row in rows for i, w in enumerate(row) if w not in (1, -1))
        raise InvalidWeight(f"weight at index {i} is {w!r}, expected -1 or +1")
    packed = np.packbits(plus, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, packed.shape[1] % 2))).view("<u2")


def unpack_binary_row(words: Sequence[int], in_dim: int) -> list[int]:
    """Inverse of pack_binary_row. Rejects a wrong word count, words outside
    16 bits and nonzero padding bits, as the BinaryWeights constructor does."""
    return BinaryWeights(in_dim=in_dim, words=[words]).matrix()[0].tolist()


def _cell_array(cells, dtype: str) -> np.ndarray:
    """cells as a private read-only 2-D array of 16-bit dtype. The one cell
    check: a non-empty rectangular integer matrix inside dtype's range."""
    array = np.array(cells, order="C")
    if array.ndim != 2 or array.size == 0:
        raise ValueError(f"weight matrix must be 2-D and non-empty, got shape {array.shape}")
    if array.dtype != dtype:
        if array.dtype.kind not in "iu":
            raise ValueError(f"weights must be 16-bit integers, got {array.dtype}")
        info = np.iinfo(dtype)
        out_of_range = np.argwhere((array < info.min) | (array > info.max))
        if out_of_range.size:
            j, i = out_of_range[0]
            raise ValueError(f"row {j} holds {array[j, i]} outside [{info.min}, {info.max}]")
        array = array.astype(dtype)
    array.flags.writeable = False
    return array


class _CellMatrix:
    """What both weight formats share: `cells`, the read-only 16-bit memory
    cells, one row per postsynaptic neuron, as the flash image stores them."""

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return same_type and self.in_dim == other.in_dim and np.array_equal(self.cells, other.cells)

    def matrix(self) -> np.ndarray:
        """(out_dim, in_dim) int64 weight matrix, decoded from the cells."""
        return self._narrow().astype(np.int64)

    @property
    def out_dim(self) -> int:
        return len(self.cells)

    @property
    def weight_bytes(self) -> int:
        """Bytes of the flash weight blob, which is `cells.tobytes()`."""
        return self.cells.nbytes

    @cached_property
    def columns(self) -> np.ndarray:
        """`matrix().T` as a read-only C-ordered (in_dim, out_dim) int16 array:
        columns[i][j] is the weight from presynaptic i to neuron j."""
        columns = self._narrow().T.astype(np.int16, order="C")  # no int64 temporary
        columns.flags.writeable = False
        return columns


@dataclass(frozen=True, eq=False)
class BinaryWeights(_CellMatrix):
    """Bit-packed {-1, +1} weight matrix: words[j] is neuron j's packed row,
    a `<u2` array of shape (out_dim, words_per_row(in_dim))."""

    mode: ClassVar[WeightMode] = WeightMode.BINARY
    max_abs: ClassVar[int] = 1  # the largest |weight|
    in_dim: int
    words: np.ndarray
    cells = property(attrgetter("words"))

    def __post_init__(self):
        object.__setattr__(self, "words", _cell_array(self.words, "<u2"))
        per_row = words_per_row(self.in_dim)
        if self.words.shape[1] != per_row:
            raise ValueError(f"rows hold {self.words.shape[1]} words, expected {per_row}")
        tail_bits = self.in_dim & 15
        if tail_bits:
            padded = np.flatnonzero(self.words[:, -1] >> tail_bits)
            if padded.size:
                raise CorruptWeightWord(f"row {padded[0]} has nonzero padding bits")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryWeights":
        if not rows:
            raise ValueError("weight matrix needs at least one row")
        in_dim = len(rows[0])
        for j, row in enumerate(rows):
            if len(row) != in_dim:
                raise ValueError(f"row {j} length {len(row)} != {in_dim}")
        return cls(in_dim=in_dim, words=_pack_signs(rows))

    def _narrow(self) -> np.ndarray:
        """(out_dim, in_dim) int8 matrix of +1/-1 weights, decoded from the words."""
        # Little-endian words viewed as bytes, unpacked LSB first, give bit b
        # of word w at column 16*w + b; int8 signs beat an int64 np.where 10x.
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.in_dim].view(np.int8) * 2 - 1


@dataclass(frozen=True, eq=False)
class Fixed16Weights(_CellMatrix):
    """Dense 16-bit signed weight matrix: rows[j] is neuron j's weights, a
    `<i2` array of shape (out_dim, in_dim)."""

    mode: ClassVar[WeightMode] = WeightMode.FIXED16
    max_abs: ClassVar[int] = 1 << 15  # the largest |weight|, of -32768
    rows: np.ndarray
    cells = property(attrgetter("rows"))

    def __post_init__(self):
        object.__setattr__(self, "rows", _cell_array(self.rows, "<i2"))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Fixed16Weights":
        return cls(rows=rows)

    @property
    def in_dim(self) -> int:
        return self.rows.shape[1]

    def _narrow(self) -> np.ndarray:
        return self.rows


WeightMatrix = Union[BinaryWeights, Fixed16Weights]


def _div_round_half_away(num: int, den: int) -> int:
    """num/den rounded half away from zero; den > 0."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


@dataclass
class LayerConfig:
    """Per-layer parameter memory: dimensions, current scale, firing threshold.

    alpha_raw is an unsigned 8.8 fixed-point scale (256 == 1.0) applied to
    the layer's synaptic current; threshold is a signed 32-bit value in raw
    accumulator units. In binary mode the scale is folded into the
    threshold instead of touching the add/sub datapath; fixed-point models
    are expected to carry the scale inside their weights, so the raw
    threshold is used as-is.
    """

    in_dim: int
    out_dim: int
    alpha_raw: int = 256
    threshold: int = 0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be >= 1")
        if not 1 <= self.alpha_raw <= 0xFFFF:
            raise ValueError("alpha_raw must be in [1, 65535]")
        if not INT32_MIN <= self.threshold <= INT32_MAX:
            raise ValueError("threshold outside signed 32-bit range")

    @property
    def alpha(self) -> float:
        return self.alpha_raw / 256.0

    def effective_threshold(self, mode: WeightMode) -> int:
        """Threshold in the units the accumulator actually sees.

        Binary mode folds the current scale: round(threshold / alpha), done
        in integer arithmetic with ties rounded away from zero. Fixed16
        mode compares against the raw threshold.
        """
        if mode is WeightMode.BINARY:
            return _div_round_half_away(self.threshold * 256, self.alpha_raw)
        return self.threshold


_SLOT_VALUES = np.array([*range(256), NO_SPIKE], dtype=object)  # code -1: the last cell


def slot_values(codes: np.ndarray) -> list:
    """Spike codes in [-1, 255] as the list of Python ints and NO_SPIKE."""
    return _SLOT_VALUES[codes].tolist()


def slot_codes(values: Sequence, t_max: int, kinds=int) -> np.ndarray:
    """int16 codes: a kinds value in [0, t_max - 1] itself, NO_SPIKE -1, else -2."""
    codes = np.fromiter(values, object, len(values))
    codes[~np.fromiter(map(isinstance, values, repeat(kinds)), bool, len(values))] = -2
    codes[(codes < 0) | (codes >= t_max)] = -2  # all ints now; compared as Python ints
    codes[np.fromiter(map(is_, values, repeat(NO_SPIKE)), bool, len(values))] = -1
    return codes.astype(np.int16)


def check_t_max(t_max: int) -> None:
    if not valid_t_max(t_max):
        raise ValueError(f"t_max {t_max} is not a power of two in [1, 256]")


@dataclass(frozen=True, init=False, eq=False)
class SpikeTrain:
    """Per-neuron first-spike times inside a discrete window of t_max steps.

    Each slot is a time in [0, t_max-1] or NO_SPIKE; single-spike coding
    means one slot per neuron is the entire train. The one stored form is
    codes, a read-only int16 array with -1 for NO_SPIKE, as the spike memories
    hold it; times, the slots as a tuple, is derived from it on first read.
    """

    codes: np.ndarray
    t_max: int

    def __init__(self, times: Sequence, t_max: int):
        times = tuple(times)
        self._store(slot_codes(times, t_max), t_max, times)

    @classmethod
    def from_codes(cls, codes: np.ndarray, t_max: int) -> "SpikeTrain":
        """The train of a 1-D integer array of codes (-1 for NO_SPIKE): the
        array path's constructor, with no per-slot type test."""
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be a 1-D integer array, got {codes.ndim}-D {codes.dtype}")
        train = object.__new__(cls)
        train._store(codes, t_max)
        return train

    def _store(self, codes: np.ndarray, t_max: int, times: Optional[tuple] = None) -> None:
        """Keep t_max and a read-only int16 copy of codes after one array-wide check, whose
        ValueError names the first slot outside [-1, t_max - 1], as its time if times are given."""
        check_t_max(t_max)
        last = t_max - 1
        if codes.size and (codes.min() < -1 or codes.max() > last):
            i = int(((codes < -1) | (codes > last)).argmax())
            shown = times[i] if times is not None else int(codes[i])
            raise ValueError(f"spike time {shown!r} at neuron {i} outside [0, {last}]")
        codes = codes.astype(np.int16)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "t_max", t_max)

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return same_type and self.t_max == other.t_max and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.times, self.t_max))

    def __reduce__(self):  # pickle and copy rebuild, so the copy's codes are read-only too
        return type(self).from_codes, (self.codes, self.t_max)

    @cached_property
    def times(self) -> tuple:
        return tuple(slot_values(self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator:
        return iter(self.times)

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.codes >= 0))


@dataclass
class NetworkModel:
    """Whole-network description: weight mode, time window, chained layers."""

    mode: WeightMode
    t_max: int
    layers: list[tuple[LayerConfig, WeightMatrix]]

    def __post_init__(self):
        check_t_max(self.t_max)
        if not self.layers:
            raise ValueError("model needs at least one layer")
        prev_out = None
        for k, (cfg, weights) in enumerate(self.layers):
            if weights.mode is not self.mode:
                raise ValueError(f"layer {k} weights do not match mode {self.mode.name}")
            if weights.in_dim != cfg.in_dim or weights.out_dim != cfg.out_dim:
                raise ValueError(f"layer {k} weight shape disagrees with its config")
            if prev_out is not None and cfg.in_dim != prev_out:
                raise InconsistentDims(
                    f"layer {k} expects {cfg.in_dim} inputs but previous layer emits {prev_out}"
                )
            prev_out = cfg.out_dim

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].out_dim

    def with_t_max(self, t_max: int) -> "NetworkModel":
        """Same topology and weights under a different time window."""
        return NetworkModel(mode=self.mode, t_max=t_max, layers=list(self.layers))


def serialize_model(model: NetworkModel) -> bytes:
    """Emit the flash image bytes for a model (see module docstring for layout)."""
    if len(model.layers) > 255:
        raise ValueError("flash image caps layer count at 255")
    out = bytearray()
    out += FLASH_MAGIC
    out += FLASH_HEADER.pack(FLASH_VERSION, model.mode.value, len(model.layers), model.t_max)
    for cfg, _ in model.layers:
        if cfg.in_dim > 0xFFFF or cfg.out_dim > 0xFFFF:
            raise ValueError("flash image caps layer dimensions at 65535")
        out += FLASH_LAYER.pack(cfg.in_dim, cfg.out_dim, cfg.alpha_raw, cfg.threshold)
    for _, weights in model.layers:
        out += weights.cells.tobytes()
    return bytes(out)


def deserialize_model(data: bytes) -> NetworkModel:
    """Parse a flash image back into a NetworkModel, validating every field."""
    if len(data) < 4 or data[:4] != FLASH_MAGIC:
        raise NotAModelImage("missing SNN1 magic")
    offset = len(FLASH_MAGIC) + FLASH_HEADER.size
    if len(data) < offset:
        raise TruncatedImage("header ends early")
    version, mode_byte, layer_count, t_max = FLASH_HEADER.unpack_from(data, len(FLASH_MAGIC))
    if version != FLASH_VERSION:
        raise UnsupportedVersion(f"format version {version}, expected {FLASH_VERSION}")
    if mode_byte not in (0, 1):
        raise CorruptImage(f"weight mode byte {mode_byte} is neither 0 nor 1")
    if layer_count < 1:
        raise CorruptImage("layer count must be >= 1")
    if not valid_t_max(t_max):
        raise CorruptImage(f"t_max {t_max} is not a power of two in [1, 256]")
    mode = WeightMode(mode_byte)

    configs = []
    for k in range(layer_count):
        if offset + FLASH_LAYER.size > len(data):
            raise TruncatedImage(f"layer record {k} ends early")
        in_dim, out_dim, alpha_raw, threshold = FLASH_LAYER.unpack_from(data, offset)
        offset += FLASH_LAYER.size
        if in_dim < 1 or out_dim < 1:
            raise CorruptImage(f"layer {k} declares a zero dimension")
        if alpha_raw < 1:
            raise CorruptImage(f"layer {k} declares alpha 0")
        configs.append(LayerConfig(in_dim, out_dim, alpha_raw, threshold))
    for k in range(1, layer_count):
        if configs[k].in_dim != configs[k - 1].out_dim:
            raise InconsistentDims(
                f"layer {k} expects {configs[k].in_dim} inputs but layer {k - 1} "
                f"emits {configs[k - 1].out_dim}"
            )

    binary = mode is WeightMode.BINARY
    dtype = "<u2" if binary else "<i2"
    layers = []
    for k, cfg in enumerate(configs):
        n = words_per_row(cfg.in_dim) if binary else cfg.in_dim  # 16-bit cells per row
        end = offset + cfg.out_dim * n * 2
        if end > len(data):
            raise TruncatedImage(f"weight blob {k} ends early")
        cells = np.frombuffer(data, dtype, cfg.out_dim * n, offset).reshape(cfg.out_dim, n)
        layers.append((cfg, BinaryWeights(cfg.in_dim, cells) if binary else Fixed16Weights(cells)))
        offset = end

    if offset != len(data):
        raise CorruptImage(f"{len(data) - offset} trailing bytes after last weight blob")
    return NetworkModel(mode=mode, t_max=t_max, layers=layers)
