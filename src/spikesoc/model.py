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

import operator
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import (
    CorruptImage,
    CorruptWeightWord,
    DimensionMismatch,
    InconsistentDims,
    InvalidSpikeCode,
    InvalidWeight,
    NotAModelImage,
    TruncatedImage,
    UnsupportedVersion,
)

# "No spike in the window" in the list views of spike codes (slot_values,
# NeuronState.fire_times) and as a fallback decision time; the codes hold -1.
NO_SPIKE = None

FLASH_MAGIC = b"SNN1"
FLASH_VERSION = 1
FLASH_HEADER = struct.Struct("<HBBH")  # after the magic: version, mode, layer count, t_max
FLASH_LAYER = struct.Struct("<HHHi")  # in_dim, out_dim, alpha_raw, threshold

INT8_MAX = (1 << 7) - 1
INT16_MAX = (1 << 15) - 1
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

_WEIGHTS_PER_WORD = 16  # binary weights per packed 16-bit word


class WeightMode(Enum):
    """Synaptic weight representation selected for a whole network."""

    BINARY = 0   # weights in {-1, +1}, bit-packed
    FIXED16 = 1  # 16-bit two's-complement weights


def check_t_max(t_max: int) -> None:
    """A time window is a power of two in [1, 256], so spike codes fit one byte
    and the encoder's inversion is a plain right shift."""
    if not (1 <= t_max <= 256 and not t_max & (t_max - 1)):
        raise ValueError(f"t_max {t_max} is not a power of two in [1, 256]")


def _check_codes_array(codes, error: type[Exception]) -> None:
    """Raise error unless codes are a 1-D integer np.ndarray, the one form of spike codes."""
    if not isinstance(codes, np.ndarray) or codes.ndim != 1 or codes.dtype.kind not in "iu":
        got = f"{codes.ndim}-D {codes.dtype}" if isinstance(codes, np.ndarray) else type(codes).__name__
        raise error(f"codes must be a 1-D integer array, got {got}")


def check_layer_input(codes, layer: LayerConfig, weights) -> None:
    """A layer's input as run_layer and dense_layer_sweep check it first: weights of its
    shape and a 1-D integer array of in_dim codes, each -1 (no spike) or a time in [0, 255]."""
    _check_codes_array(codes, InvalidSpikeCode)
    if len(codes) != layer.in_dim:
        raise DimensionMismatch(f"train length {len(codes)} != layer in_dim {layer.in_dim}")
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    if codes[codes.argmin()] < -1 or codes[codes.argmax()] > 255:  # argmin and argmax: see SpikeTrain
        i = int(((codes < -1) | (codes > 255)).argmax())
        raise InvalidSpikeCode(f"input {i} has spike code {codes[i]}, outside [-1, 255]")


def words_per_row(in_dim: int) -> int:
    return (in_dim + _WEIGHTS_PER_WORD - 1) // _WEIGHTS_PER_WORD


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


def _binary_weight(i: int, w) -> int:
    """The cell w at index i of a row as the int +1 or -1; InvalidWeight otherwise."""
    try:
        sign = operator.index(w)
    except TypeError:  # not an integer
        sign = None
    if sign not in (1, -1):
        raise InvalidWeight(f"weight at index {i} is {w!r}, expected -1 or +1")
    return sign


class _CellMatrix:
    """What both weight formats share: `cells`, the read-only 16-bit memory
    cells, one row per postsynaptic neuron, as the flash image stores them."""

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return same_type and self.in_dim == other.in_dim and np.array_equal(self.cells, other.cells)

    def matrix(self) -> np.ndarray:
        """(out_dim, in_dim) int64 weights from the cells, in Fortran order: `.T` is C-contiguous."""
        return self._narrow().astype(np.int64, order="F")

    @property
    def out_dim(self) -> int:
        return len(self.cells)

    @cached_property
    def columns(self) -> np.ndarray:
        """`matrix().T` as a read-only C-ordered (in_dim, out_dim) array of the weights'
        narrowest dtype, int8 binary (a byte per weight) or int16 fixed16: columns[i][j] is
        the weight from presynaptic i to neuron j. The blocked scan sums b of its rows in
        int8 while b * max_abs <= INT8_MAX, and widens them to its accumulator otherwise."""
        columns = self._narrow().T.copy()
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
        tail_bits, last_words = self.in_dim & 15, self.words[:, -1]
        if tail_bits and last_words[last_words.argmax()] >> tail_bits:  # argmax: a max costs 4x
            padded = np.flatnonzero(last_words >> tail_bits)
            raise CorruptWeightWord(f"row {padded[0]} has nonzero padding bits")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryWeights":
        """Pack equal-length rows of integer {-1, +1} weights (LSB-first, +1 -> 1), the inverse of matrix()."""
        if not rows:
            raise ValueError("weight matrix needs at least one row")
        in_dim = len(rows[0])
        for j, row in enumerate(rows):
            if len(row) != in_dim:
                raise ValueError(f"row {j} length {len(row)} != {in_dim}")
        if in_dim < 1:
            raise ValueError("weight row must hold at least one weight")
        try:
            signs = np.array(rows)
        except ValueError:  # cells of unequal shapes
            signs = np.empty((0, 0, 0))
        # A 2-D integer array of +1 and -1 packs as it is. Anything else, such as cells
        # that are sequences (signs 3-D) or floats, is read cell by cell, where a cell
        # that is not an integer +1 or -1 raises.
        if signs.ndim != 2 or signs.dtype.kind not in "iu" or not (abs(signs) == 1).all():
            signs = np.array([[_binary_weight(i, w) for i, w in enumerate(row)] for row in rows])
        packed = np.packbits(signs == 1, axis=1, bitorder="little")
        return cls(in_dim, np.pad(packed, ((0, 0), (0, packed.shape[1] % 2))).view("<u2"))

    def _narrow(self) -> np.ndarray:
        """(out_dim, in_dim) int8 matrix of +1/-1 weights, decoded from the words."""
        # Little-endian words viewed as bytes, unpacked LSB first, give bit b
        # of word w at column 16*w + b; int8 signs beat an int64 np.where 10x.
        # In place: a fresh 2-D temporary per step costs more than the step itself.
        signs = np.unpackbits(self.words.view(np.uint8), axis=1, count=self.in_dim, bitorder="little")
        signs += signs
        signs -= 1  # bits 0 and 1 become 255 and 1, int8 -1 and +1
        return signs.view(np.int8)


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


@dataclass(frozen=True)
class LayerConfig:
    """Per-layer parameter memory: dimensions, current scale, firing threshold.

    alpha_raw is an unsigned 8.8 fixed-point scale (256 == 1.0) applied to
    the layer's synaptic current; threshold is a signed 32-bit value in raw
    accumulator units. In binary mode the scale is folded into the
    threshold instead of touching the add/sub datapath; fixed-point models
    are expected to carry the scale inside their weights, so the raw
    threshold is used as-is. Every field is an integer, kept as a Python int,
    and both dimensions are in [1, 65535], the u16 fields of the flash layer
    record, so every layer that can be built can be flashed; it is frozen, so
    a config keeps the values it was checked with.
    These checks are also deserialize_model's, which makes none of its own.
    """

    in_dim: int
    out_dim: int
    alpha_raw: int = 256
    threshold: int = 0

    def __post_init__(self):
        for name in ("in_dim", "out_dim", "alpha_raw", "threshold"):
            value = getattr(self, name)
            if type(value) is not int:  # kept as a Python int: a numpy int32 threshold would wrap
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not (1 <= self.in_dim <= 0xFFFF and 1 <= self.out_dim <= 0xFFFF):
            raise ValueError("layer dimensions must be in [1, 65535]")
        if not 1 <= self.alpha_raw <= 0xFFFF:
            raise ValueError("alpha_raw must be in [1, 65535]")
        if not INT32_MIN <= self.threshold <= INT32_MAX:
            raise ValueError("threshold outside signed 32-bit range")

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


@dataclass(frozen=True, eq=False)
class SpikeTrain:
    """Per-neuron first-spike times inside a window of t_max steps, as the spike
    memories hold them: codes, a private read-only int16 copy of a 1-D integer
    array, one slot per neuron, each a time in [0, t_max-1] or -1 for NO_SPIKE."""

    codes: np.ndarray
    t_max: int

    def __post_init__(self):
        check_t_max(self.t_max)
        codes = self.codes
        _check_codes_array(codes, ValueError)
        # argmin and argmax, not min and max: on a short train a reduction costs 4x as much
        if codes.size and (codes[codes.argmin()] < -1 or codes[codes.argmax()] >= self.t_max):
            i = int(((codes < -1) | (codes >= self.t_max)).argmax())
            raise ValueError(f"spike time {int(codes[i])} at neuron {i} outside [0, {self.t_max - 1}]")
        codes = codes.astype(np.int16)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return same_type and self.t_max == other.t_max and np.array_equal(self.codes, other.codes)

    def __reduce__(self):  # pickle and copy rebuild, so the copy's codes are read-only too
        return type(self), (self.codes, self.t_max)

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.codes >= 0))


@dataclass(frozen=True)
class NetworkModel:
    """Whole-network description: weight mode, time window, chained layers,
    1 to 255 of them (the flash header's u8 layer count). Frozen, with the
    layers stored as a tuple of (config, weights) pairs, so a model that was
    built can always be flashed. deserialize_model leaves t_max, the layer
    count and the chaining of the layers to these checks."""

    mode: WeightMode
    t_max: int
    layers: tuple[tuple[LayerConfig, WeightMatrix], ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(map(tuple, self.layers)))
        check_t_max(self.t_max)
        if not 1 <= len(self.layers) <= 255:
            raise ValueError(f"model needs 1 to 255 layers, got {len(self.layers)}")
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


def serialize_model(model: NetworkModel) -> bytes:
    """Emit the flash image bytes for a model (see module docstring for layout)."""
    out = bytearray()
    out += FLASH_MAGIC
    out += FLASH_HEADER.pack(FLASH_VERSION, model.mode.value, len(model.layers), model.t_max)
    for cfg, _ in model.layers:
        out += FLASH_LAYER.pack(cfg.in_dim, cfg.out_dim, cfg.alpha_raw, cfg.threshold)
    for _, weights in model.layers:
        out += weights.cells.tobytes()
    return bytes(out)


def deserialize_model(data: bytes) -> NetworkModel:
    """Parse a flash image back into a NetworkModel.

    The parser checks what only the bytes carry: magic, version, the length of
    each part, no trailing bytes. Each value is checked once, by its type, whose
    ValueError is raised here as CorruptImage: WeightMode the mode byte,
    LayerConfig dimensions and alpha, NetworkModel t_max, the layer count and
    the chaining (InconsistentDims), BinaryWeights the padding (CorruptWeightWord).
    An image that is not `bytes` or `bytearray` raises TypeError.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"a flash image is bytes, got {type(data).__name__}")
    if len(data) < 4 or data[:4] != FLASH_MAGIC:
        raise NotAModelImage("missing SNN1 magic")
    records = len(FLASH_MAGIC) + FLASH_HEADER.size  # where the layer records start
    if len(data) < records:
        raise TruncatedImage("header ends early")
    version, mode_byte, layer_count, t_max = FLASH_HEADER.unpack_from(data, len(FLASH_MAGIC))
    if version != FLASH_VERSION:
        raise UnsupportedVersion(f"format version {version}, expected {FLASH_VERSION}")
    offset = records + layer_count * FLASH_LAYER.size  # the weight blobs follow, in layer order
    if offset > len(data):
        raise TruncatedImage(f"{layer_count} layer records end early")
    try:
        mode = WeightMode(mode_byte)
        configs = [LayerConfig(*fields) for fields in FLASH_LAYER.iter_unpack(data[records:offset])]
    except ValueError as error:  # a value its type rejects
        raise CorruptImage(str(error)) from None
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
    try:
        return NetworkModel(mode=mode, t_max=t_max, layers=layers)
    except ValueError as error:
        raise CorruptImage(str(error)) from None
