"""Intensity-to-latency spike encoding, as one gather from a code table.

An 8-bit intensity becomes a first-spike time by bitwise inversion, so
brighter pixels spike earlier. Zero-intensity pixels carry no usable
timing information and emit no spike at all; the last-timestep-spike
variant is kept behind a switch for equivalence checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .model import SpikeTrain, check_t_max

InputFrame = Union[bytes, bytearray, Sequence[int]]


def encode_ttfs(
    frame: InputFrame,
    t_max: int,
    *,
    spike_on_zero: bool = False,
    expected_dim: Optional[int] = None,
) -> SpikeTrain:
    """Map 8-bit intensities to first-spike times inside a t_max window.

    t_max must be a power of two in [1, 256]. At t_max = 256 the time is
    the exact 8-bit complement (255 - pixel); smaller windows right-shift
    the intensity first so the inverted code still fits. A pixel that is
    not an integer in [0, 255] raises ValueError naming the first one.
    """
    check_t_max(t_max)
    if expected_dim is not None and len(frame) != expected_dim:
        raise DimensionMismatch(f"frame holds {len(frame)} pixels, expected {expected_dim}")
    if isinstance(frame, (bytes, bytearray)):
        pixels = np.frombuffer(frame, np.uint8)
    else:
        ok = [isinstance(p, (int, np.integer)) and 0 <= p <= 255 for p in frame]  # None: not an int
        if not all(ok):
            i = ok.index(False)
            raise ValueError(f"pixel {frame[i]!r} at index {i} outside [0, 255]")
        pixels = np.array(frame, np.intp)
    codes = _code_table(t_max, spike_on_zero)[pixels]
    return SpikeTrain(codes, t_max)


@lru_cache(maxsize=None)
def _code_table(t_max: int, spike_on_zero: bool) -> np.ndarray:
    """The int16 code of every intensity, so a frame is one gather."""
    shift = 9 - t_max.bit_length()  # 8 - log2(t_max)
    table = (t_max - 1 - (np.arange(256) >> shift)).astype(np.int16)
    table[0] = t_max - 1 if spike_on_zero else -1
    return table
