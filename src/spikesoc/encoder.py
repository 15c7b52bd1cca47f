"""Intensity-to-latency spike encoding, as one gather from a code table.

An 8-bit intensity becomes a first-spike time by bitwise inversion, so
brighter pixels spike earlier. Zero-intensity pixels carry no usable
timing information and emit no spike at all.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import SpikeTrain, check_t_max


def encode_ttfs(frame: bytes, t_max: int) -> SpikeTrain:
    """Map 8-bit intensities to first-spike times inside a t_max window.

    t_max must be a power of two in [1, 256]. At t_max = 256 the time is the exact
    8-bit complement (255 - pixel); smaller windows right-shift the intensity first so
    the inverted code still fits. A frame is the SoC's pixel bytes, `bytes` or
    `bytearray` (anything else raises TypeError), of any length: the first layer checks it.
    """
    check_t_max(t_max)
    if not isinstance(frame, (bytes, bytearray)):
        raise TypeError(f"a frame is pixel bytes, got {type(frame).__name__}")
    codes = _code_table(t_max)[np.frombuffer(frame, np.uint8)]
    return SpikeTrain(codes, t_max)


@lru_cache(maxsize=None)
def _code_table(t_max: int) -> np.ndarray:
    """The int16 code of every intensity, so a frame is one gather."""
    shift = 9 - t_max.bit_length()  # 8 - log2(t_max)
    table = (t_max - 1 - (np.arange(256) >> shift)).astype(np.int16)
    table[0] = -1
    return table
