"""Intensity-to-latency spike encoding.

An 8-bit intensity becomes a first-spike time by bitwise inversion, so
brighter pixels spike earlier. Zero-intensity pixels carry no usable
timing information and emit no spike at all; the last-timestep-spike
variant is kept behind a switch for equivalence checks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import DimensionMismatch
from .model import NO_SPIKE, SpikeTrain, valid_t_max

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
    the intensity first so the inverted code still fits.
    """
    if not valid_t_max(t_max):
        raise ValueError(f"t_max {t_max} is not a power of two in [1, 256]")
    if expected_dim is not None and len(frame) != expected_dim:
        raise DimensionMismatch(f"frame holds {len(frame)} pixels, expected {expected_dim}")
    shift = 8 - (t_max.bit_length() - 1)
    last = t_max - 1
    times = []
    for i, p in enumerate(frame):
        if not 0 <= p <= 255:
            raise ValueError(f"pixel {p!r} at index {i} outside [0, 255]")
        if p == 0:
            times.append(last if spike_on_zero else NO_SPIKE)
        else:
            times.append(last - (p >> shift))
    return SpikeTrain(tuple(times), t_max)
