"""Output decoding: earliest spike wins; a silent layer falls back to the
largest membrane potential. Ties break toward the lowest neuron index on
both paths so results are reproducible."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DimensionMismatch
from .model import NO_SPIKE, SpikeTrain


def decode(fire_times: SpikeTrain, potentials: Sequence[int]) -> tuple[int, Optional[int]]:
    """Return (class index, decision time); decision time is NO_SPIKE on fallback."""
    if len(fire_times) == 0 or len(fire_times) != len(potentials):
        raise DimensionMismatch(f"{len(fire_times)} fire times vs {len(potentials)} potentials")
    codes = fire_times.codes.view("u2")  # NO_SPIKE's -1 reads 65535, after every time
    j = int(codes.argmin())  # the earliest time, then the lowest index
    if codes[j] != 0xFFFF:
        return j, int(codes[j])
    return max(range(len(potentials)), key=potentials.__getitem__), NO_SPIKE  # the first maximum
