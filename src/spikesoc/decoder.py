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
    fired = [(t, j) for j, t in enumerate(fire_times) if t is not NO_SPIKE]
    if fired:
        t, j = min(fired)  # the earliest time, then the lowest index
        return j, t
    return max(range(len(potentials)), key=potentials.__getitem__), NO_SPIKE  # the first maximum
