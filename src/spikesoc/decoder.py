"""Output decoding: earliest spike wins; a silent layer falls back to the
largest membrane potential. Ties break toward the lowest neuron index on
both paths so results are reproducible."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch
from .model import NO_SPIKE


def decode(fire_codes: np.ndarray, potentials: Sequence[int]) -> tuple[int, Optional[int]]:
    """Return (class index, decision time) of the output layer's int16 fire
    codes (-1: no spike) and potentials; decision time is NO_SPIKE on fallback."""
    if len(fire_codes) == 0 or len(fire_codes) != len(potentials):
        raise DimensionMismatch(f"{len(fire_codes)} fire times vs {len(potentials)} potentials")
    codes = fire_codes.view("u2")  # NO_SPIKE's -1 reads 65535, after every time
    j = int(codes.argmin())  # the earliest time, then the lowest index
    if codes[j] != 0xFFFF:
        return j, int(codes[j])
    return max(range(len(potentials)), key=potentials.__getitem__), NO_SPIKE  # the first maximum
