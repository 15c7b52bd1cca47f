"""Spike sorting: order active events by timestep before accumulation.

The hardware is a counting sort over t_max fixed buckets (latency t_max +
events, which the cycle model charges). The simulator gets the same order
from one stable argsort of the int16 codes, which numpy does as a radix
sort, and the bucket sizes from one bincount.
"""

from __future__ import annotations

import numpy as np


def sort_spikes(codes: np.ndarray, t_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datapath's queue of a layer's int16 spike codes in [-1, t_max - 1]
    (-1: no spike), as `SpikeTrain.codes` and `NeuronState.fire_codes` hold
    them: events (neuron indices in ascending time, ascending index within a
    time), group_times (the times that carry events, ascending) and group_ends
    (the position of each such time's last event)."""
    buckets = np.bincount(codes + 1, minlength=t_max + 1)  # bucket 0: NO_SPIKE
    events = codes.argsort(kind="stable")[buckets[0] :]
    group_times = buckets[1:].nonzero()[0]
    return events, group_times, buckets[1:][group_times].cumsum() - 1
