"""Spike sorting: order active events by timestep before accumulation.

The hardware is a counting sort over t_max fixed buckets (latency t_max +
events, which the cycle model charges). The simulator gets the same order
from one stable argsort of the int16 codes, which numpy does as a radix
sort, and the bucket sizes from one bincount, whose failure on a negative
count is the one check that no code lies below -1. core.run_layer sorts
each layer's codes; the buckets end at the latest code, so it needs no t_max.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpikeCode


def sort_spikes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datapath's queue of a layer's int16 spike codes, -1 for no spike:
    the encoder's `SpikeTrain.codes` or the previous layer's
    `NeuronState.fire_codes`. Returns events (neuron indices in ascending
    time, ascending index within a time), group_times (the times that carry
    events, ascending) and group_ends (the position of each such time's last
    event). A code below -1 raises InvalidSpikeCode naming the first one."""
    try:
        # bucket 0: NO_SPIKE; shifted in intp, which bincount reads, so no int16 code wraps
        buckets = np.bincount(np.add(codes, 1, dtype=np.intp), minlength=1)
    except ValueError:  # a negative bin: some code is below -1
        if not (codes < -1).any():
            raise
        raise InvalidSpikeCode.first_in(codes) from None
    events = codes.argsort(kind="stable")[buckets[0] :]
    group_times = buckets[1:].nonzero()[0]
    buckets[0] = -1  # so the running sum at each time is the position of its last event
    return events, group_times, np.add.accumulate(buckets)[1:][group_times]
