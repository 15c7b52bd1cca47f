"""Spike sorting: order active events by timestep before accumulation.

The hardware is a counting sort over t_max fixed buckets (latency t_max +
events, which the cycle model charges). The simulator gets the same order
from one stable argsort of the codes, which numpy does as a radix sort for
int16, and the bucket sizes from one bincount. core.run_layer sorts each
layer's codes after model.check_layer_input has found them in [-1, 255], so
the sorter checks nothing; its buckets end at the latest code, so it needs no t_max.
"""

from __future__ import annotations

import numpy as np


def sort_spikes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datapath's queue of a layer's spike codes, each in [-1, 255] with -1
    for no spike: the encoder's `SpikeTrain.codes` or the previous layer's
    `NeuronState.fire_codes`. Returns events (neuron indices in ascending
    time, ascending index within a time), group_times (the times that carry
    events, ascending) and group_ends (the position of each such time's last
    event)."""
    # bucket 0: NO_SPIKE; shifted in intp, which bincount reads, so a uint8 code 255 does not wrap
    buckets = np.bincount(np.add(codes, 1, dtype=np.intp), minlength=1)
    events = codes.argsort(kind="stable")[buckets[0] :]
    group_times = buckets[1:].nonzero()[0]
    buckets[0] = -1  # so the running sum at each time is the position of its last event
    return events, group_times, np.add.accumulate(buckets)[1:][group_times]
