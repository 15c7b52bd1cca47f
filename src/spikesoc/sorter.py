"""Spike sorting: group active events by timestep before accumulation.

Implemented as a counting sort over t_max fixed buckets, the hardware
friendly form: latency is t_max + number of events regardless of input
order. The non-empty buckets are the datapath's queue: one
(time, neuron indices) group per timestep that carries events, in
ascending time, with each group's indices ascending.
"""

from __future__ import annotations

from .model import NO_SPIKE, SpikeTrain


def sort_spikes(train: SpikeTrain) -> list[tuple[int, list[int]]]:
    """Bucket the train's active spikes by time; NO_SPIKE slots are dropped."""
    buckets = [[] for _ in range(train.t_max)]
    for idx, t in enumerate(train.times):
        if t is not NO_SPIKE:
            buckets[t].append(idx)
    return [(t, bucket) for t, bucket in enumerate(buckets) if bucket]
