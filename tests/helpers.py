"""Shared generators and independent reference implementations for the suite."""

import copy
import pickle
import random
from dataclasses import dataclass

import numpy as np

from spikesoc import (
    NO_SPIKE,
    BinaryWeights,
    Fixed16Weights,
    InferenceResult,
    LayerConfig,
    LayerTally,
    NetworkModel,
    SpikeTrain,
    WeightMode,
    run_network,
    serialize_model,
)
from spikesoc.core import NeuronState, first_divergence
from spikesoc.errors import AccumulatorOverflow, DimensionMismatch
from spikesoc.model import INT32_MAX, INT32_MIN

T_MAX_CHOICES = (16, 64, 256)

# Each way to copy a value: a pickle round trip, copy.deepcopy and copy.copy.
COPIES = (lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy, copy.copy)


def random_binary_weights(rng, in_dim, out_dim):
    rows = [[rng.choice((-1, 1)) for _ in range(in_dim)] for _ in range(out_dim)]
    return BinaryWeights.from_rows(rows)


def random_fixed_weights(rng, in_dim, out_dim, magnitude=None):
    if magnitude is None:
        magnitude = rng.choice((8, 128, 1024))
    rows = [
        [rng.randint(-magnitude, magnitude) for _ in range(in_dim)]
        for _ in range(out_dim)
    ]
    return Fixed16Weights.from_rows(rows)


def random_layer(rng, in_dim, out_dim, mode):
    """Layer with a threshold biased toward actually firing."""
    alpha_raw = 256 if rng.random() < 0.5 else rng.randint(64, 1024)
    if mode is WeightMode.BINARY:
        eff_target = rng.randint(-3, max(2, in_dim // 2))
        threshold = round(eff_target * alpha_raw / 256)
        weights = random_binary_weights(rng, in_dim, out_dim)
    else:
        magnitude = rng.choice((8, 128, 1024))
        threshold = rng.randint(-2 * magnitude, max(2, (in_dim * magnitude) // 3))
        weights = random_fixed_weights(rng, in_dim, out_dim, magnitude)
    return LayerConfig(in_dim, out_dim, alpha_raw, threshold), weights


def random_model(rng, *, mode=None, t_max=None, max_layers=3, max_dim=64):
    if mode is None:
        mode = rng.choice((WeightMode.BINARY, WeightMode.FIXED16))
    if t_max is None:
        t_max = rng.choice(T_MAX_CHOICES)
    n_layers = rng.randint(1, max_layers)
    dims = [rng.randint(1, max_dim) for _ in range(n_layers + 1)]
    layers = [
        random_layer(rng, dims[k], dims[k + 1], mode) for k in range(n_layers)
    ]
    return NetworkModel(mode=mode, t_max=t_max, layers=layers)


def random_frame(rng, n, zero_fraction=None):
    """Uniform pixels; half the frames get extra zero pixels so the
    zero-pixel encoding convention is actually exercised."""
    if zero_fraction is None:
        zero_fraction = 0.1 if rng.random() < 0.5 else 0.0
    return bytes(
        0 if rng.random() < zero_fraction else rng.randint(0, 255) for _ in range(n)
    )


def one_hot_output_model(out_dim):
    """1-input fixed16 net where only the last output neuron has weight +1,
    so a bright pixel decides class out_dim - 1 at time 0."""
    rows = [[0]] * (out_dim - 1) + [[1]]
    return NetworkModel(
        mode=WeightMode.FIXED16,
        t_max=256,
        layers=[(LayerConfig(1, out_dim, 256, 1), Fixed16Weights.from_rows(rows))],
    )


def image_with_t_max(model, t_max):
    """The model's flash image with its t_max field (offset 8, u16) overwritten."""
    image = bytearray(serialize_model(model))
    image[8:10] = t_max.to_bytes(2, "little")
    return bytes(image)


@dataclass
class Instance:
    model: NetworkModel
    frame: bytes
    default: InferenceResult  # early stop on, zero pixels silent


def random_instance(rng):
    model = random_model(rng)
    frame = random_frame(rng, model.input_dim)
    return Instance(model=model, frame=frame, default=run_network(model, frame))


def conditioned_instance(rng, max_attempts=500):
    """Instance whose decision is an output spike strictly before the last
    timestep, so events added at the last timestep cannot precede it."""
    for _ in range(max_attempts):
        inst = random_instance(rng)
        t = inst.default.decision_time
        if t is not None and t < inst.model.t_max - 1:
            return inst
    raise RuntimeError("could not draw a conditioned instance")


def reference_encode(frame, t_max, *, spike_on_zero=False):
    """The encoder one pixel at a time: the spike times encode_ttfs(frame,
    t_max).times must equal. Raises ValueError for the first pixel outside
    [0, 255] (a non-integer pixel fails on the shift instead)."""
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
    return tuple(times)


def reference_train_check(times, t_max):
    """The SpikeTrain slot check one slot at a time: raises the ValueError
    SpikeTrain(times, t_max) raises, for the first slot that is neither
    NO_SPIKE nor an int in [0, t_max - 1]."""
    for i, t in enumerate(times):
        if t is NO_SPIKE:
            continue
        if not isinstance(t, int) or not 0 <= t < t_max:
            raise ValueError(f"spike time {t!r} at neuron {i} outside [0, {t_max - 1}]")


def as_queue(groups):
    """(time, indices) timestep groups as the arrays sort_spikes returns
    and run_layer takes: (events, group_times, group_ends)."""
    events = np.array([i for _, indices in groups for i in indices], dtype=np.intp)
    group_times = np.array([t for t, _ in groups], dtype=np.intp)
    group_ends = np.cumsum([len(indices) for _, indices in groups], dtype=np.intp) - 1
    return events, group_times, group_ends


def as_groups(events, group_times, group_ends):
    """The inverse of as_queue: one (time, indices) group per group time."""
    starts = [0, *(group_ends[:-1] + 1).tolist()]
    return [
        (t, events[start : end + 1].tolist())
        for t, start, end in zip(group_times.tolist(), starts, group_ends.tolist())
    ]


def reference_sort(train: SpikeTrain):
    """Insertion sort of active events by (time, index); deliberately naive."""
    out = []
    for idx, t in enumerate(train.times):
        if t is NO_SPIKE:
            continue
        k = len(out)
        while k > 0 and (out[k - 1][1], out[k - 1][0]) > (t, idx):
            k -= 1
        out.insert(k, (idx, t))
    return out


def truncate_after(groups, cutoff):
    """Timestep groups at or before cutoff.

    The specification of run_layer's stop_at_first_fire: once a decision
    time is known, later events cannot change the outcome and are dropped
    unprocessed.
    """
    return [(t, indices) for t, indices in groups if t <= cutoff]


def reference_run_layer(groups, layer, weights, *, stop_at_first_fire=False):
    """The executable specification of run_layer: one event at a time.

    Each event adds its weight column into every unfired neuron, then the
    int32 overflow check; each group ends with one fire check in ascending
    neuron order. Groups after every neuron has fired are skipped, and with
    stop_at_first_fire the layer stops after the first group that fires.
    """
    if weights.in_dim != layer.in_dim or weights.out_dim != layer.out_dim:
        raise DimensionMismatch("weight shape disagrees with layer config")
    for _, indices in groups:
        if max(indices) >= layer.in_dim:
            raise DimensionMismatch(
                f"event index {max(indices)} >= layer in_dim {layer.in_dim}"
            )
    binary = weights.mode is WeightMode.BINARY
    threshold = layer.effective_threshold(weights.mode)
    columns = weights.matrix().T.tolist()
    potentials = [0] * layer.out_dim
    fire_times = [NO_SPIKE] * layer.out_dim
    unfired = list(range(layer.out_dim))
    processed = additions = subtractions = multiplications = 0
    for t, indices in groups:
        if not unfired:
            break
        before = sum(potentials)
        for i in indices:
            column = columns[i]
            for j in unfired:
                potentials[j] += column[j]
            if min(potentials) < INT32_MIN or max(potentials) > INT32_MAX:
                raise AccumulatorOverflow(
                    f"event {i} at time {t} took an accumulator out of 32-bit range"
                )
        touched = len(unfired) * len(indices)
        if binary:
            # Fired neurons are frozen, so the potentials' sum moved by the
            # net of the +-1 weights added, which is adds - subs.
            adds = (touched + sum(potentials) - before) // 2
            additions += adds
            subtractions += touched - adds
        else:
            multiplications += touched
        processed += len(indices)
        newly = [j for j in unfired if potentials[j] >= threshold]
        if newly:
            for j in newly:
                fire_times[j] = t
            unfired = [j for j in unfired if fire_times[j] is NO_SPIKE]
            if stop_at_first_fire:
                break
    tally = LayerTally(
        layer.in_dim,
        layer.out_dim,
        events_sorted=sum(len(indices) for _, indices in groups),
        events_processed=processed,
        additions=additions,
        subtractions=subtractions,
        multiplications=multiplications,
    )
    fire_codes = np.array([-1 if t is NO_SPIKE else t for t in fire_times], np.int16)
    return NeuronState(potentials, fire_codes), tally


def dense_potentials(rows, arrived_indices):
    """Plain nested-loop accumulation of the given events, no thresholds."""
    out = []
    for row in rows:
        out.append(sum(row[i] for i in arrived_indices))
    return out


def fired_flags(state: NeuronState):
    return [t is not NO_SPIKE for t in state.fire_times]


def assert_same_outcome(a: InferenceResult, b: InferenceResult):
    assert a.predicted == b.predicted
    assert a.decision_time == b.decision_time


def assert_same_state(a: InferenceResult, b: InferenceResult):
    divergence = first_divergence(a, b)
    assert divergence is None, divergence
    assert_same_outcome(a, b)
    assert len(a.layer_trains) == len(b.layer_trains)
    for ta, tb in zip(a.layer_trains, b.layer_trains):
        assert ta.times == tb.times
        assert ta.t_max == tb.t_max
    for sa, sb in zip(a.layer_states, b.layer_states):
        assert sa.potentials == sb.potentials
        assert sa.fire_times == sb.fire_times
        assert fired_flags(sa) == fired_flags(sb)


def make_rng(seed):
    return random.Random(seed)
