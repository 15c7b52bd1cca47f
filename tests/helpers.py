"""Shared generators and independent reference implementations for the suite."""

import copy
import pickle
import random
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

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
    core,
    oracle,
    run_network,
    serialize_model,
)
from spikesoc.core import NeuronState, first_divergence
from spikesoc.encoder import encode_ttfs
from spikesoc.errors import DimensionMismatch
from spikesoc.model import INT32_MAX, INT32_MIN, slot_values

T_MAX_CHOICES = (16, 64, 256)

# Each way to copy a value: a pickle round trip, copy.deepcopy and copy.copy.
COPIES = (lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy, copy.copy)


def _draws_below(rng, n, count):
    """count draws of rng.randrange(n), taken from rng's stream as CPython
    3.11's Random._randbelow takes them (a k-bit word, k = n.bit_length(),
    redrawn while it is n or more), at about half the cost of randrange."""
    getrandbits, k = rng.getrandbits, n.bit_length()
    draws = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r)
    return draws


def random_binary_weights(rng, in_dim, out_dim):
    signs = np.array(_draws_below(rng, 2, in_dim * out_dim)) * 2 - 1  # rng.choice((-1, 1)) each
    return BinaryWeights.from_rows(signs.reshape(out_dim, in_dim).tolist())


def pack_row(row):
    """One row of {-1, +1} weights as its packed 16-bit words, a list of ints."""
    return BinaryWeights.from_rows([row]).words[0].tolist()


def unpack_row(words, in_dim):
    """Packed words back to the row of in_dim {-1, +1} weights; the
    BinaryWeights constructor rejects bad word counts, values and padding."""
    return BinaryWeights(in_dim, [words]).matrix()[0].tolist()


def random_fixed_weights(rng, in_dim, out_dim, magnitude=None):
    if magnitude is None:
        magnitude = rng.choice((8, 128, 1024))
    cells = np.array(_draws_below(rng, 2 * magnitude + 1, in_dim * out_dim)) - magnitude  # rng.randint(-m, m) each
    return Fixed16Weights(cells.reshape(out_dim, in_dim))


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
    random, getrandbits = rng.random, rng.getrandbits
    pixels = bytearray(n)
    for i in range(n):
        if random() >= zero_fraction:  # else the pixel stays 0
            p = getrandbits(9)  # rng.randint(0, 255), as _draws_below(rng, 256, 1) draws it
            while p >= 256:
                p = getrandbits(9)
            pixels[i] = p
    return bytes(pixels)


def one_hot_output_model(out_dim):
    """1-input fixed16 net where only the last output neuron has weight +1,
    so a bright pixel decides class out_dim - 1 at time 0."""
    rows = [[0]] * (out_dim - 1) + [[1]]
    return NetworkModel(
        mode=WeightMode.FIXED16,
        t_max=256,
        layers=[(LayerConfig(1, out_dim, 256, 1), Fixed16Weights(rows))],
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
    """The encoder one pixel at a time: the spike times that
    slot_values(encode_ttfs(frame, t_max).codes) must equal, for pixel bytes."""
    shift = 8 - (t_max.bit_length() - 1)
    last = t_max - 1
    times = []
    for p in frame:
        if p == 0:
            times.append(last if spike_on_zero else NO_SPIKE)
        else:
            times.append(last - (p >> shift))
    return tuple(times)


@contextmanager
def zero_pixels_spike_last():
    """The all-spike input convention, for the skip-safety checks: while the
    context is open, run_network and dense_infer encode each zero pixel as a
    spike at t_max - 1 instead of no spike. Both look up encode_ttfs in their
    own module, so patching those two names reaches both paths. Yields the
    all-spike encoder, which takes encode_ttfs's arguments."""

    def encode(frame, t_max):
        codes = encode_ttfs(frame, t_max).codes.copy()
        codes[np.frombuffer(frame, np.uint8) == 0] = t_max - 1
        return SpikeTrain(codes, t_max)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "encode_ttfs", encode)
        patch.setattr(oracle, "encode_ttfs", encode)
        yield encode


def reference_train_check(times, t_max):
    """The spike train slot check one slot at a time: raises ValueError, with
    the message SpikeTrain(codes, t_max) gives for a code out of range, for
    the first slot that is neither NO_SPIKE nor an int in [0, t_max - 1]."""
    for i, t in enumerate(times):
        if t is NO_SPIKE:
            continue
        if not isinstance(t, int) or not 0 <= t < t_max:
            raise ValueError(f"spike time {t!r} at neuron {i} outside [0, {t_max - 1}]")


def reference_codes_check(codes, t_max):
    """SpikeTrain(codes, t_max)'s check of a codes array, spelled out: the array
    is 1-D of an integer dtype, then reference_train_check on codes.tolist(),
    with -1 as NO_SPIKE. Raises the ValueError the constructor raises."""
    if codes.ndim != 1 or not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be a 1-D integer array, got {codes.ndim}-D {codes.dtype}")
    reference_train_check([NO_SPIKE if c == -1 else c for c in codes.tolist()], t_max)


def spike_train(times, t_max):
    """The SpikeTrain of slots given as spike times, each an int in
    [0, t_max - 1] or NO_SPIKE: reference_train_check, then
    SpikeTrain(codes, t_max) of the codes, -1 for NO_SPIKE."""
    times = tuple(times)
    reference_train_check(times, t_max)
    return SpikeTrain(np.array([-1 if t is NO_SPIKE else t for t in times], np.int16), t_max)


def as_codes(groups, in_dim):
    """(time, indices) timestep groups as the int16 codes of in_dim inputs
    that run_layer takes: codes[i] = t for each index i of a group at time t,
    -1 elsewhere. An input spikes at most once, so no index may repeat."""
    codes = np.full(in_dim, -1, np.int16)
    for t, indices in groups:
        assert (codes[indices] == -1).all() and len(set(indices)) == len(indices), indices
        codes[indices] = t
    return codes


def as_groups(events, group_times, group_ends):
    """The arrays sort_spikes returns as (time, indices) groups, one per group time."""
    starts = [0, *(group_ends[:-1] + 1).tolist()]
    return [
        (t, events[start : end + 1].tolist())
        for t, start, end in zip(group_times.tolist(), starts, group_ends.tolist())
    ]


def reference_sort(train: SpikeTrain):
    """Insertion sort of active events by (time, index); deliberately naive."""
    out = []
    for idx, t in enumerate(slot_values(train.codes)):
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

    Each event adds its weight column into every unfired neuron, and every
    potential must stay inside int32, the bound the datapath's accumulator
    relies on; each group ends with one fire check in ascending neuron
    order. Groups after every neuron has fired are skipped, and with
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
            assert INT32_MIN <= min(potentials) and max(potentials) <= INT32_MAX, (i, t)
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


_NO_INPUT = SpikeTrain(np.array([], np.int16), 1)  # read-only, so every result can share it


def states_result(states, predicted=0, decision_time=NO_SPIKE):
    """An InferenceResult around layer states alone: all that first_divergence
    reads besides the class and the decision time."""
    return InferenceResult(predicted, decision_time, _NO_INPUT, list(states))


def assert_same_outcome(a: InferenceResult, b: InferenceResult):
    assert a.predicted == b.predicted
    assert a.decision_time == b.decision_time


def assert_same_state(a: InferenceResult, b: InferenceResult):
    divergence = first_divergence(a, b)
    assert divergence is None, divergence
    assert_same_outcome(a, b)
    assert len(a.layer_states) == len(b.layer_states)
    assert a.input_train.t_max == b.input_train.t_max
    for sa, sb in zip(a.layer_states, b.layer_states):
        assert np.array_equal(sa.fire_codes, sb.fire_codes)
        assert sa.potentials == sb.potentials
        assert sa.fire_times == sb.fire_times
        assert fired_flags(sa) == fired_flags(sb)


def make_rng(seed):
    return random.Random(seed)
