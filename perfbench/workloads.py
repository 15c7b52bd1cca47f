"""Seeded input generators for the three benchmark workloads.

Each generator turns (workload name, seed) into flash model images, input
frames and labels. The simulator only ever sees these bytes: the
NetworkModel objects built here are serialized, and the benchmark hands
the images to the controller and the CLI. The same seed always yields the
same bytes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from spikesoc.model import (
    BinaryWeights,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    WeightMode,
    words_per_row,
)
from spikesoc import model as model_mod

# The acceptance corpus draws t_max from these (tests/helpers.py).
CORPUS_T_MAX = (16, 64, 256)
CORPUS_MAX_LAYERS = 3
CORPUS_MAX_DIM = 64
CORPUS_SIZE = 1008  # 56 instances per (mode, t_max, depth) cell


@dataclass
class Workload:
    """Generated inputs. Sample k runs frames[k] on images[model_of[k]]."""

    name: str
    models: list          # NetworkModel per image, kept to check serialization
    images: list          # flash image bytes
    frames: list          # pixel bytes
    labels: list
    model_of: list        # image index per sample
    # Single-model workloads only: sample-index lists, one IDX file pair
    # each, and the (rows, cols) shape of the IDX images.
    idx_batches: list = field(default_factory=list)
    idx_shape: tuple = (28, 28)

    @property
    def single_model(self) -> bool:
        return len(self.images) == 1

    def digest(self) -> str:
        """SHA-256 over every generated byte, to show which inputs a run used."""
        h = hashlib.sha256()
        for blob in (*self.images, *self.frames, bytes(self.labels)):
            h.update(len(blob).to_bytes(4, "little"))
            h.update(blob)
        return h.hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(f"spikesoc-bench:{name}:{seed}")


def _binary_weights(gen: np.random.Generator, in_dim: int, out_dim: int) -> BinaryWeights:
    """Uniform +-1 weights drawn directly as packed words."""
    words = gen.integers(0, 1 << 16, size=(out_dim, words_per_row(in_dim)), dtype=np.int64)
    if in_dim % 16:
        words[:, -1] &= (1 << (in_dim % 16)) - 1
    return BinaryWeights(in_dim=in_dim, words=[tuple(int(w) for w in row) for row in words])


def _fixed_weights(gen: np.random.Generator, in_dim: int, out_dim: int, lo: int, hi: int) -> Fixed16Weights:
    rows = gen.integers(lo, hi + 1, size=(out_dim, in_dim), dtype=np.int64)
    return Fixed16Weights(rows=[tuple(int(w) for w in row) for row in rows])


def _uniform_frame(rng: random.Random, n: int, zero_fraction: float) -> bytes:
    """tests/helpers.random_frame: uniform pixels, some forced to zero."""
    return bytes(0 if rng.random() < zero_fraction else rng.randint(0, 255) for _ in range(n))


def _sparse_frame(rng: random.Random, n: int) -> bytes:
    """MNIST-like: about 80% zero pixels, strokes mostly bright."""
    out = bytearray(n)
    for i in range(n):
        if rng.random() >= 0.8:
            out[i] = rng.randint(192, 255) if rng.random() < 0.5 else rng.randint(1, 191)
    return bytes(out)


def binary_784_600(seed: int) -> Workload:
    """The acceptance smoke-test network: 784-600-10 binary, t_max 256."""
    rng = _rng("binary_784_600", seed)
    gen = np.random.default_rng(rng.getrandbits(64))
    model = NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[
            (LayerConfig(784, 600, 256, 40), _binary_weights(gen, 784, 600)),
            (LayerConfig(600, 10, 256, 10), _binary_weights(gen, 600, 10)),
        ],
    )
    frames = [_uniform_frame(rng, 784, 0.1) for _ in range(8)]
    return _single("binary_784_600", rng, model, frames, batch=2)


def fixed16_784_128_sparse(seed: int) -> Workload:
    """784-128-10 fixed16 on sparse frames; the output layer's threshold and
    positive-leaning weights make nearly every sample decide by a spike."""
    rng = _rng("fixed16_784_128_sparse", seed)
    gen = np.random.default_rng(rng.getrandbits(64))
    model = NetworkModel(
        mode=WeightMode.FIXED16,
        t_max=256,
        layers=[
            (LayerConfig(784, 128, 256, 400), _fixed_weights(gen, 784, 128, -128, 128)),
            (LayerConfig(128, 10, 256, 300), _fixed_weights(gen, 128, 10, -64, 128)),
        ],
    )
    frames = [_sparse_frame(rng, 784) for _ in range(128)]
    return _single("fixed16_784_128_sparse", rng, model, frames, batch=16)


def _single(name, rng, model, frames, batch) -> Workload:
    labels = [rng.randrange(model.output_dim) for _ in frames]
    n = len(frames)
    return Workload(
        name=name,
        models=[model],
        images=[model_mod.serialize_model(model)],
        frames=frames,
        labels=labels,
        model_of=[0] * n,
        idx_batches=[list(range(k, min(k + batch, n))) for k in range(0, n, batch)],
    )


def _corpus_layer(rng: random.Random, gen: np.random.Generator, in_dim, out_dim, mode):
    """tests/helpers.random_layer, with weights drawn through numpy."""
    alpha_raw = 256 if rng.random() < 0.5 else rng.randint(64, 1024)
    if mode is WeightMode.BINARY:
        eff_target = rng.randint(-3, max(2, in_dim // 2))
        threshold = round(eff_target * alpha_raw / 256)
        signs = gen.integers(0, 2, size=(out_dim, in_dim)) * 2 - 1
        weights = BinaryWeights.from_rows(signs.tolist())
    else:
        magnitude = rng.choice((8, 128, 1024))
        threshold = rng.randint(-2 * magnitude, max(2, (in_dim * magnitude) // 3))
        weights = _fixed_weights(gen, in_dim, out_dim, -magnitude, magnitude)
    return LayerConfig(in_dim, out_dim, alpha_raw, threshold), weights


def corpus_stream(seed: int) -> Workload:
    """The acceptance-corpus distribution (tests/helpers.random_model and
    random_frame), one frame per network. Mode, t_max and depth cycle
    through every combination in equal shares instead of being drawn, so a
    run's mix does not swing with the seed; dimensions, thresholds,
    weights and pixels stay random."""
    rng = _rng("corpus_stream", seed)
    gen = np.random.default_rng(rng.getrandbits(64))
    cells = [
        (mode, t_max, depth)
        for mode in (WeightMode.BINARY, WeightMode.FIXED16)
        for t_max in CORPUS_T_MAX
        for depth in range(1, CORPUS_MAX_LAYERS + 1)
    ]
    models, frames = [], []
    for k in range(CORPUS_SIZE):
        mode, t_max, depth = cells[k % len(cells)]
        dims = [rng.randint(1, CORPUS_MAX_DIM) for _ in range(depth + 1)]
        layers = [_corpus_layer(rng, gen, dims[i], dims[i + 1], mode) for i in range(depth)]
        model = NetworkModel(mode=mode, t_max=t_max, layers=layers)
        zero_fraction = 0.1 if rng.random() < 0.5 else 0.0
        models.append(model)
        frames.append(_uniform_frame(rng, model.input_dim, zero_fraction))
    return Workload(
        name="corpus_stream",
        models=models,
        images=[model_mod.serialize_model(m) for m in models],
        frames=frames,
        labels=[rng.randrange(m.output_dim) for m in models],
        model_of=list(range(len(models))),
    )


WORKLOADS = {
    "binary_784_600": binary_784_600,
    "fixed16_784_128_sparse": fixed16_784_128_sparse,
    "corpus_stream": corpus_stream,
}
