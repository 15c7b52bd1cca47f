import tempfile
from dataclasses import dataclass

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from spikesoc import InferenceResult, dense_infer, run_network
from helpers import Instance, conditioned_instance, make_rng, zero_pixels_spike_last

CORPUS_SEED = 0x5C0FFEE
CORPUS_SIZE = 1000

_hypothesis_home = None


def pytest_configure(config):
    # Hypothesis caches the constants it finds in local modules under its
    # home directory, ./.hypothesis by default, while collecting the tests.
    global _hypothesis_home
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _hypothesis_home.cleanup()


@dataclass
class InstanceRuns:
    """One corpus instance with every configuration the criteria compare."""

    inst: Instance
    untruncated: InferenceResult          # early stop off
    relaxed: InferenceResult              # early stop off, zero pixels spike last
    dense: InferenceResult                # brute-force reference


@pytest.fixture(scope="session")
def corpus():
    """The shared random-network corpus the acceptance criteria run over.

    Every instance is conditioned so its decision is an output spike
    strictly before the last timestep; last-timestep events then cannot
    change the outcome, which is what makes the zero-pixel encoding check
    well-posed. The relaxed runs use the all-spike encoder of
    helpers.zero_pixels_spike_last. Unconditioned coverage (fallback
    decisions, silent layers) lives in the regular oracle tests.
    """
    rng = make_rng(CORPUS_SEED)
    runs = []
    for _ in range(CORPUS_SIZE):
        inst = conditioned_instance(rng)
        with zero_pixels_spike_last():
            relaxed = run_network(inst.model, inst.frame, early_stop=False)
        runs.append(
            InstanceRuns(
                inst=inst,
                untruncated=run_network(inst.model, inst.frame, early_stop=False),
                relaxed=relaxed,
                dense=dense_infer(inst.model, inst.frame),
            )
        )
    return runs
