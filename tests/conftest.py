import math

import numpy as np
import pytest

from sotlab.dist_core import AtomicDistribution, SmoothedMixture


def random_mixture(rng, n_atoms=None, sigma=None, span=4.0):
    n_atoms = n_atoms or int(rng.integers(2, 5))
    sigma = sigma or float(rng.uniform(0.7, 1.5))
    locs = np.sort(rng.uniform(-span, span, n_atoms))
    while np.any(np.diff(locs) < 1e-3):
        locs = np.sort(rng.uniform(-span, span, n_atoms))
    w = rng.dirichlet(np.ones(n_atoms))
    return SmoothedMixture(AtomicDistribution.from_weights(locs, w), sigma)


def sample_and_truth(n):
    """The sigma = 1 smoothing of n N(0, 4) draws (numpy seed 1) and the
    smoothed truth N(0, 5): the W2 and KL inputs of many atoms."""
    x = np.random.default_rng(1).normal(0.0, 2.0, n)
    truth = AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))
    return (SmoothedMixture(AtomicDistribution.from_samples(x), 1.0),
            SmoothedMixture(truth, math.sqrt(5.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def std_normal():
    return SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0]), np.array([1.0])), 1.0)
