"""Shared fixtures and random-object helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fisym.matcore import mat_power
from fisym.povm import Povm
from fisym.states import DensityMatrix, PureState

# One hypothesis profile for every property module: examples run numpy
# linear algebra whose time varies with the host, so no per-example
# deadline and no too-slow health check.  Modules set max_examples.
settings.register_profile("fisym", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("fisym")


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_full_rank(rng, dim, mix=0.2):
    """Random density matrix bounded away from the boundary of state space."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    w = w / np.trace(w).real
    m = (1.0 - mix) * w + mix * np.eye(dim) / dim
    return DensityMatrix(m)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _sandwich(blocks):
    total = sum(blocks)
    root = mat_power(total, -0.5)
    return [root @ b @ root for b in blocks]


def random_rank_one_povm(rng, dim, n_outcomes):
    """POVM whose every element is a weighted rank-one projector."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        blocks.append(np.outer(g, g.conj()))
    return Povm(_sandwich(blocks), copies=1, base_dim=dim)


def random_povm(rng, dim, n_outcomes, max_rank=None):
    """POVM with at least one element of rank two or more."""
    if max_rank is None:
        max_rank = dim
    blocks = []
    for k in range(n_outcomes):
        r = 2 if k == 0 else int(rng.integers(1, max_rank + 1))
        g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
        blocks.append(g @ g.conj().T)
    return Povm(_sandwich(blocks), copies=1, base_dim=dim)


def random_two_copy_povm(rng, dim, n_outcomes):
    blocks = []
    for _ in range(n_outcomes):
        r = int(rng.integers(1, dim + 2))
        g = rng.normal(size=(dim * dim, r)) + 1j * rng.normal(size=(dim * dim, r))
        blocks.append(g @ g.conj().T)
    elements = _sandwich(blocks)
    return Povm(elements, copies=2, base_dim=dim)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
