"""Inputs the test modules share: the resonant model, the sqrt(2) period
ratio of every preset, and random states as plain arrays."""

import math

import numpy as np

from antizeno.model import ModelParams

SQRT2 = math.sqrt(2.0)


def resonant(g, n_max=40, kind="rabi"):
    """The model at omega = omega0 = 1 with coupling g/omega."""
    return ModelParams(1.0, 1.0, g, n_max, kind)


def random_state(dim, seed):
    """A random normalized complex amplitude vector."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, seed):
    """A random full-rank density matrix of unit trace."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
