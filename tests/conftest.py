import numpy as np
import pytest

from bicyclic.poly2 import Poly2


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def f0():
    """1 + z1 z2."""
    return Poly2([[1, 0], [0, 1]])


@pytest.fixture
def two_minus():
    """2 - z1 - z2."""
    return Poly2([[2, -1], [-1, 0]])


def random_poly(rng, max_deg=4, real=False):
    n = int(rng.integers(0, max_deg + 1))
    m = int(rng.integers(0, max_deg + 1))
    if real:
        return Poly2(rng.standard_normal((n + 1, m + 1)))
    a = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
    return Poly2(a)


def torus_samples(rng, count):
    th = rng.uniform(0.0, 2 * np.pi, (count, 2))
    return np.exp(1j * th[:, 0]), np.exp(1j * th[:, 1])
