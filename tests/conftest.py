import math

import numpy as np
import pytest

from bicyclic.curvegeom import TWO_PI, CurveBranch
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


def from_terms(terms: dict) -> Poly2:
    """Build from {(k, l): coefficient} pairs."""
    if not terms:
        return Poly2.zero()
    n = max(k for k, _ in terms)
    m = max(l for _, l in terms)
    a = np.zeros((n + 1, m + 1), dtype=complex)
    for (k, l), c in terms.items():
        a[k, l] = c
    return Poly2(a)


def f_eps(eps: float) -> Poly2:
    """z2 (1 + eps z1^5) - z1 (z1^5 + eps): its torus curve is the line
    m = 6t up to a bend of order eps."""
    return from_terms({(0, 1): 1.0, (5, 1): eps, (6, 0): -1.0, (1, 0): -eps})


def closed_form_branch_fa(a: float, t_window: tuple[float, float] = (0.0, TWO_PI),
                          nodes: int = 512) -> CurveBranch:
    """Branch of Z(f_a) with closed-form m and derivatives, for real a in (0,1).

    m is the continuous branch of pi + arctan((1-a^2) sin t / (2a -
    (1+a^2) cos t)) anchored at m(0) = pi; the displayed derivative formulas
    are global.
    """
    if not (0.0 < a < 1.0) or abs(np.imag(a)) > 0:
        raise ValueError("closed form requires real a in (0, 1)")
    t0, t1 = float(t_window[0]), float(t_window[1])
    t = t0 + (t1 - t0) * np.arange(nodes) / nodes
    z1 = np.exp(1j * t)
    z2 = (a * z1 - 1.0) / (z1 - a)
    # np.unwrap keeps the first element at its principal value, matching the
    # anchor convention of trace_branch
    m = np.unwrap(np.angle(z2))

    # m' = (1 - a^2) g with g = 1/D, D = 2a cos t - 1 - a^2, and D g = 1
    # gives g^(n) = -sum_{k=1..n} C(n, k) D^(k) g^(n-k) / D, where
    # D^(k) = 2a cos(t + k pi/2)
    D = 2 * a * np.cos(t) - 1.0 - a * a
    g = [1.0 / D]
    for n in range(1, 5):
        g.append(-sum(math.comb(n, k) * 2 * a * np.cos(t + k * np.pi / 2) * g[n - k]
                      for k in range(1, n + 1)) / D)
    derivatives = (1.0 - a * a) * np.array(g)

    # z1 -> z2 maps the circle onto itself with degree -1, so over a full
    # window m falls by exactly 2 pi
    periodic = abs(t1 - t0 - TWO_PI) <= 1e-9
    return CurveBranch(t=t, m=m, derivatives=derivatives, periodic=periodic,
                       winding=-1 if periodic else 0)
