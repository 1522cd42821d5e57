"""Weighted coefficient norms on the bidisk and optimal approximants.

The norm of f = sum a[k,l] z1^k z2^l in the space with parameter alpha is
sqrt(sum (k+1)^alpha (l+1)^alpha |a[k,l]|^2).  The optimal approximant of
degree cap N minimizes ||p f - 1|| over polynomials p supported on total
degree i + j <= N; it is computed from the normal equations with the Gram
matrix of the shifted copies of f.  A whole distance profile is solved from
one Cholesky factor of the Gram matrix at the largest cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .poly2 import Poly2


@dataclass(frozen=True)
class AlphaSpace:
    """Dirichlet-type space parameter; weight(k,l) = (k+1)^a (l+1)^a."""

    alpha: float

    def weight(self, k: int, l: int) -> float:
        return float((k + 1) ** self.alpha * (l + 1) ** self.alpha)

    def weight_grid(self, shape: tuple[int, int]) -> np.ndarray:
        K, L = shape
        wk = (np.arange(K) + 1.0) ** self.alpha
        wl = (np.arange(L) + 1.0) ** self.alpha
        return wk[:, None] * wl[None, :]


def alpha_norm(f: Poly2, space: AlphaSpace) -> float:
    w = space.weight_grid(f.coeffs.shape)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def alpha_inner(f: Poly2, g: Poly2, space: AlphaSpace) -> complex:
    K = max(f.coeffs.shape[0], g.coeffs.shape[0])
    L = max(f.coeffs.shape[1], g.coeffs.shape[1])
    w = space.weight_grid((K, L))
    return complex(np.sum(w * f.padded((K, L)) * np.conj(g.padded((K, L)))))


def _radial_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on u = r^2 in [0, 1]
    x, w = leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _disk_quad(poly_vals_fn, alpha: float, nodes: int) -> float:
    """Integral over the disk of |g|^2 (1-|z|^2)^(1-alpha) dA/pi."""
    u, wu = _radial_nodes(nodes)
    th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    z = np.sqrt(u)[:, None] * np.exp(1j * th)[None, :]
    vals = poly_vals_fn(z)
    radial_weight = (1.0 - u) ** (1.0 - alpha)
    ang_mean = np.mean(np.abs(vals) ** 2, axis=1)
    return float(np.sum(wu * radial_weight * ang_mean))


def integral_norm_quadrature(f: Poly2, alpha: float, nodes: int = 48) -> float:
    """Equivalent integral norm via Gauss-Legendre x trapezoid quadrature.

    Uses the convention dA = Lebesgue measure on the disk divided by pi, so
    the unit disk has measure one.  Only defined for alpha < 2.
    """
    if alpha >= 2:
        raise ValueError("integral norm requires alpha < 2")
    a00 = complex(f.coeffs[0, 0])
    total = abs(a00) ** 2

    d1 = f.partial_derivative(1)
    c1 = d1.coeffs[:, 0]  # z1-coefficients of d1(., 0)
    if np.any(c1 != 0):
        total += _disk_quad(lambda z: np.polynomial.polynomial.polyval(z, c1),
                            alpha, nodes)

    d2 = f.partial_derivative(2)
    c2 = d2.coeffs[0, :]
    if np.any(c2 != 0):
        total += _disk_quad(lambda z: np.polynomial.polynomial.polyval(z, c2),
                            alpha, nodes)

    d12 = d1.partial_derivative(2)
    if not d12.is_zero:
        u, wu = _radial_nodes(nodes)
        th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
        z = (np.sqrt(u)[:, None] * np.exp(1j * th)[None, :]).ravel()
        rw = ((1.0 - u) ** (1.0 - alpha))[:, None]
        wgrid = (wu[:, None] * rw * np.ones_like(th)[None, :] / nodes).ravel()
        k, l = d12.bidegree
        V1 = z[:, None] ** np.arange(k + 1)[None, :]
        V2 = z[:, None] ** np.arange(l + 1)[None, :]
        vals = V1 @ d12.coeffs @ V2.T
        total += float(wgrid @ (np.abs(vals) ** 2) @ wgrid)

    return float(np.sqrt(total))


@dataclass(frozen=True)
class ApproximantResult:
    degree_cap: int
    approximant: Poly2
    distance: float
    gram_condition: float

    def to_dict(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "distance": self.distance,
            "gram_condition": self.gram_condition,
            "approximant": self.approximant.to_json_dict(),
        }


def _total_degree_basis(cap: int) -> list[tuple[int, int]]:
    return [(t - j, j) for t in range(cap + 1) for j in range(t + 1)]


def optimal_approximant(f: Poly2, space: AlphaSpace, degree_cap: int) -> ApproximantResult:
    """Minimize ||p f - 1|| over p of total degree at most degree_cap.

    The one-cap case of `distance_profile`.
    """
    return distance_profile(f, space, [degree_cap])[0]


def distance_profile(f: Poly2, space: AlphaSpace, caps) -> list[ApproximantResult]:
    """Optimal approximants for a strictly increasing list of degree caps.

    The total-degree basis is ordered by degree, so the basis of each cap is
    a prefix of the basis at max(caps): its Gram matrix is a leading block
    of the largest one, and so is its Cholesky factor.  One factorization
    serves every cap; each cap's normal equations are solved on the leading
    block, and the distance is evaluated directly from the residual
    coefficients.  `gram_condition` is the exact 2-norm condition number of
    the cap's Gram block.
    """
    caps = list(caps)
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be strictly increasing")
    if not caps:
        return []
    if f.is_zero:
        raise ValueError("zero polynomial")
    if caps[0] < 0:
        raise ValueError("degree cap must be nonnegative")
    n, m = f.bidegree
    basis = _total_degree_basis(caps[-1])
    K, L = n + caps[-1] + 1, m + caps[-1] + 1
    W = space.weight_grid((K, L)).ravel()

    shifts = np.zeros((len(basis), K, L), dtype=complex)
    for b, (i, j) in enumerate(basis):
        shifts[b, i: i + n + 1, j: j + m + 1] = f.coeffs
    A = shifts.reshape(len(basis), K * L)
    G = (np.conj(A) * W) @ A.T
    rhs = np.conj(A[:, 0]) * W[0]
    try:
        Lc = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"singular Gram matrix (condition estimate {np.linalg.cond(G):.3e})") from None

    out = []
    for N in caps:
        B = (N + 1) * (N + 2) // 2
        Lb = Lc[:B, :B]
        coeffs_vec = np.linalg.solve(Lb.conj().T, np.linalg.solve(Lb, rhs[:B]))
        eig = np.linalg.eigvalsh(G[:B, :B])
        p = Poly2.from_terms({(i, j): coeffs_vec[b] for b, (i, j) in enumerate(basis[:B])})
        dist = alpha_norm(p * f - Poly2.constant(1.0), space)
        out.append(ApproximantResult(N, p, dist, float(eig[-1] / eig[0])))
    return out


def profile_csv_rows(profile) -> list[str]:
    rows = ["N,d_N,gram_condition"]
    for r in profile:
        rows.append(f"{r.degree_cap},{r.distance!r},{r.gram_condition!r}")
    return rows
