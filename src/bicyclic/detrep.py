"""Determinantal representations f = c det(I - U diag(z1 I_n, z2 I_m)).

Generates polynomials from unitaries by determinant evaluation on a tensor
grid of roots of unity followed by an inverse 2-D DFT, checks the
decomposition identity behind the representation on random bidisk samples,
and reconstructs the unitary from a valid vector-polynomial pair by an
orthogonal Procrustes fit over traced zero-set samples.

The general construction of the vector pair from f is out of scope; pairs
come from the bundled dataset (data/agler_pairs.json) or from callers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._roots import roots_low_first, trim_trailing
from .poly2 import (Poly2, coeff_distance, compute_h, unimodular_reflection_match,
                    unimodular_slice_roots)

UNITARITY_TOL = 1e-10
INNER_RADIUS_TOL = 1e-8     # a det P root below 1 - tol lies inside the disk


@dataclass(frozen=True)
class DetRep:
    """Scaled determinantal representation data: c, U and the block sizes."""

    c: complex
    U: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        size = self.n + self.m
        if U.shape != (size, size):
            raise ValueError(f"unitary must be {size}x{size}, got {U.shape}")
        err = np.abs(U.conj().T @ U - np.eye(size)).max()
        if err > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
        object.__setattr__(self, "U", U)


def random_unitary(size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase normalization."""
    A = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))[None, :]


def polynomial_from_unitary(rep: DetRep) -> Poly2:
    """Evaluate c det(I - U diag(z1 I_n, z2 I_m)) and interpolate coefficients.

    The determinant has bidegree at most (n, m), so sampling on the
    (n+1) x (m+1) tensor grid of roots of unity determines it exactly.
    """
    n, m = rep.n, rep.m
    P, Q = n + 1, m + 1
    w1 = np.exp(2j * np.pi * np.arange(P) / P)
    w2 = np.exp(2j * np.pi * np.arange(Q) / Q)
    size = n + m
    diag = np.empty((P, Q, size), dtype=complex)
    diag[:, :, :n] = w1[:, None, None]
    diag[:, :, n:] = w2[None, :, None]
    M = np.eye(size)[None, None] - rep.U[None, None] * diag[:, :, None, :]
    F = np.linalg.det(M)
    coeffs = np.fft.fft2(F) / (P * Q)
    return Poly2(rep.c * coeffs)


@dataclass(frozen=True)
class AglerPair:
    """Vector polynomials (P, Q) of lengths n and m for a bidegree (n, m) f.

    Each P entry has bidegree at most (n-1, m); each Q entry at most (n, m-1).
    The z2-coefficient matrix Pmat with P(z) = Pmat(z2) (1, z1, ..,
    z1^(n-1))^T is derived from the entries.
    """

    P: tuple
    Q: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(self.P))
        object.__setattr__(self, "Q", tuple(self.Q))
        if not self.P or not self.Q:
            raise ValueError("pair must have at least one entry per block")
        n, m = len(self.P), len(self.Q)
        for p in self.P:
            if p.bidegree[0] > n - 1 or p.bidegree[1] > m:
                raise ValueError(f"P entry bidegree {p.bidegree} exceeds ({n - 1}, {m})")
        for q in self.Q:
            if q.bidegree[0] > n or q.bidegree[1] > m - 1:
                raise ValueError(f"Q entry bidegree {q.bidegree} exceeds ({n}, {m - 1})")

    @property
    def n(self) -> int:
        return len(self.P)

    @property
    def m(self) -> int:
        return len(self.Q)

    def p_matrix(self) -> np.ndarray:
        """(n, n, d+1) array: entry [i, j] holds the z2-coefficients of the
        z1^j component of P_i."""
        n = self.n
        dmax = max(p.bidegree[1] for p in self.P)
        out = np.zeros((n, n, dmax + 1), dtype=complex)
        for i, p in enumerate(self.P):
            grid = p.padded((n, dmax + 1))
            out[i] = grid
        return out

    def evaluate(self, z1, z2) -> tuple[np.ndarray, np.ndarray]:
        Pv = np.array([p(z1, z2) for p in self.P])
        Qv = np.array([q(z1, z2) for q in self.Q])
        return Pv, Qv


def verify_agler_identity(f: Poly2, pair: AglerPair, samples: int = 200,
                          rng: np.random.Generator | None = None) -> float:
    """Max residual of the two-kernel decomposition on random bidisk pairs.

    Checks ht(z) conj(ht(w)) - h(z) conj(h(w)) =
    (1 - z1 conj(w1)) P(w)* P(z) + (1 - z2 conj(w2)) Q(w)* Q(z)
    at `samples` random (z, w) in the open bidisk, where h = z1 d1 f + z2 d2 f
    and ht is its reflection at the bidegree of f.
    """
    n, m = f.bidegree
    if pair.n != n or pair.m != m:
        raise ValueError(f"pair shape ({pair.n},{pair.m}) does not match bidegree ({n},{m})")
    match = unimodular_reflection_match(f)
    if not match.matches or abs(match.lam - 1.0) > 1e-6:
        raise ValueError("f must satisfy f~ = f (normalize first)")
    rng = rng or np.random.default_rng(0)
    h = compute_h(f)
    ht = h.reflect(bidegree=(n, m))  # reflect at the bidegree of f

    z = 0.9 * (rng.uniform(-1, 1, (samples, 2)) + 1j * rng.uniform(-1, 1, (samples, 2))) / np.sqrt(2)
    w = 0.9 * (rng.uniform(-1, 1, (samples, 2)) + 1j * rng.uniform(-1, 1, (samples, 2))) / np.sqrt(2)

    hz, hw = h(z[:, 0], z[:, 1]), h(w[:, 0], w[:, 1])
    htz, htw = ht(z[:, 0], z[:, 1]), ht(w[:, 0], w[:, 1])
    lhs = htz * np.conj(htw) - hz * np.conj(hw)

    Pz, Qz = pair.evaluate(z[:, 0], z[:, 1])
    Pw, Qw = pair.evaluate(w[:, 0], w[:, 1])
    rhs = ((1 - z[:, 0] * np.conj(w[:, 0])) * np.sum(np.conj(Pw) * Pz, axis=0)
           + (1 - z[:, 1] * np.conj(w[:, 1])) * np.sum(np.conj(Qw) * Qz, axis=0))
    return float(np.abs(lhs - rhs).max())


def _torus_zero_samples(f: Poly2, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (z1, z2) on Z(f) with both coordinates on the unit circle."""
    nodes = np.exp(1j * (np.linspace(0.0, 2 * np.pi, count, endpoint=False) + 0.05))
    roots, _ = unimodular_slice_roots(f, nodes)
    return np.repeat(nodes, [r.size for r in roots]), np.concatenate(roots)


def unitary_from_pair(f: Poly2, pair: AglerPair, zero_samples: int = 64,
                      check_identity: bool = True) -> DetRep:
    """Reconstruct the unitary mapping (z1 P, z2 Q) to (P, Q) on Z(f).

    Solves the orthogonal Procrustes problem over traced torus zero samples
    and validates the result by regenerating f from the determinant formula;
    a regeneration mismatch raises with the residual attached.  The
    Procrustes fit itself is invariant under scaling P and Q together, but a
    rescaled pair no longer satisfies the decomposition identity, so
    `check_identity` may be disabled to study such gauge variants.
    """
    if check_identity:
        res = verify_agler_identity(f, pair)
        if res > 1e-8:
            raise ValueError(f"pair fails the decomposition identity (residual {res:.3e})")
    n, m = f.bidegree
    z1, z2 = _torus_zero_samples(f, zero_samples)
    if z1.size < n + m:
        raise ValueError("too few zero-set samples for reconstruction")
    Pv, Qv = pair.evaluate(z1, z2)
    X = np.vstack([z1[None, :] * Pv, z2[None, :] * Qv])
    Y = np.vstack([Pv, Qv])
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("rank-deficient sample matrix; add or spread samples")
    W, _, Vh = np.linalg.svd(Y @ X.conj().T)
    U = W @ Vh

    c = complex(f.coeffs[0, 0])
    rep = DetRep(c=c, U=U, n=n, m=m)
    regen = polynomial_from_unitary(rep)
    err = coeff_distance(regen, f)
    if err > 1e-8 * max(f.scale, 1.0):
        raise ValueError(f"regeneration mismatch: residual {err:.3e}")
    return rep


def det_p_extraction(pair_or_matrix) -> np.ndarray:
    """Determinant of the z2-coefficient matrix P(z2) as a univariate polynomial.

    Accepts an AglerPair or a raw (n, n, d+1) coefficient array.  Evaluates
    the matrix determinant at enough roots of unity, interpolates, and
    asserts the result has no roots strictly inside the unit disk.
    """
    if isinstance(pair_or_matrix, AglerPair):
        mat = pair_or_matrix.p_matrix()
    else:
        mat = np.asarray(pair_or_matrix, dtype=complex)
        if mat.ndim != 3 or mat.shape[0] != mat.shape[1]:
            raise ValueError("expected an (n, n, d+1) coefficient array")
    n, _, dp1 = mat.shape
    deg_bound = n * (dp1 - 1)
    S = deg_bound + 1
    nodes = np.exp(2j * np.pi * np.arange(S) / S)
    V = nodes[:, None] ** np.arange(dp1)[None, :]
    entries = np.einsum("ijd,sd->sij", mat, V)
    dets = np.linalg.det(entries)
    coeffs = trim_trailing(np.fft.fft(dets) / S, rel=1e-11)
    for r in roots_low_first(coeffs):
        if abs(r) < 1.0 - INNER_RADIUS_TOL:
            raise ValueError(
                f"det P has a zero at {r:.6g} inside the unit disk; pair invalid")
    return coeffs


def load_pair_dataset() -> dict:
    """Named example polynomials with their vector pairs from the bundled JSON."""
    text = resources.files("bicyclic").joinpath("data/agler_pairs.json").read_text()
    raw = json.loads(text)
    out = {}
    for name, entry in raw.items():
        item = {
            "f": Poly2.from_json_dict(entry["f"]),
            "P": tuple(Poly2.from_json_dict(p) for p in entry["P"]),
            "Q": tuple(Poly2.from_json_dict(q) for q in entry["Q"]),
            "description": entry.get("description", ""),
        }
        if "U_expected" in entry:
            item["U_expected"] = np.array(
                [[complex(c[0], c[1]) for c in row] for row in entry["U_expected"]])
        out[name] = item
    return out
