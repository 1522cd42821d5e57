"""Determinantal representations f = c det(I - U diag(z1 I_n, z2 I_m)).

Generates polynomials from unitaries by determinant evaluation on a tensor
grid of roots of unity followed by an inverse 2-D DFT.  A vector pair (P, Q)
enters through one coefficient colligation: the rows A of (h~, z1 P, z2 Q)
and B of (h, P, Q) on the coefficient grid of f.  The decomposition
identity says that A and B have one Gram matrix, which is how it is
checked; then a unitary V with V A = B exists, and closing V on Z(f), where
h~ = -h, gives U exactly (the lurking-isometry argument of Agler and of
Ball & Trent).

The general construction of the vector pair from f is out of scope; pairs
come from the bundled dataset (data/agler_pairs.json) or from callers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .poly2 import (Poly2, coeff_distance, complex_from_pair, compute_h,
                    unimodular_reflection_match)

UNITARITY_TOL = 1e-10
IDENTITY_RESIDUAL_TOL = 1e-8     # a pair's largest Agler identity residual
REGENERATION_TOL = 1e-8          # f regenerated from U, relative to max(scale, 1)
NORMALIZED_LAMBDA_TOL = 1e-6     # |lambda - 1| of a normalized f (f~ = lambda f)


@dataclass(frozen=True)
class DetRep:
    """Scaled determinantal representation data: c, U and the block sizes."""

    c: complex
    U: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"block sizes must be at least 0, got n = {self.n}, m = {self.m}")
        if self.c == 0:
            raise ValueError("scale must be nonzero, got c = 0")
        U = np.asarray(self.U, dtype=complex)
        size = self.n + self.m
        if U.shape != (size, size):
            raise ValueError(f"unitary must be {size}x{size}, got {U.shape}")
        err = np.abs(U.conj().T @ U - np.eye(size)).max()
        if not err <= UNITARITY_TOL:
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


def _colligation(f: Poly2, pair: AglerPair) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient rows A of (h~, z1 P, z2 Q) and B of (h, P, Q), each
    grid flattened over the bidegree (n, m) of f, where h = z1 d1 f + z2 d2 f
    and h~ is its reflection at (n, m).  P has no z1^n term and Q no z2^m
    term, so z1 P and z2 Q stay on the grid."""
    n, m = f.bidegree
    if pair.n != n or pair.m != m:
        raise ValueError(f"pair shape ({pair.n},{pair.m}) does not match bidegree ({n},{m})")
    shape = (n + 1, m + 1)
    h = compute_h(f).padded(shape)
    P = np.array([p.padded(shape) for p in pair.P])
    Q = np.array([q.padded(shape) for q in pair.Q])
    A = np.zeros((1 + n + m,) + shape, dtype=complex)
    A[0] = np.conj(h[::-1, ::-1])
    A[1:n + 1, 1:] = P[:, :-1]
    A[n + 1:, :, 1:] = Q[:, :, :-1]
    B = np.concatenate([h[None], P, Q])
    return A.reshape(1 + n + m, -1), B.reshape(1 + n + m, -1)


def verify_agler_identity(f: Poly2, pair: AglerPair) -> float:
    """Max coefficient residual of the two-kernel decomposition.

    The identity ht(z) conj(ht(w)) - h(z) conj(h(w)) =
    (1 - z1 conj(w1)) P(w)* P(z) + (1 - z2 conj(w2)) Q(w)* Q(z), where
    h = z1 d1 f + z2 d2 f and ht is its reflection at the bidegree of f,
    says that the colligation rows A of (ht, z1 P, z2 Q) and B of (h, P, Q)
    have one Gram matrix: its coefficients in z^a conj(w)^b are the entries
    of A^T conj(A) - B^T conj(B), zero iff the identity holds.
    """
    A, B = _colligation(f, pair)
    match = unimodular_reflection_match(f)
    if not match.matches or abs(match.lam - 1.0) > NORMALIZED_LAMBDA_TOL:
        raise ValueError("f must satisfy f~ = f (normalize first)")
    return float(np.abs(A.T @ A.conj() - B.T @ B.conj()).max())


def unitary_from_pair(f: Poly2, pair: AglerPair) -> DetRep:
    """Reconstruct the unitary mapping (z1 P, z2 Q) to (P, Q) on Z(f).

    The identity gives the colligation rows A and B one Gram matrix, so the
    polar factor V of B A* (Procrustes on the coefficients) is a unitary
    with V A = B.  Written V = [[alpha, beta], [gamma, D]] over the split
    (h, (P, Q)), and since h~ = -h on Z(f) (Euler: h + h~ = (n + m) f), it
    closes to U = D - gamma beta / (1 + alpha), which maps (z1 P, z2 Q) to
    (P, Q) on Z(f).  A pair that fails the identity raises, and the result
    is validated by regenerating f from the determinant formula; a
    regeneration mismatch raises with the residual attached.
    """
    res = verify_agler_identity(f, pair)
    if res > IDENTITY_RESIDUAL_TOL:
        raise ValueError(f"pair fails the decomposition identity (residual {res:.3e})")
    A, B = _colligation(f, pair)
    W, _, Vh = np.linalg.svd(B @ A.conj().T)
    V = W @ Vh
    U = V[1:, 1:] - np.outer(V[1:, 0], V[0, 1:]) / (1.0 + V[0, 0])

    n, m = f.bidegree
    rep = DetRep(c=complex(f.coeffs[0, 0]), U=U, n=n, m=m)
    regen = polynomial_from_unitary(rep)
    err = coeff_distance(regen, f)
    if err > REGENERATION_TOL * max(f.scale, 1.0):
        raise ValueError(f"regeneration mismatch: residual {err:.3e}")
    return rep


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
                [[complex_from_pair(c) for c in row] for row in entry["U_expected"]])
        out[name] = item
    return out
