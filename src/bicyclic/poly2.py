"""Dense bivariate complex polynomials on coefficient grids.

A polynomial f(z1, z2) = sum_{k,l} a[k,l] z1^k z2^l is stored as an
(n+1) x (m+1) complex grid with a tight bidegree: the top row (k = n) and
the top column (l = m) each carry a nonzero coefficient, unless f is
identically zero.  Only trailing rows and columns that are exactly zero are
dropped, so a Poly2 holds every coefficient it was given.

All operations are pure; instances are treated as immutable values.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as P

from ._roots import RELATIVE_COEFF_FLOOR, batched_roots, interpolate_roots_of_unity

SYMMETRY_TOL = 1e-9         # max |f~ - lambda f| <= tol * scale is a match
RESULTANT_ZERO_TOL = 1e-10  # resultant samples below tol * Hadamard bound vanish
CIRCLE_BAND = 1e-6          # a slice root within this of the unit circle is on it
ZERO_VALUE_TOL = 1e-8       # |f| <= tol * scale at a computed zero of f
SAME_POINT_TOL = 1e-6       # torus points with |dz1| + |dz2| below this coincide


def _trim_grid(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("non-finite coefficient")
    rows = np.flatnonzero(a.any(axis=1))
    if rows.size == 0:
        return np.zeros((1, 1), dtype=complex)
    return a[: rows[-1] + 1, : np.flatnonzero(a.any(axis=0))[-1] + 1]


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficient grid of the product of the polynomials with grids a
    and b, untrimmed.

    Shifted copies of the denser grid a are accumulated over the nonzero
    coefficients of the sparser b (b on a tie), in reverse order, as
    a * b[k, l]: each coefficient then sums the same products in the same
    order as a loop over a's coefficients adding a[k, l] * b, so the two
    operand orders agree bit for bit unless the counts tie (numpy's complex
    products need not commute).
    """
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=complex)
    if np.count_nonzero(a) < np.count_nonzero(b):
        a, b = b, a
    kb, lb = np.nonzero(b)
    for k, l in zip(kb[::-1].tolist(), lb[::-1].tolist()):
        out[k: k + a.shape[0], l: l + a.shape[1]] += a * b[k, l]
    return out


class Poly2:
    """Bivariate polynomial with complex floating-point coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        a = np.array(coeffs, dtype=complex)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        elif a.ndim == 1:
            a = a.reshape(-1, 1)
        elif a.ndim != 2:
            raise ValueError("coefficient grid must be two-dimensional")
        if a.size == 0:
            raise ValueError("empty coefficient grid")
        a = _trim_grid(a)
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls(np.zeros((1, 1)))

    @classmethod
    def constant(cls, c) -> "Poly2":
        return cls(np.array([[c]], dtype=complex))

    @classmethod
    def monomial(cls, k: int, l: int, c=1.0) -> "Poly2":
        a = np.zeros((k + 1, l + 1), dtype=complex)
        a[k, l] = c
        return cls(a)

    # -- structure ----------------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    @property
    def scale(self) -> float:
        """Largest coefficient modulus (0 for the zero polynomial)."""
        return float(np.abs(self.coeffs).max())

    @property
    def is_univariate(self) -> bool:
        n, m = self.bidegree
        return n == 0 or m == 0

    def padded(self, shape: tuple[int, int]) -> np.ndarray:
        """Coefficient grid zero-padded to the given shape."""
        K, L = shape
        n, m = self.bidegree
        if K < n + 1 or L < m + 1:
            raise ValueError("padding shape smaller than the grid")
        out = np.zeros((K, L), dtype=complex)
        out[: n + 1, : m + 1] = self.coeffs
        return out

    # -- evaluation and arithmetic ------------------------------------------

    def __call__(self, z1, z2):
        """Evaluate by nested Horner (z2 inside, z1 outside); broadcasts."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        # the z2 points get a leading axis that pairs with the coefficient rows,
        # so each Horner product has operands of equal rank: numpy rounds some
        # products of length-1 operands of unequal rank differently
        rows = self.coeffs.T.reshape(self.coeffs.T.shape + (1,) * z2.ndim)
        inner = P.polyval(z2[np.newaxis], rows, tensor=False)
        vals = P.polyval(z1, inner, tensor=False)
        return vals if np.ndim(vals) else complex(vals)

    def __add__(self, other) -> "Poly2":
        other = _as_poly(other)
        K = max(self.coeffs.shape[0], other.coeffs.shape[0])
        L = max(self.coeffs.shape[1], other.coeffs.shape[1])
        return Poly2(self.padded((K, L)) + other.padded((K, L)))

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2(-self.coeffs)

    def __sub__(self, other) -> "Poly2":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly2":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        if np.isscalar(other):
            return Poly2(self.coeffs * other)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly2.zero()
        return Poly2(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    # -- calculus and reflection --------------------------------------------

    def partial_derivative(self, axis: int) -> "Poly2":
        """Formal derivative with respect to z1 (axis=1) or z2 (axis=2)."""
        a = self.coeffs
        if axis == 1:
            if a.shape[0] == 1:
                return Poly2.zero()
            return Poly2(a[1:] * np.arange(1, a.shape[0])[:, None])
        if axis == 2:
            if a.shape[1] == 1:
                return Poly2.zero()
            return Poly2(a[:, 1:] * np.arange(1, a.shape[1])[None, :])
        raise ValueError("axis must be 1 or 2")

    def reflect(self, bidegree: tuple[int, int] | None = None) -> "Poly2":
        """Reflection f~(z) = z1^n z2^m conj(f(1/conj(z1), 1/conj(z2))).

        Coefficientwise b[k, l] = conj(a[n-k, m-l]).  By default (n, m) is
        the tight bidegree; passing `bidegree` reflects at a larger one
        (needed e.g. when reflecting h at the bidegree of f).  Reflection is
        an involution at the reflecting bidegree: at the tight one, f~~ = f
        bit for bit when row 0 and column 0 of f each hold a nonzero
        coefficient, and f~ drops degree in z1 (z2) when row 0 (column 0) of
        f is zero.
        """
        if self.is_zero:
            raise ValueError("cannot reflect the zero polynomial")
        if bidegree is None:
            grid = self.coeffs
        else:
            grid = self.padded((bidegree[0] + 1, bidegree[1] + 1))
        return Poly2(np.conj(grid[::-1, ::-1]))

    def swap_variables(self) -> "Poly2":
        return Poly2(self.coeffs.T)

    def univariate_coeffs(self) -> np.ndarray:
        """1-D coefficient array for polynomials in a single variable."""
        n, m = self.bidegree
        if n > 0 and m > 0:
            raise ValueError("polynomial depends on both variables")
        return self.coeffs[:, 0].copy() if m == 0 else self.coeffs[0, :].copy()

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        n, m = self.bidegree
        return {
            "bidegree": [n, m],
            "coeffs": [[complex_to_pair(c) for c in row] for row in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Poly2":
        try:
            n, m = d["bidegree"]
            rows = d["coeffs"]
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"malformed polynomial JSON: {e}") from None
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 0
                   for k in (n, m)):
            raise ValueError(f"bidegree must be two non-negative integers, got {[n, m]!r}")
        if (not isinstance(rows, list) or len(rows) != n + 1
                or any(not isinstance(r, list) or len(r) != m + 1 for r in rows)):
            raise ValueError("ragged or inconsistent coefficient grid")
        return cls([[complex_from_pair(pair) for pair in row] for row in rows])

    def __repr__(self) -> str:
        n, m = self.bidegree
        return f"Poly2(bidegree=({n},{m}), scale={self.scale:.3g})"


def complex_from_pair(pair) -> complex:
    """The complex number re + i im of a JSON pair [re, im] of real numbers."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair)):
        raise ValueError(f"expected an [re, im] pair of real numbers, got {pair!r}")
    return complex(pair[0], pair[1])


def complex_to_pair(z) -> list[float]:
    """The JSON pair [re, im] of a complex number, the inverse of
    `complex_from_pair`."""
    return [float(z.real), float(z.imag)]


def _as_poly(x) -> Poly2:
    if isinstance(x, Poly2):
        return x
    if np.isscalar(x):
        return Poly2.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as Poly2")


def coeff_distance(f: Poly2, g: Poly2) -> float:
    """Max modulus of the coefficientwise difference."""
    K = max(f.coeffs.shape[0], g.coeffs.shape[0])
    L = max(f.coeffs.shape[1], g.coeffs.shape[1])
    return float(np.abs(f.padded((K, L)) - g.padded((K, L))).max())


@dataclass(frozen=True)
class UnimodularMatch:
    """Outcome of testing f~ = lambda * f for a single unimodular lambda."""

    matches: bool
    lam: complex | None
    residual: float


def unimodular_reflection_match(f: Poly2) -> UnimodularMatch:
    """Test whether the reflection equals a unimodular multiple of f.

    lambda is the least-squares multiplier <f~, f> / <f, f> projected to the
    unit circle; the residual is the max coefficient modulus of
    f~ - lambda f, and the match holds when it is at most SYMMETRY_TOL
    times the scale.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no reflection symmetry")
    a = f.coeffs
    b = np.conj(a[::-1, ::-1])
    ip = np.vdot(a, b)
    lam = ip / abs(ip) if ip != 0 else 1.0 + 0j
    residual = float(np.abs(b - lam * a).max())
    matches = residual <= SYMMETRY_TOL * f.scale
    return UnimodularMatch(matches, complex(lam) if matches else None, residual)


def normalize_symmetric(f: Poly2) -> tuple[Poly2, complex]:
    """Scale f by a unimodular mu so the result g satisfies g~ = g.

    Requires f~ = lambda f; mu is a square root of lambda.  Returns (g, mu).
    """
    match = unimodular_reflection_match(f)
    if not match.matches:
        raise ValueError(
            f"not reflection-symmetric (residual {match.residual:.3e})")
    mu = np.sqrt(match.lam)
    return f * mu, complex(mu)


@dataclass(frozen=True)
class MobiusParams:
    """Parameters of the bidisk automorphism (a-z1)/(1-conj(a)z1) x same in z2."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        if abs(self.a) >= 1 or abs(self.b) >= 1:
            raise ValueError("Mobius parameters must lie strictly inside the unit disk")


def mobius_basis(alpha: complex, deg: int) -> np.ndarray:
    """The read-only (deg+1, deg+1) matrix whose row k holds the low-first
    coefficients of (alpha - z)^k (1 - conj(alpha) z)^(deg - k): the
    cleared-denominator composition of a degree-deg polynomial with the
    involution z -> (alpha - z)/(1 - conj(alpha) z), coefficient row by row."""
    num = [np.array([1.0 + 0j])]
    den = [np.array([1.0 + 0j])]
    for _ in range(deg):
        num.append(np.convolve(num[-1], np.array([alpha, -1.0])))
        den.append(np.convolve(den[-1], np.array([1.0, -np.conj(alpha)])))
    T = np.zeros((deg + 1, deg + 1), dtype=complex)
    for k in range(deg + 1):
        c = np.convolve(num[k], den[deg - k])
        T[k, : c.size] = c
    T.flags.writeable = False
    return T


def mobius_numerator(f: Poly2, params: MobiusParams) -> Poly2:
    """Cleared-denominator Mobius composition.

    Returns (1 - conj(a)z1)^n (1 - conj(b)z2)^m * f((a-z1)/(1-conj(a)z1),
    (b-z2)/(1-conj(b)z2)), a polynomial of bidegree at most (n, m).
    """
    n, m = f.bidegree
    T1 = mobius_basis(complex(params.a), n)
    T2 = mobius_basis(complex(params.b), m)
    out = np.einsum("kl,ki,lj->ij", f.coeffs, T1, T2)
    return Poly2(out)


def compute_h(f: Poly2) -> Poly2:
    """h = z1 df/dz1 + z2 df/dz2, i.e. coefficientwise (k+l) a[k,l]."""
    if f.is_zero:
        raise ValueError("h undefined for the zero polynomial")
    n, m = f.bidegree
    k = np.arange(n + 1)[:, None]
    l = np.arange(m + 1)[None, :]
    return Poly2(f.coeffs * (k + l))


def slice_rows(coeffs: np.ndarray, z1) -> np.ndarray:
    """Low-first z2-coefficients of f(z1, .) at each point z1, by Horner in
    z1: shape z1.shape + (m+1,)."""
    rows = P.polyval(np.asarray(z1, dtype=complex), np.asarray(coeffs), tensor=True)
    return np.moveaxis(rows, 0, -1)


def unimodular_slice_roots(f: Poly2, z1s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots on the unit circle of the slices f(z1, .), z1 in the 1-D
    array z1s.

    One batched root solve over the slice rows; a root within CIRCLE_BAND of
    the circle is kept and normalized to modulus one.  Returns the kept
    roots flat, slice by slice, the index into z1s of each one's slice, and
    the mask of slices that vanish identically (row max at most
    RELATIVE_COEFF_FLOOR * scale), which keep no root.
    """
    rows = slice_rows(f.coeffs, z1s)
    vanishing = np.abs(rows).max(axis=-1) <= RELATIVE_COEFF_FLOOR * f.scale
    rts = batched_roots(rows)
    # the NaN padding compares False
    keep = np.abs(np.abs(rts) - 1.0) <= CIRCLE_BAND
    keep[vanishing] = False
    which = keep.nonzero()[0]
    uni = rts[keep]
    return uni / np.abs(uni), which, vanishing


def sylvester_resultant_z2(f: Poly2, g: Poly2) -> np.ndarray:
    """Resultant of f and g in z2, a univariate polynomial in z1.

    The Sylvester determinant (entries in C[z1]) is recovered by evaluating
    at roots of unity and interpolating with an inverse DFT.  Returns a 1-D
    low-first coefficient array; the identically zero resultant (common
    z2-factor) comes back as [0].
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial")
    nf, mf = f.bidegree
    ng, mg = g.bidegree
    if mf == 0 and mg == 0:
        raise ValueError("both polynomials are constant in z2")

    deg_bound = nf * mg + ng * mf
    S = deg_bound + 1
    nodes = np.exp(2j * np.pi * np.arange(S) / S)

    Pf = slice_rows(f.coeffs, nodes)    # (S, mf+1), low-first in z2
    Pg = slice_rows(g.coeffs, nodes)    # (S, mg+1)

    size = mf + mg
    M = np.zeros((S, size, size), dtype=complex)
    for r in range(mg):                       # rows from f, high-first
        M[:, r, r: r + mf + 1] = Pf[:, ::-1]
    for r in range(mf):                       # rows from g
        M[:, mg + r, r: r + mg + 1] = Pg[:, ::-1]
    dets = np.linalg.det(M)

    # Hadamard bound gives the natural scale for zero detection
    row_norms = np.sqrt((np.abs(M) ** 2).sum(axis=2))
    hadamard = np.exp(np.log(np.maximum(row_norms, 1e-300)).sum(axis=1)).max()
    if np.abs(dets).max() <= RESULTANT_ZERO_TOL * max(hadamard, 1e-300):
        return np.zeros(1, dtype=complex)

    return interpolate_roots_of_unity(dets)
