"""Zero location on the closed bidisk and its distinguished boundary.

One slice engine decides both questions for a bivariate f.  The circle
slice p_t = f(e^{it}, .) has the Schur-Cohn matrix M(t) = A*A - B*B, whose
negative eigenvalues count its roots in the disk (Schur-Cohn-Fujiwara), and
which is singular exactly where p_t shares a root with its reflection.  f
has no zero in the open bidisk iff f(., 0) has none in the disk and M(t) is
positive semidefinite for every t; one eigenvalue test per arc between the
angles of the roots of the z2-resultant of f and f~ - lambda f decides this.
`poly2.unimodular_reflection_match` gives lambda and decides whether every
slice is self-inversive (f~ = lambda f); then M vanishes and Cohn's
criterion (all roots on the circle iff the derivative's roots lie in the
closed disk) gives the same test on the reflection of df/dz2.  On a
zero-free f the smallest eigenvalue touches zero at the torus zeros; the
torus points are the slice roots there from `poly2.unimodular_slice_roots`
with |f| <= ZERO_VALUE_TOL * scale, points closer than SAME_POINT_TOL
merged.  The torus classification is the empty / finite / curve trichotomy
for an irreducible f.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._roots import newton_polish, roots_low_first
from .poly2 import (SAME_POINT_TOL, SYMMETRY_TOL, ZERO_VALUE_TOL, Poly2,
                    UnimodularMatch, lattice_values, slice_rows,
                    sylvester_resultant_z2, unimodular_reflection_match,
                    unimodular_slice_roots)

OPEN_MARGIN = 1e-7          # modulus band separating open from boundary roots

# a Schur-Cohn eigenvalue below -_EIG_BAND * ||slice row||_1^2 is negative
# beyond the rounding of the products that form M = A*A - B*B
_EIG_BAND = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class BidiskStabilityReport:
    has_zero_in_open_bidisk: bool
    has_zero_on_closed_bidisk: bool
    witness: tuple[complex, complex] | None
    min_modulus_estimate: float

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = [[self.witness[0].real, self.witness[0].imag],
                 [self.witness[1].real, self.witness[1].imag]]
        return {
            "has_zero_in_open_bidisk": self.has_zero_in_open_bidisk,
            "has_zero_on_closed_bidisk": self.has_zero_on_closed_bidisk,
            "witness": w,
            "min_modulus_estimate": self.min_modulus_estimate,
        }


class TorusZeroKind(enum.Enum):
    EMPTY = "empty"
    FINITE = "finite"
    CURVE = "curve"


@dataclass(frozen=True)
class TorusZeroSet:
    kind: TorusZeroKind
    points: tuple = ()
    symmetry: UnimodularMatch | None = None
    axis_aligned: bool = False
    candidates_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "points": [[[p[0].real, p[0].imag], [p[1].real, p[1].imag]]
                       for p in self.points],
            "symmetry": None if self.symmetry is None else {
                "matches": self.symmetry.matches,
                "lambda": None if self.symmetry.lam is None
                else [self.symmetry.lam.real, self.symmetry.lam.imag],
                "residual": self.symmetry.residual,
            },
            "axis_aligned": self.axis_aligned,
            "candidates_checked": self.candidates_checked,
        }


def _schur_cohn(rows: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """The form A*A' - B*B' of two (S, m+1) stacks of slice rows, where A, B
    are the Toeplitz factors of `rows` and A', B' those of `other`; with one
    stack, the Schur-Cohn matrices M = A*A - B*B."""
    m = rows.shape[-1] - 1
    i, j = np.indices((m, m))
    lower = i >= j
    lag = np.where(lower, i - j, 0)

    def factors(r):
        return (np.where(lower, r[:, lag], 0),
                np.where(lower, np.conj(r[:, m - lag]), 0))

    (A, B), (A2, B2) = factors(rows), factors(rows if other is None else other)
    return np.conj(np.swapaxes(A, 1, 2)) @ A2 - np.conj(np.swapaxes(B, 1, 2)) @ B2


def _midpoints(angles: np.ndarray) -> np.ndarray:
    """One point inside every arc that the sorted angles cut the circle into."""
    nxt = np.append(angles[1:], angles[0] + 2 * np.pi)
    return ((angles + nxt) / 2) % (2 * np.pi)


def _crossing_angles(a: np.ndarray):
    """(sorted angles, count) of the roots of the z2-resultant of a scaled f
    and the defect g = f~ - lambda f of its reflection match; None when
    every circle slice is self-inversive (the match holds)."""
    f = Poly2(a)
    match = unimodular_reflection_match(f)
    if match.matches:
        return None
    # Res(f, g) equals Res(f, f~) at equal degree, but stays far from the
    # zero test when f~ is close to a multiple of f
    res = sylvester_resultant_z2(f, Poly2(match.defect))
    if res.size == 1 and res[0] == 0:
        # M(t) has degree n in t: it vanishes iff it does at 2n+1 points
        n = a.shape[0] - 1
        rows = slice_rows(a, np.exp(2j * np.pi * np.arange(2 * n + 1) / (2 * n + 1)))
        if np.abs(_schur_cohn(rows)).max() > SYMMETRY_TOL:
            raise ValueError(
                "input not irreducible: f and its reflection share a factor "
                "although the reflection is not a unimodular multiple of f")
        return None
    roots = roots_low_first(res)
    # with no crossing the circle is one arc; cut it at 0
    angles = np.sort(np.angle(roots) % (2 * np.pi)) if roots.size else np.zeros(1)
    return angles, int(roots.size)


def _most_negative(a: np.ndarray, ts: np.ndarray) -> float | None:
    """The t among ts where M(t) is most negative, or None when M(t) is
    positive semidefinite at every t within the rounding band."""
    rows = slice_rows(a, np.exp(1j * ts))
    lam = np.linalg.eigvalsh(_schur_cohn(rows))[:, 0]
    neg = lam < -_EIG_BAND * np.abs(rows).sum(axis=-1) ** 2
    if not neg.any():
        return None
    return float(ts[np.flatnonzero(neg)[np.argmin(lam[neg])]])


def _slopes(a: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """lambda_min'(t) = v* M'(t) v, v the unit eigenvector of the smallest
    eigenvalue of M(t); M' comes from the t-derivative of the slice rows."""
    z1 = np.exp(1j * ts)
    rows = slice_rows(a, z1)
    X = _schur_cohn(slice_rows(1j * np.arange(a.shape[0])[:, None] * a, z1), rows)
    v = np.linalg.eigh(_schur_cohn(rows))[1][:, :, 0]
    return 2 * np.einsum("si,sij,sj->s", np.conj(v), X, v).real


def _touch_points(a: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Local minima of lambda_min(t), bracketed on the angles and arc
    midpoints and refined by 60 vectorised bisections."""
    ts = np.sort(np.concatenate([angles, _midpoints(angles)]))
    d = _slopes(a, ts)
    starts = np.flatnonzero((d < 0) & (np.roll(d, -1) >= 0))
    lo = ts[starts]
    hi = np.append(ts, ts[0] + 2 * np.pi)[starts + 1]
    for _ in range(60):
        mid = (lo + hi) / 2
        down = _slopes(a, mid) < 0
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    return (lo + hi) / 2


def _torus_points(f: Poly2, ts: np.ndarray) -> tuple[list, bool]:
    """Torus zeros on the circle slices at the angles ts, sorted by angle,
    and whether one of those slices vanishes identically."""
    z1s = np.exp(1j * ts)
    roots, vanishing = unimodular_slice_roots(f, z1s)
    points: list[tuple[complex, complex]] = []
    for z1, z2s in zip(z1s, roots):
        for z2 in z2s[np.abs(f(z1, z2s)) <= ZERO_VALUE_TOL * f.scale]:
            p = (complex(z1), complex(z2))
            if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < SAME_POINT_TOL for q in points):
                points.append(p)
    # angles a rounding error below 2 pi sort as 0
    points.sort(key=lambda p: tuple((np.angle(z) + 1e-12) % (2 * np.pi) for z in p))
    return points, bool(vanishing.any())


def _open_witness(f: Poly2, t: float) -> tuple[complex, complex] | None:
    """A zero (r e^{it}, z2) in the open bidisk, continued from the slice
    root in the disk at angle t."""
    rts = roots_low_first(slice_rows(f.coeffs, np.exp(1j * t)))
    w = complex(rts[np.argmin(np.abs(rts))])
    s = (1.0 - abs(w)) / 2
    while s > 1e-15:
        z1 = complex((1.0 - s) * np.exp(1j * t))
        z2 = newton_polish(slice_rows(f.coeffs, z1), w)
        if abs(z2) < 1.0 and abs(f(z1, z2)) <= 1e-6 * f.scale:
            return z1, z2
        s /= 2
    return None


def _min_modulus(f: Poly2, zeros) -> float:
    """min |f| over the 128 x 128 torus lattice and the given points."""
    return float(min([np.abs(lattice_values(f, 128)).min()] + [abs(f(*p)) for p in zeros]))


def _slice_engine(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """Both zero reports of a bivariate f."""
    a = f.coeffs / f.scale
    # a zero of f(., 0) in the disk is a witness
    rts = roots_low_first(a[:, 0]) if np.any(a[:, 0]) else np.zeros(1)
    inner = rts[np.abs(rts) < 1.0 - OPEN_MARGIN]
    witness = (complex(inner[0]), 0j) if inner.size else None

    crossing = _crossing_angles(a)
    if crossing is None:
        # every slice is self-inversive: Cohn's criterion on the slices of
        # df/dz2, which passes at once when they are constant in z2
        h = f.partial_derivative(2).reflect()
        hc = h.coeffs / h.scale
        h_cross = _crossing_angles(hc) if h.bidegree[1] else None
        t_neg = None if h_cross is None else _most_negative(hc, _midpoints(h_cross[0]))
        # a sample of the zero curve: the slice roots at z1 = 1
        points, vanishing = _torus_points(f, np.zeros(1))
        torus = TorusZeroSet(TorusZeroKind.CURVE, symmetry=unimodular_reflection_match(f))
    else:
        angles, candidates = crossing
        t_neg = _most_negative(a, _midpoints(angles))
        # on a zero-free f every torus zero is a tangential contact, found as a
        # touch point; where f has open zeros, slice roots also cross the
        # circle transversally, at simple resultant roots
        ts = _touch_points(a, angles)
        if t_neg is not None:
            ts = np.concatenate([ts, angles])
        points, vanishing = _torus_points(f, ts)
        torus = TorusZeroSet(TorusZeroKind.FINITE if points else TorusZeroKind.EMPTY,
                             points=tuple(points), candidates_checked=candidates)
    if witness is None and t_neg is not None:
        witness = _open_witness(f, t_neg)
    has_open = t_neg is not None or witness is not None
    report = BidiskStabilityReport(
        has_zero_in_open_bidisk=has_open,
        has_zero_on_closed_bidisk=has_open or bool(points) or crossing is None or vanishing,
        witness=witness or (points[0] if points else None),
        min_modulus_estimate=_min_modulus(f, points + ([witness] if witness else [])),
    )
    return report, torus


def _univariate_reports(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """Both zero reports of an f in one variable, from its roots: a root
    within OPEN_MARGIN of the circle is a circle zero for both."""
    rts = roots_low_first(f.univariate_coeffs())
    roots = [complex(r) for r in rts if abs(r) <= 1.0 + OPEN_MARGIN]
    hits = [(r, 0j) if f.bidegree[1] == 0 else (0j, r) for r in roots]
    is_open = [abs(r) < 1.0 - OPEN_MARGIN for r in roots]
    # every hit is a root; the witness is an open one when there is one
    witness = next((h for h, o in zip(hits, is_open) if o), hits[0] if hits else None)
    report = BidiskStabilityReport(
        has_zero_in_open_bidisk=any(is_open),
        has_zero_on_closed_bidisk=bool(hits),
        witness=witness,
        min_modulus_estimate=_min_modulus(f, hits),
    )
    on_circle = not all(is_open)      # a hit that is not open is in the band
    torus = TorusZeroSet(TorusZeroKind.CURVE if on_circle else TorusZeroKind.EMPTY,
                         axis_aligned=on_circle, candidates_checked=int(rts.size))
    return report, torus


def zero_reports(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """The bidisk report of `bidisk_zero_scan` and the torus report of
    `torus_zero_classification` (without its stability check), from one
    run of the slice engine, or from the roots of a univariate f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.is_univariate:
        return _univariate_reports(f)
    return _slice_engine(f)


def bidisk_zero_scan(f: Poly2) -> BidiskStabilityReport:
    """Decide whether f vanishes on the open and on the closed bidisk.

    Bivariate input goes through the slice engine, exact up to rounding;
    univariate input through its roots.  The witness is a zero in the open
    bidisk if there is one, else a zero found on the closed bidisk.  The
    minimum modulus is over a 128 x 128 torus lattice and the zeros found;
    for zero-free f it estimates the minimum over the closed bidisk
    (maximum principle).
    """
    return zero_reports(f)[0]


def torus_zero_classification(f: Poly2, *, stability_check: bool = True) -> TorusZeroSet:
    """Classify Z(f) on the torus as empty, a finite point list, or a curve.

    Irreducibility of f is a documented precondition.  For bivariate f the
    slice engine decides: self-inversive circle slices (f~ = lambda f) give
    a curve, otherwise it lists the isolated torus zeros.  A univariate f
    with a root within OPEN_MARGIN of the circle vanishes on a curve.  With
    `stability_check`, zeros inside the bidisk raise.
    """
    report, torus = zero_reports(f)
    if stability_check and report.has_zero_in_open_bidisk:
        raise ValueError("polynomial has zeros inside the bidisk")
    return torus
