"""Zero location on the closed bidisk and its distinguished boundary.

One slice engine decides both questions for a bivariate f.  The circle
slice p_t = f(e^{it}, .) has the Schur-Cohn matrix M(t) = A*A - B*B, whose
negative eigenvalues count its roots in the disk (Schur-Cohn-Fujiwara), and
which is singular exactly where p_t shares a root with its reflection.  A
and B are trigonometric polynomials in t, so M is one too:
M(t) = sum_{d=-n..n} M_d e^{idt}, the M_d (the table) built once per
factor.  f has no zero in the open bidisk iff f(., 0) has none in the disk
and M(t) is positive semidefinite for every t; one eigenvalue test per arc
between the angles of the 2nm eigenvalues of z^n M(t), a matrix polynomial
in z = e^{it}, decides this.  Where M(t) is singular at every t, f shares a
factor with its reflection, which a rank test off the circle detects.  When
every slice is self-inversive, as when f~ = lambda f
(`poly2.unimodular_reflection_match`), M vanishes and Cohn's criterion (all
roots on the circle iff the derivative's roots lie in the closed disk)
gives the same test on the reflection of df/dz2.  A torus zero makes M(t)
singular, so its t is one of the eigenvalue angles: on an f with open
zeros the torus zeros are read at those angles.  On a zero-free f the
smallest eigenvalue touches zero at the torus zeros: the sign changes
d < 0 -> d >= 0 of its slope v* M' v, bracketed on the eigenvalue angles and
the quarter points of their arcs and refined by a vectorised ITP search
that reads M and M'(t) = sum_d i d M_d e^{idt} from the table.  The torus
points are the slice roots there from `poly2.unimodular_slice_roots` with
|f| <= ZERO_VALUE_TOL * scale, points closer than SAME_POINT_TOL merged:
the empty / finite / curve trichotomy for an irreducible f.  One band,
`poly2.CIRCLE_BAND`, decides whether a computed root lies inside, on or
outside the unit circle: the slice roots, the roots of a univariate f and
those of f(., 0).
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from ._roots import roots_low_first
from .poly2 import (CIRCLE_BAND, SAME_POINT_TOL, SYMMETRY_TOL, ZERO_VALUE_TOL,
                    Poly2, UnimodularMatch, complex_to_pair, mobius_basis,
                    slice_rows, unimodular_reflection_match, unimodular_slice_roots)

RANK_BAND = 1e-10           # sigma_min <= band * sigma_max: M is singular off the circle
_SHIFTS = (0.3 + 0.2j, -0.25 + 0.35j, 0.1 - 0.4j)   # M is tested at z = 1 / conj(s)
_mobius_basis = functools.lru_cache(maxsize=64)(mobius_basis)   # once per shift and degree

# a Schur-Cohn eigenvalue below -_EIG_BAND * ||slice row||_1^2 is negative
# beyond the rounding of the products that form M = A*A - B*B.  It does not
# cover the table sum sum_d M_d e^{idt}, whose rounding scales with the
# coefficients rather than the slice row (about 100 eps ||row||_1^2 at some
# angles of the test families), so eigenvalue signs come from the product
# form only
_EIG_BAND = 64 * np.finfo(float).eps

# the bracket width at which the search for a touch point stops: 2 pi / 2^48,
# some 25 ulps of an angle near 2 pi
TOUCH_WIDTH = 2 * np.pi * 16 * np.finfo(float).eps
# the truncation of that search pushes the regula falsi point towards the
# midpoint by _ITP_K1 * width^_ITP_K2
_ITP_K1, _ITP_K2 = 0.1, 2.0


@dataclass(frozen=True)
class BidiskStabilityReport:
    has_zero_in_open_bidisk: bool
    has_zero_on_closed_bidisk: bool
    witness: tuple[complex, complex] | None

    def to_dict(self) -> dict:
        return {
            "has_zero_in_open_bidisk": self.has_zero_in_open_bidisk,
            "has_zero_on_closed_bidisk": self.has_zero_on_closed_bidisk,
            "witness": None if self.witness is None
            else [complex_to_pair(z) for z in self.witness],
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
            "points": [[complex_to_pair(z) for z in p] for p in self.points],
            "symmetry": None if self.symmetry is None else {
                "matches": self.symmetry.matches,
                "lambda": None if self.symmetry.lam is None
                else complex_to_pair(self.symmetry.lam),
                "residual": self.symmetry.residual,
            },
            "axis_aligned": self.axis_aligned,
            "candidates_checked": self.candidates_checked,
        }


@functools.lru_cache(maxsize=64)
def _toeplitz_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower-triangle mask and lag table of the m x m Toeplitz factors,
    built once per m and read-only."""
    i, j = np.indices((m, m))
    lower = i >= j
    lag = np.where(lower, i - j, 0)
    lower.flags.writeable = lag.flags.writeable = False
    return lower, lag


def _schur_cohn(rows: np.ndarray) -> np.ndarray:
    """The Schur-Cohn matrices M = A*A - B*B of an (S, m+1) stack of slice
    rows, A and B their Toeplitz factors: the product form, whose rounding
    _EIG_BAND covers."""
    m = rows.shape[-1] - 1
    lower, lag = _toeplitz_index(m)
    A = np.where(lower, rows[:, lag], 0)
    B = np.where(lower, np.conj(rows[:, m - lag]), 0)
    return np.conj(np.swapaxes(A, 1, 2)) @ A - np.conj(np.swapaxes(B, 1, 2)) @ B


def _schur_cohn_table(a: np.ndarray) -> np.ndarray:
    """The Schur-Cohn matrix of the circle slices of a scaled f as a
    trigonometric matrix polynomial M(t) = sum_{d=-n..n} M_d e^{idt}: the
    (2n+1, m, m) stack of the M_d.  The Toeplitz factors are
    A(t) = sum_p A_p e^{ipt} and B(t) = sum_p B_p e^{-ipt}, where A_p, B_p
    are those of coefficient row p, so that
    M_d = sum_{q-p=d} A_p*A_q - sum_{p-q=d} B_p*B_q.  Both sums come from the
    blocks K[p, q] = A_p*A_q - B_{n-p}*B_{n-q} of one Gram matrix."""
    N, m = a.shape[0], a.shape[1] - 1
    lower, lag = _toeplitz_index(m)
    # C is the block row [A_0 ... A_n] stacked on [B_n ... B_0], read out
    # of the grid with a zero column appended
    padded = np.concatenate([a, np.zeros((N, 1))], axis=1)
    A = np.where(lower, lag, m + 1)
    B = np.where(lower, m - lag, m + 1)
    C = np.concatenate([padded[:, A], np.conj(padded[::-1, B])], axis=1)
    C = C.transpose(1, 0, 2).reshape(2 * m, N * m)
    signs = np.repeat([1.0, -1.0], m)[:, None]
    K = (np.conj(C.T) @ (signs * C)).reshape(N, m, N, m).transpose(0, 2, 1, 3)
    # M_d sums the blocks with q - p = d: with p reversed and each block row
    # padded to 2N blocks, rows read at a stride one block shorter put
    # K[p, q] in column q - p + N - 1
    skew = np.zeros((N, 2 * N, m, m), dtype=complex)
    skew[:, :N] = K[::-1]
    skew = skew.reshape(2 * N * N, m, m)[:N * (2 * N - 1)]
    return skew.reshape(N, 2 * N - 1, m, m).sum(axis=0)


def _table_at(table: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """M(t) and its exact derivative M'(t) = sum_d i d M_d e^{idt} at every
    angle of ts, from the table in one matmul: shape (2, S, m, m)."""
    n = table.shape[0] // 2
    d = np.arange(-n, n + 1)
    E = np.exp(1j * np.multiply.outer(ts, d))
    out = np.concatenate([E, 1j * d * E]) @ table.reshape(2 * n + 1, -1)
    return out.reshape((2, ts.size) + table.shape[1:])


def _arc_points(angles: np.ndarray, fractions=(0.5,)) -> np.ndarray:
    """The points at the given fractions of every arc that the sorted
    angles cut the circle into; by default one point inside each arc."""
    nxt = np.append(angles[1:], angles[0] + 2 * np.pi)
    return np.concatenate([((1 - q) * angles + q * nxt) % (2 * np.pi) for q in fractions])


def _crossing_angles(f: Poly2):
    """The reflection match of f, with (sorted angles, table): f's table and
    the angles of the 2nm eigenvalues of P(z) = sum_k table[k] z^k, from the
    block companion of P after z = (s - w)/(1 - conj(s) w), which maps the
    circle to itself; None when every slice is self-inversive (the match
    holds or the table vanishes).  The companion's leading coefficient is
    M off the circle, conj(s)^{2n} P(1/conj(s)): f shares a factor with
    f~ when it is singular at every shift."""
    match = unimodular_reflection_match(f)
    table = None if match.matches else _schur_cohn_table(f.coeffs / f.scale)
    if table is None or np.abs(table).max() <= SYMMETRY_TOL:
        return match, None
    D, m = table.shape[0] - 1, table.shape[1]
    for s in _SHIFTS:
        Q = np.tensordot(_mobius_basis(s, D), table, axes=(0, 0))
        if np.linalg.cond(Q[D]) < 1 / RANK_BAND:
            break
    else:
        raise ValueError("input not irreducible: f and its reflection share a factor "
                         "although the reflection is not a unimodular multiple of f")
    # the block companion of Q(w) = sum_j Q[j] w^j, whose last block column
    # holds -Q[D]^{-1} Q[j] for j < D
    C = np.eye(D * m, k=-m, dtype=complex)
    C[:, -m:] = -np.linalg.solve(Q[D], Q[:D]).reshape(D * m, m)
    w = np.linalg.eigvals(C)
    # the angle of z = (s - w)/(1 - conj(s) w), without the division
    angles = np.angle((s - w) * np.conj(1 - np.conj(s) * w)) % (2 * np.pi)
    return match, (np.sort(angles), table)


def _most_negative(a: np.ndarray, ts: np.ndarray) -> float | None:
    """The t among ts where M(t) is most negative, or None when M(t) is
    positive semidefinite at every t within the rounding band."""
    rows = slice_rows(a, np.exp(1j * ts))
    lam = np.linalg.eigvalsh(_schur_cohn(rows))[:, 0]
    neg = lam < -_EIG_BAND * np.abs(rows).sum(axis=-1) ** 2
    if not neg.any():
        return None
    return float(ts[np.flatnonzero(neg)[np.argmin(lam[neg])]])


def _slopes(table: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """lambda_min'(t) = v* M'(t) v, v the unit eigenvector of the smallest
    eigenvalue of M(t), with M and M' from the table."""
    M, dM = _table_at(table, ts)
    v = np.linalg.eigh(M)[1][:, :, 0]
    return np.einsum("si,sij,sj->s", np.conj(v), dM, v).real


def _touch_points(table: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Local minima of lambda_min(t): the sign changes d < 0 -> d >= 0 of
    its slope d, bracketed on the angles and the quarter points of their
    arcs, and refined by a vectorised ITP search (interpolate, truncate,
    project: Oliveira & Takahashi, ACM TOMS 2021).

    Every step keeps d(lo) < 0 <= d(hi) and starts from the slopes already
    known at lo and hi.  It takes the regula falsi point, pushes it towards
    the midpoint by _ITP_K1 * width^_ITP_K2 and projects it into a radius
    of the midpoint that halves each step, so that no bracket needs more
    steps than bisection of the whole circle to TOUCH_WIDTH (48); on a
    smooth slope it converges superlinearly.  A bracket stops when it is
    TOUCH_WIDTH wide or stops shrinking."""
    # the quarter points give a bracket also where a double crossing angle
    # leaves only the touch point itself and its antipode as samples
    ts = np.sort(np.concatenate([angles, _arc_points(angles, (0.25, 0.5, 0.75))]))
    d = _slopes(table, ts)
    starts = np.flatnonzero((d < 0) & (np.roll(d, -1) >= 0))
    lo, dlo = ts[starts], d[starts]
    hi, dhi = np.append(ts, ts[0] + 2 * np.pi)[starts + 1], np.roll(d, -1)[starts]
    live = hi - lo > TOUCH_WIDTH
    reach = np.pi       # half the width that bisection of the circle has reached
    while live.any():
        k = np.flatnonzero(live)
        l, h, dl, dh = lo[k], hi[k], dlo[k], dhi[k]
        width, mid = h - l, (l + h) / 2
        falsi = (dh * l - dl * h) / (dh - dl)
        sigma = np.sign(mid - falsi)
        # a push of at least half the stop width moves a regula falsi point
        # that rounds onto an endpoint into the bracket
        delta = np.maximum(_ITP_K1 * width ** _ITP_K2, TOUCH_WIDTH / 2)
        x = np.where(delta <= np.abs(mid - falsi), falsi + sigma * delta, mid)
        radius = np.maximum(reach - width / 2, 0)
        x = np.where(np.abs(x - mid) <= radius, x, mid - sigma * radius)
        y = _slopes(table, x)
        down = y < 0
        lo[k], dlo[k] = np.where(down, x, l), np.where(down, y, dl)
        hi[k], dhi[k] = np.where(down, h, x), np.where(down, dh, y)
        live[k] = (hi[k] - lo[k] > TOUCH_WIDTH) & (hi[k] - lo[k] < width)
        reach /= 2
    return (lo + hi) / 2


def _torus_points(f: Poly2, ts: np.ndarray) -> tuple[list, bool]:
    """Torus zeros on the circle slices at the angles ts, sorted by angle,
    and whether one of those slices vanishes identically."""
    z1s = np.exp(1j * ts)
    z2s, which, vanishing = unimodular_slice_roots(f, z1s)
    z1s = z1s[which]
    zero = np.abs(f(z1s, z2s)) <= ZERO_VALUE_TOL * f.scale
    points: list[tuple[complex, complex]] = []
    for p in zip(z1s[zero].tolist(), z2s[zero].tolist()):
        if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < SAME_POINT_TOL for q in points):
            points.append(p)
    # angles a rounding error below 2 pi sort as 0
    points.sort(key=lambda p: tuple((np.angle(z) + 1e-12) % (2 * np.pi) for z in p))
    return points, bool(vanishing.any())


def _open_witness(f: Poly2, t: float) -> tuple[complex, complex] | None:
    """A zero (r e^{it}, z2) in the open bidisk, continued from the slice
    root w in the disk at angle t: at z1 = (1 - s) e^{it}, s halving from
    (1 - |w|) / 2, the slice root nearest w, the first that lies in the
    disk.  Each is a computed root of its slice, so |f| there is at
    rounding level."""
    rts = roots_low_first(slice_rows(f.coeffs, np.exp(1j * t)))
    w = complex(rts[np.argmin(np.abs(rts))])
    s = (1.0 - abs(w)) / 2
    while s > 1e-15:
        z1 = complex((1.0 - s) * np.exp(1j * t))
        rts = roots_low_first(slice_rows(f.coeffs, z1))
        z2 = complex(rts[np.argmin(np.abs(rts - w))])
        if abs(z2) < 1.0:
            return z1, z2
        s /= 2
    return None


def _slice_engine(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """Both zero reports of a bivariate f."""
    a = f.coeffs / f.scale
    # a zero of f(., 0) of modulus below 1 - CIRCLE_BAND is a witness
    rts = roots_low_first(a[:, 0]) if np.any(a[:, 0]) else np.zeros(1)
    inner = rts[np.abs(rts) < 1.0 - CIRCLE_BAND]
    witness = (complex(inner[0]), 0j) if inner.size else None

    match, crossing = _crossing_angles(f)
    if crossing is None:
        # every slice is self-inversive: Cohn's criterion on the slices of
        # df/dz2, which passes at once when they are constant in z2
        h = f.partial_derivative(2).reflect()
        h_cross = _crossing_angles(h)[1] if h.bidegree[1] else None
        t_neg = None if h_cross is None else _most_negative(h.coeffs / h.scale,
                                                            _arc_points(h_cross[0]))
        # a sample of the zero curve: the slice roots at z1 = 1
        points, vanishing = _torus_points(f, np.zeros(1))
        torus = TorusZeroSet(TorusZeroKind.CURVE, symmetry=match)
    else:
        angles, table = crossing
        t_neg = _most_negative(a, _arc_points(angles))
        # a torus zero makes M(t) singular, so t is a crossing angle; on a
        # zero-free f the touch search sharpens it where the angle is double
        ts = angles if t_neg is not None else _touch_points(table, angles)
        points, vanishing = _torus_points(f, ts)
        torus = TorusZeroSet(TorusZeroKind.FINITE if points else TorusZeroKind.EMPTY,
                             points=tuple(points), candidates_checked=int(angles.size))
    if witness is None and t_neg is not None:
        witness = _open_witness(f, t_neg)
    has_open = t_neg is not None or witness is not None
    report = BidiskStabilityReport(
        has_zero_in_open_bidisk=has_open,
        has_zero_on_closed_bidisk=has_open or bool(points) or crossing is None or vanishing,
        witness=witness or (points[0] if points else None),
    )
    return report, torus


def _univariate_reports(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """Both zero reports of an f in one variable, from its roots: a root
    within CIRCLE_BAND of the circle is a circle zero for both, one below
    1 - CIRCLE_BAND in modulus an open zero."""
    rts = roots_low_first(f.univariate_coeffs())
    roots = [complex(r) for r in rts if abs(r) <= 1.0 + CIRCLE_BAND]
    hits = [(r, 0j) if f.bidegree[1] == 0 else (0j, r) for r in roots]
    is_open = [abs(r) < 1.0 - CIRCLE_BAND for r in roots]
    # every hit is a root; the witness is an open one when there is one
    witness = next((h for h, o in zip(hits, is_open) if o), hits[0] if hits else None)
    report = BidiskStabilityReport(
        has_zero_in_open_bidisk=any(is_open),
        has_zero_on_closed_bidisk=bool(hits),
        witness=witness,
    )
    on_circle = not all(is_open)      # a hit that is not open is in the band
    torus = TorusZeroSet(TorusZeroKind.CURVE if on_circle else TorusZeroKind.EMPTY,
                         axis_aligned=on_circle, candidates_checked=int(rts.size))
    return report, torus


def zero_reports(f: Poly2) -> tuple[BidiskStabilityReport, TorusZeroSet]:
    """The bidisk report of `bidisk_zero_scan` and the torus report of
    `torus_zero_classification`, from one run of the slice engine, or from
    the roots of a univariate f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.is_univariate:
        return _univariate_reports(f)
    return _slice_engine(f)


def bidisk_zero_scan(f: Poly2) -> BidiskStabilityReport:
    """Decide whether f vanishes on the open and on the closed bidisk.

    Bivariate input goes through the slice engine, exact up to rounding;
    univariate input through its roots.  The witness is a zero in the open
    bidisk if there is one, else a zero found on the closed bidisk, else
    None.
    """
    return zero_reports(f)[0]


def torus_zero_classification(f: Poly2) -> TorusZeroSet:
    """Classify Z(f) on the torus as empty, a finite point list, or a curve.

    Irreducibility of f is a documented precondition.  For bivariate f the
    slice engine decides: self-inversive circle slices (f~ = lambda f) give
    a curve, otherwise it lists the isolated torus zeros.  A univariate f
    with a root within CIRCLE_BAND of the circle vanishes on a curve.  Zeros
    inside the bidisk are not checked; `zero_reports` returns both reports.
    """
    return zero_reports(f)[1]
