"""Zero-location analysis on the closed bidisk and its distinguished boundary.

The scan slices the polynomial along one variable, computes the roots of
each univariate slice by companion-matrix eigenvalues, and classifies the
hits into open-bidisk and closed-bidisk zeros with a hard modulus margin.
The torus classification implements the empty / finite / curve trichotomy
for an irreducible polynomial with no zeros inside the bidisk.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._roots import batched_roots, newton_polish, roots_low_first
from .poly2 import Poly2, UnimodularMatch, sylvester_resultant_z2, unimodular_reflection_match

OPEN_MARGIN = 1e-7          # modulus band separating open from boundary roots
CIRCLE_TOL = 1e-8           # |root| distance to the unit circle for torus zeros
POINT_VALUE_TOL = 1e-8      # |f(p)| <= tol * scale at a reported torus zero


@dataclass(frozen=True)
class BidiskStabilityReport:
    has_zero_in_open_bidisk: bool
    has_zero_on_closed_bidisk: bool
    witness: tuple[complex, complex] | None
    min_modulus_estimate: float
    grid_resolution: tuple[int, int]

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
            "grid_resolution": list(self.grid_resolution),
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


def _disk_nodes(radial_steps: int, angular_steps: int) -> np.ndarray:
    """Polar grid of the closed unit disk (origin deduplicated)."""
    r = np.linspace(0.0, 1.0, radial_steps)
    th = np.linspace(0.0, 2 * np.pi, angular_steps, endpoint=False)
    pts = (r[1:, None] * np.exp(1j * th)[None, :]).ravel()
    return np.concatenate(([0.0 + 0j], pts))


def _slice_coeff_rows(f: Poly2, w: np.ndarray) -> np.ndarray:
    """Coefficients in z1 of f(., w) for each slice value w: (S, n+1)."""
    n, m = f.bidegree
    V = w[:, None] ** np.arange(m + 1)[None, :]
    return V @ f.coeffs.T


def _min_modulus_on_grid(f: Poly2, angular: int) -> float:
    """Min |f| over a coarse polar product grid plus the full torus grid."""
    sub = _disk_nodes(12, 24)
    vals = f(sub[:, None], sub[None, :])
    best = float(np.abs(vals).min())
    th = np.linspace(0.0, 2 * np.pi, max(angular, 32), endpoint=False)
    ring = np.exp(1j * th)
    vals_t = f(ring[:, None], ring[None, :])
    return min(best, float(np.abs(vals_t).min()))


def _scan_one_orientation(f: Poly2, w_nodes: np.ndarray):
    """Slice along z2 = w and root-solve in z1.

    Returns the closed-bidisk hits (z1, z2) and, per hit, whether it lies in
    the open bidisk.
    """
    rows = _slice_coeff_rows(f, w_nodes)
    roots = batched_roots(rows)
    hits: list[tuple[complex, complex]] = []
    is_open: list[bool] = []
    for s, rts in enumerate(roots):
        w = w_nodes[s]
        if rts is None:  # f(., w) identically zero: the whole line vanishes
            hits.append((0.0 + 0j, complex(w)))
            is_open.append(abs(w) < 1.0 - OPEN_MARGIN)
            continue
        if rts.size == 0:
            continue
        mods = np.abs(rts)
        for r, md in zip(rts, mods):
            if md <= 1.0 + OPEN_MARGIN:
                r = newton_polish(rows[s], r)
                hits.append((complex(r), complex(w)))
                is_open.append(abs(r) < 1.0 - OPEN_MARGIN and abs(w) < 1.0 - OPEN_MARGIN)
    return hits, is_open


def bidisk_zero_scan(f: Poly2, radial_steps: int = 64,
                     angular_steps: int = 128) -> BidiskStabilityReport:
    """Locate zeros of f on the open and closed bidisk by slice root scans.

    The scan is run in both variable orders and merged, so the report is
    symmetric under swapping z1 and z2.  Univariate input is handled exactly
    through its roots.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if radial_steps < 8 or angular_steps < 8:
        raise ValueError("steps must be at least 8")
    scale = f.scale
    grid = (radial_steps, angular_steps)

    n, m = f.bidegree
    if n == 0 and m == 0:
        return BidiskStabilityReport(False, False, None, abs(complex(f.coeffs[0, 0])), grid)

    min_mod = _min_modulus_on_grid(f, angular_steps)

    if f.is_univariate:
        c = f.univariate_coeffs()
        rts = roots_low_first(c)
        uni_axis = 1 if m == 0 else 2
        hits, is_open = [], []
        for r in rts:
            if abs(r) <= 1.0 + OPEN_MARGIN:
                hits.append((complex(r), 0j) if uni_axis == 1 else (0j, complex(r)))
                is_open.append(abs(r) < 1.0 - OPEN_MARGIN)
    else:
        w_nodes = _disk_nodes(radial_steps, angular_steps)
        hits_a, open_a = _scan_one_orientation(f, w_nodes)
        hits_b, open_b = _scan_one_orientation(f.swap_variables(), w_nodes)
        hits = hits_a + [(w, r) for (r, w) in hits_b]
        is_open = open_a + open_b

    # one evaluation over all closed hits; the witness is the best open hit
    # if one is a zero to 1e-6 * scale, else the best closed hit
    witness = None
    if hits:
        pts = np.array(hits)
        fv = f(pts[:, 0], pts[:, 1])
        vals = np.hypot(fv.real, fv.imag)  # rounds like abs() of a Python complex
        for mask in (np.array(is_open), np.full(len(hits), True)):
            if mask.any():
                i = int(np.flatnonzero(mask)[np.argmin(vals[mask])])
                if vals[i] <= 1e-6 * scale:
                    witness = hits[i]
                    break
        min_mod = min(min_mod, float(vals.min()))
    return BidiskStabilityReport(
        has_zero_in_open_bidisk=any(is_open),
        has_zero_on_closed_bidisk=bool(hits),
        witness=witness,
        min_modulus_estimate=float(min_mod),
        grid_resolution=grid,
    )


def _unimodular_z2_roots(f: Poly2, z1: complex, tol: float = 1e-6) -> np.ndarray:
    c = (z1 ** np.arange(f.coeffs.shape[0])) @ f.coeffs
    rts = roots_low_first(c)
    if rts.size == 0:
        return rts
    return rts[np.abs(np.abs(rts) - 1.0) <= tol]


def _circle_distance_of_best_root(f: Poly2, t: float) -> float:
    c = (np.exp(1j * t) ** np.arange(f.coeffs.shape[0])) @ f.coeffs
    rts = roots_low_first(c)
    if rts.size == 0:
        return np.inf
    return float(np.abs(np.abs(rts) - 1.0).min())


def _golden_minimize(fun, lo: float, hi: float, iters: int = 80) -> float:
    """Derivative-free golden-section minimizer on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
        if b - a < 1e-13:
            break
    return 0.5 * (a + b)


def torus_zero_classification(f: Poly2, *, stability_check: bool = True,
                              tol: float = CIRCLE_TOL) -> TorusZeroSet:
    """Classify Z(f) on the torus as empty, a finite point list, or a curve.

    Irreducibility of f is a documented precondition.  A bivariate f whose
    reflection matches a unimodular multiple vanishes along curves; otherwise
    the common zeros with the reflection are isolated and are recovered from
    the z2-resultant of (f, f~), refined on the circle, and verified against
    |f| and |f~|.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    scale = f.scale
    n, m = f.bidegree

    if stability_check and not f.is_univariate:
        scan = bidisk_zero_scan(f, 32, 64)
        if scan.has_zero_in_open_bidisk:
            raise ValueError("polynomial has zeros inside the bidisk")

    if n == 0 and m == 0:
        return TorusZeroSet(TorusZeroKind.EMPTY)

    if f.is_univariate:
        rts = roots_low_first(f.univariate_coeffs())
        if stability_check and np.any(np.abs(rts) < 1.0 - OPEN_MARGIN):
            raise ValueError("polynomial has zeros inside the bidisk")
        on_circle = np.abs(np.abs(rts) - 1.0) <= tol
        if np.any(on_circle):
            return TorusZeroSet(TorusZeroKind.CURVE, axis_aligned=True,
                                candidates_checked=int(rts.size))
        return TorusZeroSet(TorusZeroKind.EMPTY, candidates_checked=int(rts.size))

    match = unimodular_reflection_match(f)
    if match.matches:
        return TorusZeroSet(TorusZeroKind.CURVE, symmetry=match)

    ft = f.reflect()
    res = sylvester_resultant_z2(f, ft)
    if res.size == 1 and res[0] == 0:
        raise ValueError(
            "input not irreducible: f and its reflection share a factor "
            "although the reflection is not a unimodular multiple of f")

    cand = roots_low_first(res)
    near = cand[np.abs(np.abs(cand) - 1.0) <= 1e-4] if cand.size else cand

    # cluster multiple-root scatter, then refine each cluster on the circle
    clusters: list[list[complex]] = []
    for r in near:
        for cl in clusters:
            if abs(r - cl[0]) < 1e-5:
                cl.append(r)
                break
        else:
            clusters.append([r])

    points: list[tuple[complex, complex]] = []
    for cl in clusters:
        # the cluster mean cancels the square-root scatter of multiple roots;
        # fall back to a 1-D modulus minimization when it is not good enough
        t0 = float(np.angle(np.mean(cl)))
        candidates = [t0]
        if _circle_distance_of_best_root(f, t0) > 1e-12:
            candidates.append(_golden_minimize(
                lambda t: _circle_distance_of_best_root(f, t), t0 - 1e-2, t0 + 1e-2))
        t_star = min(candidates, key=lambda t: _circle_distance_of_best_root(f, t))
        z1 = np.exp(1j * t_star)
        z2s = _unimodular_z2_roots(f, z1, tol=1e-5)
        for z2 in z2s:
            z2 = z2 / abs(z2)
            if abs(f(z1, z2)) <= POINT_VALUE_TOL * scale:
                points.append((complex(z1), complex(z2)))

    # deduplicate
    unique: list[tuple[complex, complex]] = []
    for p in points:
        if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-6 for q in unique):
            unique.append(p)
    unique.sort(key=lambda p: (np.angle(p[0]) % (2 * np.pi), np.angle(p[1]) % (2 * np.pi)))

    if unique:
        return TorusZeroSet(TorusZeroKind.FINITE, points=tuple(unique),
                            candidates_checked=int(cand.size))
    return TorusZeroSet(TorusZeroKind.EMPTY, candidates_checked=int(cand.size))
