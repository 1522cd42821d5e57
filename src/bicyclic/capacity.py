"""Measures on torus curves: Fourier coefficients, decay, and Riesz energy.

A measure psi(t) dt on a traced branch is integrated by the trapezoid rule
on the uniform parameter grid; for smooth compactly supported or periodic
integrands this is spectrally accurate.  The truncated energy sums follow
the four-term Fourier-side expression of the alpha-energy, and trend
verdicts classify how the partial sums behave under cutoff doubling --
they are statements about truncations, never about the infinite series.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .curvegeom import CurveBranch, curve_type_at, trace_branch
from .poly2 import SAME_POINT_TOL, Poly2, lattice_values
from .stability import TorusZeroKind, torus_zero_classification

TWO_PI = 2.0 * np.pi

CONVERGENT_RATIO = 0.9       # increment ratio below which the trend is convergent
DIVERGENT_RATIO = 0.98       # increment ratio above which increments count as non-decreasing
NEGLIGIBLE_INCREMENT = 1e-12


class TrendVerdict(enum.Enum):
    CONVERGENT = "ConvergentTrend"
    DIVERGENT = "DivergentTrend"
    INCONCLUSIVE = "Inconclusive"


def trend_verdict(partial_sums) -> TrendVerdict:
    """Classify nested partial sums by the ratios of successive increments."""
    s = np.asarray(partial_sums, dtype=float)
    if s.size < 3:
        return TrendVerdict.INCONCLUSIVE
    inc = np.diff(s)
    ref = max(abs(s[-1]), 1.0)
    if np.all(inc <= NEGLIGIBLE_INCREMENT * ref):
        return TrendVerdict.CONVERGENT
    ratios = []
    for a, b in zip(inc, inc[1:]):
        if a <= NEGLIGIBLE_INCREMENT * ref:
            ratios.append(0.0)
        else:
            ratios.append(b / a)
    ratios = np.asarray(ratios)
    if np.all(ratios < CONVERGENT_RATIO):
        return TrendVerdict.CONVERGENT
    if np.all(ratios >= DIVERGENT_RATIO):
        return TrendVerdict.DIVERGENT
    return TrendVerdict.INCONCLUSIVE


@dataclass(frozen=True)
class CurveMeasure:
    """Probability measure psi(t) dt on a traced branch.

    profile "bump": the C-infinity window exp(-1/(1-s^2)) on (center -
    half_width, center + half_width), vanishing to all orders at the ends;
    profile "uniform": constant weight over the full branch (natural for
    closed line branches).  psi is normalized so the grid quadrature of
    psi dt is exactly one.
    """

    branch: CurveBranch
    psi: np.ndarray
    profile: str
    support: tuple[float, float]

    @property
    def quadrature_nodes(self) -> int:
        return self.branch.t.size


def make_uniform_measure(branch: CurveBranch) -> CurveMeasure:
    h = branch.spacing
    psi = np.full(branch.t.size, 1.0)
    psi /= psi.sum() * h
    return CurveMeasure(branch, psi, "uniform", branch.window)


def make_bump_measure(branch: CurveBranch, center: float, half_width: float) -> CurveMeasure:
    t = branch.t
    lo, hi = center - half_width, center + half_width
    w0, w1 = branch.window
    if not branch.periodic and (lo < w0 - 1e-12 or hi > w1 + 1e-12):
        raise ValueError("bump support exceeds the branch window")
    s = (t - center) / half_width
    if branch.periodic:
        s = (t - center + np.pi) % TWO_PI - np.pi
        s = s / half_width
    psi = np.zeros(t.size)
    inside = np.abs(s) < 1.0
    psi[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    total = psi.sum() * branch.spacing
    if total <= 0:
        raise ValueError("bump support contains no grid nodes")
    psi /= total
    return CurveMeasure(branch, psi, "bump", (lo, hi))


class FourierTable:
    """Coefficients mu_hat(k, l) for |k|, |l| <= K with conjugate symmetry."""

    def __init__(self, K: int, coeffs: np.ndarray):
        if coeffs.shape != (2 * K + 1, 2 * K + 1):
            raise ValueError("coefficient array must be (2K+1) x (2K+1)")
        self.K = K
        self.coeffs = coeffs

    def get(self, k: int, l: int) -> complex:
        if abs(k) > self.K or abs(l) > self.K:
            raise KeyError((k, l))
        return complex(self.coeffs[k + self.K, l + self.K])

    def moduli(self) -> np.ndarray:
        return np.abs(self.coeffs)


def fourier_coefficients(mu: CurveMeasure, K: int) -> FourierTable:
    """mu_hat(k,l) = integral exp(-i(k t + l m(t))) psi(t) dt by trapezoid.

    Requires at least 8K branch nodes to keep the highest requested mode
    well resolved.  The sum runs over the nodes where psi is nonzero, since
    the others add exact zeros: a bump pays only for its support, a uniform
    measure for every node.  Conjugate symmetry is enforced exactly.
    """
    branch = mu.branch
    if branch.t.size < 8 * K:
        raise ValueError(f"branch resolution {branch.t.size} too low for K = {K}")
    support = np.flatnonzero(mu.psi)
    ks = np.arange(-K, K + 1)
    E1 = np.exp(-1j * np.outer(ks, branch.t[support]))    # (2K+1, support size)
    E2 = np.exp(-1j * np.outer(ks, branch.m[support]))
    table = (E1 * (mu.psi[support] * branch.spacing)[None, :]) @ E2.T
    table = 0.5 * (table + np.conj(table[::-1, ::-1]))
    return FourierTable(K, table)


@dataclass(frozen=True)
class DecayFit:
    """Dyadic-shell summary of coefficient decay."""

    shell_radii: np.ndarray
    shell_maxima: np.ndarray
    slope: float
    intercept: float
    fit_residual: float
    bound_statistic: float | None
    tau_claimed: float | None

    def csv_rows(self) -> list[str]:
        rows = ["shell_radius,shell_max"]
        for r, v in zip(self.shell_radii, self.shell_maxima):
            rows.append(f"{r!r},{v!r}")
        return rows


def decay_fit(table: FourierTable, shells: int,
              tau_claimed: float | None = None) -> DecayFit:
    """Fit log(shell max) against log(radius) over dyadic shells.

    The bound statistic sup_shells max * R^(1/tau) estimates the constant in
    a claimed decay rate (k^2+l^2)^(-1/(2 tau)).
    """
    if table.K < 32:
        raise ValueError("need K >= 32 for a meaningful decay fit")
    K = table.K
    ks = np.arange(-K, K + 1)
    radius = np.hypot(ks[:, None], ks[None, :])
    mods = table.moduli()

    radii, maxima = [], []
    for j in range(shells):
        lo, hi = 2.0 ** j, 2.0 ** (j + 1)
        mask = (radius >= lo) & (radius < hi)
        if not mask.any():
            raise ValueError(f"empty dyadic shell [{lo}, {hi})")
        radii.append(lo)
        maxima.append(float(mods[mask].max()))
    radii = np.asarray(radii)
    maxima = np.asarray(maxima)

    x = np.log(radii)
    y = np.log(np.maximum(maxima, 1e-300))
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit_res = float(np.sqrt(np.mean((A @ sol - y) ** 2)))
    stat = None
    if tau_claimed is not None:
        stat = float(np.max(maxima * radii ** (1.0 / tau_claimed)))
    return DecayFit(shell_radii=radii, shell_maxima=maxima, slope=float(sol[0]),
                    intercept=float(sol[1]), fit_residual=fit_res,
                    bound_statistic=stat, tau_claimed=tau_claimed)


@dataclass(frozen=True)
class EnergyReport:
    """Truncated alpha-energy partial sums with a trend verdict."""

    alpha: float
    cutoffs: tuple
    partial_sums: tuple
    verdict: TrendVerdict
    tail_slope: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "cutoffs": list(self.cutoffs),
            "partial_sums": list(self.partial_sums),
            "verdict": self.verdict.value,
            "tail_slope": self.tail_slope,
            "trend_thresholds": {"convergent_ratio": CONVERGENT_RATIO,
                                 "divergent_ratio": DIVERGENT_RATIO},
        }

    def csv_rows(self) -> list[str]:
        rows = ["cutoff,partial_sum"]
        for c, s in zip(self.cutoffs, self.partial_sums):
            rows.append(f"{c},{s!r}")
        return rows


def riesz_energy(table: FourierTable, alpha: float, cutoffs) -> EnergyReport:
    """Truncations of the Fourier-side alpha-energy expression.

    S(c) = 1 + sum_{k=1..c} |mu(k,0)|^2 / k^a + sum_{l=1..c} |mu(0,l)|^2 / l^a
         + 1/2 sum_{0<|k|<=c} sum_{l=1..c} |mu(k,l)|^2 / (|k|^a l^a).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    cutoffs = [int(c) for c in cutoffs]
    if any(c <= 0 or c > table.K for c in cutoffs) or sorted(cutoffs) != cutoffs:
        raise ValueError("cutoffs must be increasing and bounded by K")
    K = table.K
    mods2 = table.moduli() ** 2

    sums = []
    for c in cutoffs:
        ax1 = sum(mods2[K + k, K] / k ** alpha for k in range(1, c + 1))
        ax2 = sum(mods2[K, K + l] / l ** alpha for l in range(1, c + 1))
        kidx = np.concatenate([np.arange(-c, 0), np.arange(1, c + 1)])
        lidx = np.arange(1, c + 1)
        block = mods2[np.ix_(K + kidx, K + lidx)]
        wkk = np.abs(kidx).astype(float) ** (-alpha)
        wll = lidx.astype(float) ** (-alpha)
        dbl = 0.5 * float(wkk @ block @ wll)
        sums.append(1.0 + ax1 + ax2 + dbl)

    verdict = trend_verdict(sums)
    x = np.log(np.asarray(cutoffs, dtype=float))
    y = np.log(np.asarray(sums))
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return EnergyReport(alpha=alpha, cutoffs=tuple(cutoffs),
                        partial_sums=tuple(float(s) for s in sums),
                        verdict=verdict, tail_slope=float(sol[0]))


def branch_measure(f: Poly2, K: int, uniform: bool = False) -> CurveMeasure:
    """The measure on the full branch of Z(f), traced at max(8K, 1024) nodes,
    that the fourier, energy and certificate pipelines share.

    Uniform when `uniform` is set or the branch is a straight line in the
    torus (its coefficients then lie on one frequency line).  Otherwise a
    smooth bump centered on the node of largest |m''|, which must be of
    type 2, shrunk until |m''| stays above 30% of its center value.
    """
    branch = trace_branch(f, (0.0, TWO_PI), max(8 * K, 1024))
    d2 = branch.derivative_grid(2)
    if uniform or float(np.abs(d2).max()) <= 1e-7 * max(1.0, float(np.abs(branch.dm).max())):
        return make_uniform_measure(branch)
    center_idx = int(np.argmax(np.abs(d2)))
    center = float(branch.t[center_idx])
    report = curve_type_at(branch, center)
    if report.tau != 2:
        raise ValueError(f"no type-2 point found (type at max curvature: {report.tau})")
    half = 0.8
    mid = abs(d2[center_idx])
    for _ in range(8):
        s = (branch.t - center + np.pi) % TWO_PI - np.pi
        inside = np.abs(s) < half
        if np.abs(d2[inside]).min() >= 0.3 * mid:
            break
        half *= 0.7
    return make_bump_measure(branch, center, half)


def noncyclicity_certificate(f: Poly2, alpha: float, K: int = 128,
                             cutoffs=None) -> EnergyReport:
    """Energy evidence that f with a torus zero curve is not cyclic at alpha.

    The measure is `branch_measure(f, K)`: uniform on a line branch, a
    smooth bump at a type-2 point of a curved one.  A convergent trend at
    alpha is evidence of non-cyclicity for all larger parameters; the
    certificate only has force for alpha > 1/2 (below that threshold the
    energy diverges for every such measure and the verdict says so).  It is
    attached as evidence and never used to overturn the classification.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    tz = torus_zero_classification(f, stability_check=False)
    if tz.kind is not TorusZeroKind.CURVE:
        raise ValueError("certificate requires a torus zero curve")
    table = fourier_coefficients(branch_measure(f, K), K)
    if cutoffs is None:
        cutoffs = [K // 8, K // 4, K // 2, K]
    return riesz_energy(table, alpha, cutoffs)


@dataclass(frozen=True)
class CofactorReport:
    """Weighted spectral sums of Q = Q0^N / f on a torus lattice."""

    q: int
    N: int
    grid: int
    cutoffs: tuple
    weighted_sums: dict
    verdicts: dict
    sup_norm: float

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "N": self.N,
            "grid": self.grid,
            "cutoffs": list(self.cutoffs),
            "weighted_sums": {str(b): list(v) for b, v in self.weighted_sums.items()},
            "verdicts": {str(b): v.value for b, v in self.verdicts.items()},
            "sup_norm": self.sup_norm,
            "trend_thresholds": {"convergent_ratio": CONVERGENT_RATIO,
                                 "divergent_ratio": DIVERGENT_RATIO},
        }


def cofactor_experiment(f: Poly2, zeros, q: int, N: int, grid: int,
                        cutoffs=None) -> CofactorReport:
    """Spectral membership experiment for Q = prod (z - zeta)^(qN) / f.

    Q0 is the product of (z1 - zeta1)^q (z2 - zeta2)^q over the supplied
    torus zeros; Q = Q0^N / f is evaluated on a power-of-two torus lattice
    (set to zero at the zeros of f), transformed, and the weighted sums
    sum |Q_hat(k,l)|^2 (k+1)^b (l+1)^b over k, l >= 0 are reported at nested
    cutoffs for b in {1, 2}.
    """
    if grid < 256 or grid & (grid - 1):
        raise ValueError("grid must be a power of two, at least 256")
    scale = f.scale
    fv = lattice_values(f, grid)

    q0 = Poly2.constant(1.0)
    for (z1, z2) in zeros:
        fac1 = Poly2(np.array([[-z1], [1.0]], dtype=complex)) ** q
        fac2 = Poly2(np.array([[-z2, 1.0]], dtype=complex)) ** q
        q0 = q0 * fac1 * fac2
    q0v = lattice_values(q0, grid) ** N

    tiny = np.abs(fv) <= 1e-10 * scale
    if tiny.any():
        th = TWO_PI * np.arange(grid) / grid
        for i, j in zip(*np.nonzero(tiny)):
            p1, p2 = np.exp(1j * th[i]), np.exp(1j * th[j])
            if not any(abs(p1 - z1) + abs(p2 - z2) < SAME_POINT_TOL for (z1, z2) in zeros):
                raise ValueError(
                    f"f vanishes on the lattice at ({p1:.6g}, {p2:.6g}) away from "
                    "the supplied zeros")
    qv = np.zeros_like(fv)
    good = ~tiny
    qv[good] = q0v[good] / fv[good]
    sup = float(np.abs(qv).max())

    qhat2 = np.abs(np.fft.fft2(qv) / (grid * grid)) ** 2
    if cutoffs is None:
        cutoffs = [grid // 8, grid // 4, grid // 2 - 1]
    cutoffs = [int(c) for c in cutoffs]
    if any(c >= grid // 2 + 1 for c in cutoffs):
        raise ValueError("cutoffs must stay below the Nyquist index")

    kmax = max(cutoffs)
    block = qhat2[: kmax + 1, : kmax + 1]
    sums: dict = {}
    verdicts: dict = {}
    for beta in (1, 2):
        wk = (np.arange(kmax + 1) + 1.0) ** beta
        weighted = block * wk[:, None] * wk[None, :]
        per_cut = [float(weighted[: c + 1, : c + 1].sum()) for c in cutoffs]
        sums[beta] = per_cut
        verdicts[beta] = trend_verdict(per_cut)
    return CofactorReport(q=q, N=N, grid=grid, cutoffs=tuple(cutoffs),
                          weighted_sums=sums, verdicts=verdicts, sup_norm=sup)
