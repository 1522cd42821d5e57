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
import math
from dataclasses import dataclass

import numpy as np

from ._roots import line_fit
from .curvegeom import TWO_PI, CurveBranch, curve_type_at, trace_branch
from .poly2 import SAME_POINT_TOL, ZERO_VALUE_TOL, Poly2
from .stability import TorusZeroKind, torus_zero_classification

CONVERGENT_RATIO = 0.9       # increment ratio below which the trend is convergent
DIVERGENT_RATIO = 0.98       # increment ratio above which increments count as non-decreasing
NEGLIGIBLE_INCREMENT = 1e-12
_LATTICE_BLOCK_ROWS = 64     # lattice rows per block of the cofactor experiment
_FOURIER_BLOCK_NODES = 256   # support nodes per block of the Fourier table
_FOURIER_BLOCK_MODES = 32    # modes l per FFT block of a full-turn Fourier table
_TWO_PI_LOW = 2.4492935982947064e-16   # 2 pi - TWO_PI, to 6e-33


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {name} = {value}")


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


def make_uniform_measure(branch: CurveBranch) -> CurveMeasure:
    h = branch.spacing
    psi = np.full(branch.t.size, 1.0)
    psi /= psi.sum() * h
    return CurveMeasure(branch, psi, "uniform")


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
    return CurveMeasure(branch, psi, "bump")


class FourierTable:
    """Coefficients mu_hat(k, l) for |k|, |l| <= K with conjugate symmetry."""

    def __init__(self, K: int, coeffs: np.ndarray):
        if coeffs.shape != (2 * K + 1, 2 * K + 1):
            raise ValueError("coefficient array must be (2K+1) x (2K+1)")
        self.K = K
        self.coeffs = coeffs

    def moduli(self) -> np.ndarray:
        return np.abs(self.coeffs)


def _phase_steps(x: np.ndarray, K: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The step s = isqrt(K + 1) with the baby steps exp(-i r x), r < s, and
    the giant steps exp(-i j s x), j s <= K, as rows."""
    s = math.isqrt(K + 1)
    baby = np.exp(-1j * np.outer(np.arange(s), x))
    giant = np.exp(-1j * np.outer(np.arange(0, K + 1, s), x))
    return s, baby, giant


def _phase_powers(x: np.ndarray, K: int) -> np.ndarray:
    """exp(-i k x) for k = 0..K as rows, by baby-step/giant-step.

    With s = isqrt(K + 1), row k is giant[k // s] * baby[k % s], where
    baby[r] = exp(-i r x) and giant[j] = exp(-i j s x): about 2 sqrt(K)
    rows of exp instead of K + 1, and row 0 is exactly 1.
    """
    s, baby, giant = _phase_steps(x, K)
    return (giant[:, None, :] * baby[None, :, :]).reshape(-1, x.size)[: K + 1]


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly, by Veltkamp's split
    into 26-bit halves (Dekker 1971); needs no fused multiply-add."""
    def split(x):
        c = 134217729.0 * x         # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _node_offsets(t: np.ndarray) -> np.ndarray:
    """delta_j = t_j - 2 pi j / N on a full-turn grid t of N nodes, to the
    rounding of delta_j itself.

    N t_j = q + r and TWO_PI j = p + e exactly (`_two_product`), and
    2 pi = TWO_PI + _TWO_PI_LOW up to 6e-33, so N delta_j is
    (q - p) + (r - e) - _TWO_PI_LOW j, where q - p is exact (Sterbenz: q
    and p agree to rounding) and every other term is of the order of the
    rounding of t_j.
    """
    N = t.size
    j = np.arange(N, dtype=float)
    q, r = _two_product(t, float(N))
    p, e = _two_product(TWO_PI, j)
    return ((q - p) + (r - e) - _TWO_PI_LOW * j) / N


def _full_turn_columns(mu: CurveMeasure, K: int, table: np.ndarray) -> None:
    """Write the columns l = 0..K of the table of a measure supported on
    every node of the full-turn grid, by FFT over the nodes.

    With g_j = psi_j h exp(-i l m_j) and the node offsets delta_j of
    `_node_offsets`, sum_j g_j exp(-i k t_j) = FFT(g)(k) - i k FFT(g delta)(k)
    up to (k delta)^2 / 2, and |delta_j| <= 2 pi eps puts that below 1e-25
    for K <= 256.  The rows g are the baby-step/giant-step products of
    `_phase_powers` with the weights psi h folded into the baby steps, in
    blocks of whole giant steps, about _FOURIER_BLOCK_MODES rows l; g and
    g delta of a block share one buffer and one FFT call.
    """
    branch = mu.branch
    N = branch.t.size
    s, baby, giant = _phase_steps(branch.m, K)
    baby *= mu.psi * branch.spacing
    delta = _node_offsets(branch.t)
    ks = np.arange(-K, K + 1)
    bins = ks % N
    steps = max(1, _FOURIER_BLOCK_MODES // s)       # giant steps per block
    buffer = np.empty((2 * steps * s, N), dtype=complex)
    for j in range(0, giant.shape[0], steps):
        rows = min(steps, giant.shape[0] - j) * s   # l = j s .. j s + rows - 1
        g, g_delta = buffer[:rows], buffer[rows:2 * rows]
        np.multiply(giant[j:j + steps, None, :], baby[None], out=g.reshape(-1, s, N))
        np.multiply(g, delta, out=g_delta)
        F = np.fft.fft(buffer[:2 * rows], axis=1)[:, bins]
        lo = j * s
        kept = min(rows, K + 1 - lo)
        table[:, K + lo:K + lo + kept] = (F[:kept] - 1j * ks * F[rows:rows + kept]).T


def fourier_coefficients(mu: CurveMeasure, K: int) -> FourierTable:
    """mu_hat(k,l) = integral exp(-i(k t + l m(t))) psi(t) dt by trapezoid.

    Requires K >= 0 and at least 8K branch nodes to keep the highest
    requested mode well resolved.  psi is real, so
    mu_hat(-k,-l) = conj(mu_hat(k,l)): half the table is summed, the other
    half is filled by conjugation and the line between them symmetrized,
    so the symmetry holds exactly.  The phases are the baby-step/giant-step
    products of `_phase_powers`.  Two routes:

    - psi nonzero at every node of the full-turn grid, t equal to
      TWO_PI * j / N as `trace_branch` lays it over (0, 2 pi) (a uniform
      measure on a full branch): the columns l >= 0 by FFT over the nodes,
      corrected to the rounded nodes (`_full_turn_columns`), column 0
      symmetrized.  An FFT costs the same for every node, which is what
      such a measure pays anyway.
    - any other support (a bump, a partial window): the rows k >= 0 summed
      over the nodes where psi is nonzero, since the others add exact
      zeros, so a bump pays only for its support; in blocks of
      _FOURIER_BLOCK_NODES nodes, one matmul per block, so memory grows
      with the table and not with nodes x modes, and a support of one
      block is one matmul; row 0 symmetrized.
    """
    _check_at_least("K", K, 0)
    branch = mu.branch
    N = branch.t.size
    if N < 8 * K:
        raise ValueError(f"branch resolution {N} too low for K = {K}")
    support = np.flatnonzero(mu.psi)
    table = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    if support.size == N and np.array_equal(branch.t, TWO_PI * np.arange(N) / N):
        _full_turn_columns(mu, K, table)
        column0 = table[:, K]
        column0[:] = 0.5 * (column0 + np.conj(column0[::-1]))
        table[:, :K] = np.conj(table[::-1, :K:-1])
        return FourierTable(K, table)
    top = table[K:]
    for start in range(0, support.size, _FOURIER_BLOCK_NODES):
        nodes = support[start:start + _FOURIER_BLOCK_NODES]
        E1 = _phase_powers(branch.t[nodes], K)               # (K+1, block size)
        E1 *= (mu.psi[nodes] * branch.spacing)[None, :]
        E2 = _phase_powers(branch.m[nodes], K)
        E2 = np.concatenate([np.conj(E2[:0:-1]), E2])        # l = -K..K
        if start == 0:
            np.matmul(E1, E2.T, out=top)
        else:
            top += E1 @ E2.T
    top[0] = 0.5 * (top[0] + np.conj(top[0, ::-1]))
    table[:K] = np.conj(top[:0:-1, ::-1])
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


def decay_fit(table: FourierTable, shells: int,
              tau_claimed: float | None = None) -> DecayFit:
    """Fit log(shell max) against log(radius) over dyadic shells.

    The bound statistic sup_shells max * R^(1/tau) estimates the constant in
    a claimed decay rate (k^2+l^2)^(-1/(2 tau)).  A line needs two shells,
    and a rate needs tau > 0.
    """
    _check_at_least("shells", shells, 2)
    if tau_claimed is not None and not tau_claimed > 0:
        raise ValueError(f"tau_claimed must be positive, got tau_claimed = {tau_claimed}")
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

    slope, intercept, resid = line_fit(np.log(radii), np.log(np.maximum(maxima, 1e-300)))
    stat = None
    if tau_claimed is not None:
        stat = float(np.max(maxima * radii ** (1.0 / tau_claimed)))
    return DecayFit(shell_radii=radii, shell_maxima=maxima, slope=slope,
                    intercept=intercept, fit_residual=float(np.sqrt(np.mean(resid ** 2))),
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


def riesz_energy(table: FourierTable, alpha: float, cutoffs) -> EnergyReport:
    """Truncations of the Fourier-side alpha-energy expression.

    S(c) = 1 + sum_{k=1..c} |mu(k,0)|^2 / k^a + sum_{l=1..c} |mu(0,l)|^2 / l^a
         + 1/2 sum_{0<|k|<=c} sum_{l=1..c} |mu(k,l)|^2 / (|k|^a l^a).

    Only the slice |k| <= c, 0 <= l <= c of the table at the largest cutoff
    is read, with |mu|^2 as re^2 + im^2.  Each term is weighted once, the
    weights built from one vector of l^-a, and each S(c) is the sum of one
    sub-block of the weighted terms.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    cutoffs = [int(c) for c in cutoffs]
    if (any(c <= 0 or c > table.K for c in cutoffs)
            or any(b <= a for a, b in zip(cutoffs, cutoffs[1:]))):
        raise ValueError("cutoffs must be strictly increasing and bounded by K")
    K, c = table.K, cutoffs[-1]
    # mu(k, l) on the slice |k| <= c, 0 <= l <= c, row k at index k + c
    mu = table.coeffs[K - c: K + c + 1, K: K + c + 1]
    # the weight of each term: 1/2 |k|^-a l^-a off the axes, k^-a on the
    # axis l = 0 for k > 0, l^-a on the axis k = 0, and 0 at (0, 0), whose
    # term is the leading 1
    w = np.zeros(c + 1)
    w[1:] = np.arange(1.0, c + 1) ** -alpha
    weight = np.outer(np.concatenate([w[:0:-1], w]), 0.5 * w)
    weight[c + 1:, 0] = w[1:]
    weight[c] = w
    terms = weight * (mu.real ** 2 + mu.imag ** 2)
    sums = [1.0 + float(terms[c - d: c + d + 1, : d + 1].sum()) for d in cutoffs]

    slope, _, _ = line_fit(np.log(np.asarray(cutoffs, dtype=float)), np.log(np.asarray(sums)))
    return EnergyReport(alpha=alpha, cutoffs=tuple(cutoffs),
                        partial_sums=tuple(float(s) for s in sums),
                        verdict=trend_verdict(sums), tail_slope=slope)


def branch_measure(f: Poly2, K: int, uniform: bool = False) -> CurveMeasure:
    """The measure on the full branch of Z(f), traced at max(8K, 1024) nodes,
    that the fourier, energy and certificate pipelines share.

    Uniform when `uniform` is set.  Otherwise a smooth bump centered on the
    node of largest |m''| when `curve_type_at` gives that node type 2,
    shrunk until |m''| stays above 30% of its center value, and uniform when
    it does not: the order-2 threshold is one bound on |m''| over the whole
    branch, so then no node has type 2 (as on a straight line in the torus,
    whose coefficients lie on one frequency line).
    """
    _check_at_least("K", K, 0)
    branch = trace_branch(f, (0.0, TWO_PI), max(8 * K, 1024))
    if uniform:
        return make_uniform_measure(branch)
    d2 = np.abs(branch.derivatives[1])
    center_idx = int(np.argmax(d2))
    center = float(branch.t[center_idx])
    if curve_type_at(branch, center).tau != 2:
        return make_uniform_measure(branch)
    dist = np.abs((branch.t - center + np.pi) % TWO_PI - np.pi)
    half = 0.8
    for _ in range(8):
        if d2[dist < half].min() >= 0.3 * d2[center_idx]:
            break
        half *= 0.7
    return make_bump_measure(branch, center, half)


def noncyclicity_certificate(f: Poly2, alpha: float, K: int = 128) -> EnergyReport:
    """Energy evidence that f with a torus zero curve is not cyclic at alpha.

    The measure is `branch_measure(f, K)`: a smooth bump at a type-2 point,
    uniform on a branch without one (a line).  A convergent trend at
    alpha is evidence of non-cyclicity for all larger parameters; the
    certificate only has force for alpha > 1/2 (below that threshold the
    energy diverges for every such measure and the verdict says so).  It is
    attached as evidence and never used to overturn the classification.
    The energy is summed to the cutoffs K/8, K/4, K/2 and K, so K >= 8.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    tz = torus_zero_classification(f)
    if tz.kind is not TorusZeroKind.CURVE:
        raise ValueError("certificate requires a torus zero curve")
    return _certificate(f, alpha, K)


def _certificate(f: Poly2, alpha: float, K: int) -> EnergyReport:
    """`noncyclicity_certificate` for an f already known to vanish on a torus
    curve, as `classify_with_evidence` knows from its verdict."""
    _check_at_least("K", K, 8)
    table = fourier_coefficients(branch_measure(f, K), K)
    return riesz_energy(table, alpha, [K // 8, K // 4, K // 2, K])


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


def _root_powers(w: np.ndarray, degree: int) -> np.ndarray:
    """V[i, k] = w[i]^k = w[i k mod grid] for k = 0..degree, read from the
    one table of the grid's roots of unity w."""
    return w[np.arange(w.size)[:, None] * np.arange(degree + 1) % w.size]


def cofactor_experiment(f: Poly2, zeros, q: int, N: int, grid: int) -> CofactorReport:
    """Spectral membership experiment for Q = prod (z - zeta)^(qN) / f.

    Q0 is the product of (z1 - zeta1)^q (z2 - zeta2)^q over the supplied
    torus zeros; Q = Q0^N / f is evaluated on a power-of-two torus lattice
    (set to zero at the zeros of f), transformed, and the weighted sums
    sum |Q_hat(k,l)|^2 (k+1)^b (l+1)^b over k, l >= 0 are reported at the
    nested cutoffs grid/8, grid/4 and grid/2 - 1 for b in {1, 2}.  With w the
    grid's roots of unity, f on the lattice is V1 a V2^T (`_root_powers`)
    and Q0, one factor per variable, is the outer product of two products
    over w.  The lattice is built in blocks of _LATTICE_BLOCK_ROWS rows: each
    block is tested for zeros, divided, and put through the first FFT pass,
    of which only the columns up to the largest cutoff are kept, stored
    transposed.  The second pass runs over that store in blocks of
    _LATTICE_BLOCK_ROWS columns and writes |Q_hat|^2 straight into the
    (kmax+1)^2 array of the weighted sums, so memory grows with the kept
    modes and not with the whole lattice.  q = 0 or N = 0 gives Q = 1/f.
    """
    _check_at_least("q", q, 0)
    _check_at_least("N", N, 0)
    if grid < 256 or grid & (grid - 1):
        raise ValueError("grid must be a power of two, at least 256")
    zeros = list(zeros)     # read twice below, so a one-pass iterable would run dry
    w = np.exp(1j * TWO_PI * np.arange(grid) / grid)
    n, m = f.bidegree
    V1, V2 = _root_powers(w, n), _root_powers(w, m)

    zeta = np.asarray(zeros, dtype=complex).reshape(-1, 2)
    a = np.prod(w[:, None] - zeta[:, 0], axis=1) ** q
    b = np.prod(w[:, None] - zeta[:, 1], axis=1) ** q
    aN, bN = a ** N, b ** N

    cutoffs = [grid // 8, grid // 4, grid // 2 - 1]
    kmax = cutoffs[-1]
    # fft2's first pass (last axis), kept to the modes l <= kmax and stored
    # transposed, so that the second pass runs over contiguous rows
    cols = np.empty((kmax + 1, grid), dtype=complex)
    block_sups = []
    for start in range(0, grid, _LATTICE_BLOCK_ROWS):
        rows = slice(start, start + _LATTICE_BLOCK_ROWS)
        fv = (V1[rows] @ f.coeffs) @ V2.T
        tiny = np.abs(fv) <= ZERO_VALUE_TOL * f.scale
        if tiny.any():
            for i, j in zip(*np.nonzero(tiny)):
                p1, p2 = w[start + i], w[j]
                if not any(abs(p1 - z1) + abs(p2 - z2) < SAME_POINT_TOL for (z1, z2) in zeros):
                    raise ValueError(
                        f"f vanishes on the lattice at ({p1:.6g}, {p2:.6g}) away from "
                        "the supplied zeros")
        with np.errstate(divide="ignore", invalid="ignore"):
            qv = np.outer(aN[rows], bN) / fv
        qv[tiny] = 0
        block_sups.append(np.abs(qv).max())
        cols[:, rows] = np.fft.fft(qv, axis=1)[:, : kmax + 1].T

    # the second pass in blocks of columns l, kept to the modes k <= kmax;
    # power[k, l] = |Q_hat(k, l)|^2
    power = np.empty((kmax + 1, kmax + 1))
    for start in range(0, kmax + 1, _LATTICE_BLOCK_ROWS):
        lcols = slice(start, start + _LATTICE_BLOCK_ROWS)
        qhat = np.fft.fft(cols[lcols], axis=1)[:, : kmax + 1]
        power[:, lcols] = (np.abs(qhat / (grid * grid)) ** 2).T
    del cols
    sums: dict = {}
    verdicts: dict = {}
    weighted = np.empty_like(power)
    for beta in (1, 2):
        wk = (np.arange(kmax + 1) + 1.0) ** beta
        np.multiply(power, wk[:, None], out=weighted)
        weighted *= wk[None, :]
        per_cut = [float(weighted[: c + 1, : c + 1].sum()) for c in cutoffs]
        sums[beta] = per_cut
        verdicts[beta] = trend_verdict(per_cut)
    return CofactorReport(q=q, N=N, grid=grid, cutoffs=tuple(cutoffs),
                          weighted_sums=sums, verdicts=verdicts,
                          sup_norm=float(np.max(block_sups)))
