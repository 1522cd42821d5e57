"""Tracing torus zero curves and computing the contact type of their points.

A branch of Z(f) on the torus is represented as t -> (e^{it}, e^{i m(t)})
with m unwrapped to a continuous function on a uniform grid.  The type of a
point is the smallest derivative order at which every unit direction sees a
nonvanishing derivative of phi(t) = (t, m(t)); for a regular graph
parametrization only the normal direction matters, but both sign
resolutions and the tangential direction are tested explicitly.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .poly2 import (ZERO_VALUE_TOL, MobiusParams, Poly2, mobius_numerator,
                    unimodular_slice_roots)

TWO_PI = 2.0 * np.pi
ROOT_COLLISION_TOL = 1e-6    # branch ambiguity threshold
DERIVATIVE_REL_THRESHOLD = 1e-7
AFFINE_TOL = 1e-9            # straight-line fit residual, relative to max |m|


class BranchSource(enum.Enum):
    CLOSED_FORM = "closed_form"
    TRACED = "traced"


@dataclass(frozen=True)
class CurveBranch:
    """Sampled branch: uniform parameter grid, continuous m, derivatives."""

    t: np.ndarray
    m: np.ndarray
    dm: np.ndarray
    d2m: np.ndarray
    d3m: np.ndarray
    source: BranchSource
    periodic: bool
    winding: int

    @property
    def spacing(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def window(self) -> tuple[float, float]:
        h = self.spacing
        return (float(self.t[0]), float(self.t[-1] + h))

    def node_index(self, t: float) -> int:
        h = self.spacing
        i = int(round((t - self.t[0]) / h))
        if self.periodic:
            return i % self.t.size
        if not (0 <= i < self.t.size) or abs(self.t[i] - t) > h / 2 + 1e-12:
            raise ValueError(f"parameter {t} outside the branch window")
        return i

    def _extended(self, y: np.ndarray, pad: int) -> np.ndarray:
        if self.periodic:
            left = y[-pad:] - TWO_PI * self.winding
            right = y[:pad] + TWO_PI * self.winding
            return np.concatenate([left, y, right])
        return y

    def derivative_grid(self, order: int, stride: int = 1) -> np.ndarray:
        """Finite-difference derivative of m of the given order on the grid.

        Central stencils (five point for orders 1 and 2, matching a
        Richardson refinement of the three-point formulas); the grid wraps
        periodically when the branch closes up, otherwise edge nodes reuse
        the nearest interior stencil.  `stride` widens the effective step,
        which tames roundoff amplification for high orders.
        """
        if not 1 <= order <= 5:
            raise ValueError("derivative order must be between 1 and 5")
        h = self.spacing * stride
        reach = 3 if order == 5 else 2
        pad = reach * stride
        N = self.m.size
        if self.periodic:
            y = self._extended(self.m, pad)

            def sl(k):
                return y[pad + k * stride: pad + k * stride + N]
        else:
            # clamp each stencil to the window by shifting it inward; the
            # result at edge nodes is the derivative at the nearest interior
            # node, which is fine for threshold decisions
            idx = np.arange(N)
            base = np.clip(idx, pad, N - 1 - pad)

            def sl(k):
                return self.m[base + k * stride]

        if order == 1:
            return (sl(-2) - 8 * sl(-1) + 8 * sl(1) - sl(2)) / (12 * h)
        if order == 2:
            return (-sl(-2) + 16 * sl(-1) - 30 * sl(0) + 16 * sl(1) - sl(2)) / (12 * h * h)
        if order == 3:
            return (-sl(-2) + 2 * sl(-1) - 2 * sl(1) + sl(2)) / (2 * h ** 3)
        if order == 4:
            return (sl(-2) - 4 * sl(-1) + 6 * sl(0) - 4 * sl(1) + sl(2)) / h ** 4
        return (-sl(-3) + 4 * sl(-2) - 5 * sl(-1) + 5 * sl(1) - 4 * sl(2) + sl(3)) / (2 * h ** 5)

    def derivatives_at(self, index: int, max_order: int) -> list[float]:
        """m^(k)(t_index) for k = 1..max_order; stored arrays win when exact."""
        stored = {1: self.dm, 2: self.d2m, 3: self.d3m}
        out = []
        for k in range(1, max_order + 1):
            if self.source is BranchSource.CLOSED_FORM and k in stored:
                out.append(float(stored[k][index]))
            else:
                out.append(float(self.derivative_grid(k)[index]))
        return out

    def is_affine(self) -> bool:
        """True when m(t) fits a straight line to within AFFINE_TOL."""
        A = np.vstack([self.t, np.ones_like(self.t)]).T
        sol, *_ = np.linalg.lstsq(A, self.m, rcond=None)
        resid = float(np.abs(A @ sol - self.m).max())
        return resid <= AFFINE_TOL * max(1.0, float(np.abs(self.m).max()))

    def point(self, index: int) -> tuple[complex, complex]:
        return (complex(np.exp(1j * self.t[index])),
                complex(np.exp(1j * self.m[index])))

    def csv_rows(self) -> list[str]:
        rows = ["t,m,dm,d2m"]
        for i in range(self.t.size):
            rows.append(f"{self.t[i]!r},{self.m[i]!r},{self.dm[i]!r},{self.d2m[i]!r}")
        return rows


def _detect_periodicity(t: np.ndarray, m: np.ndarray,
                        window: tuple[float, float]) -> tuple[bool, int]:
    span = window[1] - window[0]
    if abs(span - TWO_PI) > 1e-9:
        return False, 0
    # linear extrapolation one step beyond the last node
    m_next = 2 * m[-1] - m[-2]
    w = round((m_next - m[0]) / TWO_PI)
    if abs(m_next - m[0] - TWO_PI * w) < 0.05:
        return True, int(w)
    return False, 0


def trace_branch(f: Poly2, t_window: tuple[float, float], nodes: int,
                 start_hint: float | None = None) -> CurveBranch:
    """Trace one branch of Z(f) on the torus over the parameter window.

    The unimodular roots z2 of f(e^{it}, .) at every node come from
    `poly2.unimodular_slice_roots`; the branch is selected by continuity
    (nearest argument to the previous node, seeded by `start_hint` or the
    smallest principal argument).  The arguments are unwrapped to a
    continuous m(t).  A node without a unimodular root, colliding roots, or
    a traced node where |f| exceeds ZERO_VALUE_TOL times the scale raises
    an error naming the node or the residual.
    """
    if nodes < 8:
        raise ValueError("need at least 8 nodes")
    t0, t1 = float(t_window[0]), float(t_window[1])
    if t1 <= t0:
        raise ValueError("empty parameter window")
    t = t0 + (t1 - t0) * np.arange(nodes) / nodes
    all_roots, vanishing = unimodular_slice_roots(f, np.exp(1j * t))

    m = np.empty(nodes)
    prev = None
    slope = 0.0
    for i in range(nodes):
        if vanishing[i]:
            raise ValueError(f"the circle slice vanishes identically at t = {t[i]:.6f}")
        uni = all_roots[i]
        if uni.size == 0:
            raise ValueError(f"no unimodular z2 root at t = {t[i]:.6f}")
        if prev is None:
            if start_hint is None:
                j = int(np.argmin(np.angle(uni) % TWO_PI))
            else:
                j = int(np.argmin(np.abs(uni - np.exp(1j * start_hint))))
        else:
            predicted = np.exp(1j * (prev + slope * (t[1] - t[0])))
            j = int(np.argmin(np.abs(uni - predicted)))
        if uni.size > 1:
            d = np.sort(np.abs(uni - uni[j]))
            if d[1] < ROOT_COLLISION_TOL:
                raise ValueError(
                    f"branch ambiguity at t = {t[i]:.6f}: two roots within {d[1]:.2e}")
        arg = float(np.angle(uni[j]))
        if prev is None:
            m[i] = arg
        else:
            k = round((prev + slope * (t[1] - t[0]) - arg) / TWO_PI)
            m[i] = arg + TWO_PI * k
            slope = (m[i] - prev) / (t[1] - t[0])
        prev = m[i]

    # on-curve validation
    vals = np.abs(f(np.exp(1j * t), np.exp(1j * m)))
    worst = float(vals.max())
    if worst > ZERO_VALUE_TOL * f.scale:
        raise ValueError(f"traced branch leaves the zero set (max |f| = {worst:.3e})")

    periodic, winding = _detect_periodicity(t, m, (t0, t1))
    branch = CurveBranch(t=t, m=m, dm=np.zeros(nodes), d2m=np.zeros(nodes),
                         d3m=np.zeros(nodes), source=BranchSource.TRACED,
                         periodic=periodic, winding=winding)
    object.__setattr__(branch, "dm", branch.derivative_grid(1))
    object.__setattr__(branch, "d2m", branch.derivative_grid(2))
    object.__setattr__(branch, "d3m", branch.derivative_grid(3))
    return branch


def fa_poly(a: float) -> Poly2:
    """The degree-(1,1) family 1 - a z1 - conj(a) z2 + z1 z2."""
    return Poly2(np.array([[1.0, -np.conj(a)], [-a, 1.0]], dtype=complex))


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

    D = 2 * a * np.cos(t) - 1.0 - a * a
    dm = (1.0 - a * a) / D
    d2m = 2 * a * (1.0 - a * a) * np.sin(t) / D ** 2
    d3m = 2 * a * (1.0 - a * a) * (np.cos(t) * D + 4 * a * np.sin(t) ** 2) / D ** 3

    periodic, winding = _detect_periodicity(t, m, (t0, t1))
    return CurveBranch(t=t, m=m, dm=dm, d2m=d2m, d3m=d3m,
                       source=BranchSource.CLOSED_FORM,
                       periodic=periodic, winding=winding)


@dataclass(frozen=True)
class TypeReport:
    """Contact type of a branch point with the realizing direction."""

    point: float
    tau: int | None              # None encodes infinite type up to max_order
    witness_vector: tuple[float, float]
    derivative_values: tuple
    max_order: int
    thresholds: tuple

    @property
    def is_infinite(self) -> bool:
        return self.tau is None

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "tau": self.tau,
            "witness_vector": list(self.witness_vector),
            "derivative_values": [list(pair) for pair in self.derivative_values],
            "max_order": self.max_order,
        }


def curve_type_at(branch: CurveBranch, t: float, max_order: int = 5) -> TypeReport:
    """Smallest order tau at which all unit directions see a derivative.

    phi(t) = (t, m(t)); directions transverse to phi' are witnessed at
    order 1, so tau is decided by the two sign resolutions of the normal
    direction: the first k <= max_order with |m^(k)(t)| above the relative
    threshold.  Orders beyond max_order report infinite type (tau = None).

    An exactly affine m short-circuits to infinite type; for finite
    differences of order four and five a nonzero value must additionally be
    stable under doubling the stencil stride, which filters the roundoff
    amplification eps / h^k.
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    i = branch.node_index(t)
    derivs = branch.derivatives_at(i, max_order)
    if np.hypot(1.0, derivs[0]) == 0.0:
        raise ValueError("parametrization is not regular at this point")

    norm = np.hypot(1.0, derivs[0])
    eta = (-derivs[0] / norm, 1.0 / norm)

    if branch.is_affine():
        values = [(1, float(norm))] + [(k, 0.0) for k in range(2, max_order + 1)]
        return TypeReport(point=float(branch.t[i]), tau=None, witness_vector=eta,
                          derivative_values=tuple(values), max_order=max_order,
                          thresholds=())

    # relative thresholds from the derivative magnitude over the window
    scales = []
    for k in range(1, max_order + 1):
        grid = branch.derivative_grid(k)
        scales.append(max(1.0, float(np.abs(grid).max())))

    def stable_high_order(k: int, value: float) -> bool:
        if branch.source is BranchSource.CLOSED_FORM or k <= 3:
            return True
        doubled = float(branch.derivative_grid(k, stride=2)[i])
        return abs(doubled - value) <= 0.5 * max(abs(value), abs(doubled))

    tau = None
    values = [(1, float(norm))]  # tangential direction is witnessed at k = 1
    for k in range(2, max_order + 1):
        dk = derivs[k - 1]
        values.append((k, float(dk * eta[1])))
        if (tau is None and abs(dk) > DERIVATIVE_REL_THRESHOLD * scales[k - 1]
                and stable_high_order(k, dk)):
            tau = k
    # both sign resolutions of eta give the same order
    return TypeReport(point=float(branch.t[i]), tau=tau, witness_vector=eta,
                      derivative_values=tuple(values), max_order=max_order,
                      thresholds=tuple(DERIVATIVE_REL_THRESHOLD * s for s in scales))


def _centered_window(center: float, half_width: float, nodes: int) -> tuple[float, float]:
    # even node counts place `center` exactly on the grid
    h = 2 * half_width / nodes
    return (center - (nodes // 2) * h, center + (nodes - nodes // 2) * h)


def mobius_retype(f: Poly2, t0: float, a_candidates,
                  half_width: float = 0.8, nodes: int = 256,
                  max_order: int = 5) -> tuple[MobiusParams, TypeReport]:
    """Reach a type-2 point by composing with a z1-Mobius map.

    If the branch of f through t0 is already of type 2 the identity
    parameters are returned.  Otherwise each candidate a (which must have
    nonzero imaginary part) is applied via the cleared composition, the
    image branch is retraced near the image of t0, and the first candidate
    achieving type 2 wins.  Failing all candidates raises with the
    per-candidate reports.
    """
    base = trace_branch(f, _centered_window(t0, half_width, nodes), nodes)
    base_report = curve_type_at(base, t0, max_order)
    if base_report.tau == 2:
        return MobiusParams(0j, 0j), base_report

    m_t0 = float(base.m[base.node_index(t0)])
    failures = []
    for a in a_candidates:
        a = complex(a)
        if a.imag == 0.0:
            failures.append((a, "rejected: Im(a) = 0 violates the precondition"))
            continue
        params = MobiusParams(a, 0j)
        g = mobius_numerator(f, params)
        z1_image = (a - np.exp(1j * t0)) / (1.0 - np.conj(a) * np.exp(1j * t0))
        t_image = float(np.angle(z1_image))
        try:
            img = trace_branch(g, _centered_window(t_image, half_width, nodes),
                               nodes, start_hint=m_t0)
            report = curve_type_at(img, t_image, max_order)
        except ValueError as e:
            failures.append((a, f"tracing failed: {e}"))
            continue
        if report.tau == 2:
            return params, report
        failures.append((a, f"type {report.tau if report.tau else 'infinite'}"))
    detail = "; ".join(f"a={a}: {msg}" for a, msg in failures)
    raise ValueError(f"no candidate achieved type 2 ({detail})")
