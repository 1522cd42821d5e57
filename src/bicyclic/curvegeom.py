"""Tracing torus zero curves and computing the contact type of their points.

A branch of Z(f) on the torus is represented as t -> (e^{it}, e^{i m(t)})
with m unwrapped to a continuous function on a uniform grid.  The
derivatives m', ..., m^(5) at every node are exact up to rounding: the
implicit function theorem makes each Taylor coefficient of m solve one
linear equation in the lower ones (`_branch_derivatives`).  The type of a
point is the smallest derivative order at which every unit direction sees
a nonvanishing derivative of phi(t) = (t, m(t)); for a regular graph
parametrization only the normal direction matters, but both sign
resolutions and the tangential direction are tested explicitly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .poly2 import (SAME_POINT_TOL, ZERO_VALUE_TOL, MobiusParams, Poly2,
                    mobius_numerator, slice_rows, unimodular_slice_roots)

TWO_PI = 2.0 * np.pi
FULL_WINDOW_TOL = 1e-9       # a window this close to 2 pi long is a full turn
DERIVATIVE_REL_THRESHOLD = 1e-7
RETYPE_NODES = 256           # nodes of each branch mobius_retype traces
RETYPE_HALF_WIDTH = 0.8      # half width of its parameter window


@dataclass(frozen=True)
class CurveBranch:
    """Sampled branch: uniform parameter grid, continuous m, and m^(k) for
    k = 1..5 in row k - 1 of `derivatives`."""

    t: np.ndarray
    m: np.ndarray
    derivatives: np.ndarray
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


def _branch_derivatives(f: Poly2, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m', ..., m^(5) at the nodes (t, m) of Z(f), as rows of a (5, nodes) array.

    With mu(s) = m(t + s) - m(t) = sum_j c_j s^j, every coefficient
    [s^j] f(e^{i(t+s)}, e^{i(m+mu(s))}) with j >= 1 vanishes, and the j-th is
    linear in c_j with coefficient i z2 df/dz2, so the c_j follow order by
    order (Taylor arithmetic, Griewank & Walther, Evaluating Derivatives).
    f there is sum_l W_l(s) E_l(s): W_l is z2^l times the z2^l coefficient
    of the slice at z1 e^{is}, and E_l = exp(i l mu), whose coefficients obey
    j e_j = sum_{r=1..j} r (i l c_r) e_{j-r}.  Then m^(j) = j! c_j.
    """
    orders = 5
    il = 1j * np.arange(f.coeffs.shape[1])[:, None]
    k = np.arange(f.coeffs.shape[0])[:, None]
    z1, z2_powers = np.exp(1j * t), np.exp(il * m)
    # W[p][l, node] = [s^p] W_l(s): z2^l times the slice row of a[k, l] (ik)^p / p!
    W = [slice_rows(f.coeffs * (k ** p * 1j ** p / math.factorial(p)), z1).T * z2_powers
         for p in range(orders + 1)]
    slope = (il * W[0]).sum(axis=0)          # i z2 df/dz2 at each node
    E, G = [np.ones_like(W[0])], [None]       # e_j and i l c_j over (l, node)
    c = np.zeros((orders + 1, t.size))
    for j in range(1, orders + 1):
        # e_j without its c_j term, then the order-j coefficient of f
        E.append(sum(r * G[r] * E[j - r] for r in range(1, j)) / j)
        residual = sum(W[j - q] * E[q] for q in range(j + 1)).sum(axis=0)
        c[j] = (-residual / slope).real
        G.append(il * c[j])
        E[j] = E[j] + G[j]
    return c[1:] * np.cumprod(np.arange(1.0, orders + 1))[:, None]


def _check_nodes(nodes: int) -> None:
    if nodes < 8:
        raise ValueError("need at least 8 nodes")


def trace_branch(f: Poly2, t_window: tuple[float, float], nodes: int,
                 start_hint: float | None = None) -> CurveBranch:
    """Trace one branch of Z(f) on the torus over the parameter window.

    The unimodular roots z2 of f(e^{it}, .) at every node come from
    `poly2.unimodular_slice_roots`; the branch is selected by continuity
    (nearest argument to the previous node, seeded by `start_hint` or the
    smallest principal argument), and a node with one root takes it
    without a search.  The arguments are unwrapped to a continuous m(t).
    Over a full window, of length within FULL_WINDOW_TOL of 2 pi, the
    branch is periodic iff one more step of the same rule, past the last
    node, picks node 0's root; its winding is then the unwrapped m there,
    less m(t0), over 2 pi.  The derivatives m', ..., m^(5) come from
    `_branch_derivatives`.  A node without a unimodular root, colliding
    roots, a traced node where |f| exceeds ZERO_VALUE_TOL times the scale,
    or a step whose unwrapped increment differs from the trapezoid rule
    h (m'_i + m'_{i+1}) / 2 by more than pi, so that its multiple of 2 pi is
    not determined, raises an error naming the node, the residual or the
    step.
    """
    _check_nodes(nodes)
    t0, t1 = float(t_window[0]), float(t_window[1])
    if t1 <= t0:
        raise ValueError("empty parameter window")
    t = t0 + (t1 - t0) * np.arange(nodes) / nodes
    flat, node, vanishing = unimodular_slice_roots(f, np.exp(1j * t))

    # the selection runs on Python scalars: node i's roots are
    # roots[ends[i-1]:ends[i]], their arguments from one np.angle over all
    roots, angles = flat.tolist(), np.angle(flat).tolist()
    ends = np.searchsorted(node, np.arange(nodes), side="right").tolist()
    ts, vanish = t.tolist(), vanishing.tolist()
    h = ts[1] - ts[0]
    m = []
    prev = None
    slope = 0.0
    for i in range(nodes):
        if vanish[i]:
            raise ValueError(f"the circle slice vanishes identically at t = {ts[i]:.6f}")
        hi = ends[i]
        lo = ends[i - 1] if i else 0
        if lo == hi:
            raise ValueError(f"no unimodular z2 root at t = {ts[i]:.6f}")
        if hi - lo == 1:
            j = lo      # every rule below picks the only root
        else:
            if prev is not None:
                predicted = cmath.exp(1j * (prev + slope * h))
                j = min(range(lo, hi), key=lambda r: abs(roots[r] - predicted))
            elif start_hint is None:
                j = min(range(lo, hi), key=lambda r: angles[r] % TWO_PI)
            else:
                target = cmath.exp(1j * start_hint)
                j = min(range(lo, hi), key=lambda r: abs(roots[r] - target))
            # two roots at one node (dz1 = 0) this close are one torus point
            d = sorted(abs(roots[r] - roots[j]) for r in range(lo, hi))
            if d[1] < SAME_POINT_TOL:
                raise ValueError(
                    f"branch ambiguity at t = {ts[i]:.6f}: two roots within {d[1]:.2e}")
        arg = angles[j]
        if prev is None:
            first = j
        else:
            k = round((prev + slope * h - arg) / TWO_PI)
            arg += TWO_PI * k
            slope = (arg - prev) / h
        m.append(arg)
        prev = arg
    m = np.array(m)

    # closure: one more step of the selection, past the last node, at node 0
    m_next = prev + slope * h
    periodic = abs(t1 - t0 - TWO_PI) <= FULL_WINDOW_TOL and first == min(
        range(ends[0]), key=lambda r: abs(roots[r] - cmath.exp(1j * m_next)))
    winding = round((m_next - m[0]) / TWO_PI) if periodic else 0

    # on-curve validation
    vals = np.abs(f(np.exp(1j * t), np.exp(1j * m)))
    worst = float(vals.max())
    if worst > ZERO_VALUE_TOL * f.scale:
        raise ValueError(f"traced branch leaves the zero set (max |f| = {worst:.3e})")

    # a step whose increment strays from the trapezoid rule on m' by more
    # than pi has no determined multiple of 2 pi
    derivatives = _branch_derivatives(f, t, m)
    dm = derivatives[0]
    stray = np.abs(np.diff(m) - h * (dm[:-1] + dm[1:]) / 2) > np.pi
    if stray.any():
        i = int(np.argmax(stray))
        raise ValueError(f"branch under-resolved between t = {ts[i]:.6f} "
                         f"and t = {ts[i + 1]:.6f}")
    return CurveBranch(t=t, m=m, derivatives=derivatives, periodic=periodic,
                       winding=winding)


def fa_poly(a: float) -> Poly2:
    """The degree-(1,1) family 1 - a z1 - conj(a) z2 + z1 z2."""
    return Poly2(np.array([[1.0, -np.conj(a)], [-a, 1.0]], dtype=complex))


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

    The derivatives are the branch's exact rows, and the cut for order k
    is DERIVATIVE_REL_THRESHOLD times max(1, max |m^(k)|) over the window.
    """
    orders = branch.derivatives.shape[0]
    if not 2 <= max_order <= orders:
        raise ValueError(f"max_order must be between 2 and {orders}, "
                         f"got max_order = {max_order}")
    i = branch.node_index(t)
    rows = branch.derivatives[:max_order]
    derivs = rows[:, i].tolist()
    norm = np.hypot(1.0, derivs[0])
    eta = (-derivs[0] / norm, 1.0 / norm)
    thresholds = (DERIVATIVE_REL_THRESHOLD * np.maximum(1.0, np.abs(rows).max(axis=1))).tolist()

    tau = None
    values = [(1, float(norm))]  # tangential direction is witnessed at k = 1
    for k in range(2, max_order + 1):
        dk = derivs[k - 1]
        values.append((k, float(dk * eta[1])))
        if tau is None and abs(dk) > thresholds[k - 1]:
            tau = k
    # both sign resolutions of eta give the same order
    return TypeReport(point=float(branch.t[i]), tau=tau, witness_vector=eta,
                      derivative_values=tuple(values), max_order=max_order,
                      thresholds=tuple(thresholds))


def _centered_window(center: float, half_width: float, nodes: int) -> tuple[float, float]:
    # even node counts place `center` exactly on the grid
    _check_nodes(nodes)
    h = 2 * half_width / nodes
    return (center - (nodes // 2) * h, center + (nodes - nodes // 2) * h)


def mobius_retype(f: Poly2, t0: float, a_candidates) -> tuple[MobiusParams, TypeReport]:
    """Reach a type-2 point by composing with a z1-Mobius map.

    If the branch of f through t0 is already of type 2 the identity
    parameters are returned.  Otherwise each candidate a (which must have
    nonzero imaginary part) is applied via the cleared composition, the
    image branch is retraced near the image of t0, and the first candidate
    achieving type 2 wins.  Failing all candidates raises with the
    per-candidate reports.  Each branch is traced at RETYPE_NODES nodes
    over RETYPE_HALF_WIDTH on either side of its point and typed up to
    `curve_type_at`'s default order.
    """
    nodes = RETYPE_NODES
    base = trace_branch(f, _centered_window(t0, RETYPE_HALF_WIDTH, nodes), nodes)
    base_report = curve_type_at(base, t0)
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
            img = trace_branch(g, _centered_window(t_image, RETYPE_HALF_WIDTH, nodes),
                               nodes, start_hint=m_t0)
            report = curve_type_at(img, t_image)
        except ValueError as e:
            failures.append((a, f"tracing failed: {e}"))
            continue
        if report.tau == 2:
            return params, report
        failures.append((a, f"type {report.tau if report.tau else 'infinite'}"))
    detail = "; ".join(f"a={a}: {msg}" for a, msg in failures)
    raise ValueError(f"no candidate achieved type 2 ({detail})")
