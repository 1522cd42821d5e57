"""Univariate polynomial helpers: companion-matrix roots, Newton polish,
interpolation on roots of unity and the least-squares line.

Coefficient arrays are 1-D complex, low order first (index p = coefficient
of z^p), the convention of numpy.polynomial.polynomial, whose polyval and
polyder do all evaluation and differentiation here.  Batched root finding
groups rows by effective degree so that a single stacked eigvals call
handles each group, and returns the roots NaN-padded to one array; a single
polynomial is solved as a one-row batch.
"""
from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as P

RELATIVE_COEFF_FLOOR = 1e-13
INTERP_TRIM = 1e-11         # interpolated coefficients below tol * max|c| vanish
NEWTON_STEPS = 4


def _companion_stack(monic_tail: np.ndarray) -> np.ndarray:
    """Frobenius companion matrices for a (B, d) stack of monic low tails."""
    B, d = monic_tail.shape
    M = np.zeros((B, d, d), dtype=complex)
    if d > 1:
        idx = np.arange(d - 1)
        M[:, idx + 1, idx] = 1.0
    M[:, :, -1] = -monic_tail
    return M


def _solve_rows(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The NaN-padded roots of `batched_roots` and each row's effective degree."""
    S, d1 = C.shape
    mags = np.abs(C)
    row_max = mags.max(axis=1)
    scale = row_max.max() if S else 0.0
    live = row_max > RELATIVE_COEFF_FLOOR * max(scale, 1e-300)
    # the effective degree is the index of the last coefficient above the
    # floor of its row
    above = mags > RELATIVE_COEFF_FLOOR * row_max[:, None]
    effdeg = np.where(live, d1 - 1 - above[:, ::-1].argmax(axis=1), 0)
    out = np.empty((S, d1 - 1), dtype=complex)
    out.fill(np.nan)
    if S and (effdeg == effdeg[0]).all():
        groups = [(int(effdeg[0]), slice(None))]
    else:
        groups = [(d, np.flatnonzero(effdeg == d)) for d in np.unique(effdeg).tolist()]
    for d, rows in groups:
        if d == 1:
            out[rows, 0] = -C[rows, 0] / C[rows, 1]
        elif d > 1:
            tails = C[rows, :d] / C[rows, d][:, None]
            out[rows, :d] = np.linalg.eigvals(_companion_stack(tails))
    return out, effdeg


def roots_low_first(c: np.ndarray) -> np.ndarray:
    """All complex roots of c (empty for degree 0): the roots of the one-row
    batch [c], without the NaN padding."""
    out, effdeg = _solve_rows(np.asarray(c, dtype=complex).reshape(1, -1))
    return out[0, : effdeg[0]]


def batched_roots(coeff_rows: np.ndarray) -> np.ndarray:
    """Roots per row of a (S, d+1) low-first coefficient matrix, as an
    (S, d) array padded with NaN.

    A row of effective degree e < d fills its first e entries; a row whose
    coefficients are all at most RELATIVE_COEFF_FLOOR times the largest in
    the stack is degenerate (identically zero) and has no entries.  Rows of
    one effective degree share one stacked eigvals call.
    """
    return _solve_rows(np.atleast_2d(np.asarray(coeff_rows, dtype=complex)))[0]


def interpolate_roots_of_unity(values: np.ndarray) -> np.ndarray:
    """Low-first coefficients of the polynomial of degree below S = len(values)
    that takes values[s] at exp(2 pi i s / S), by an inverse DFT.

    Trailing coefficients at most INTERP_TRIM times the largest are dropped;
    the zero polynomial comes back as [0].
    """
    c = np.fft.fft(values) / values.size
    mags = np.abs(c)
    keep = np.flatnonzero(mags > INTERP_TRIM * mags.max())
    if keep.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: keep[-1] + 1]


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Least-squares line y ~ slope * x + intercept, with the residuals
    fitted minus y at each x."""
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1]), A @ sol - y


def newton_polish(c: np.ndarray, x0: complex) -> complex:
    """NEWTON_STEPS Newton steps on a univariate polynomial from x0."""
    c = np.asarray(c, dtype=complex)
    dc = P.polyder(c)
    x = complex(x0)
    for _ in range(NEWTON_STEPS):
        # a 0-d array, not a Python complex: numpy's scalar arithmetic
        # rounds some complex products differently from its array loops
        fp = complex(P.polyval(np.asarray(x), dc))
        if fp == 0:
            break
        x = x - complex(P.polyval(np.asarray(x), c)) / fp
    return x
