"""Univariate polynomial helpers: trimming, companion-matrix roots, Newton polish.

Coefficient arrays are 1-D complex, low order first (index p = coefficient
of z^p), the convention of numpy.polynomial.polynomial, whose polyval and
polyder do all evaluation and differentiation here.  Batched root finding
groups rows by effective degree so that a single stacked eigvals call
handles each group.
"""
from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as P

RELATIVE_COEFF_FLOOR = 1e-13


def trim_trailing(c: np.ndarray, rel: float = RELATIVE_COEFF_FLOOR) -> np.ndarray:
    """Drop trailing coefficients below rel * max|c|; zero poly -> [0]."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    mags = np.abs(c)
    top = mags.max() if c.size else 0.0
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > rel * top)[0]
    if keep.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: keep[-1] + 1].copy()


def _companion_stack(monic_tail: np.ndarray) -> np.ndarray:
    """Frobenius companion matrices for a (B, d) stack of monic low tails."""
    B, d = monic_tail.shape
    M = np.zeros((B, d, d), dtype=complex)
    if d > 1:
        idx = np.arange(d - 1)
        M[:, idx + 1, idx] = 1.0
    M[:, :, -1] = -monic_tail
    return M


def roots_low_first(c: np.ndarray) -> np.ndarray:
    """All complex roots of the trimmed polynomial (empty for degree 0)."""
    c = trim_trailing(c)
    d = c.size - 1
    if d <= 0:
        return np.zeros(0, dtype=complex)
    if d == 1:
        return np.array([-c[0] / c[1]])
    tail = (c[:-1] / c[-1])[None, :]
    return np.linalg.eigvals(_companion_stack(tail))[0]


def batched_roots(coeff_rows: np.ndarray, rel: float = RELATIVE_COEFF_FLOOR):
    """Roots per row of a (S, d+1) low-first coefficient matrix.

    Returns a list of 1-D arrays (possibly empty).  Rows whose coefficients
    are all ~0 relative to `scale` yield None, signalling a degenerate
    (identically zero) polynomial.
    """
    C = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    S, _ = C.shape
    mags = np.abs(C)
    row_max = mags.max(axis=1)
    scale = row_max.max() if S else 0.0
    out: list = [None] * S

    degenerate = row_max <= rel * max(scale, 1e-300)
    effdeg = np.zeros(S, dtype=int)
    for s in range(S):
        if degenerate[s]:
            continue
        keep = np.nonzero(mags[s] > rel * row_max[s])[0]
        effdeg[s] = keep[-1] if keep.size else 0

    for d in np.unique(effdeg):
        rows = np.nonzero((effdeg == d) & ~degenerate)[0]
        if rows.size == 0:
            continue
        if d == 0:
            for s in rows:
                out[s] = np.zeros(0, dtype=complex)
        elif d == 1:
            for s in rows:
                out[s] = np.array([-C[s, 0] / C[s, 1]])
        else:
            tails = C[rows, :d] / C[rows, d][:, None]
            eigs = np.linalg.eigvals(_companion_stack(tails))
            for i, s in enumerate(rows):
                out[s] = eigs[i]
    return out


def newton_polish(c: np.ndarray, x0: complex, iters: int = 4) -> complex:
    """A few Newton steps on a univariate polynomial from x0."""
    c = np.asarray(c, dtype=complex)
    dc = P.polyder(c)
    x = complex(x0)
    for _ in range(iters):
        # a 0-d array, not a Python complex: numpy's scalar arithmetic
        # rounds some complex products differently from its array loops
        fp = complex(P.polyval(np.asarray(x), dc))
        if fp == 0:
            break
        x = x - complex(P.polyval(np.asarray(x), c)) / fp
    return x
