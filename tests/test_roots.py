"""The root solves, interpolation and line fit against the code they replaced.

`per_row_batched_roots` and `per_row_slice_roots` are the earlier
implementations of `_roots.batched_roots` and
`poly2.unimodular_slice_roots`: one `np.nonzero` per row for the effective
degree, one scalar division per degree-1 row, and one array per slice.
`trimmed_roots_low_first`, `fft_interpolation` and `lstsq_line` are the
earlier single-polynomial solve, the inline interpolation of the resultant
and of det P, and the inline least-squares lines.  The current versions must
give the same results bit for bit, in the same order.
"""
import numpy as np
import pytest

from bicyclic._roots import (RELATIVE_COEFF_FLOOR, _companion_stack, batched_roots,
                             interpolate_roots_of_unity, line_fit, roots_low_first)
from bicyclic.poly2 import CIRCLE_BAND, Poly2, slice_rows, unimodular_slice_roots


def per_row_batched_roots(coeff_rows):
    """Oracle: a list of root arrays, None for a degenerate row."""
    C = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    S, _ = C.shape
    mags = np.abs(C)
    row_max = mags.max(axis=1)
    scale = row_max.max() if S else 0.0
    out = [None] * S
    degenerate = row_max <= RELATIVE_COEFF_FLOOR * max(scale, 1e-300)
    effdeg = np.zeros(S, dtype=int)
    for s in range(S):
        if degenerate[s]:
            continue
        keep = np.nonzero(mags[s] > RELATIVE_COEFF_FLOOR * row_max[s])[0]
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


def trim_trailing(c, rel):
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


def trimmed_roots_low_first(c):
    """Oracle: trim at RELATIVE_COEFF_FLOOR, then one companion solve."""
    c = trim_trailing(c, RELATIVE_COEFF_FLOOR)
    d = c.size - 1
    if d <= 0:
        return np.zeros(0, dtype=complex)
    if d == 1:
        return np.array([-c[0] / c[1]])
    tail = (c[:-1] / c[-1])[None, :]
    return np.linalg.eigvals(_companion_stack(tail))[0]


def fft_interpolation(values):
    """Oracle: the inline inverse DFT and trim of the interpolating callers."""
    S = values.size
    return trim_trailing(np.fft.fft(values) / S, 1e-11)


def lstsq_line(x, y):
    """Oracle: the inline least-squares line of the fitting callers."""
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1]), A @ sol - y


def per_row_slice_roots(f, z1s):
    """Oracle: the unimodular roots of each slice, one array per slice, and
    the mask of slices that vanish identically."""
    rows = slice_rows(f.coeffs, z1s)
    vanishing = np.abs(rows).max(axis=-1) <= RELATIVE_COEFF_FLOOR * f.scale
    out = []
    for rts, gone in zip(per_row_batched_roots(rows), vanishing):
        if gone or rts is None:
            out.append(np.zeros(0, dtype=complex))
            continue
        uni = rts[np.abs(np.abs(rts) - 1.0) <= CIRCLE_BAND]
        out.append(uni / np.abs(uni))
    return out, vanishing


def assert_rows_match(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    got = batched_roots(rows)
    assert len(got) == rows.shape[0]        # perfbench counts len() as slices
    assert got.shape == (rows.shape[0], rows.shape[1] - 1)
    for g, r in zip(got, per_row_batched_roots(rows)):
        e = 0 if r is None else r.size
        assert np.array_equal(g[:e], r if e else g[:0])
        assert np.isnan(g[e:]).all()
    return got


def assert_slices_match(f, z1s):
    roots, which, vanishing = unimodular_slice_roots(f, z1s)
    ref, ref_vanishing = per_row_slice_roots(f, z1s)
    assert np.array_equal(vanishing, ref_vanishing)
    assert np.array_equal(which, np.repeat(np.arange(z1s.size), [r.size for r in ref]))
    assert np.array_equal(roots, np.concatenate(ref))
    return roots, which, vanishing


def ragged(rng, S, d, degrees, tiny=0.0):
    """S random complex rows of length d+1, row s cut to degree degrees[s]
    by zeros (tiny = 0) or by coefficients tiny times the row's scale."""
    C = rng.standard_normal((S, d + 1)) + 1j * rng.standard_normal((S, d + 1))
    for s, e in enumerate(degrees):
        C[s, e + 1:] *= tiny
    return C


class TestBatchedRoots:
    def test_mixed_degree_stack(self, rng):
        for d in (1, 2, 3, 5):
            degrees = rng.integers(0, d + 1, 40)
            assert_rows_match(ragged(rng, 40, d, degrees))
            # trailing coefficients below the relative floor are cut too
            assert_rows_match(ragged(rng, 40, d, degrees, tiny=1e-15))

    @pytest.mark.parametrize("e", [0, 1, 2, 4])
    def test_one_degree_stack(self, rng, e):
        # every row of one effective degree: the one-group path
        got = assert_rows_match(ragged(rng, 16, 4, [e] * 16))
        assert np.isfinite(got[:, :e]).all() and np.isnan(got[:, e:]).all()

    def test_degree_one_rows(self, rng):
        C = ragged(rng, 32, 1, [1] * 32)
        got = assert_rows_match(C)
        assert np.array_equal(got[:, 0], -C[:, 0] / C[:, 1])

    def test_vanishing_and_degenerate_rows(self, rng):
        C = ragged(rng, 12, 3, rng.integers(0, 4, 12))
        C[3] = 0.0                      # identically zero
        C[7] *= 1e-14                   # below the floor relative to the stack
        C[9, :] = 0.0
        C[9, 0] = 1e-15
        got = assert_rows_match(C)
        assert np.isnan(got[[3, 7, 9]]).all()
        # a stack of zero rows has no roots at all
        assert np.isnan(assert_rows_match(np.zeros((3, 3)))).all()

    def test_single_row(self, rng):
        for d in (1, 2, 4):
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            got = batched_roots(c)
            assert len(got) == 1
            assert_rows_match(c)
            assert_rows_match(c[None, :])
        assert_rows_match(np.array([2.0, 0.0, 0.0]))   # degree 0
        assert_rows_match(np.array([1.0, 1e-15]))      # cut to degree 0


class TestUnimodularSliceRoots:
    # random, determinantal and vanishing slices go through the per-row
    # oracle in tests/test_poly2.py's TestUnimodularSliceRoots
    def test_mixed_degree_slices(self):
        # the z2-degree of a slice drops where its top coefficient vanishes:
        # 1 + z2 + (1 - z1) z2^2 is of degree 1 at z1 = 1,
        # 2 + (1 - z1) z2 + (1 + z1) z2^2 of degree 1 at z1 = -1, and
        # 2 + (z1 - 1) z2 of degree 0 at z1 = 1
        z1s = np.exp(1j * np.array([0.0, 0.3, np.pi, 2.0]))
        for grid in ([[1, 1, 1], [0, 0, -1]], [[2, 1, 1], [0, -1, 1]],
                     [[2, -1], [0, 1]]):
            assert_slices_match(Poly2(grid), z1s)

    def test_single_slice_and_constant_in_z2(self):
        f = Poly2([[2, -1], [-1, 0]])
        roots, which, _ = assert_slices_match(f, np.array([1.0 + 0j]))
        assert which.tolist() == [0] and abs(roots[0] - 1) < 1e-12
        # no z2 at all: every slice is a nonzero constant with no root
        roots, which, vanishing = assert_slices_match(Poly2([[1], [2]]),
                                                      np.exp(1j * np.arange(3.0)))
        assert roots.size == 0 and not vanishing.any()


class TestRootsLowFirst:
    def test_matches_trimmed_solve(self, rng):
        # mixed degrees, trailing coefficients cut by zeros, below the floor
        # and above it, and all-zero rows
        for tiny in (0.0, 1e-14, 1e-12):
            for c in ragged(rng, 120, 29, rng.integers(0, 30, 120), tiny=tiny):
                c = c[: rng.integers(1, 31)]
                got, ref = roots_low_first(c), trimmed_roots_low_first(c)
                assert got.shape == ref.shape and np.array_equal(got, ref)
        for c in (np.zeros(1), np.zeros(4), np.array([3.0]), np.array([1.0, 2.0])):
            assert np.array_equal(roots_low_first(c), trimmed_roots_low_first(c))

    def test_one_row_of_the_batch(self, rng):
        C = ragged(rng, 20, 6, rng.integers(0, 7, 20))
        C[4] = 0.0
        for c, row in zip(C, batched_roots(C)):
            got = roots_low_first(c)
            assert np.array_equal(got, row[: got.size])
            assert np.isnan(row[got.size:]).all()


class TestInterpolation:
    def test_matches_inline_fft(self, rng):
        for S in range(1, 31):
            # values of a polynomial of degree below S at the S-th roots of
            # unity, whose top coefficients come back at roundoff size
            d = int(rng.integers(0, S))
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            nodes = np.exp(2j * np.pi * np.arange(S) / S)
            for values in (np.polynomial.polynomial.polyval(nodes, c),
                           rng.standard_normal(S) + 1j * rng.standard_normal(S),
                           np.zeros(S, dtype=complex)):
                got, ref = interpolate_roots_of_unity(values), fft_interpolation(values)
                assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_recovers_the_polynomial(self):
        nodes = np.exp(2j * np.pi * np.arange(8) / 8)
        got = interpolate_roots_of_unity(2 - 3 * nodes + nodes ** 3)
        assert got.size == 4
        assert np.allclose(got, [2, -3, 0, 1], atol=1e-14)


class TestLineFit:
    def test_matches_inline_lstsq(self, rng):
        for n in (2, 3, 5, 64):
            x = np.sort(rng.uniform(0.0, 7.0, n))
            for y in (rng.standard_normal(n), 0.5 * x - 2.0, np.zeros(n)):
                got, ref = line_fit(x, y), lstsq_line(x, y)
                assert got[:2] == ref[:2] and np.array_equal(got[2], ref[2])
