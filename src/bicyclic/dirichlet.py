"""Weighted coefficient norms on the bidisk and optimal approximants.

The norm of f = sum a[k,l] z1^k z2^l in the space with parameter alpha is
sqrt(sum (k+1)^alpha (l+1)^alpha |a[k,l]|^2).  The optimal approximant of
degree cap N minimizes ||p f - 1|| over polynomials p supported on total
degree i + j <= N; it is computed from the normal equations with the Gram
matrix of the shifted copies of f.  That matrix is banded: the shifts by
(i, j) and (i', j') overlap only when |i - i'| <= n and |j - j'| <= m, and
the weight is a product of one weight per variable, so every offset of the
band is one small Hankel product of f's weighted autocorrelation.  It is
also block diagonal over the cosets of the lattice spanned by the
differences of supp f.  The arithmetic is real when f has real
coefficients.  A whole distance profile shares one Gram matrix, built at
the largest cap, and one Cholesky factor of it, computed by blocks along
its band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .poly2 import Poly2, _convolve

_BAND_BLOCK_ROWS = 64     # least rows per block of the band factor


@dataclass(frozen=True)
class AlphaSpace:
    """Dirichlet-type space parameter; the weight of (k, l) is (k+1)^a (l+1)^a."""

    alpha: float

    def weight_grid(self, shape: tuple[int, int]) -> np.ndarray:
        K, L = shape
        wk = (np.arange(K) + 1.0) ** self.alpha
        wl = (np.arange(L) + 1.0) ** self.alpha
        return wk[:, None] * wl[None, :]


def alpha_norm(f: Poly2, space: AlphaSpace) -> float:
    w = space.weight_grid(f.coeffs.shape)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


@dataclass(frozen=True)
class ApproximantResult:
    """The optimal approximant at one degree cap and its distance ||p f - 1||."""

    degree_cap: int
    approximant: Poly2
    distance: float

    def to_dict(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "distance": self.distance,
            "approximant": self.approximant.to_json_dict(),
        }


def _total_degree_basis(cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(bi, bj) of the points i + j <= cap in degree order, and by j within
    a degree: degree t holds t + 1 points and starts at t (t + 1) / 2."""
    t = np.arange(cap + 1)
    bj = np.arange((cap + 1) * (cap + 2) // 2) - np.repeat(t * (t + 1) // 2, t + 1)
    return np.repeat(t, t + 1) - bj, bj


def optimal_approximant(f: Poly2, space: AlphaSpace, degree_cap: int) -> ApproximantResult:
    """Minimize ||p f - 1|| over p of total degree at most degree_cap.

    The one-cap case of `distance_profile`.
    """
    return distance_profile(f, space, [degree_cap])[0]


def _gram(f: Poly2, space: AlphaSpace, cap: int, bi: np.ndarray, bj: np.ndarray,
          fold: bool) -> np.ndarray:
    """The Gram matrix <z^b' f, z^b f> of the shifts of f by the basis
    (bi, bj), in basis order, real when f has real coefficients.

    The entry for b = (i, j), b' = (i + d, j + e) is

        sum_{p,q} w_{p+i} w_{q+j} conj(a[p,q]) a[p-d,q-e] = (Hk C Hl^T)[i, j]

    with the Hankel matrices Hk[i, p] = w_{p+i}, Hl[j, q] = w_{q+j} of the
    weight in each variable and f's autocorrelation term
    C[p, q] = conj(a[p,q]) a[p-d,q-e], which vanishes unless (d, e) is a
    difference of two points of supp f, so |d| <= n and |e| <= m.  Each
    such offset is one small product, scattered into the band.

    With `fold` the basis is closed under the swap (i, j) <-> (j, i), and
    only the rows and columns s = (i, j) with i <= j are built, column s
    holding G[r, s] + G[r, s'] for the mirror s' = (j, i): each offset's
    value for a target goes to the column of the target or of its mirror,
    and a target on the diagonal i = j, its own mirror, counts twice.
    """
    a = f.coeffs if np.any(f.coeffs.imag) else f.coeffs.real
    n, m = a.shape[0] - 1, a.shape[1] - 1

    def hankel(deg):
        w = (np.arange(deg + cap + 1) + 1.0) ** space.alpha
        return w[np.add.outer(np.arange(cap + 1), np.arange(deg + 1))]

    # f's autocorrelation terms C[d + n, e + m] = conj(a) a[p-d, q-e], from
    # the windows of a inside a zero frame, and the offsets (d, e) that are
    # differences of supp f, the others giving a zero band
    framed = np.zeros((3 * n + 1, 3 * m + 1), dtype=a.dtype)
    framed[n: 2 * n + 1, m: 2 * m + 1] = a
    C = np.conj(a) * sliding_window_view(framed, a.shape)[::-1, ::-1]
    band = C.any(axis=(2, 3))
    d, e = np.nonzero(band)
    d, e = d - n, e - m
    T = hankel(n) @ C[band] @ hankel(m).T
    ri, rj = (bi[bi <= bj], bj[bi <= bj]) if fold else (bi, bj)
    R = ri.size
    # the target (i, j) of each row under each offset, and its value
    i, j = ri + d[:, None], rj + e[:, None]
    v = T[:, ri, rj]

    def slots(ci, cj):
        """The flat slot in G of each row's target, where the point
        (ci[s], cj[s]) owns column s; a target that owns no column (off the
        basis, or not in this scatter) goes to the spare last slot."""
        column = np.full((cap + 2 * n + 1, cap + 2 * m + 1), R * R)
        column[ci + n, cj + m] = np.arange(R)
        return np.minimum(np.arange(0, R * R, R) + column[i + n, j + m], R * R)

    G = np.zeros(R * R + 1, dtype=a.dtype)
    G[slots(ri, rj)] = v
    if fold:
        # a mirror (j, i) goes to the column of (i, j), so a target on the
        # diagonal counts twice
        G[slots(rj, ri)] += v
    return G[:-1].reshape(R, R)


def _extended_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s x + t y, for x, y >= 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return x, s, t


def _support_lattice(f: Poly2) -> tuple[int, int, int]:
    """Hermite basis {(b, c), (a, 0)} of the lattice L spanned by the
    differences of supp f, returned as (a, b, c).

    c >= 0 and a >= 0, a zero entry meaning that generator is absent, and
    0 <= b < a when a > 0.  Each difference is folded in by one extended
    Euclid step on the second coordinate; the unimodular combination that
    cancels it leaves a vector (x, 0), which joins a by a gcd.
    """
    k, l = np.nonzero(f.coeffs)
    a = b = c = 0
    for x, y in zip((k - k[0]).tolist(), (l - l[0]).tolist()):
        if y < 0:
            x, y = -x, -y
        g, s, t = _extended_gcd(c, y)
        if g:
            a = math.gcd(a, (y // g) * b - (c // g) * x)
            b, c = s * b + t * x, g
        else:
            a = math.gcd(a, x)
        if a:
            b %= a
    return a, b, c


def _in_lattice(lattice: tuple[int, int, int], bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
    """Mask of the points (i, j) that lie in L = Z (b, c) + Z (a, 0)."""
    a, b, c = lattice
    on, u = bj == 0, bi
    if c:
        on, u = bj % c == 0, bi - (bj // c) * b
    return on & (u % a == 0 if a else u == 0)


def _swap_symmetric(f: Poly2) -> bool:
    """Whether f(z2, z1) = +-f(z1, z2), tested exactly on the coefficients."""
    a = f.coeffs
    return a.shape[0] == a.shape[1] and (np.array_equal(a, a.T) or np.array_equal(a, -a.T))


def _block_size(degrees: np.ndarray, reach: int) -> int:
    """Rows per block of `_band_cholesky` for a Gram block whose basis has the
    nondecreasing total degrees `degrees`: entry (r, s) vanishes when
    |deg r - deg s| > reach, so it vanishes more than the returned size less
    one off the diagonal, and the factor is block lower-bidiagonal."""
    last = np.searchsorted(degrees, degrees + reach, side="right") - 1
    return max(_BAND_BLOCK_ROWS, int((last - np.arange(degrees.size)).max()) + 1)


def _band_cholesky(H: np.ndarray, bs: int) -> tuple[list, list]:
    """The Cholesky factor L of a Hermitian positive definite H whose entries
    vanish more than bs - 1 off the diagonal, by blocks of bs rows (Golub &
    Van Loan, Matrix Computations, 4.3).

    L is then block lower-bidiagonal: D[k] is its k-th diagonal block and
    S[k] the block below it, from S[k] D[k]^H = H[block k + 1, block k].
    Each diagonal block is factored after subtracting the product of the
    block to its left.  Raises LinAlgError where a block is not positive
    definite.
    """
    D, S = [], []
    for start in range(0, H.shape[0], bs):
        block = H[start:start + bs, start:start + bs]
        if D:
            S.append(np.linalg.solve(D[-1], H[start - bs:start, start:start + bs]).conj().T)
            block = block - S[-1] @ S[-1].conj().T
        D.append(np.linalg.cholesky(block))
    return D, S


def _forward(D: list, S: list, b: np.ndarray) -> np.ndarray:
    """y with L y = b, by block forward substitution on `_band_cholesky`'s L.

    L is lower triangular, so L_B^-1 b[:B] = y[:B] for the leading B x B
    part L_B of L.
    """
    bs = D[0].shape[0]
    y = np.empty_like(b)
    y[:bs] = np.linalg.solve(D[0], b[:bs])
    for k in range(1, len(D)):
        rows = slice(k * bs, (k + 1) * bs)
        y[rows] = np.linalg.solve(D[k], b[rows] - S[k - 1] @ y[rows.start - bs:rows.start])
    return y


def _backward(D: list, S: list, y: np.ndarray) -> np.ndarray:
    """x with L_B^H x = y, by block back substitution on the leading B x B
    part L_B of `_band_cholesky`'s L, B = y.size."""
    bs = D[0].shape[0]
    x = np.empty_like(y)
    stop = y.size
    for k in reversed(range(-(-stop // bs))):
        start = k * bs
        rhs = y[start:stop]
        if stop < y.size:
            rhs = rhs - S[k][: y.size - stop].conj().T @ x[stop:stop + bs]
        x[start:stop] = np.linalg.solve(D[k][: stop - start, : stop - start].conj().T, rhs)
        stop = start
    return x


def distance_profile(f: Poly2, space: AlphaSpace, caps) -> list[ApproximantResult]:
    """Optimal approximants for a strictly increasing list of degree caps.

    G[b, b'] = <z^b' f, z^b f> vanishes unless b' - b lies in the lattice L
    spanned by the differences of supp f, and the right-hand side
    <1, z^b f> = conj(a00) e_0 vanishes off b = (0, 0).  So p lies on the
    shifts in L, the coset of (0, 0), and only that block of G is built
    (`_in_lattice`), once at max(caps) with the basis in degree order: the
    basis of a cap is a prefix, so its block is a leading block.  For f whose
    support differences span Z^2, L is Z^2.  In degree order an entry
    vanishes when the total degrees of its shifts differ by more than
    n + m, so the top-cap block is factored once, by blocks along its band
    (`_band_cholesky`); the leading part of that factor is the factor of a
    cap's leading block.  So y = L^-1 conj(a00) e_0 is formed once
    (`_forward`), each cap costs one block back substitution on its leading
    part (`_backward`), and a block that is not positive definite names the
    first cap whose leading block fails.

    When f(z2, z1) = +-f(z1, z2) the swap of the shifts (i, j) <-> (j, i)
    maps L to itself and commutes with G, and the right-hand side is even,
    so the factor runs on the even half of the block, in the basis
    v_r = (e_r + e_r') / |e_r + e_r'| over the shifts r = (i, j) with
    i <= j and their mirrors r' = (j, i), and p comes out exactly
    symmetric.  Only the even block is built, folded as it is scattered
    (`_gram`): E[r, s] = 2 (G[r, s] + G[r, s']) / (|e_r + e_r'| |e_s + e_s'|),
    with |e_r + e_r'| = 2 on the diagonal i = j and sqrt 2 off it, so only
    the rows and columns on the diagonal are weighted.  The distance is the
    norm of every coefficient of the residual p f - 1.
    """
    caps = list(caps)
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be strictly increasing")
    if not caps:
        return []
    if f.is_zero:
        raise ValueError("zero polynomial")
    if caps[0] < 0:
        raise ValueError("degree cap must be nonnegative")
    cap = caps[-1]
    bi, bj = _total_degree_basis(cap)
    home = _in_lattice(_support_lattice(f), bi, bj)
    bi, bj = bi[home], bj[home]
    swap = _swap_symmetric(f)
    H = _gram(f, space, cap, bi, bj, swap)
    if swap:
        bi, bj = bi[bi <= bj], bj[bi <= bj]
        # 2 / (|e_r + e_r'| |e_s + e_s'|): 1/2 when r and s are both on the
        # diagonal, 1/sqrt 2 when one of them is, 1 when neither is; the
        # columns on it are weighted in the rows off it, then its rows
        on = np.flatnonzero(bi == bj)
        H[:, on] *= np.where(bi == bj, 1.0, math.sqrt(0.5))[:, None]
        H[on] *= np.where(bi == bj, 0.5, math.sqrt(0.5))
        # p = sum x_r v_r over the even basis
        to_coeff = np.where(bi == bj, 1.0, math.sqrt(0.5))
    sizes = np.searchsorted(bi + bj, caps, side="right")

    try:
        D, S = _band_cholesky(H, _block_size(bi + bj, sum(f.bidegree)))
    except np.linalg.LinAlgError:
        # name the first cap whose leading block fails; the top cap's block
        # is H itself, named when no smaller one fails
        for N, B in zip(caps, sizes):
            try:
                np.linalg.cholesky(H[:B, :B])
            except np.linalg.LinAlgError:
                break
        raise ValueError(f"singular Gram matrix: the block of degree cap {N} "
                         "is not positive definite") from None
    a00 = f.coeffs[0, 0]
    rhs = np.zeros(bi.size, dtype=H.dtype)
    rhs[0] = np.conj(a00) if H.dtype.kind == "c" else a00.real
    y = _forward(D, S, rhs)
    # the weights of the top cap's residual, whose leading part weighs a
    # smaller cap's
    w = space.weight_grid((cap + f.coeffs.shape[0], cap + f.coeffs.shape[1]))
    out = []
    for N, B in zip(caps, sizes):
        x = _backward(D, S, y[:B])
        i, j = bi[:B], bj[:B]
        coeffs = np.zeros((N + 1, N + 1), dtype=complex)
        if swap:
            coeffs[i, j] = coeffs[j, i] = x * to_coeff[:B]
        else:
            coeffs[i, j] = x
        p = Poly2(coeffs)
        # p holds the solved coefficients, and the residual p f - 1 is
        # normed with every coefficient
        r = _convolve(p.coeffs, f.coeffs)
        r[0, 0] -= 1.0
        dist = float(np.sqrt(np.sum(w[:r.shape[0], :r.shape[1]] * np.abs(r) ** 2)))
        out.append(ApproximantResult(N, p, dist))
    return out
