import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bicyclic import dirichlet
from bicyclic.dirichlet import (AlphaSpace, _backward, _band_cholesky, _block_size,
                                _forward, _gram, _support_lattice, _swap_symmetric,
                                _total_degree_basis, alpha_norm, distance_profile,
                                optimal_approximant)
from bicyclic.poly2 import Poly2
from conftest import from_terms, random_poly


def alpha_inner(f: Poly2, g: Poly2, space: AlphaSpace) -> complex:
    K = max(f.coeffs.shape[0], g.coeffs.shape[0])
    L = max(f.coeffs.shape[1], g.coeffs.shape[1])
    w = space.weight_grid((K, L))
    return complex(np.sum(w * f.padded((K, L)) * np.conj(g.padded((K, L)))))


def _radial_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on u = r^2 in [0, 1]
    x, w = leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _disk_quad(poly_vals_fn, alpha: float, nodes: int) -> float:
    """Integral over the disk of |g|^2 (1-|z|^2)^(1-alpha) dA/pi."""
    u, wu = _radial_nodes(nodes)
    th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    z = np.sqrt(u)[:, None] * np.exp(1j * th)[None, :]
    vals = poly_vals_fn(z)
    radial_weight = (1.0 - u) ** (1.0 - alpha)
    ang_mean = np.mean(np.abs(vals) ** 2, axis=1)
    return float(np.sum(wu * radial_weight * ang_mean))


def integral_norm_quadrature(f: Poly2, alpha: float, nodes: int = 48) -> float:
    """Equivalent integral norm via Gauss-Legendre x trapezoid quadrature.

    Uses the convention dA = Lebesgue measure on the disk divided by pi, so
    the unit disk has measure one.  Only defined for alpha < 2.
    """
    if alpha >= 2:
        raise ValueError("integral norm requires alpha < 2")
    a00 = complex(f.coeffs[0, 0])
    total = abs(a00) ** 2

    d1 = f.partial_derivative(1)
    c1 = d1.coeffs[:, 0]  # z1-coefficients of d1(., 0)
    if np.any(c1 != 0):
        total += _disk_quad(lambda z: np.polynomial.polynomial.polyval(z, c1),
                            alpha, nodes)

    d2 = f.partial_derivative(2)
    c2 = d2.coeffs[0, :]
    if np.any(c2 != 0):
        total += _disk_quad(lambda z: np.polynomial.polynomial.polyval(z, c2),
                            alpha, nodes)

    d12 = d1.partial_derivative(2)
    if not d12.is_zero:
        u, wu = _radial_nodes(nodes)
        th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
        z = (np.sqrt(u)[:, None] * np.exp(1j * th)[None, :]).ravel()
        rw = ((1.0 - u) ** (1.0 - alpha))[:, None]
        wgrid = (wu[:, None] * rw * np.ones_like(th)[None, :] / nodes).ravel()
        k, l = d12.bidegree
        V1 = z[:, None] ** np.arange(k + 1)[None, :]
        V2 = z[:, None] ** np.arange(l + 1)[None, :]
        vals = V1 @ d12.coeffs @ V2.T
        total += float(wgrid @ (np.abs(vals) ** 2) @ wgrid)

    return float(np.sqrt(total))


def total_degree_basis(cap: int) -> list[tuple[int, int]]:
    """The shifts (i, j) with i + j <= cap, in degree order and by j within
    a degree."""
    return [(t - j, j) for t in range(cap + 1) for j in range(t + 1)]


def gram_matrix(f: Poly2, space: AlphaSpace, cap: int) -> np.ndarray:
    """`_gram` over the total-degree basis of `cap`, in degree order."""
    bi, bj = np.array(total_degree_basis(cap)).T
    return _gram(f, space, cap, bi, bj, False)


def residual_norm(p: Poly2, f: Poly2, alpha: float) -> float:
    """||p f - 1|| from the dense convolution of the two grids, untrimmed.

    f's coefficients are taken in reverse row-major order, each adding
    f[k, l] times p, which is the order of `Poly2.__mul__` when p has more
    nonzero coefficients than f; at distances near rounding the order of
    the sums shows (on 4 - z1 - z2 at alpha 0.25, d_48 = 2.9e-12 moves by
    5e-12 of itself in forward order)."""
    a, c = f.coeffs, p.coeffs
    r = np.zeros((a.shape[0] + c.shape[0] - 1, a.shape[1] + c.shape[1] - 1), dtype=complex)
    for k in reversed(range(a.shape[0])):
        for l in reversed(range(a.shape[1])):
            r[k: k + c.shape[0], l: l + c.shape[1]] += c * a[k, l]
    r[0, 0] -= 1.0
    w = AlphaSpace(alpha).weight_grid(r.shape)
    return float(np.sqrt(np.sum(w * np.abs(r) ** 2)))


def band_route(H, degrees, reach, rhs0, B):
    """The profile's arithmetic for one cap: the band factor of the whole
    block H, y = L^-1 rhs0 e_0, and x by back substitution on the leading
    B x B part of L."""
    D, S = _band_cholesky(H, _block_size(np.asarray(degrees), reach))
    rhs = np.zeros(H.shape[0], dtype=H.dtype)
    rhs[0] = rhs0
    return _backward(D, S, _forward(D, S, rhs)[:B])


def oracle_design(f, alpha, N):
    """Weighted design matrix of the shifts z1^i z2^j f (one column per
    basis monomial, total degree <= N) and the weighted target 1."""
    n, m = f.bidegree
    basis = total_degree_basis(N)
    K, L = n + N + 1, m + N + 1
    w = (np.arange(K)[:, None] + 1.0) ** alpha * (np.arange(L)[None, :] + 1.0) ** alpha
    sw = np.sqrt(w).ravel()
    A = np.zeros((K * L, len(basis)), dtype=complex)
    for b, (i, j) in enumerate(basis):
        g = np.zeros((K, L), dtype=complex)
        g[i: i + n + 1, j: j + m + 1] = f.coeffs
        A[:, b] = g.ravel() * sw
    target = np.zeros(K * L, dtype=complex)
    target[0] = sw[0]
    return A, target


def in_support_lattice(f, i, j) -> bool:
    """Whether (i, j) lies in the lattice L spanned by the differences of
    supp f, given by its Hermite basis {(b, c), (a, 0)}."""
    a, b, c = _support_lattice(f)
    x = i - (j // c) * b if c else i
    return (j % c if c else j) == 0 and (x % a if a else x) == 0


def brute_force_approximant(f, alpha, N):
    """Independent oracle: dense weighted least squares on the raw
    coefficient design matrix (no Gram matrix, no Cholesky)."""
    A, target = oracle_design(f, alpha, N)
    c, *_ = np.linalg.lstsq(A, target, rcond=None)
    return c, float(np.linalg.norm(A @ c - target))


def diagonal_distance_oracle(alpha, N):
    """Closed-form d_N for 1 + z1 z2 under the total-degree cap N.

    The problem is invariant under (z1, z2) -> (e^{is} z1, e^{-is} z2), so
    the optimal p is a polynomial in w = z1 z2 of degree floor(N/2).  Then
    p(w)(1 + w) runs over the polynomials of degree <= M = floor(N/2) + 1
    vanishing at w = -1, with weights omega_k = (k+1)^{2 alpha} on w^k.
    d_N is the distance from 1 to that hyperplane, 1/||k_{-1}|| for the
    truncated reproducing kernel at -1:

        d_N^2 = 1 / sum_{k=0}^{M} (k+1)^{-2 alpha}.
    """
    M = N // 2 + 1
    return 1.0 / math.sqrt(math.fsum((k + 1.0) ** (-2.0 * alpha) for k in range(M + 1)))


def beta_integral(p: int, q: float) -> float:
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


class TestNorms:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0, -1.0])
    def test_f0_norm_closed_form(self, f0, alpha):
        assert abs(alpha_norm(f0, AlphaSpace(alpha)) ** 2 - (1 + 4.0 ** alpha)) <= 1e-12

    def test_constant(self):
        assert alpha_norm(Poly2.constant(3 - 4j), AlphaSpace(0.7)) == 5.0

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_monomial(self, k):
        sp = AlphaSpace(0.6)
        f = Poly2.monomial(k, 0)
        assert abs(alpha_norm(f, sp) ** 2 - (k + 1) ** 0.6) <= 1e-12

    def test_inner_disjoint(self):
        sp = AlphaSpace(1.0)
        assert alpha_inner(Poly2.monomial(1, 0), Poly2.monomial(0, 1), sp) == 0

    def test_inner_consistent_with_norm(self, rng):
        sp = AlphaSpace(0.5)
        for _ in range(10):
            f = random_poly(rng)
            ip = alpha_inner(f, f, sp)
            assert abs(ip.imag) <= 1e-12 * max(1.0, abs(ip))
            assert abs(ip.real - alpha_norm(f, sp) ** 2) <= 1e-10 * max(1.0, ip.real)

    def test_inner_against_one(self, f0):
        assert alpha_inner(f0, Poly2.constant(1.0), AlphaSpace(0.3)) == 1.0


class TestIntegralNorm:
    def test_constant_one(self):
        assert abs(integral_norm_quadrature(Poly2.constant(1.0), 0.5) - 1.0) <= 1e-12

    def test_z1(self):
        for alpha in (0.0, 0.5, 1.0):
            v = integral_norm_quadrature(Poly2.monomial(1, 0), alpha, nodes=64)
            assert abs(v ** 2 - 1.0 / (2 - alpha)) <= 1e-5

    @pytest.mark.parametrize("k,alpha", [(2, 0.0), (3, 0.7), (4, 1.0)])
    def test_monomial_beta_oracle(self, k, alpha):
        # derivative term integrates to k^2 B(k, 2 - alpha) in the dA/pi convention
        expect = k * k * beta_integral(k, 2.0 - alpha)
        v = integral_norm_quadrature(Poly2.monomial(k, 0), alpha, nodes=64)
        assert abs(v ** 2 - expect) <= 1e-4 * max(1.0, expect)

    def test_mixed_term(self):
        # f = z1 z2: only the mixed derivative contributes, (1/(2-a))^2
        v = integral_norm_quadrature(Poly2.monomial(1, 1), 0.5, nodes=48)
        assert abs(v ** 2 - (1 / 1.5) ** 2) <= 1e-4

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            integral_norm_quadrature(Poly2.constant(1.0), 2.0)

    def test_equivalence_bracket(self, rng):
        # empirical two-sided bracket, recorded during development
        for alpha in (0.0, 0.5, 1.0):
            ratios = []
            for _ in range(25):
                f = random_poly(rng, 6)
                if f.is_zero:
                    continue
                r = integral_norm_quadrature(f, alpha, nodes=24) / alpha_norm(f, AlphaSpace(alpha))
                ratios.append(r)
            assert min(ratios) >= 0.3 and max(ratios) <= 3.0


class TestOptimalApproximant:
    def test_constant_f(self):
        r = optimal_approximant(Poly2.constant(1.0), AlphaSpace(0.7), 3)
        assert r.distance <= 1e-12
        assert abs(r.approximant(0.3, -0.2j) - 1.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_cap_zero_closed_form(self, f0, alpha):
        r = optimal_approximant(f0, AlphaSpace(alpha), 0)
        w = 4.0 ** alpha
        assert abs(complex(r.approximant.coeffs[0, 0]) - 1 / (1 + w)) <= 1e-12
        assert abs(r.distance ** 2 - w / (1 + w)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_brute_force_cross_check(self, f0, alpha):
        r = optimal_approximant(f0, AlphaSpace(alpha), 4)
        c, d = brute_force_approximant(f0, alpha, 4)
        assert abs(r.distance - d) <= 1e-10
        got = [complex(x) for x in np.ravel(r.approximant.padded((5, 5)))]
        basis = total_degree_basis(4)
        for b, (i, j) in enumerate(basis):
            assert abs(r.approximant.padded((5, 5))[i, j] - c[b]) <= 1e-9

    def test_residual_orthogonality(self, f0):
        # residual 1 - p f is orthogonal to every shifted copy of f
        for alpha in (0.25, 1.0):
            sp = AlphaSpace(alpha)
            for N in (0, 3, 7, 12):
                r = optimal_approximant(f0, sp, N)
                resid = Poly2.constant(1.0) - r.approximant * f0
                for i in range(N + 1):
                    for j in range(N + 1 - i):
                        shift = Poly2.monomial(i, j) * f0
                        assert abs(alpha_inner(resid, shift, sp)) <= 1e-9

    def test_distance_bounded_by_one(self, rng):
        for _ in range(5):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            r = optimal_approximant(f, AlphaSpace(0.5), 3)
            assert r.distance <= 1.0 + 1e-12

    def test_unimodular_scaling_invariance(self, f0):
        sp = AlphaSpace(0.5)
        lam = np.exp(0.7j)
        d1 = optimal_approximant(f0, sp, 5).distance
        d2 = optimal_approximant(f0 * lam, sp, 5).distance
        assert abs(d1 - d2) <= 1e-12

    def test_swap_invariance(self, rng):
        sp = AlphaSpace(0.5)
        for _ in range(5):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            d1 = optimal_approximant(f, sp, 4).distance
            d2 = optimal_approximant(f.swap_variables(), sp, 4).distance
            assert abs(d1 - d2) <= 1e-10

    def test_univariate_hardy_closed_form(self):
        # one-variable oracle: d_N^2 = 1/(N+2) for 1 - z1 in the Hardy space
        f = Poly2([[1], [-1]])
        for N in (0, 2, 5, 8):
            r = optimal_approximant(f, AlphaSpace(0.0), N)
            assert abs(r.distance ** 2 - 1.0 / (N + 2)) <= 1e-12

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            optimal_approximant(Poly2.zero(), AlphaSpace(0.0), 2)

    def test_negative_cap_rejected(self, f0):
        with pytest.raises(ValueError):
            optimal_approximant(f0, AlphaSpace(0.0), -1)


class TestDistanceProfile:
    def test_monotone(self, f0):
        for alpha in (0.0, 0.25, 1.0):
            prof = distance_profile(f0, AlphaSpace(alpha), [0, 2, 4, 8, 12])
            ds = [r.distance for r in prof]
            assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))

    def test_cyclic_regime_decreases(self, f0):
        prof = distance_profile(f0, AlphaSpace(0.25), [4, 12])
        assert prof[1].distance < prof[0].distance

    def test_hardy_to_zero(self):
        prof = distance_profile(Poly2([[1], [-1]]), AlphaSpace(0.0), [0, 4, 8, 16])
        ds = [r.distance for r in prof]
        assert ds[-1] < 0.25 and all(b < a for a, b in zip(ds, ds[1:]))

    def test_caps_validated(self, f0):
        with pytest.raises(ValueError):
            distance_profile(f0, AlphaSpace(0.0), [4, 4])

    @staticmethod
    def check_every_cap(f, alpha):
        # each cap is solved on a leading block of one Gram matrix; each must
        # agree with its own dense least-squares solve
        caps = [0, 2, 5, 8]
        prof = distance_profile(f, AlphaSpace(alpha), caps)
        assert [r.degree_cap for r in prof] == caps
        for r in prof:
            N = r.degree_cap
            c, d = brute_force_approximant(f, alpha, N)
            assert abs(r.distance - d) <= 1e-10
            got = r.approximant.padded((N + 1, N + 1))
            basis = total_degree_basis(N)
            for b, (i, j) in enumerate(basis):
                assert abs(got[i, j] - c[b]) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_every_cap_matches_oracle(self, rng, alpha):
        for _ in range(4):
            self.check_every_cap(random_poly(rng, 2), alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_every_cap_matches_oracle_real_coefficients(self, rng, alpha):
        # real f takes the real-arithmetic path
        for _ in range(4):
            self.check_every_cap(random_poly(rng, 2, real=True), alpha)

    def test_empty_caps(self, f0):
        assert distance_profile(f0, AlphaSpace(0.5), []) == []

    @pytest.mark.parametrize("cap", [0, 1, 2, 7, 32, 48])
    def test_basis_by_arithmetic(self, cap):
        bi, bj = _total_degree_basis(cap)
        assert list(zip(bi.tolist(), bj.tolist())) == total_degree_basis(cap)

    @pytest.mark.parametrize("c", [4, 3])
    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_distance_is_the_untrimmed_residual(self, c, alpha):
        # p f - 1 is normed with every coefficient: on c - z1 - z2 the
        # trailing terms of p f fall below 1e-12 of its largest, and dropping
        # them reported d_48 = 2.2e-16 on 4 - z1 - z2, against 2.9e-12 at
        # alpha 0.25 and 2.2e-11 at alpha 1 for the p reported with it
        f = Poly2([[c, -1], [-1, 0]])
        prof = distance_profile(f, AlphaSpace(alpha), [24, 32, 48])
        for r in prof:
            d = residual_norm(r.approximant, f, alpha)
            assert abs(r.distance - d) <= 1e-12 * d
        assert prof[2].distance <= prof[1].distance


class TestGramMatrix:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_design_normal_matrix(self, rng, alpha, real):
        # the banded build from f's autocorrelation equals A^H A of the
        # weighted design matrix, entry by entry
        for n in range(4):
            for m in range(4):
                shape = (n + 1, m + 1)
                a = rng.standard_normal(shape)
                if not real:
                    a = a + 1j * rng.standard_normal(shape)
                a[n, m] = 1.0 if real else 1.0 + 1.0j   # bidegree exactly (n, m)
                f = Poly2(a)
                for cap in (0, 1, 5, 12):
                    A, _ = oracle_design(f, alpha, cap)
                    expect = A.conj().T @ A
                    G = gram_matrix(f, AlphaSpace(alpha), cap)
                    assert G.dtype == (np.float64 if real else np.complex128)
                    assert np.abs(G - expect).max() <= 1e-13 * np.abs(expect).max()


def sparse_poly(terms, rng=None):
    """{(k, l): c} on a lattice-sparse support; with rng, random complex
    coefficients on the same support."""
    if rng is not None:
        terms = {kl: complex(rng.standard_normal(), rng.standard_normal()) for kl in terms}
    return from_terms(terms)


LATTICE_SPARSE = {
    # name: (terms, lattice index, or None for rank < 2)
    "1 + z1 z2": ({(0, 0): 1, (1, 1): 1}, None),
    "1 - z1 z2": ({(0, 0): 1, (1, 1): -1}, None),
    "1 + z1^2 z2": ({(0, 0): 1, (2, 1): 1}, None),
    "2 - z1^2 - z2^2": ({(0, 0): 2, (2, 0): -1, (0, 2): -1}, 4),
    "z1 z2^2": ({(1, 2): 1}, None),
    "3 + z1^3 z2^2 - z2^4": ({(0, 0): 3, (3, 2): 1, (0, 4): -1}, 12),
}


SWAP_SYMMETRIC = {
    # name: (terms, +1 for f(z2, z1) = f, -1 for f(z2, z1) = -f)
    "2 - z1 - z2": ({(0, 0): 2, (1, 0): -1, (0, 1): -1}, 1),
    "f_0.4": ({(0, 0): 1, (1, 0): -0.4, (0, 1): -0.4, (1, 1): 1}, 1),
    "1 + z1 z2": ({(0, 0): 1, (1, 1): 1}, 1),
    "2 - z1^2 - z2^2": ({(0, 0): 2, (2, 0): -1, (0, 2): -1}, 1),
    "3 - z1 z2^2 - z1^2 z2": ({(0, 0): 3, (1, 2): -1, (2, 1): -1}, 1),
    "z1 - z2 + z1^2 z2 - z1 z2^2": ({(1, 0): 1, (0, 1): -1, (2, 1): 1, (1, 2): -1}, -1),
}


def swap_halves() -> dict:
    """{name: (f, caps)}: more swap-symmetric f on one coset for the
    even-half oracle; 2 - z1 - z2 to cap 32 has 289 of the 561 shifts in its
    even half, factored in 5 band blocks."""
    rng = np.random.default_rng(29)
    a00, a10, a11 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return {
        "2 - z1 - z2 to cap 32": (Poly2([[2, -1], [-1, 0]]), [0, 8, 16, 24, 32]),
        "random complex (1, 1) to cap 24": (Poly2([[a00, a10], [a10, a11]]), [0, 6, 12, 24]),
    }


SWAP_HALVES = swap_halves()


class TestCosetBlocks:
    """The Gram matrix is block diagonal over the cosets of the lattice of
    support differences; the profile solves on the home coset alone and must
    agree with a dense solve on the whole normal matrix."""

    @staticmethod
    def dense_oracle(f, alpha, N):
        A, target = oracle_design(f, alpha, N)
        G = A.conj().T @ A
        c = np.linalg.solve(G, A.conj().T @ target)
        return float(np.linalg.norm(A @ c - target)), c

    @pytest.mark.parametrize("name", sorted(LATTICE_SPARSE))
    @pytest.mark.parametrize("variant", ["as given", "unimodular", "random complex"])
    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_profile_matches_dense_oracle(self, name, variant, alpha):
        terms, _ = LATTICE_SPARSE[name]
        f = sparse_poly(terms)
        if variant == "unimodular":
            f = f * np.exp(0.7j)
        elif variant == "random complex":
            f = sparse_poly(terms, np.random.default_rng(len(name)))
        caps = [0, 3, 6, 10]
        for r in distance_profile(f, AlphaSpace(alpha), caps):
            N = r.degree_cap
            dist, c = self.dense_oracle(f, alpha, N)
            assert abs(r.distance - dist) <= 1e-12 * dist
            got = r.approximant.padded((N + 1, N + 1))
            basis = total_degree_basis(N)
            assert max(abs(got[i, j] - c[b]) for b, (i, j) in enumerate(basis)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(LATTICE_SPARSE))
    def test_approximant_lives_on_the_home_coset(self, name):
        # p is supported on the shifts b with b - (0, 0) in the lattice
        terms, _ = LATTICE_SPARSE[name]
        f = sparse_poly(terms)
        p = distance_profile(f, AlphaSpace(0.5), [9])[0].approximant
        for (i, j) in zip(*np.nonzero(p.coeffs)):
            assert in_support_lattice(f, i, j)

    def test_gram_sees_the_home_coset_only(self, monkeypatch):
        # 1 + z1 z2 at cap 32: the home coset holds the 17 points (k, k) of
        # the 561 in the basis, and `_gram` is built on those alone
        sizes = []

        def counted(f, space, cap, bi, bj, fold):
            sizes.append(bi.size)
            return _gram(f, space, cap, bi, bj, fold)

        monkeypatch.setattr(dirichlet, "_gram", counted)
        distance_profile(Poly2([[1, 0], [0, 1]]), AlphaSpace(0.75), [0, 16, 32])
        assert sizes == [17]

    def test_monomial_gram_is_diagonal(self):
        # a00 = 0: p = 0 and d_N = 1; G is diagonal, with the weights
        # w_{i+1} w_{j+2} of the shifts on its diagonal
        f = Poly2.monomial(1, 2)
        G = gram_matrix(f, AlphaSpace(0.5), 7)
        diag = [((i + 2) * (j + 3)) ** 0.5 for (i, j) in total_degree_basis(7)]
        assert np.array_equal(G, np.diag(np.diag(G)))
        assert np.abs(np.diag(G) - diag).max() <= 1e-12 * max(diag)
        for r in distance_profile(f, AlphaSpace(0.5), [0, 4, 7]):
            assert r.distance == 1.0 and r.approximant.is_zero

    @pytest.mark.parametrize("name", sorted(LATTICE_SPARSE))
    def test_lattice_index(self, name):
        terms, index = LATTICE_SPARSE[name]
        a, b, c = _support_lattice(sparse_poly(terms))
        assert c >= 0 and a >= 0 and (a == 0 or 0 <= b < a)
        assert (a * c if a and c else None) == index
        # every support difference lies in Z (b, c) + Z (a, 0)
        pts = list(terms)
        for (k, l) in pts:
            dk, dl = k - pts[0][0], l - pts[0][1]
            if c:
                assert dl % c == 0
                dk -= (dl // c) * b
            else:
                assert dl == 0
            assert (dk % a == 0) if a else dk == 0

    def test_one_coset_keeps_degree_order(self):
        # support differences spanning Z^2 give one block: without swap
        # symmetry the profile is the same arithmetic as the band factor of
        # gram_matrix and a back substitution on its leading blocks
        f = Poly2([[2, -0.5], [-1, 0]])
        assert _support_lattice(f) == (1, 0, 1) and not _swap_symmetric(f)
        G = gram_matrix(f, AlphaSpace(0.75), 8)
        degrees = [i + j for (i, j) in total_degree_basis(8)]
        for r in distance_profile(f, AlphaSpace(0.75), [0, 4, 8]):
            N = r.degree_cap
            B = (N + 1) * (N + 2) // 2
            x = band_route(G, degrees, 2, 2.0, B)
            coeffs = np.zeros((N + 1, N + 1), dtype=complex)
            coeffs[tuple(np.array(total_degree_basis(N)).T)] = x
            assert np.array_equal(r.approximant.coeffs, Poly2(coeffs).coeffs)

    def test_swap_halves_keep_their_arithmetic(self):
        self.check_swap_half(Poly2([[2, -1], [-1, 0]]), [0, 4, 8])

    @pytest.mark.parametrize("name", sorted(SWAP_HALVES))
    def test_swap_halves_at_cap_32_and_complex(self, name):
        self.check_swap_half(*SWAP_HALVES[name])

    @staticmethod
    def check_swap_half(f, caps):
        # a coset that the swap maps to itself: the profile is the same
        # arithmetic as the band route on the even half of G, in the even
        # basis (e_ij + e_ji) / |e_ij + e_ji|, i <= j, that block being
        # E = w (R[:, even] + R[:, mirror]) from the rows R = G[even], with
        # w = 2 / (|e_r + e_r'| |e_s + e_s'|)
        space, cap = AlphaSpace(0.75), caps[-1]
        assert _support_lattice(f) == (1, 0, 1) and _swap_symmetric(f)
        G = gram_matrix(f, space, cap)
        basis = total_degree_basis(cap)
        index = {b: k for k, b in enumerate(basis)}
        mirror = np.array([index[(j, i)] for (i, j) in basis])
        even = np.array([k for k, (i, j) in enumerate(basis) if i <= j])
        # |e_ij + e_ji| = 2 on the diagonal, sqrt 2 off it
        diagonal = np.array([basis[k][0] == basis[k][1] for k in even])
        w = np.where(np.logical_and.outer(diagonal, diagonal), 0.5,
                     np.where(np.logical_or.outer(diagonal, diagonal), np.sqrt(0.5), 1.0))
        R = G[even]
        E = (R[:, even] + R[:, mirror[even]]) * w
        degrees = [sum(basis[k]) for k in even]
        a00 = f.coeffs[0, 0]
        rhs0 = np.conj(a00) if E.dtype.kind == "c" else a00.real
        for r in distance_profile(f, space, caps):
            N = r.degree_cap
            B = sum(d <= N for d in degrees)
            x = band_route(E, degrees, 2, rhs0, B) * np.where(diagonal[:B], 1.0, np.sqrt(0.5))
            coeffs = np.zeros((N + 1, N + 1), dtype=complex)
            for k, v in zip(even[:B], x):
                i, j = basis[k]
                coeffs[i, j] = coeffs[j, i] = v
            p = Poly2(coeffs)
            assert np.array_equal(r.approximant.coeffs, p.coeffs)
            assert r.distance == residual_norm(p, f, 0.75)

    @pytest.mark.parametrize("name", sorted(SWAP_SYMMETRIC))
    @pytest.mark.parametrize("variant", ["as given", "unimodular", "random complex"])
    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_swap_profile_matches_dense_oracle(self, name, variant, alpha):
        # the solve on the even half of the home coset, against the dense
        # solve on the whole normal matrix
        terms, sign = SWAP_SYMMETRIC[name]
        if variant == "random complex":
            rng = np.random.default_rng(len(name))
            terms = dict(terms)
            for (k, l) in sorted(terms):
                if k <= l:
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    terms[(k, l)], terms[(l, k)] = c, sign * c if k < l else c
        f = sparse_poly(terms)
        if variant == "unimodular":
            f = f * np.exp(0.7j)
        assert _swap_symmetric(f)
        for r in distance_profile(f, AlphaSpace(alpha), [0, 3, 6, 10]):
            N = r.degree_cap
            dist, c = self.dense_oracle(f, alpha, N)
            assert abs(r.distance - dist) <= 1e-12 * dist
            got = r.approximant.padded((N + 1, N + 1))
            assert np.array_equal(got, got.T)
            basis = total_degree_basis(N)
            assert max(abs(got[i, j] - c[b]) for b, (i, j) in enumerate(basis)) <= 1e-10

    def test_swap_test_is_exact(self):
        # a perturbation of one ulp breaks the symmetry, and the profile then
        # takes the unsplit path
        assert _swap_symmetric(Poly2([[2, -1], [-1, 0]]))
        assert _swap_symmetric(sparse_poly(SWAP_SYMMETRIC["z1 - z2 + z1^2 z2 - z1 z2^2"][0]))
        assert not _swap_symmetric(Poly2([[2, -1], [np.nextafter(-1.0, 0.0), 0]]))
        assert not _swap_symmetric(Poly2([[2, -1, 0.5], [-1, 0, 0]]))


class TestSwapRelation:
    """distance_profile of f(z2, z1) is that of f, with the approximant
    transposed (a metamorphic relation, for f without swap symmetry)."""

    @staticmethod
    def assert_swapped_profile(f, alpha, caps):
        g = f.swap_variables()
        assert not _swap_symmetric(f)
        for r, s in zip(distance_profile(f, AlphaSpace(alpha), caps),
                        distance_profile(g, AlphaSpace(alpha), caps)):
            assert abs(r.distance - s.distance) <= 1e-12 * r.distance
            N = r.degree_cap
            p, q = r.approximant.padded((N + 1, N + 1)), s.approximant.padded((N + 1, N + 1))
            assert np.abs(p - q.T).max() <= 1e-10 * max(1.0, np.abs(p).max())

    @pytest.mark.parametrize("real", [True, False])
    def test_random(self, rng, real):
        for _ in range(6):
            f = random_poly(rng, 3, real=real)
            if not f.is_zero and not _swap_symmetric(f):    # e.g. a constant
                self.assert_swapped_profile(f, 0.5, [0, 3, 6])

    @pytest.mark.parametrize("name", ["1 + z1^2 z2", "3 + z1^3 z2^2 - z2^4"])
    def test_lattice_sparse(self, name):
        self.assert_swapped_profile(sparse_poly(LATTICE_SPARSE[name][0]), 0.75, [0, 4, 9])

    def test_one_coset(self):
        self.assert_swapped_profile(Poly2([[2, -0.5], [-1, 0]]), 0.25, [0, 8, 16])


def kernel_inputs() -> dict:
    """{name: f} for the reproducing-kernel check: random complex and real
    (2, 2), every swap-symmetric input and 1 - z1 z2."""
    rng = np.random.default_rng(23)
    out = {"1 - z1 z2": Poly2([[1, 0], [0, -1]])}
    for real in (False, True):
        a = rng.standard_normal((3, 3)) + (0 if real else 1j * rng.standard_normal((3, 3)))
        out["random real (2, 2)" if real else "random complex (2, 2)"] = Poly2(a)
    return out | {name: sparse_poly(terms) for name, (terms, _) in SWAP_SYMMETRIC.items()}


KERNEL_INPUTS = kernel_inputs()


class TestSolveRoute:
    """One band factor per profile and one back substitution per cap, with
    the reproducing-kernel form of the distance as an exact oracle."""

    @pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.75, 1.0])
    def test_kernel_form_of_the_distance(self, name, alpha):
        # the residual 1 - p f is orthogonal to every shift of f, so
        # d_N^2 = <1 - p f, 1> = 1 - a00 p_N(0, 0) (Beneteau, Khavinson,
        # Liaw, Seco & Sola, J. London Math. Soc. 2016)
        f = KERNEL_INPUTS[name]
        a00 = complex(f.coeffs[0, 0])
        for r in distance_profile(f, AlphaSpace(alpha), range(25)):
            kernel = 1.0 - (a00 * complex(r.approximant.coeffs[0, 0])).real
            assert abs(kernel - r.distance ** 2) <= 1e-12

    @pytest.mark.parametrize("f", [Poly2([[2, -1], [-1, 0]]), Poly2([[2, -0.5], [-1, 0]])],
                             ids=["swap-symmetric", "one coset"])
    def test_band_factor_route(self, monkeypatch, f):
        # the block is factored once, by blocks of bs rows: every cholesky
        # and solve is on at most bs rows, and no eigenvalue, condition
        # number or inverse is computed
        rows = {name: [] for name in ["cholesky", "solve", "eigvalsh", "eigh", "cond", "inv"]}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                rows[name].append(args[0].shape[0])
                return fn(*args, **kwargs)
            return wrapper

        for name in rows:
            monkeypatch.setattr(np.linalg, name, counted(name))
        caps = [0, 8, 16, 24, 32]
        distance_profile(f, AlphaSpace(0.75), caps)
        swap = _swap_symmetric(f)
        degrees = np.array([i + j for (i, j) in total_degree_basis(32) if i <= j or not swap])
        bs = _block_size(degrees, 2)
        blocks = -(-degrees.size // bs)
        assert (degrees.size, bs, blocks) == ((289, 64, 5) if swap else (561, 96, 6))
        assert len(rows["cholesky"]) == blocks
        assert max(rows["cholesky"] + rows["solve"]) <= bs
        assert not any(rows[name] for name in ["eigvalsh", "eigh", "cond", "inv"])

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("B", [63, 64, 65, 128, 129])
    def test_band_factor_matches_dense_cholesky(self, rng, real, B):
        # leading blocks of Gram matrices of bidegree (1, 1) and (1, 2) in
        # degree order straddle the block boundaries of bs = 64; the band
        # factor is the Cholesky factor, and the dense one vanishes exactly
        # two or more blocks below the diagonal
        for n, m in [(1, 1), (1, 2)]:
            f = Poly2(rng.standard_normal((n + 1, m + 1))
                      + (0 if real else 1j * rng.standard_normal((n + 1, m + 1))))
            basis = total_degree_basis(15)
            degrees = np.array([i + j for (i, j) in basis])[:B]
            H = gram_matrix(f, AlphaSpace(0.5), 15)[:B, :B]
            bs = _block_size(degrees, n + m)
            assert bs == 64
            D, S = _band_cholesky(H, bs)
            L = np.zeros_like(H)
            for k, block in enumerate(D):
                L[k * bs: k * bs + bs, k * bs: k * bs + bs] = block
            for k, block in enumerate(S):
                L[(k + 1) * bs: (k + 2) * bs, k * bs: (k + 1) * bs] = block
            assert len(D) == -(-B // bs)
            assert np.abs(L @ L.conj().T - H).max() <= 1e-13 * np.abs(H).max()
            dense = np.linalg.cholesky(H)
            assert np.abs(L - dense).max() <= 1e-12 * np.abs(dense).max()
            for k in range(2, len(D)):
                assert not dense[k * bs:, : (k - 1) * bs].any()

    def test_profiles_over_three_or_more_blocks(self, rng):
        # random complex f of bidegree (1, 1) to (2, 2) to cap 24: every
        # block spans at least three factor blocks, and every cap agrees
        # with the dense solve on the whole normal matrix
        caps = [0, 8, 16, 24]
        degrees = np.array([i + j for (i, j) in total_degree_basis(caps[-1])])
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            f = Poly2(rng.standard_normal((n + 1, m + 1))
                      + 1j * rng.standard_normal((n + 1, m + 1)))
            assert _support_lattice(f) == (1, 0, 1) and not _swap_symmetric(f)
            assert -(-degrees.size // _block_size(degrees, n + m)) >= 3
            for r in distance_profile(f, AlphaSpace(0.5), caps):
                dist, c = TestCosetBlocks.dense_oracle(f, 0.5, r.degree_cap)
                assert abs(r.distance - dist) <= 1e-12 * dist
                got = r.approximant.padded((r.degree_cap + 1, r.degree_cap + 1))
                basis = total_degree_basis(r.degree_cap)
                assert max(abs(got[i, j] - c[b]) for b, (i, j) in enumerate(basis)) <= 1e-10

    def test_singular_block_names_its_cap(self, monkeypatch):
        # a Cholesky that fails from block size 40 on: without swap symmetry
        # the caps 0, 4, 8, 12 have blocks of 1, 15, 45 and 91 shifts
        cholesky = np.linalg.cholesky

        def failing(M):
            if M.shape[0] >= 40:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(ValueError, match="singular Gram matrix: the block of degree cap 8 "):
            distance_profile(Poly2([[2, -0.5], [-1, 0]]), AlphaSpace(0.75), [0, 4, 8, 12])

    def test_vanishing_weight_is_singular(self):
        # at alpha = -2000 every weight but w_0 underflows to 0, so the shift
        # by z1 has norm 0 and the block of cap 1 is singular
        f = Poly2([[1], [1]])
        assert distance_profile(f, AlphaSpace(-2000.0), [0])[0].distance == 0.0
        with pytest.raises(ValueError, match="block of degree cap 1 is not positive definite"):
            distance_profile(f, AlphaSpace(-2000.0), [0, 1, 2])
