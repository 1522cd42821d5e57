import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic._roots import RELATIVE_COEFF_FLOOR, roots_low_first
from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic.poly2 import (CIRCLE_BAND, MobiusParams, Poly2, coeff_distance,
                            compute_h, mobius_numerator, normalize_symmetric,
                            slice_rows, sylvester_resultant_z2,
                            unimodular_reflection_match, unimodular_slice_roots)
from conftest import from_terms, random_poly, torus_samples
from test_roots import assert_slices_match


def reflect_at(p, shape):
    """Reflection at an explicit bidegree (used when h is not tight)."""
    return p.reflect(bidegree=(shape[0] - 1, shape[1] - 1))


class TestEvaluate:
    def test_root_by_construction(self, f0):
        assert f0(1.0, -1.0) == 0

    def test_constant_term(self, two_minus):
        assert two_minus(0.0, 0.0) == 2

    def test_factored_zero(self):
        p = Poly2([[1], [-1]]) * Poly2([[1, -1]])  # (1-z1)(1-z2)
        assert p(1.0, 1j) == 0

    def test_broadcasting_matches_scalar(self, rng):
        f = random_poly(rng)
        z1, z2 = torus_samples(rng, 8)
        vals = f(z1, z2)
        for i in range(8):
            assert abs(vals[i] - f(z1[i], z2[i])) < 1e-12

    @staticmethod
    def double_sum(f, z1, z2):
        """Oracle: sum_{k,l} a[k,l] z1^k z2^l term by term."""
        return sum(c * z1 ** k * z2 ** l for (k, l), c in np.ndenumerate(f.coeffs))

    def test_matches_double_sum(self, rng):
        for n, m in [(1, 1), (2, 2), (3, 3), (1, 0), (0, 1), (0, 3), (4, 2)]:
            shape = (n + 1, m + 1)
            f = Poly2(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            z1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z2 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            v = f(complex(z1[0]), complex(z2[0]))
            assert type(v) is complex
            assert abs(v - self.double_sum(f, z1[0], z2[0])) <= 1e-12 * (1 + abs(v))
            got = f(z1[:, None], z2[None, :])
            expect = self.double_sum(f, z1[:, None], z2[None, :])
            assert got.shape == (5, 7)
            assert np.abs(got - expect).max() <= 1e-12 * (1 + np.abs(expect).max())

    def test_univariate_matches_double_sum(self, rng):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for f in (Poly2([[1], [-2], [0.5j]]), Poly2([[1, -2, 0.5j]])):
            for z1, z2 in ((z, 0.3), (0.3, z), (z[:1], z[:1])):
                got = f(z1, z2)
                expect = self.double_sum(f, np.asarray(z1), np.asarray(z2))
                assert got.shape == np.shape(expect)
                assert np.abs(got - expect).max() <= 1e-12 * (1 + np.abs(expect).max())
            assert type(f(0.5, -0.25j)) is complex


class TestArithmetic:
    def test_expansion(self):
        p = Poly2([[1], [-1]]) * Poly2([[1, -1]])
        assert coeff_distance(p, Poly2([[1, -1], [-1, 1]])) == 0

    def test_identity(self, rng):
        f = random_poly(rng)
        assert coeff_distance(f * Poly2.constant(1.0), f) == 0

    def test_difference_of_squares(self, f0):
        g = Poly2([[1, 0], [0, -1]])
        expect = from_terms({(0, 0): 1, (2, 2): -1})
        assert coeff_distance(f0 * g, expect) < 1e-15

    def test_bidegrees_add(self, rng):
        f, g = random_poly(rng), random_poly(rng)
        if f.is_zero or g.is_zero:
            return
        n1, m1 = f.bidegree
        n2, m2 = g.bidegree
        assert (f * g).bidegree == (n1 + n2, m1 + m2)

    @staticmethod
    def convolution_oracle(a, b):
        # the 2-D convolution is one 1-D convolution of the grids with their
        # rows padded to the product's row length
        L = a.shape[1] + b.shape[1] - 1
        pa = np.zeros((a.shape[0], L), dtype=complex)
        pb = np.zeros((b.shape[0], L), dtype=complex)
        pa[:, :a.shape[1]], pb[:, :b.shape[1]] = a, b
        K = a.shape[0] + b.shape[0] - 1
        return np.convolve(pa.ravel(), pb.ravel())[: K * L].reshape(K, L)

    def test_sparse_times_dense(self, rng):
        # the product loops over the sparser operand on either side: both
        # orders match a dense convolution and each other to one ulp
        for _ in range(40):
            n, m = rng.integers(0, 4, 2)
            sparse = np.zeros((n + 1, m + 1), dtype=complex)
            sparse[n, 0], sparse[0, m] = 1.5, -0.5j        # a tight bidegree
            k, l = rng.integers(0, n + 1), rng.integers(0, m + 1)
            sparse[k, l] = complex(rng.standard_normal(), rng.standard_normal())
            shape = tuple(rng.integers(2, 9, 2))
            dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            s, d = Poly2(sparse), Poly2(dense)
            assert np.count_nonzero(s.coeffs) < np.count_nonzero(d.coeffs)
            expect = self.convolution_oracle(s.coeffs, d.coeffs)
            bound = 1e-14 * np.abs(s.coeffs).sum() * np.abs(d.coeffs).max()
            sd, ds = (s * d).coeffs, (d * s).coeffs
            for got in (sd, ds):
                assert got.shape == expect.shape
                assert np.abs(got - expect).max() <= bound
            assert np.abs(sd - ds).max() <= np.spacing(np.abs(sd).max())


class TestDerivative:
    def test_d1(self, f0):
        assert coeff_distance(f0.partial_derivative(1), Poly2([[0, 1]])) == 0

    def test_d2(self, two_minus):
        assert coeff_distance(two_minus.partial_derivative(2), Poly2.constant(-1)) == 0

    def test_constant(self):
        assert Poly2.constant(3.0).partial_derivative(1).is_zero


class TestReflect:
    def test_two_minus(self, two_minus):
        # z1 z2 conj(f(1/conj z1, 1/conj z2)) = 2 z1 z2 - z1 - z2, by expansion
        expect = from_terms({(1, 1): 2, (1, 0): -1, (0, 1): -1})
        assert coeff_distance(two_minus.reflect(), expect) == 0

    def test_f0_selfreflective(self, f0):
        assert coeff_distance(f0.reflect(), f0) == 0

    def test_involution(self, rng):
        for _ in range(30):
            f = random_poly(rng)
            if f.is_zero:
                continue
            assert coeff_distance(f.reflect().reflect(), f) <= 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly2.zero().reflect()

    def test_torus_modulus_preserved(self, rng):
        for _ in range(20):
            f = random_poly(rng)
            if f.is_zero:
                continue
            z1, z2 = torus_samples(rng, 40)
            vf = np.abs(f(z1, z2))
            vt = np.abs(f.reflect()(z1, z2))
            assert np.max(np.abs(vf - vt)) <= 1e-10 * max(1.0, vf.max())


class TestUnimodularMatch:
    def test_fa(self):
        fa = Poly2([[1, -0.5], [-0.5, 1]])
        m = unimodular_reflection_match(fa)
        assert m.matches and abs(m.lam - 1) < 1e-12 and m.residual < 1e-14

    def test_no_match(self, two_minus):
        m = unimodular_reflection_match(two_minus)
        assert not m.matches and m.lam is None

    def test_constant_forced(self):
        c = 2 + 1j
        m = unimodular_reflection_match(Poly2.constant(c))
        assert m.matches
        assert abs(m.lam - np.conj(c) / c) < 1e-12

    def test_lambda_unimodular(self, rng):
        for _ in range(10):
            g = random_poly(rng)
            if g.is_zero:
                continue
            f = g * g.reflect()
            m = unimodular_reflection_match(f)
            assert m.matches and abs(abs(m.lam) - 1.0) <= 1e-12

    def test_divisible_by_z1(self):
        # f(0, z2) = 0 shortens the trimmed reflection; the match compares f
        # with its reflection at the bidegree of f instead of raising
        for grid in ([[0, 0], [1, 1]], [[0, 0, 0], [1, 2, 0], [0, 0, 1]]):
            m = unimodular_reflection_match(Poly2(grid))
            assert not m.matches and m.lam is None and m.residual > 0.5

    def test_normalize_symmetric(self):
        g, mu = normalize_symmetric(Poly2([[1, 0], [0, -1]]))  # lambda = -1
        assert abs(abs(mu) - 1) < 1e-14
        assert coeff_distance(g.reflect(), g) < 1e-14


def slice_roots_reference(f, z1s):
    """One roots_low_first call per slice row, filtered to the circle band."""
    roots, vanishing = [], []
    for row in slice_rows(f.coeffs, z1s):
        gone = np.abs(row).max() <= RELATIVE_COEFF_FLOOR * f.scale
        rts = np.zeros(0, dtype=complex) if gone else roots_low_first(row)
        uni = rts[np.abs(np.abs(rts) - 1.0) <= CIRCLE_BAND]
        roots.append(uni / np.abs(uni))
        vanishing.append(gone)
    return roots, np.array(vanishing)


class TestUnimodularSliceRoots:
    def assert_matches_reference(self, f, z1s):
        # the earlier per-row code, bit for bit, and one roots_low_first call
        # per slice row
        flat, which, vanishing = assert_slices_match(f, z1s)
        roots = [flat[which == s] for s in range(z1s.size)]
        ref_roots, ref_vanishing = slice_roots_reference(f, z1s)
        assert np.array_equal(vanishing, ref_vanishing)
        assert len(ref_roots) == z1s.size
        for r, q in zip(roots, ref_roots):
            assert np.array_equal(r, q)
        return roots, vanishing

    def test_random_complex(self, rng):
        z1s = np.exp(2j * np.pi * rng.uniform(size=48))
        for _ in range(20):
            f = random_poly(rng)
            if f.is_zero:
                continue
            self.assert_matches_reference(f, z1s)
        # slices with roots in the band: 2 - z1 - conj(zeta) z2 on the slice
        # through its torus zero (1, zeta), and 2 - z1^2 - z2^2 at z1 = +-1
        zeta = np.exp(0.7j)
        f = Poly2([[2, -np.conj(zeta)], [-1, 0]])
        roots, _ = self.assert_matches_reference(f, np.array([1.0 + 0j, 1j]))
        assert roots[0].size == 1 and abs(roots[0][0] - zeta) < 1e-12
        assert roots[1].size == 0
        roots, _ = self.assert_matches_reference(
            Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]]), np.array([1.0 + 0j, -1.0 + 0j]))
        assert [r.size for r in roots] == [2, 2]

    def test_determinantal_curves(self, rng):
        t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False) + 0.05
        for _ in range(10):
            size = int(rng.integers(2, 6))
            n = int(rng.integers(1, size))
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng), n, size - n))
            roots, vanishing = self.assert_matches_reference(f, np.exp(1j * t))
            # every slice root of a determinantal curve lies on the circle
            assert not vanishing.any()
            assert all(r.size == size - n for r in roots)
            for z1, r in zip(np.exp(1j * t), roots):
                assert np.abs(np.abs(r) - 1.0).max() <= 1e-15
                assert np.abs(f(z1, r)).max() <= 1e-8 * f.scale

    def test_vanishing_slice(self):
        # (1 - z1)(2 - z2) vanishes identically on the slice z1 = 1 (t = 0)
        f = Poly2([[1], [-1]]) * Poly2([[2, -1]])
        z1s = np.exp(1j * np.array([0.0, 0.5, np.pi]))
        roots, vanishing = self.assert_matches_reference(f, z1s)
        assert vanishing.tolist() == [True, False, False]
        assert all(r.size == 0 for r in roots)    # z2 = 2 is off the circle


class TestResultant:
    def test_hand_value(self, two_minus):
        r = sylvester_resultant_z2(two_minus, two_minus.reflect())
        # 2x2 Sylvester determinant expands to 2(z1 - 1)^2
        assert np.allclose(r, [2, -4, 2], atol=1e-10)

    def test_common_factor_vanishes(self, rng):
        common = Poly2([[-1, 1]])  # z2 - 1
        f = common * Poly2([[1], [2]])
        g = common * Poly2([[3, 0], [0, 1]])
        r = sylvester_resultant_z2(f, g)
        assert r.size == 1 and r[0] == 0

    def test_distinct_constants(self):
        f = Poly2([[-0.5, 1]])  # z2 - 0.5
        g = Poly2([[0.25, 1]])  # z2 + 0.25
        r = sylvester_resultant_z2(f, g)
        assert r.size == 1 and abs(r[0]) > 1e-12

    def test_both_constant_in_z2_error(self):
        with pytest.raises(ValueError):
            sylvester_resultant_z2(Poly2([[1], [1]]), Poly2([[2], [3]]))

    def test_no_common_factor_nonzero(self, rng):
        for _ in range(5):
            f = random_poly(rng, 2) + from_terms({(0, 1): 1.0})
            g = f + Poly2.constant(1.5)  # coprime with f
            if f.bidegree[1] == 0 or g.is_zero:
                continue
            r = sylvester_resultant_z2(f, g)
            assert not (r.size == 1 and r[0] == 0)


class TestMobiusNumerator:
    def test_signs_cancel(self, f0):
        out = mobius_numerator(f0, MobiusParams(0.0, 0.0))
        assert coeff_distance(out, f0) < 1e-14

    def test_family_identity(self, f0):
        # (1 - a z1) f(m_{a,0}(z)) clears to 1 - a z1 - a z2 + z1 z2 for real a
        out = mobius_numerator(f0, MobiusParams(0.5, 0.0))
        expect = Poly2([[1, -0.5], [-0.5, 1]])
        assert coeff_distance(out, expect) < 1e-14

    def test_constant(self):
        out = mobius_numerator(Poly2.constant(3 - 2j), MobiusParams(0.3, 0.1j))
        assert coeff_distance(out, Poly2.constant(3 - 2j)) < 1e-14

    def test_params_validated(self):
        with pytest.raises(ValueError):
            MobiusParams(1.0, 0.0)
        with pytest.raises(ValueError):
            MobiusParams(0.2, 1.5)

    def test_multiplicative(self, rng):
        params = MobiusParams(0.4 + 0.2j, -0.3j)
        for _ in range(10):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            if f.is_zero or g.is_zero:
                continue
            lhs = mobius_numerator(f * g, params)
            rhs = mobius_numerator(f, params) * mobius_numerator(g, params)
            assert coeff_distance(lhs, rhs) <= 1e-10 * max(1.0, lhs.scale)


class TestComputeH:
    def test_f0(self, f0):
        h = compute_h(f0)
        assert coeff_distance(h, from_terms({(1, 1): 2})) == 0
        ht = reflect_at(h, (2, 2))
        assert coeff_distance(h + ht, 2 * f0) <= 1e-12

    def test_termwise(self, two_minus):
        h = compute_h(two_minus)
        assert coeff_distance(h, from_terms({(1, 0): -1, (0, 1): -1})) == 0

    def test_constant(self):
        assert compute_h(Poly2.constant(5.0)).is_zero

    def test_h_vanishes_at_origin(self, rng):
        for _ in range(10):
            f = random_poly(rng)
            if f.is_zero:
                continue
            assert compute_h(f)(0.0, 0.0) == 0

    def test_euler_identity_normalized(self, rng):
        # f = g * reflect(g) satisfies f~ = f; then h + h~ = (n+m) f
        for _ in range(10):
            g = random_poly(rng, 3)
            if g.is_zero or g.bidegree == (0, 0):
                continue
            f, _ = normalize_symmetric(g * g.reflect())
            n, m = f.bidegree
            h = compute_h(f)
            ht = reflect_at(h, (n + 1, m + 1))
            resid = coeff_distance(h + ht, (n + m) * f)
            assert resid <= 1e-12 * max(1.0, f.scale)


class TestJson:
    def test_roundtrip(self, rng):
        f = random_poly(rng)
        assert coeff_distance(Poly2.from_json_dict(f.to_json_dict()), f) == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Poly2.from_json_dict({"bidegree": [1, 1],
                                  "coeffs": [[[1, 0], [0, 0]], [[0, 0]]]})

    def test_bad_pairs_rejected(self):
        with pytest.raises(ValueError):
            Poly2.from_json_dict({"bidegree": [0, 0], "coeffs": [[[1.0]]]})


coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def poly_grids(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(coeff, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return np.asarray(rows, dtype=complex)


@given(poly_grids())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_reflection_involution_property(grid):
    f = Poly2(grid)
    if f.is_zero:
        return
    # with a vanishing constant term the reflection drops bidegree and the
    # involution only holds at the original bidegree (stable polynomials,
    # which the pipeline works with, always have f(0,0) != 0)
    if abs(f.coeffs[0, 0]) > 1e-9 * f.scale:
        assert coeff_distance(f.reflect().reflect(), f) <= 1e-12 * max(1.0, f.scale)
    ft = f.reflect(bidegree=f.bidegree)
    assert coeff_distance(ft.reflect(bidegree=f.bidegree), f) <= 1e-12 * max(1.0, f.scale)


@given(poly_grids(), poly_grids())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_multiplication_commutes_property(a, b):
    f, g = Poly2(a), Poly2(b)
    assert coeff_distance(f * g, g * f) <= 1e-12 * max(1.0, (f * g).scale)


def test_trim_tolerance_tightens_bidegree():
    f = Poly2([[1.0, 1e-15], [1e-16, 1e-17]])
    assert f.bidegree == (0, 0)
    g = Poly2([[1.0, 0.5], [0.25, 0.0]])
    assert g.bidegree == (1, 1)
