import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic.poly2 import (MobiusParams, Poly2, coeff_distance, compute_h,
                            mobius_numerator, normalize_symmetric,
                            sylvester_resultant_z2, unimodular_reflection_match)
from conftest import random_poly, torus_samples


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
        expect = Poly2.from_terms({(0, 0): 1, (2, 2): -1})
        assert coeff_distance(f0 * g, expect) < 1e-15

    def test_bidegrees_add(self, rng):
        f, g = random_poly(rng), random_poly(rng)
        if f.is_zero or g.is_zero:
            return
        n1, m1 = f.bidegree
        n2, m2 = g.bidegree
        assert (f * g).bidegree == (n1 + n2, m1 + m2)


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
        expect = Poly2.from_terms({(1, 1): 2, (1, 0): -1, (0, 1): -1})
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

    def test_normalize_symmetric(self):
        g, mu = normalize_symmetric(Poly2([[1, 0], [0, -1]]))  # lambda = -1
        assert abs(abs(mu) - 1) < 1e-14
        assert coeff_distance(g.reflect(), g) < 1e-14


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
            f = random_poly(rng, 2) + Poly2.from_terms({(0, 1): 1.0})
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
        assert coeff_distance(h, Poly2.from_terms({(1, 1): 2})) == 0
        ht = reflect_at(h, (2, 2))
        assert coeff_distance(h + ht, 2 * f0) <= 1e-12

    def test_termwise(self, two_minus):
        h = compute_h(two_minus)
        assert coeff_distance(h, Poly2.from_terms({(1, 0): -1, (0, 1): -1})) == 0

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
@settings(max_examples=60, deadline=None)
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
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes_property(a, b):
    f, g = Poly2(a), Poly2(b)
    assert coeff_distance(f * g, g * f) <= 1e-12 * max(1.0, (f * g).scale)


def test_trim_tolerance_tightens_bidegree():
    f = Poly2([[1.0, 1e-15], [1e-16, 1e-17]], trim_tolerance=1e-12)
    assert f.bidegree == (0, 0)
    g = Poly2([[1.0, 0.5], [0.25, 0.0]], trim_tolerance=1e-12)
    assert g.bidegree == (1, 1)
