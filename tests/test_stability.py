import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic.classifier import Threshold, classify
from bicyclic.curvegeom import fa_poly
from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic.poly2 import Poly2
from bicyclic.stability import (TorusZeroKind, bidisk_zero_scan,
                                torus_zero_classification)


def grid_scan_oracle(f, radial_steps=64, angular_steps=128):
    """Sampled open-bidisk zero test, independent of the Schur-Cohn engine.

    Slices along z2 = w for w on a polar grid of the disk, root-solves in
    z1 and flags a root with both moduli below 1 - OPEN_MARGIN; then the
    same with the variables swapped.  A pocket of zeros thinner than the
    grid spacing escapes it.
    """
    from bicyclic._roots import batched_roots
    from bicyclic.poly2 import slice_rows
    from bicyclic.stability import OPEN_MARGIN
    r = np.linspace(0.0, 1.0, radial_steps)[1:]
    th = np.linspace(0.0, 2 * np.pi, angular_steps, endpoint=False)
    w = np.concatenate(([0j], (r[:, None] * np.exp(1j * th)[None, :]).ravel()))
    inner = np.abs(w) < 1.0 - OPEN_MARGIN
    for g in (f, f.swap_variables()):
        for s, rts in enumerate(batched_roots(slice_rows(g.coeffs.T, w))):
            if rts is None:
                if inner[s]:
                    return True
            elif inner[s] and np.any(np.abs(rts) < 1.0 - OPEN_MARGIN):
                return True
    return False


def two_minus_powers(k, d=0.0):
    """2 - z1^k - (1 + d) z2^k."""
    a = np.zeros((k + 1, k + 1), dtype=complex)
    a[0, 0], a[k, 0], a[0, k] = 2.0, -1.0, -(1.0 + d)
    return Poly2(a)


def radial(f, r):
    """f(r z1, r z2)."""
    n, m = f.bidegree
    return Poly2(f.coeffs * r ** np.add.outer(np.arange(n + 1), np.arange(m + 1)))


class TestBidiskScan:
    def test_open_flag_matches_grid_scan_oracle(self, rng):
        polys = [Poly2([[2, -1], [-1.1, 0]]), Poly2([[0.5, 1]]), Poly2([[1, 0], [0, 1]])]
        for shape in [(4, 1), (1, 4), (3, 3), (2, 4)] * 6:
            polys.append(Poly2(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        for f in polys:
            assert bidisk_zero_scan(f).has_zero_in_open_bidisk == grid_scan_oracle(f)

    def test_z1z2_open_zero(self):
        r = bidisk_zero_scan(Poly2([[0, 0], [0, 1]]))
        assert r.has_zero_in_open_bidisk and r.has_zero_on_closed_bidisk
        z1, z2 = r.witness
        f = Poly2([[0, 0], [0, 1]])
        assert abs(f(z1, z2)) <= 1e-6 * f.scale

    def test_triangle_inequality_clear(self):
        r = bidisk_zero_scan(Poly2([[3, 1], [1, 0]]))
        assert not r.has_zero_on_closed_bidisk
        assert r.min_modulus_estimate >= 0.9

    def test_f0_boundary_only(self, f0):
        r = bidisk_zero_scan(f0)
        assert not r.has_zero_in_open_bidisk
        assert r.has_zero_on_closed_bidisk

    def test_open_implies_closed(self, rng):
        from conftest import random_poly
        for _ in range(15):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            r = bidisk_zero_scan(f)
            assert r.has_zero_on_closed_bidisk or not r.has_zero_in_open_bidisk

    def test_symmetric_under_swap(self, rng):
        from conftest import random_poly
        for _ in range(10):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            a = bidisk_zero_scan(f)
            b = bidisk_zero_scan(f.swap_variables())
            assert a.has_zero_in_open_bidisk == b.has_zero_in_open_bidisk

    def test_univariate_exact(self):
        inner = bidisk_zero_scan(Poly2([[-0.5], [1.0]]))   # z1 - 0.5
        assert inner.has_zero_in_open_bidisk
        circle = bidisk_zero_scan(Poly2([[-1.0], [1.0]]))  # z1 - 1
        assert circle.has_zero_on_closed_bidisk and not circle.has_zero_in_open_bidisk
        outside = bidisk_zero_scan(Poly2([[-2.0], [1.0]]))
        assert not outside.has_zero_on_closed_bidisk

    def test_degenerate_slice_line(self):
        # (1 - z2)(2 - z1) vanishes on the whole line z2 = 1
        f = Poly2([[1, -1]]) * Poly2([[2], [-1]])
        r = bidisk_zero_scan(f)
        assert r.has_zero_on_closed_bidisk and not r.has_zero_in_open_bidisk

    def test_constant(self):
        r = bidisk_zero_scan(Poly2.constant(2.0))
        assert not r.has_zero_on_closed_bidisk
        assert r.min_modulus_estimate == 2.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bidisk_zero_scan(Poly2.zero())

    def test_hurwitz_no_zeros_on_mixed_boundary(self):
        # irreducible bivariate with no open-bidisk zeros: slices along the
        # unit circle carry no roots strictly inside the disk
        for f in (Poly2([[2, -1], [-1, 0]]), Poly2([[1, -0.5], [-0.5, 1]]),
                  Poly2([[1, 0], [0, 1]])):
            for g in (f, f.swap_variables()):
                n, m = g.bidegree
                for t in np.linspace(0, 2 * np.pi, 37):
                    c = (np.exp(1j * t) ** np.arange(m + 1)) @ g.coeffs.T
                    roots = np.roots(c[::-1]) if c.size > 1 else np.array([])
                    if roots.size:
                        assert np.all(np.abs(roots) >= 1 - 1e-7)


class TestTorusClassification:
    def test_single_point(self, two_minus):
        tz = torus_zero_classification(two_minus)
        assert tz.kind is TorusZeroKind.FINITE
        assert len(tz.points) == 1
        p = tz.points[0]
        assert abs(p[0] - 1) < 1e-6 and abs(p[1] - 1) < 1e-6
        assert abs(abs(p[0]) - 1) <= 1e-10 and abs(abs(p[1]) - 1) <= 1e-10
        assert abs(two_minus(p[0], p[1])) <= 1e-8 * two_minus.scale
        # reported points are common roots of f and its reflection
        ft = two_minus.reflect()
        assert abs(ft(p[0], p[1])) <= 1e-8 * ft.scale

    def test_curve(self):
        tz = torus_zero_classification(Poly2([[1, 0], [0, -1]]))
        assert tz.kind is TorusZeroKind.CURVE
        assert tz.symmetry is not None and tz.symmetry.matches
        assert not tz.axis_aligned

    def test_empty(self):
        tz = torus_zero_classification(Poly2([[3, 1], [1, 0]]))
        assert tz.kind is TorusZeroKind.EMPTY

    def test_univariate_circle_root(self):
        tz = torus_zero_classification(Poly2([[-1], [1]]))
        assert tz.kind is TorusZeroKind.CURVE and tz.axis_aligned

    def test_univariate_no_circle_root(self):
        tz = torus_zero_classification(Poly2([[-2], [1]]))
        assert tz.kind is TorusZeroKind.EMPTY

    def test_constant(self):
        assert torus_zero_classification(Poly2.constant(1.5)).kind is TorusZeroKind.EMPTY

    def test_open_zero_rejected(self):
        with pytest.raises(ValueError, match="inside the bidisk"):
            torus_zero_classification(Poly2([[-0.5], [1.0]]))

    def test_reducible_detected(self, two_minus, f0):
        # f = (2 - z1 - z2)(1 + z1 z2) shares the symmetric factor with its
        # reflection without being symmetric itself
        with pytest.raises(ValueError, match="not irreducible"):
            torus_zero_classification(two_minus * f0, stability_check=False)

    def test_fa_curve(self):
        for a in (0.25, 0.5, 0.75):
            tz = torus_zero_classification(Poly2([[1, -a], [-a, 1]]))
            assert tz.kind is TorusZeroKind.CURVE

    def test_generated_detrep_polys_are_curves(self, rng):
        for _ in range(10):
            size = int(rng.integers(2, 5))
            n = int(rng.integers(1, size))
            U = random_unitary(size, rng)
            f = polynomial_from_unitary(DetRep(1.0, U, n, size - n))
            tz = torus_zero_classification(f, stability_check=False)
            assert tz.kind is TorusZeroKind.CURVE
            assert tz.symmetry.matches

    def test_near_symmetric_curve_records_its_match(self):
        # f~ = lambda f up to 1.1e-9 in the constant term: the least-squares
        # lambda matches within 1e-9 scale, the largest-coefficient ratio
        # does not, and the recorded symmetry must be the one that decided
        f = Poly2([[1 + 2.2e-9j, -0.5], [-0.5, 1]])
        verdict = classify([f])
        assert verdict.threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
        tz = verdict.per_factor[0].torus_zeros
        assert tz.kind is TorusZeroKind.CURVE
        assert tz.symmetry.matches and tz.symmetry.lam is not None
        assert abs(abs(tz.symmetry.lam) - 1.0) <= 1e-15
        assert tz.symmetry.residual <= 1e-9 * f.scale
        assert tz.to_dict()["symmetry"]["matches"] is True

    def test_rotated_single_point(self):
        # rotate the zero of 2 - z1 - z2 off the lattice directions
        zeta = np.exp(0.37j)
        f = Poly2([[2, -1], [-np.conj(zeta), 0]])
        # f(z1, z2) = 2 - conj(zeta) z1 - z2 vanishes at (zeta, 1) only
        tz = torus_zero_classification(f)
        assert tz.kind is TorusZeroKind.FINITE
        assert len(tz.points) == 1
        p = tz.points[0]
        assert abs(p[0] - zeta) < 1e-6 and abs(p[1] - 1) < 1e-6


class TestSliceEngine:
    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_thin_interior_pocket(self, d):
        # 2 - z1 - (1 + d) z2 vanishes at z1 = 1 - d/4, z2 = (2 - z1)/(1 + d)
        f = two_minus_powers(1, d)
        v = classify([f])
        assert v.threshold is Threshold.NOT_CYCLIC_ANY_ALPHA
        z1, z2 = v.per_factor[0].stability.witness
        assert abs(z1) < 1 and abs(z2) < 1
        assert abs(f(z1, z2)) <= 1e-6 * f.scale

    @pytest.mark.parametrize("d", [-1e-2, -1e-6])
    def test_pocket_closed(self, d):
        # |f| >= -d > 0 on the closed bidisk
        f = two_minus_powers(1, d)
        assert not bidisk_zero_scan(f).has_zero_on_closed_bidisk
        assert classify([f]).threshold is Threshold.CYCLIC_ALL_ALPHA

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_power_torus_points(self, k):
        f = two_minus_powers(k)
        tz = torus_zero_classification(f)
        assert tz.kind is TorusZeroKind.FINITE and len(tz.points) == k * k
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        for p in tz.points:
            assert np.abs(roots - p[0]).min() <= 1e-10
            assert np.abs(roots - p[1]).min() <= 1e-10
        assert classify([f]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE

    @pytest.mark.parametrize("r, expected", [(1 - 1e-6, Threshold.CYCLIC_ALL_ALPHA),
                                             (1 + 1e-6, Threshold.NOT_CYCLIC_ANY_ALPHA)])
    def test_near_curve_radii(self, rng, r, expected):
        polys = [fa_poly(0.5)]
        for _ in range(10):
            polys.append(polynomial_from_unitary(DetRep(1.0, random_unitary(6, rng), 3, 3)))
        for f in polys:
            assert classify([radial(f, r)]).threshold is expected


def _invariance_input(kind, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        shape = tuple(rng.integers(2, 4, size=2))
        return Poly2(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "powers":
        return two_minus_powers(k)
    n = int(rng.integers(1, 3))
    f = polynomial_from_unitary(DetRep(1.0, random_unitary(n + k, rng), n, k))
    return radial(f, 0.9 if kind == "inner" else 1 / 0.9)


@given(st.sampled_from(["random", "powers", "inner", "outer"]), st.integers(1, 3),
       st.integers(0, 2**16), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_swap_and_rotation_invariance(kind, k, seed, th1, th2):
    f = _invariance_input(kind, k, seed)
    n, m = f.bidegree
    rot = Poly2(f.coeffs * np.exp(1j * np.add.outer(th1 * np.arange(n + 1),
                                                    th2 * np.arange(m + 1))))

    def signature(g):
        tz = torus_zero_classification(g, stability_check=False)
        return bidisk_zero_scan(g).has_zero_in_open_bidisk, tz.kind, len(tz.points)

    base = signature(f)
    assert signature(f.swap_variables()) == base
    assert signature(rot) == base
