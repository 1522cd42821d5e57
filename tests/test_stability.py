import numpy as np
import pytest

from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic.poly2 import Poly2
from bicyclic.stability import (TorusZeroKind, bidisk_zero_scan,
                                torus_zero_classification)


def scalar_loop_reference(f, radial_steps=64, angular_steps=128):
    """Reference witness and min-modulus: one scalar |f| call per hit, on the
    hits of the scan's own slices."""
    from bicyclic._roots import roots_low_first
    from bicyclic.stability import (OPEN_MARGIN, _disk_nodes, _min_modulus_on_grid,
                                    _scan_one_orientation)
    if f.is_univariate:
        hits, is_open = [], []
        for r in roots_low_first(f.univariate_coeffs()):
            if abs(r) <= 1.0 + OPEN_MARGIN:
                hits.append((complex(r), 0j) if f.bidegree[1] == 0 else (0j, complex(r)))
                is_open.append(abs(r) < 1.0 - OPEN_MARGIN)
    else:
        w = _disk_nodes(radial_steps, angular_steps)
        hits, is_open = _scan_one_orientation(f, w)
        hits_b, open_b = _scan_one_orientation(f.swap_variables(), w)
        hits += [(b, a) for (a, b) in hits_b]
        is_open += open_b

    def best(pts):
        if not pts:
            return None
        vals = [abs(f(p[0], p[1])) for p in pts]
        i = int(np.argmin(vals))
        return pts[i] if vals[i] <= 1e-6 * f.scale else None

    witness = best([p for p, o in zip(hits, is_open) if o]) or best(hits)
    min_mod = _min_modulus_on_grid(f, angular_steps)
    if hits:
        min_mod = min(min_mod, min(abs(f(p[0], p[1])) for p in hits))
    return witness, float(min_mod)


class TestBidiskScan:
    def test_matches_scalar_loop_reference(self, rng):
        polys = [Poly2([[2, -1], [-1.1, 0]]), Poly2([[0.5, 1]]), Poly2([[1, 0], [0, 1]])]
        for shape in [(4, 1), (1, 4), (3, 3)] * 6:
            polys.append(Poly2(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        for f in polys:
            r = bidisk_zero_scan(f, 24, 48)
            witness, min_mod = scalar_loop_reference(f, 24, 48)
            assert r.witness == witness
            assert r.min_modulus_estimate == min_mod

    def test_z1z2_open_zero(self):
        r = bidisk_zero_scan(Poly2([[0, 0], [0, 1]]), 16, 32)
        assert r.has_zero_in_open_bidisk and r.has_zero_on_closed_bidisk
        z1, z2 = r.witness
        f = Poly2([[0, 0], [0, 1]])
        assert abs(f(z1, z2)) <= 1e-6 * f.scale

    def test_triangle_inequality_clear(self):
        r = bidisk_zero_scan(Poly2([[3, 1], [1, 0]]), 16, 32)
        assert not r.has_zero_on_closed_bidisk
        assert r.min_modulus_estimate >= 0.9

    def test_f0_boundary_only(self, f0):
        r = bidisk_zero_scan(f0, 16, 32)
        assert not r.has_zero_in_open_bidisk
        assert r.has_zero_on_closed_bidisk

    def test_open_implies_closed(self, rng):
        from conftest import random_poly
        for _ in range(15):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            r = bidisk_zero_scan(f, 12, 16)
            assert r.has_zero_on_closed_bidisk or not r.has_zero_in_open_bidisk

    def test_symmetric_under_swap(self, rng):
        from conftest import random_poly
        for _ in range(10):
            f = random_poly(rng, 3)
            if f.is_zero:
                continue
            a = bidisk_zero_scan(f, 12, 16)
            b = bidisk_zero_scan(f.swap_variables(), 12, 16)
            assert a.has_zero_in_open_bidisk == b.has_zero_in_open_bidisk

    def test_univariate_exact(self):
        inner = bidisk_zero_scan(Poly2([[-0.5], [1.0]]), 16, 32)   # z1 - 0.5
        assert inner.has_zero_in_open_bidisk
        circle = bidisk_zero_scan(Poly2([[-1.0], [1.0]]), 16, 32)  # z1 - 1
        assert circle.has_zero_on_closed_bidisk and not circle.has_zero_in_open_bidisk
        outside = bidisk_zero_scan(Poly2([[-2.0], [1.0]]), 16, 32)
        assert not outside.has_zero_on_closed_bidisk

    def test_degenerate_slice_line(self):
        # (1 - z2)(2 - z1) vanishes on the whole line z2 = 1
        f = Poly2([[1, -1]]) * Poly2([[2], [-1]])
        r = bidisk_zero_scan(f, 16, 32)
        assert r.has_zero_on_closed_bidisk and not r.has_zero_in_open_bidisk

    def test_constant(self):
        r = bidisk_zero_scan(Poly2.constant(2.0), 16, 32)
        assert not r.has_zero_on_closed_bidisk
        assert r.min_modulus_estimate == 2.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bidisk_zero_scan(Poly2.zero())

    def test_steps_validated(self, f0):
        with pytest.raises(ValueError):
            bidisk_zero_scan(f0, 4, 32)

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
