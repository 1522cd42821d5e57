import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic import stability
from bicyclic.classifier import Threshold, classify
from bicyclic.curvegeom import fa_poly
from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic._roots import roots_low_first
from bicyclic.poly2 import (CIRCLE_BAND, ZERO_VALUE_TOL, Poly2, slice_rows,
                            sylvester_resultant_z2)
from bicyclic.stability import (TorusZeroKind, bidisk_zero_scan,
                                torus_zero_classification, zero_reports)
from conftest import radial


def grid_scan_oracle(f, radial_steps=64, angular_steps=128):
    """Sampled open-bidisk zero test, independent of the Schur-Cohn engine.

    Slices along z2 = w for w on a polar grid of the disk, root-solves in
    z1 and flags a root with both moduli below 1 - CIRCLE_BAND; then the
    same with the variables swapped.  A pocket of zeros thinner than the
    grid spacing escapes it.
    """
    from bicyclic._roots import RELATIVE_COEFF_FLOOR, batched_roots
    from bicyclic.poly2 import slice_rows
    r = np.linspace(0.0, 1.0, radial_steps)[1:]
    th = np.linspace(0.0, 2 * np.pi, angular_steps, endpoint=False)
    w = np.concatenate(([0j], (r[:, None] * np.exp(1j * th)[None, :]).ravel()))
    inner = np.abs(w) < 1.0 - CIRCLE_BAND
    for g in (f, f.swap_variables()):
        rows = slice_rows(g.coeffs.T, w)
        # a slice below the root solver's floor vanishes: every point is a root
        row_max = np.abs(rows).max(axis=1)
        degenerate = row_max <= RELATIVE_COEFF_FLOOR * row_max.max()
        # NaN pads compare False
        hit = degenerate | np.any(np.abs(batched_roots(rows)) < 1.0 - CIRCLE_BAND, axis=1)
        if np.any(hit & inner):
            return True
    return False


def bisection_touch_oracle(a, angles):
    """Touch angles by 60 vectorised bisections on lambda_min'(t), over the
    same brackets as the engine's search: the reference for its
    interpolating steps."""
    ts = np.sort(np.concatenate([angles, stability._arc_points(angles, (0.25, 0.5, 0.75))]))
    table = stability._schur_cohn_table(a)
    d = stability._slopes(table, ts)
    starts = np.flatnonzero((d < 0) & (np.roll(d, -1) >= 0))
    lo = ts[starts]
    hi = np.append(ts, ts[0] + 2 * np.pi)[starts + 1]
    for _ in range(60):
        mid = (lo + hi) / 2
        down = stability._slopes(table, mid) < 0
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    return (lo + hi) / 2


def schur_cohn_direct(rows, other=None):
    """The form A*A' - B*B' of two (S, m+1) stacks of slice rows, where A, B
    are the Toeplitz factors of `rows` and A', B' those of `other`; with one
    stack, the Schur-Cohn matrices M = A*A - B*B.  The oracle for the M and
    M' that the engine reads from its table."""
    m = rows.shape[-1] - 1
    i, j = np.indices((m, m))
    lower = i >= j
    lag = np.where(lower, i - j, 0)

    def factors(r):
        return (np.where(lower, r[:, lag], 0),
                np.where(lower, np.conj(r[:, m - lag]), 0))

    (A, B), (A2, B2) = factors(rows), factors(rows if other is None else other)
    return np.conj(np.swapaxes(A, 1, 2)) @ A2 - np.conj(np.swapaxes(B, 1, 2)) @ B2


def two_minus_powers(k, d=0.0):
    """2 - z1^k - (1 + d) z2^k."""
    a = np.zeros((k + 1, k + 1), dtype=complex)
    a[0, 0], a[k, 0], a[0, k] = 2.0, -1.0, -(1.0 + d)
    return Poly2(a)


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
        assert abs(f(z1, z2)) <= ZERO_VALUE_TOL * f.scale

    def test_triangle_inequality_clear(self):
        r = bidisk_zero_scan(Poly2([[3, 1], [1, 0]]))
        assert not r.has_zero_on_closed_bidisk

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
        # a root inside the disk is not on the torus either
        for f in (Poly2([[-2], [1]]), Poly2([[-0.5], [1.0]])):
            assert torus_zero_classification(f).kind is TorusZeroKind.EMPTY

    def test_constant(self):
        assert torus_zero_classification(Poly2.constant(1.5)).kind is TorusZeroKind.EMPTY

    def test_reducible_detected(self, two_minus, f0):
        # f = (2 - z1 - z2)(1 + z1 z2) shares the symmetric factor with its
        # reflection without being symmetric itself; so do the products
        # with f_0.5, where M(t) is singular at every t as well
        for f in (two_minus * f0, two_minus * fa_poly(0.5), f0 * radial(fa_poly(0.5), 0.9)):
            with pytest.raises(ValueError, match="not irreducible"):
                torus_zero_classification(f)

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
            tz = torus_zero_classification(f)
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

    def test_curve_symmetry_is_the_deciding_match(self, monkeypatch):
        # one reflection match per polynomial: the one that sent f down the
        # curve route is the recorded symmetry, and the reflected df/dz2
        # gets its own
        from bicyclic.poly2 import unimodular_reflection_match
        seen = []

        def counted(g):
            seen.append(g.coeffs)
            return unimodular_reflection_match(g)

        monkeypatch.setattr(stability, "unimodular_reflection_match", counted)
        rng = np.random.default_rng(8)
        f = polynomial_from_unitary(DetRep(1.0, random_unitary(4, rng), 2, 2))
        tz = zero_reports(f)[1]
        h = f.partial_derivative(2).reflect()
        assert len(seen) == 2
        assert np.array_equal(seen[0], f.coeffs) and np.array_equal(seen[1], h.coeffs)
        fresh = unimodular_reflection_match(f)
        assert tz.kind is TorusZeroKind.CURVE
        assert (tz.symmetry.matches, tz.symmetry.lam, tz.symmetry.residual) == \
            (fresh.matches, fresh.lam, fresh.residual)

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
        assert abs(f(z1, z2)) <= ZERO_VALUE_TOL * f.scale

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

    def test_bidegree_twelve_by_construction(self):
        # c det(I - U diag(z1 I_n, z2 I_m)) vanishes on a torus curve and
        # nowhere in the open bidisk; f(r z) is zero-free on the closed
        # bidisk for r < 1 and has open zeros for r > 1
        rng = np.random.default_rng(0)
        truth = {1.0: Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF, 0.95: Threshold.CYCLIC_ALL_ALPHA,
                 1 / 0.95: Threshold.NOT_CYCLIC_ANY_ALPHA}
        for n, m in [(12, 12), (12, 11)]:
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(n + m, rng), n, m))
            for r, expected in truth.items():
                assert classify([radial(f, r)]).threshold is expected


def _witness_probe():
    """Determinantal (n, n) f(r z) for n = 1..6 at five radii r > 1, four
    unitaries each (seed 9), grouped by (n, r), and the thin pockets
    2 - z1 - (1 + d) z2 for d = 1e-1 .. 1e-8."""
    rng = np.random.default_rng(9)
    groups = {}
    for n in range(1, 7):
        for r in (1 / 0.9, 1 / 0.95, 1 / 0.99, 1 / (1 - 1e-6), 1 / (1 - 1e-9)):
            groups[f"det{n}-r{r:.9g}"] = [
                radial(polynomial_from_unitary(DetRep(1.0, random_unitary(2 * n, rng), n, n)), r)
                for _ in range(4)]
    for k in range(1, 9):
        groups[f"pocket-1e-{k}"] = [two_minus_powers(1, 10.0 ** -k)]
    return groups


_WITNESS_PROBE = _witness_probe()


@pytest.mark.parametrize("name", list(_WITNESS_PROBE))
def test_reported_points_are_zeros(name):
    # the witness and every torus point pass the package's one zero test;
    # an open-zero witness lies in the open bidisk.  On these inputs many
    # witnesses come from the continuation inwards from a slice root
    for f in _WITNESS_PROBE[name]:
        report, torus = zero_reports(f)
        assert report.has_zero_in_open_bidisk
        z1, z2 = report.witness
        assert abs(z1) < 1 and abs(z2) < 1
        for p in (report.witness,) + torus.points:
            assert abs(f(*p)) <= ZERO_VALUE_TOL * f.scale


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
        tz = torus_zero_classification(g)
        return bidisk_zero_scan(g).has_zero_in_open_bidisk, tz.kind, len(tz.points)

    base = signature(f)
    assert signature(f.swap_variables()) == base
    assert signature(rot) == base


def _touch_families():
    """2 - z1^k - z2^k, rotated 2 - u z1^k - v z2^l and determinantal f(r z)
    off the curve radius: inputs whose torus zeros are touch points."""
    rng = np.random.default_rng(9)
    polys = [two_minus_powers(k) for k in range(1, 9)]
    for k, l in [(1, 1), (1, 3), (2, 5), (3, 2), (4, 4), (6, 1), (7, 8)]:
        a = np.zeros((k + 1, l + 1), dtype=complex)
        a[0, 0] = 2.0
        a[k, 0], a[0, l] = -np.exp(2j * np.pi * rng.random(2))
        polys.append(Poly2(a))
    for size in range(2, 7):
        n = int(rng.integers(1, min(size, 5)))
        f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng), n, size - n))
        polys += [radial(f, 0.9), radial(f, 1 / 0.9)]
    return polys


# for some theta in this grid the double resultant root of
# 2 - e^{i theta} z1 - z2 comes out as two equal crossing angles
_DOUBLE_ANGLE_THETAS = np.concatenate([np.logspace(-14, -1, 40), -np.logspace(-14, -1, 40),
                                       np.pi + np.logspace(-12, -2, 12)])


class TestCrossingAngles:
    def test_match_resultant_roots(self):
        # every unimodular root of the reference Res_{z2}(f, f~ - lambda f)
        # is an eigenvalue of the table's matrix polynomial, which has 2nm
        rng = np.random.default_rng(21)
        for n in range(1, 6):
            for _ in range(4):
                f = Poly2(rng.standard_normal((n + 1, n + 1))
                          + 1j * rng.standard_normal((n + 1, n + 1)))
                angles, _ = stability._crossing_angles(f)[1]
                assert angles.size == 2 * n * n
                # f~ - lambda f, lambda = <f~, f> / |<f~, f>|
                a = f.coeffs
                b = np.conj(a[::-1, ::-1])
                ip = np.vdot(a, b)
                roots = roots_low_first(sylvester_resultant_z2(f, Poly2(b - ip / abs(ip) * a)))
                for t in np.angle(roots[np.abs(np.abs(roots) - 1) <= CIRCLE_BAND]):
                    assert np.abs((angles - t + np.pi) % (2 * np.pi) - np.pi).min() <= 1e-10


class TestTouchSearch:
    def test_matches_bisection_oracle(self):
        for f in _touch_families():
            a = f.coeffs / f.scale
            crossing = stability._crossing_angles(f)[1]
            assert crossing is not None
            ts = stability._touch_points(stability._schur_cohn_table(a), crossing[0])
            ref = bisection_touch_oracle(a, crossing[0])
            assert ts.shape == ref.shape
            assert np.abs(ts - ref).max(initial=0.0) <= 1e-13

    def test_slope_calls_within_bisection_budget(self, monkeypatch, rng):
        calls, per_search = [0], []
        slopes, touch = stability._slopes, stability._touch_points

        def counted_slopes(*args):
            calls[0] += 1
            return slopes(*args)

        def counted_touch(*args):
            calls[0] = 0
            out = touch(*args)
            per_search.append(calls[0])
            return out

        monkeypatch.setattr(stability, "_slopes", counted_slopes)
        monkeypatch.setattr(stability, "_touch_points", counted_touch)
        for f in _touch_families():
            zero_reports(f)
        # superlinear on the touch families
        assert per_search and max(per_search) <= 20
        for shape in [(2, 2), (3, 4), (4, 3), (5, 5)] * 5:
            zero_reports(Poly2(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        for th in _DOUBLE_ANGLE_THETAS:
            zero_reports(Poly2([[2, -1], [-np.exp(1j * th), 0]]))
        # never beyond the bracketing pass and 60 bisections
        assert max(per_search) <= 61

    @pytest.mark.parametrize("f, calls", [
        pytest.param(Poly2([[2, -1.001], [-1, 0]]), 0, id="2-z1-1.001z2"),
        pytest.param(radial(polynomial_from_unitary(
            DetRep(1.0, random_unitary(6, np.random.default_rng(3)), 3, 3)), 1 / 0.9),
            0, id="det33-open"),
        pytest.param(Poly2([[2, -1], [-1, 0]]), 1, id="2-z1-z2"),
    ])
    def test_runs_only_on_zero_free_factors(self, monkeypatch, f, calls):
        # a factor with open zeros reads its torus zeros at the crossing angles
        count, touch = [0], stability._touch_points

        def counted(*args):
            count[0] += 1
            return touch(*args)

        monkeypatch.setattr(stability, "_touch_points", counted)
        report, _ = zero_reports(f)
        assert report.has_zero_in_open_bidisk == (calls == 0)
        assert count[0] == calls

    def test_double_crossing_angle_touch_point(self):
        # f = 2 - e^{i theta} z1 - z2 vanishes on the torus at (e^{-i theta}, 1)
        # only; the bracket comes from the quarter points of the arcs
        missed = []
        for th in _DOUBLE_ANGLE_THETAS:
            f = Poly2([[2, -1], [-np.exp(1j * th), 0]])
            verdict = classify([f])
            pts = verdict.per_factor[0].torus_zeros.points
            if (verdict.threshold is not Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE or len(pts) != 1
                    or abs(pts[0][0] - np.exp(-1j * th)) > 1e-10 or abs(pts[0][1] - 1) > 1e-10):
                missed.append(th)
        assert not missed


def _table_inputs():
    """Random complex grids of bidegree (1,1)..(6,6), the touch families and
    determinantal f(r z) at r in {0.9, 1, 1/0.9}."""
    rng = np.random.default_rng(16)
    polys = [Poly2(rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1)))
             for n in range(1, 7) for m in range(1, 7)]
    polys += _touch_families()
    for size in range(2, 7):
        n = int(rng.integers(1, size))
        f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng), n, size - n))
        polys += [radial(f, r) for r in (0.9, 1.0, 1 / 0.9)]
    return polys


class TestSchurCohnTable:
    """The table sum M(t) = sum_d M_d e^{idt} against the product form, at
    16 random angles per input, relative to ||row(t)||_1^2.  Where the
    slice rows are small against the coefficients their difference reaches
    about 100 eps, beyond stability._EIG_BAND, so only the touch search
    reads the table."""

    @staticmethod
    def _errors(f, rng):
        a = f.coeffs / f.scale
        ts = rng.uniform(0.0, 2 * np.pi, 16)
        z1 = np.exp(1j * ts)
        rows = slice_rows(a, z1)
        M, dM = stability._table_at(stability._schur_cohn_table(a), ts)
        # d/dt of A*A - B*B is 2 Herm(A'*A - B'*B), A' and B' from the rows
        # of the t-derivative 1j k a_k of the coefficients
        X = schur_cohn_direct(slice_rows(1j * np.arange(a.shape[0])[:, None] * a, z1), rows)
        band = np.abs(rows).sum(axis=-1) ** 2
        err = np.abs(M - schur_cohn_direct(rows)).max(axis=(1, 2)) / band
        derr = np.abs(dM - X - np.conj(np.swapaxes(X, 1, 2))).max(axis=(1, 2)) / band
        return err.max(), derr.max()

    def test_matches_direct_form(self):
        rng = np.random.default_rng(3)
        for f in _table_inputs():
            err, derr = self._errors(f, rng)
            assert err <= 1e-13 and derr <= 1e-13

    def test_built_once_per_factor(self, monkeypatch):
        built = []
        build = stability._schur_cohn_table

        def counted(a):
            built.append(a)
            return build(a)

        monkeypatch.setattr(stability, "_schur_cohn_table", counted)
        # finite torus zeros, an open zero, a zero-free input: one table, of f
        for f in (two_minus_powers(3), two_minus_powers(1, 1e-3), Poly2([[3, 1], [1, 0]])):
            built.clear()
            zero_reports(f)
            assert len(built) == 1 and np.array_equal(built[0], f.coeffs / f.scale)
        # self-inversive slices run no touch search: the curve route builds
        # one table, of the reflected df/dz2, for its crossing angles
        rng = np.random.default_rng(2)
        for n, m in [(2, 2), (1, 3), (3, 2)]:
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(n + m, rng), n, m))
            h = f.partial_derivative(2).reflect()
            built.clear()
            zero_reports(f)
            assert len(built) == 1 and np.array_equal(built[0], h.coeffs / h.scale)
        # and none where that derivative is constant in z2, as on f_0.5
        built.clear()
        zero_reports(fa_poly(0.5))
        assert not built
