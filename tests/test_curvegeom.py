import numpy as np
import pytest

from bicyclic.curvegeom import curve_type_at, fa_poly, mobius_retype, trace_branch
from bicyclic.poly2 import Poly2
from conftest import closed_form_branch_fa
from test_roots import per_row_slice_roots

TWO_PI = 2 * np.pi


def numpy_selection_m(f, window, nodes, start_hint=None):
    """Reference: the branch selection of trace_branch on numpy arrays."""
    t = window[0] + (window[1] - window[0]) * np.arange(nodes) / nodes
    all_roots, _ = per_row_slice_roots(f, np.exp(1j * t))
    m = np.empty(nodes)
    prev, slope = None, 0.0
    for i, uni in enumerate(all_roots):
        if prev is None:
            if start_hint is None:
                j = int(np.argmin(np.angle(uni) % TWO_PI))
            else:
                j = int(np.argmin(np.abs(uni - np.exp(1j * start_hint))))
        else:
            predicted = np.exp(1j * (prev + slope * (t[1] - t[0])))
            j = int(np.argmin(np.abs(uni - predicted)))
        arg = float(np.angle(uni[j]))
        if prev is None:
            m[i] = arg
        else:
            k = round((prev + slope * (t[1] - t[0]) - arg) / TWO_PI)
            m[i] = arg + TWO_PI * k
            slope = (m[i] - prev) / (t[1] - t[0])
        prev = m[i]
    return m


class TestTraceBranch:
    def test_antidiagonal_line(self, f0):
        br = trace_branch(f0, (0.0, TWO_PI), 256)
        assert np.abs(br.m - (np.pi - br.t)).max() <= 1e-12
        assert br.periodic and br.winding == -1

    def test_diagonal_line(self):
        br = trace_branch(Poly2([[1, 0], [0, -1]]), (0.0, TWO_PI), 256)
        assert np.abs(br.m - (-br.t)).max() <= 1e-12

    def test_fa_matches_closed_form(self):
        tr = trace_branch(fa_poly(0.5), (0.0, TWO_PI), 512)
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
        assert np.abs(tr.m - cf.m).max() <= 1e-8

    def test_fa_derivatives_match_closed_form(self):
        # m', ..., m^(5) by implicit differentiation, each order within
        # 1e-12 of its largest value, on full and open windows
        for a in (0.25, 0.5, 0.75, 0.9):
            for window, nodes in (((0.0, TWO_PI), 512), ((-0.8, 0.8), 256)):
                tr = trace_branch(fa_poly(a), window, nodes)
                cf = closed_form_branch_fa(a, window, nodes)
                assert tr.derivatives.shape == (5, nodes)
                scale = np.abs(cf.derivatives).max(axis=1)
                err = np.abs(tr.derivatives - cf.derivatives).max(axis=1)
                assert np.all(err <= 1e-12 * scale), (a, window)

    def test_line_derivatives_vanish(self, f0):
        # m = pi - t on 1 + z1 z2: m' = -1 and no higher order survives
        br = trace_branch(f0, (0.0, TWO_PI), 256)
        assert np.abs(br.derivatives[0] + 1.0).max() <= 1e-14
        assert np.abs(br.derivatives[1:]).max() <= 1e-14

    def test_fa_slope_strictly_negative(self):
        # m'(t) = (1-a^2)/(2a cos t - 1 - a^2) < 0 for a in (0,1)
        for a in (0.25, 0.5, 0.75):
            cf = closed_form_branch_fa(a, (0.0, TWO_PI), 256)
            expect = (1 - a * a) / (2 * a * np.cos(cf.t) - 1 - a * a)
            assert np.abs(cf.derivatives[0] - expect).max() <= 1e-12
            assert np.all(cf.derivatives[0] < 0)

    @pytest.mark.parametrize("f, window, hint", [
        (fa_poly(0.3), (0.0, TWO_PI), None),
        (Poly2([[1, 0, 0], [0, 0, -1]]), (0.0, TWO_PI), None),      # 1 - z1 z2^2: two roots
        (Poly2([[1, 0, 0], [0, 0, -1]]), (0.5, 2.0), -0.3),   # not the least argument
        (fa_poly(0.7), (1.0, 1.6), 2.0),
        (fa_poly(0.5), (0.0, TWO_PI), None),     # one root per node: taken without a search
        (Poly2([[1, 0, 0], [0, 0, 1]]), (0.0, TWO_PI), None),       # 1 + z1 z2^2, m = 2
    ])
    def test_selection_matches_numpy_reference(self, f, window, hint):
        # the per-node selection runs on Python scalars; same branch, same bits
        br = trace_branch(f, window, 512, start_hint=hint)
        assert np.array_equal(br.m, numpy_selection_m(f, window, 512, hint))

    @pytest.mark.parametrize("k", [2, 3])
    def test_power_branches_close_by_the_selection_rule(self, k):
        # 1 + z1 z2^k: one more step picks another of the k roots at t = 0
        grid = np.zeros((2, k + 1))
        grid[0, 0] = grid[1, k] = 1.0
        br = trace_branch(Poly2(grid), (0.0, TWO_PI), 512)
        assert not br.periodic and br.winding == 0
        # 1 + z1^k z2: m = pi - k t closes with winding -k
        br = trace_branch(Poly2(grid.T.copy()), (0.0, TWO_PI), 512)
        assert br.periodic and br.winding == -k

    def test_steep_branch_closes(self):
        # f_0.9 has one z2 root per slice, so every full-window branch
        # closes; near t = 0, |m'| = 19 puts one linear extrapolation step
        # far off the curve
        br = trace_branch(fa_poly(0.9), (0.0, TWO_PI), 128)
        assert br.periodic and br.winding == -1

    def test_nodes_on_torus(self):
        f = fa_poly(0.3)
        br = trace_branch(f, (0.0, TWO_PI), 128)
        z1, z2 = np.exp(1j * br.t), np.exp(1j * br.m)
        assert np.abs(np.abs(z1) - 1).max() <= 1e-10
        assert np.abs(np.abs(z2) - 1).max() <= 1e-10
        assert np.abs(f(z1, z2)).max() <= 1e-8 * f.scale

    def test_branch_ambiguity_raises(self, f0, two_minus):
        # (1 - z1 z2)(2 - z1 - z2): the two z2-roots collide at z1 = 1
        f = Poly2([[1, 0], [0, -1]]) * two_minus
        with pytest.raises(ValueError, match="ambiguity|no unimodular"):
            trace_branch(f, (-0.1, 0.1), 256)

    def test_under_resolved_step_raises(self):
        # on f_0.96 |m'| reaches 49 near t = 0 and h = 0.098: the first
        # step's unwrapped increment strays from h (m'_0 + m'_1) / 2 by more
        # than pi, so its multiple of 2 pi is not determined
        window = (-0.05, TWO_PI - 0.05)
        with pytest.raises(ValueError, match="under-resolved between t = -0.050000 and"):
            trace_branch(fa_poly(0.96), window, 64)
        # f_0.98's spike (|m'| up to 99) falls between the nodes, which see
        # no stray step; the closed form winds -1, so this is a known limit
        br = trace_branch(fa_poly(0.98), window, 64)
        assert br.periodic and br.winding == 0
        assert trace_branch(fa_poly(0.98), window, 1024).winding == -1

    def test_no_curve_raises(self):
        with pytest.raises(ValueError):
            trace_branch(Poly2([[3, 1], [1, 0]]), (0.0, TWO_PI), 64)


class TestCurveType:
    def test_fa_type2_at_half_pi(self):
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
        rep = curve_type_at(cf, np.pi / 2)
        assert rep.tau == 2 and not rep.is_infinite

    def test_fa_type3_at_zero(self):
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
        rep = curve_type_at(cf, 0.0)
        assert rep.tau == 3
        # second derivative really vanishes at the reported point
        pairs = dict((k, v) for k, v in rep.derivative_values)
        assert abs(pairs[2]) <= 1e-7

    def test_traced_branch_types_match_closed_form(self):
        tr = trace_branch(fa_poly(0.5), (0.0, TWO_PI), 512)
        assert curve_type_at(tr, np.pi / 2).tau == 2
        assert curve_type_at(tr, 0.0).tau == 3

    def test_direction_symmetric_points(self):
        # types agree at parameter-reversed locations of the closed curve
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
        assert curve_type_at(cf, np.pi / 2).tau == curve_type_at(cf, 3 * np.pi / 2).tau
        assert curve_type_at(cf, 0.0).tau == curve_type_at(cf, np.pi).tau

    def test_line_infinite(self, f0):
        br = trace_branch(f0, (0.0, TWO_PI), 256)
        rep = curve_type_at(br, 1.0)
        assert rep.is_infinite and rep.tau is None

    def test_line_infinite_nonperiodic_window(self, f0):
        br = trace_branch(f0, (-0.8, 0.8), 256)
        assert curve_type_at(br, 0.0).tau is None

    def test_witness_annihilates_tangent(self):
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
        rep = curve_type_at(cf, np.pi / 2)
        i = cf.node_index(np.pi / 2)
        tangent = np.array([1.0, cf.derivatives[0, i]])
        eta = np.array(rep.witness_vector)
        assert abs(tangent @ eta) <= 1e-12
        assert abs(np.linalg.norm(eta) - 1.0) <= 1e-12

    def test_max_order_validated(self, f0):
        br = trace_branch(f0, (0.0, TWO_PI), 64)
        for order in (1, 6):
            with pytest.raises(ValueError, match=f"^max_order must be between 2 and 5, "
                                                 f"got max_order = {order}$"):
                curve_type_at(br, 0.0, max_order=order)

    def test_outside_window_rejected(self):
        br = trace_branch(fa_poly(0.5), (1.0, 2.0), 64)
        with pytest.raises(ValueError):
            curve_type_at(br, 0.5)


class TestMobiusRetype:
    def test_line_reaches_type2(self, f0):
        params, rep = mobius_retype(f0, 0.0, [0.3 + 0.4j])
        assert params.a == 0.3 + 0.4j and params.b == 0
        assert rep.tau == 2

    def test_real_candidate_rejected(self, f0):
        with pytest.raises(ValueError, match="Im"):
            mobius_retype(f0, 0.0, [0.5])

    def test_identity_when_already_type2(self):
        params, rep = mobius_retype(fa_poly(0.5), np.pi / 2, [0.3 + 0.4j])
        assert params.a == 0 and rep.tau == 2

    def test_finite_difference_oracle(self, f0):
        # the transformed curve's curvature at the image point, measured by
        # raw second differences of the traced branch, is genuinely nonzero
        from bicyclic.poly2 import MobiusParams, mobius_numerator
        a = 0.3 + 0.4j
        g = mobius_numerator(f0, MobiusParams(a, 0.0))
        z1_img = (a - 1.0) / (1.0 - np.conj(a))
        t_img = float(np.angle(z1_img))
        h = 1e-3
        window = (t_img - 64 * h, t_img + 64 * h)
        br = trace_branch(g, window, 128)
        i = br.node_index(t_img)
        second = (br.m[i - 1] - 2 * br.m[i] + br.m[i + 1]) / h ** 2
        assert abs(second) > 1e-2
