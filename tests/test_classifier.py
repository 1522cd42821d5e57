import numpy as np
import pytest

from bicyclic import capacity, stability
from bicyclic.capacity import TrendVerdict, noncyclicity_certificate
from bicyclic.classifier import (Threshold, classify, classify_with_evidence)
from bicyclic.curvegeom import fa_poly
from bicyclic.poly2 import Poly2, unimodular_slice_roots


class TestMainTheorem:
    def test_univariate_circle(self):
        assert classify([Poly2([[-1], [1]])]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE

    def test_single_torus_point(self, two_minus):
        assert classify([two_minus]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE

    def test_diagonal_curves(self, f0):
        assert classify([f0]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
        assert classify([Poly2([[1, 0], [0, -1]])]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_fa_family(self, a):
        assert classify([fa_poly(a)]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF

    def test_product_of_lines(self):
        v = classify([Poly2([[1], [-1]]), Poly2([[1, -1]])])
        assert v.threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE

    def test_nonvanishing(self):
        assert classify([Poly2([[3, 1], [1, 0]])]).threshold is Threshold.CYCLIC_ALL_ALPHA

    def test_interior_zero(self):
        v = classify([Poly2([[0], [1]]), Poly2([[0, 1]])])
        assert v.threshold is Threshold.NOT_CYCLIC_ANY_ALPHA


class TestUnivariateCircleBand:
    # one band, CIRCLE_BAND = 1e-7, decides open, circle and outside roots
    # for both zero reports of a univariate factor, as it does for slice roots
    @pytest.mark.parametrize("variable", [1, 2])
    @pytest.mark.parametrize("c,label", [(1 + 5e-8, "CyclicIffAlphaLeqOne"),
                                         (1 + 5e-7, "CyclicAllAlpha"),
                                         (1 - 5e-7, "NotCyclicAnyAlpha")])
    def test_root_near_circle(self, variable, c, label):
        f = Poly2([[-c], [1]]) if variable == 1 else Poly2([[-c, 1]])
        assert classify([f]).threshold.label == label

    @pytest.mark.parametrize("c", [1 + 5e-8, 1 - 5e-8, 1 + 5e-7, 1 - 5e-7])
    def test_slice_roots_agree_with_the_verdict(self, c):
        # the slice filter keeps the root of z2 - c exactly when the
        # univariate path calls it a circle zero
        f = Poly2([[-c, 1]])
        kept = unimodular_slice_roots(f, np.ones(1))[1].size == 1
        circle = classify([f]).threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE
        assert kept == circle == (abs(c - 1) < 1e-7)


class TestOneEngineRun:
    def test_bivariate_factor(self, monkeypatch, two_minus):
        calls = []
        engine = stability._slice_engine
        monkeypatch.setattr(stability, "_slice_engine", lambda f: calls.append(f) or engine(f))
        fa = classify([two_minus]).per_factor[0]
        assert len(calls) == 1
        assert fa.stability == stability.bidisk_zero_scan(two_minus)
        assert fa.torus_zeros == stability.torus_zero_classification(two_minus)

    def test_evidence_reuses_the_verdict(self, monkeypatch):
        # the certificates take the curve from the verdict, so the slice
        # engine runs once per factor, and every alpha above 1/2 reads its
        # energy from one Fourier table
        expect = {alpha: noncyclicity_certificate(fa_poly(0.5), alpha, 64).to_dict()
                  for alpha in (0.6, 0.75, 0.9)}
        calls, tables = [], []
        engine = stability._slice_engine
        monkeypatch.setattr(stability, "_slice_engine", lambda f: calls.append(f) or engine(f))
        fourier = capacity.fourier_coefficients
        monkeypatch.setattr(capacity, "fourier_coefficients",
                            lambda mu, K: tables.append(K) or fourier(mu, K))
        v = classify_with_evidence([fa_poly(0.5)], (0.25, 0.6, 0.75, 0.9), [0, 4, 8], 64)
        assert v.evidence[0].certificate is None
        for ev in v.evidence[1:]:
            assert ev.certificate.verdict is TrendVerdict.CONVERGENT
            assert ev.certificate.to_dict() == expect[ev.alpha]
        assert len(calls) == 1
        assert tables == [64]


class TestCombination:
    def test_minimum_rule(self, f0):
        v = classify([f0, Poly2([[3, 1], [1, 0]])])
        assert v.threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
        v = classify([Poly2([[0], [1]]), Poly2([[3, 1], [1, 0]])])
        assert v.threshold is Threshold.NOT_CYCLIC_ANY_ALPHA

    def test_squared_factor_same_verdict(self, f0, two_minus):
        assert classify([f0, f0]).threshold is classify([f0]).threshold
        assert classify([two_minus, two_minus]).threshold is classify([two_minus]).threshold

    def test_per_factor_reports(self, f0, two_minus):
        v = classify([two_minus, f0])
        assert len(v.per_factor) == 2
        assert v.per_factor[0].threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE
        assert v.per_factor[1].threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF

    def test_empty_factor_list(self):
        with pytest.raises(ValueError):
            classify([])


class TestInvariances:
    def test_unimodular_scaling(self, f0, two_minus):
        lam = np.exp(1.3j)
        for f in (f0, two_minus, fa_poly(0.5)):
            assert classify([f * lam]).threshold is classify([f]).threshold

    def test_swap_variables(self, f0, two_minus):
        for f in (f0, two_minus, fa_poly(0.25), Poly2([[3, 1], [1, 0]])):
            assert classify([f.swap_variables()]).threshold is classify([f]).threshold

    def test_reducible_input_aborts(self, f0, two_minus):
        with pytest.raises(ValueError, match="not irreducible"):
            classify([f0 * two_minus])


class TestThreshold:
    def test_cyclic_at(self):
        assert Threshold.CYCLIC_ALL_ALPHA.cyclic_at(7.0)
        assert not Threshold.NOT_CYCLIC_ANY_ALPHA.cyclic_at(-2.0)
        assert Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF.cyclic_at(0.5)
        assert not Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF.cyclic_at(0.51)
        assert Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE.cyclic_at(1.0)
        assert not Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE.cyclic_at(1.01)

    def test_ordering(self):
        assert (Threshold.NOT_CYCLIC_ANY_ALPHA < Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
                < Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE < Threshold.CYCLIC_ALL_ALPHA)

    def test_labels(self):
        assert Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF.label == "CyclicIffAlphaLeqHalf"


class TestEvidence:
    def test_profiles_and_certificate(self, f0):
        v = classify_with_evidence([f0], [0.25, 0.75], [0, 4, 8], certificate_K=64)
        assert v.threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
        assert len(v.evidence) == 2
        low, high = v.evidence
        assert low.alpha == 0.25 and low.certificate is None
        ds = [r.distance for r in low.profile]
        assert ds[-1] < ds[0]
        assert high.certificate is not None
        assert high.certificate.verdict is TrendVerdict.CONVERGENT
        assert v.flags == ()

    def test_verdict_document(self, f0):
        v = classify_with_evidence([f0], [0.75], [0, 4], certificate_K=64)
        doc = v.to_dict()
        assert doc["threshold"] == "CyclicIffAlphaLeqHalf"
        assert doc["evidence"][0]["certificate"]["verdict"] == "ConvergentTrend"
        assert doc["per_factor"][0]["torus_zeros"]["kind"] == "curve"

    def test_no_certificate_for_finite_case(self, two_minus):
        v = classify_with_evidence([two_minus], [0.75], [0, 4])
        assert v.evidence[0].certificate is None

    def test_degree_caps_read_once(self, two_minus):
        # a generator of caps gives every alpha the full profile, not the
        # first alpha only
        expect = classify_with_evidence([two_minus], [0.25, 0.75], [0, 2, 4])
        v = classify_with_evidence([two_minus], [0.25, 0.75], (N for N in [0, 2, 4]))
        assert [len(ev.profile) for ev in v.evidence] == [3, 3]
        assert v.to_dict() == expect.to_dict()

    def test_factors_and_alphas_read_once(self, two_minus):
        expect = classify_with_evidence([two_minus], [0.25, 0.75], [0, 2, 4])
        v = classify_with_evidence((f for f in [two_minus]), (a for a in [0.25, 0.75]),
                                   [0, 2, 4])
        assert v.to_dict() == expect.to_dict()
