"""Cyclicity classification of products of irreducible bivariate polynomials.

The decision procedure per irreducible factor, assuming the factors are
supplied irreducible (a documented precondition, not decided numerically):

  * a zero inside the open bidisk rules out cyclicity for every alpha;
  * no zero on the closed bidisk gives cyclicity for every alpha;
  * a factor in one variable with circle zeros is cyclic iff alpha <= 1;
  * a bivariate factor with finitely many torus zeros is cyclic iff
    alpha <= 1;
  * a bivariate factor whose torus zero set is a curve is cyclic iff
    alpha <= 1/2.

The verdict of a product is the minimum over factors.  Numerical evidence
(distance profiles, energy certificates) is attached for inspection only
and never overrides the algebraic verdict; disagreements are flagged.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .capacity import EnergyReport, TrendVerdict, _certificate
from .dirichlet import AlphaSpace, distance_profile
from .poly2 import Poly2
from .stability import BidiskStabilityReport, TorusZeroKind, TorusZeroSet, zero_reports

MONOTONE_TOL = 1e-9          # a profile rising by more than it between caps is flagged


class Threshold(enum.IntEnum):
    """Cyclicity ranges ordered so that a product takes the minimum."""

    NOT_CYCLIC_ANY_ALPHA = 0
    CYCLIC_IFF_ALPHA_LEQ_HALF = 1
    CYCLIC_IFF_ALPHA_LEQ_ONE = 2
    CYCLIC_ALL_ALPHA = 3

    @property
    def label(self) -> str:
        return {
            Threshold.NOT_CYCLIC_ANY_ALPHA: "NotCyclicAnyAlpha",
            Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF: "CyclicIffAlphaLeqHalf",
            Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE: "CyclicIffAlphaLeqOne",
            Threshold.CYCLIC_ALL_ALPHA: "CyclicAllAlpha",
        }[self]

    def cyclic_at(self, alpha: float) -> bool:
        if self is Threshold.NOT_CYCLIC_ANY_ALPHA:
            return False
        if self is Threshold.CYCLIC_ALL_ALPHA:
            return True
        bound = 0.5 if self is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF else 1.0
        return alpha <= bound


@dataclass(frozen=True)
class FactorAnalysis:
    factor: Poly2
    threshold: Threshold
    stability: BidiskStabilityReport
    torus_zeros: TorusZeroSet | None
    note: str

    def to_dict(self) -> dict:
        return {
            "factor": self.factor.to_json_dict(),
            "threshold": self.threshold.label,
            "stability": self.stability.to_dict(),
            "torus_zeros": None if self.torus_zeros is None else self.torus_zeros.to_dict(),
            "note": self.note,
        }


@dataclass(frozen=True)
class EvidenceBundle:
    alpha: float
    profile: tuple
    certificate: EnergyReport | None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "profile": [{"N": r.degree_cap, "distance": r.distance} for r in self.profile],
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }


@dataclass(frozen=True)
class CyclicityVerdict:
    threshold: Threshold
    per_factor: tuple
    evidence: tuple = ()
    flags: tuple = ()

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold.label,
            "per_factor": [fa.to_dict() for fa in self.per_factor],
            "evidence": [ev.to_dict() for ev in self.evidence],
            "flags": list(self.flags),
        }


def _classify_factor(f: Poly2) -> FactorAnalysis:
    scan, tz = zero_reports(f)
    if scan.has_zero_in_open_bidisk:
        return FactorAnalysis(f, Threshold.NOT_CYCLIC_ANY_ALPHA, scan, None,
                              "zero inside the open bidisk")

    if tz.kind is TorusZeroKind.EMPTY:
        if scan.has_zero_on_closed_bidisk:
            raise ValueError(
                "inconsistent input: closed-bidisk zeros found although the torus "
                "zero set is empty; the factor is likely reducible")
        return FactorAnalysis(f, Threshold.CYCLIC_ALL_ALPHA, scan, tz,
                              "nonvanishing on the closed bidisk")
    if f.is_univariate:
        return FactorAnalysis(f, Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE, scan, tz,
                              "one-variable factor with circle zeros")
    if tz.kind is TorusZeroKind.FINITE:
        return FactorAnalysis(f, Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE, scan, tz,
                              f"finitely many torus zeros ({len(tz.points)})")
    return FactorAnalysis(f, Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF, scan, tz,
                          "torus zero set contains a curve")


def classify(factors) -> CyclicityVerdict:
    """Main decision procedure over a nonempty list of irreducible factors."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    analyses = [_classify_factor(f) for f in factors]
    combined = Threshold(min(fa.threshold for fa in analyses))
    return CyclicityVerdict(combined, tuple(analyses))


def classify_with_evidence(factors, alphas, degree_caps,
                           certificate_K: int = 64) -> CyclicityVerdict:
    """classify plus distance profiles and, where applicable, energy evidence.

    Profiles are computed for the product polynomial at each alpha; when the
    verdict is the curve case and 1/2 < alpha <= 1, a non-cyclicity
    certificate is attached for the first curve factor.  Above 1 the
    truncated energy of every probability measure converges, so no
    certificate is attached there; non-cyclicity at alpha = 1 already gives
    it for every larger alpha, since D_alpha embeds in D_1.  Evidence that
    disagrees with the algebraic verdict is flagged, never substituted.
    """
    # each is read more than once, so a generator must not be used up
    factors, alphas, degree_caps = list(factors), list(alphas), list(degree_caps)
    verdict = classify(factors)
    product = factors[0]
    for f in factors[1:]:
        product = product * f

    curve_factor = None
    for fa in verdict.per_factor:
        if (fa.torus_zeros is not None and fa.torus_zeros.kind is TorusZeroKind.CURVE
                and not fa.factor.is_univariate):
            curve_factor = fa.factor
            break

    evidence = []
    flags = []
    for alpha in alphas:
        space = AlphaSpace(alpha)
        profile = tuple(distance_profile(product, space, degree_caps))
        if any(b.distance > a.distance + MONOTONE_TOL for a, b in zip(profile, profile[1:])):
            flags.append(f"distance profile not monotone at alpha={alpha}")
        cert = None
        if (verdict.threshold is Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF
                and 0.5 < alpha <= 1.0 and curve_factor is not None):
            cert = _certificate(curve_factor, alpha, certificate_K)
            if cert.verdict is not TrendVerdict.CONVERGENT:
                flags.append(
                    f"energy certificate at alpha={alpha} returned {cert.verdict.value} "
                    "although the verdict predicts non-cyclicity")
        evidence.append(EvidenceBundle(alpha, profile, cert))

    return CyclicityVerdict(verdict.threshold, verdict.per_factor,
                            tuple(evidence), tuple(flags))
