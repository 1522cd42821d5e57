"""Cyclicity of bivariate polynomials in Dirichlet-type spaces of the bidisk."""

from .poly2 import (
    Poly2,
    MobiusParams,
    UnimodularMatch,
    coeff_distance,
    compute_h,
    mobius_numerator,
    normalize_symmetric,
    sylvester_resultant_z2,
    unimodular_reflection_match,
)
from .stability import (
    BidiskStabilityReport,
    TorusZeroKind,
    TorusZeroSet,
    bidisk_zero_scan,
    torus_zero_classification,
)
from .dirichlet import (
    AlphaSpace,
    ApproximantResult,
    alpha_norm,
    distance_profile,
    optimal_approximant,
)
from .detrep import (
    AglerPair,
    DetRep,
    load_pair_dataset,
    polynomial_from_unitary,
    random_unitary,
    unitary_from_pair,
    verify_agler_identity,
)
from .curvegeom import (
    CurveBranch,
    TypeReport,
    curve_type_at,
    fa_poly,
    mobius_retype,
    trace_branch,
)
from .capacity import (
    CofactorReport,
    CurveMeasure,
    DecayFit,
    EnergyReport,
    FourierTable,
    TrendVerdict,
    cofactor_experiment,
    decay_fit,
    fourier_coefficients,
    noncyclicity_certificate,
    riesz_energy,
)
from .classifier import (
    CyclicityVerdict,
    FactorAnalysis,
    Threshold,
    classify,
    classify_with_evidence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
