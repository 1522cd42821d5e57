"""The public surface: the package exports, the benchmark tracer's targets
and the tolerance table in README.

`perfbench/tracer.py` looks each target up by module and attribute name and
reads some arguments by position, so a renamed function or a moved
parameter would break only its traced runs.  These tests catch that here.
"""
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import bicyclic

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

EXPORTS = {
    "AglerPair", "AlphaSpace", "ApproximantResult", "BidiskStabilityReport",
    "CofactorReport", "CurveBranch", "CurveMeasure", "CyclicityVerdict", "DecayFit",
    "DetRep", "EnergyReport", "FactorAnalysis", "FourierTable", "MobiusParams",
    "Poly2", "Threshold", "TorusZeroKind", "TorusZeroSet", "TrendVerdict",
    "TypeReport", "UnimodularMatch",
    "alpha_norm", "bidisk_zero_scan", "classify", "classify_with_evidence",
    "coeff_distance", "cofactor_experiment", "compute_h", "curve_type_at",
    "decay_fit", "distance_profile", "fa_poly",
    "fourier_coefficients", "load_pair_dataset", "mobius_numerator", "mobius_retype",
    "noncyclicity_certificate", "normalize_symmetric", "optimal_approximant",
    "polynomial_from_unitary", "random_unitary", "riesz_energy",
    "sylvester_resultant_z2", "torus_zero_classification", "trace_branch",
    "unimodular_reflection_match", "unitary_from_pair", "verify_agler_identity",
    # the submodules the package imports
    "capacity", "classifier", "curvegeom", "detrep", "dirichlet", "poly2", "stability",
}

# span name -> (position, parameter name) of each argument its counter reads
COUNTED_ARGUMENTS = {
    "poly2.eval": [(1, "z1"), (2, "z2")],
    "dirichlet.approximant": [(2, "degree_cap")],
    "curvegeom.trace": [(2, "nodes")],
    "capacity.fourier": [(0, "mu"), (1, "K")],
    "capacity.cofactor": [(4, "grid")],
    "cli.run": [(0, "argv")],
}

# counters that read only the result
RESULT_COUNTERS = {"roots.batched", "roots.low_first", "stability.torus"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod: str, attr: str):
    owner = importlib.import_module(f"bicyclic.{mod}")
    if "." in attr:
        cls_name, slot = attr.split(".")
        return getattr(owner, cls_name).__dict__[slot]
    return getattr(owner, attr)


def test_all_is_pinned():
    assert set(bicyclic.__all__) == EXPORTS


TARGETS = load_tracer().TARGETS
COUNTED = [t for t in TARGETS if t[0] in COUNTED_ARGUMENTS]


@pytest.mark.parametrize("name,mod,attr,count", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, mod, attr, count):
    assert callable(resolve(mod, attr))


def test_every_counter_is_listed():
    counted = {name for name, _, _, count in TARGETS if count is not None}
    assert counted == set(COUNTED_ARGUMENTS) | RESULT_COUNTERS


@pytest.mark.parametrize("name,mod,attr,count", COUNTED, ids=[t[0] for t in COUNTED])
def test_counted_arguments_keep_their_positions(name, mod, attr, count):
    params = list(inspect.signature(resolve(mod, attr)).parameters)
    for index, param in COUNTED_ARGUMENTS[name]:
        assert params[index] == param


def module_tolerances() -> set[str]:
    """`module.NAME` for every module-level *_TOL, *_BAND, *_MARGIN, *_WIDTH,
    *_THRESHOLD, *_RATIO, *_INCREMENT, *_FLOOR or *_TRIM constant assigned
    in src/bicyclic."""
    found = set()
    for path in sorted((ROOT / "src" / "bicyclic").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                found |= {f"{path.stem}.{t.id}" for t in names if isinstance(t, ast.Name)
                          and re.fullmatch(r"_?[A-Z0-9_]+_(TOL|BAND|MARGIN|WIDTH|THRESHOLD|RATIO"
                                           r"|INCREMENT|FLOOR|TRIM)", t.id)}
    return found


def test_every_tolerance_has_a_readme_row():
    section = (ROOT / "README.md").read_text().split("## Tolerances")[1].split("\n## ")[0]
    rows = set(re.findall(r"^\| `([\w.]+)` \|", section, re.M))
    tolerances = module_tolerances()
    assert {"stability.OPEN_MARGIN", "curvegeom.DERIVATIVE_REL_THRESHOLD",
            "capacity.CONVERGENT_RATIO", "_roots.INTERP_TRIM", "classifier.MONOTONE_TOL",
            "curvegeom.FULL_WINDOW_TOL", "detrep.IDENTITY_RESIDUAL_TOL",
            "detrep.REGENERATION_TOL", "detrep.NORMALIZED_LAMBDA_TOL"} <= tolerances
    assert tolerances <= rows
