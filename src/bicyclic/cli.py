"""Command-line front end: every pipeline as a subcommand with file outputs.

Each subcommand returns its output files and `_write_outputs` writes them
into the output directory: JSON with sorted keys under the run config
(`_config`, which records input files by name and SHA-256, so identical
runs from any checkout are byte identical) and CSV with every cell by one
rule (`_cell`).  The classify exit code encodes the verdict: 0 cyclic for
all alpha, 3 cyclic iff alpha <= 1, 4 cyclic iff alpha <= 1/2, 5 not
cyclic for any alpha.  Usage errors exit with argparse's code 2; numerical
failures write a structured JSON error and exit 70.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .capacity import (branch_measure, cofactor_experiment, decay_fit,
                       fourier_coefficients, noncyclicity_certificate, riesz_energy)
from .classifier import Threshold, classify, classify_with_evidence
from .curvegeom import _centered_window, curve_type_at, fa_poly, trace_branch
from .detrep import (AglerPair, DetRep, load_pair_dataset, polynomial_from_unitary,
                     random_unitary, unitary_from_pair)
from .dirichlet import AlphaSpace, distance_profile
from .poly2 import (Poly2, complex_from_pair, complex_to_pair, normalize_symmetric,
                    unimodular_reflection_match)
from .stability import TorusZeroKind, torus_zero_classification, zero_reports

EXIT_CODES = {
    Threshold.CYCLIC_ALL_ALPHA: 0,
    Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE: 3,
    Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF: 4,
    Threshold.NOT_CYCLIC_ANY_ALPHA: 5,
}
EXIT_NUMERICAL = 70


_INPUT_FILES = ("factors", "poly", "unitary")


def _file_record(path: str) -> dict:
    """An input file by its name without the directory and the SHA-256 of
    its bytes, so the record does not depend on where the file lies."""
    p = Path(path)
    return {"name": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}


def _config(args) -> dict:
    """The run config every JSON output carries: subcommand, seed and the
    given options, input files as `_file_record`s."""
    options = {}
    for k, v in vars(args).items():
        if k in ("subcommand", "out", "seed") or v is None:
            continue
        if k in _INPUT_FILES:
            v = [_file_record(p) for p in v] if k == "factors" else _file_record(v)
        options[k] = v
    return {"subcommand": args.subcommand, "seed": args.seed, "options": options}


def _cell(x) -> str:
    """A CSV cell: strings and ints as they are, real numbers as repr(float(x))."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(x)
    return repr(float(x))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_outputs(out_dir: Path, config: dict, files: dict) -> None:
    """Write each named output file: a JSON document under the run config,
    or a CSV table given as (header, rows), every cell by `_cell`."""
    for name, content in files.items():
        if name.endswith(".json"):
            _write_json(out_dir / name, {"config": config, **content})
        else:
            header, rows = content
            lines = [header] + [",".join(map(_cell, row)) for row in rows]
            (out_dir / name).write_text("\n".join(lines) + "\n")


def _polynomial_outputs(f: Poly2, **extra) -> dict:
    """detgen.json (polynomial and extra keys) and detgen.csv."""
    return {"detgen.json": {"polynomial": f.to_json_dict(), **extra},
            "detgen.csv": ("k,l,re,im", [(k, l, c.real, c.imag)
                                         for (k, l), c in np.ndenumerate(f.coeffs)])}


def _load_poly(path: str) -> Poly2:
    with open(path) as fh:
        return Poly2.from_json_dict(json.load(fh))


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("matrix JSON must be a list of rows of [re, im] pairs")
    return np.array([[complex_from_pair(c) for c in row] for row in raw])


# Each handler takes the parsed args and returns its exit code and its output
# files, {name: JSON document or (CSV header, rows)}, for `_write_outputs`.

def _cmd_classify(args) -> tuple[int, dict]:
    factors = [_load_poly(p) for p in args.factors]
    if args.alpha:
        verdict = classify_with_evidence(factors, args.alpha, args.caps)
    else:
        verdict = classify(factors)
    rows = [(i, fa.threshold.label) for i, fa in enumerate(verdict.per_factor)]
    rows.append(("combined", verdict.threshold.label))
    print(f"verdict: {verdict.threshold.label}")
    return EXIT_CODES[verdict.threshold], {
        "verdict.json": {"verdict": verdict.to_dict()},
        "verdict.csv": ("factor_index,threshold", rows)}


def _cmd_approximant(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    space = AlphaSpace(args.alpha[0])
    profile = distance_profile(f, space, args.caps)
    print(f"d_N: {[round(r.distance, 6) for r in profile]}")
    return 0, {
        "approximant.json": {"alpha": space.alpha, "profile": [r.to_dict() for r in profile]},
        "approximant.csv": ("N,d_N", [(r.degree_cap, r.distance) for r in profile])}


def _cmd_detgen(args) -> tuple[int, dict]:
    if args.dataset:
        entry = load_pair_dataset().get(args.dataset)
        if entry is None:
            raise ValueError(f"no dataset entry named {args.dataset!r}")
        g, _ = normalize_symmetric(entry["f"])
        rep = unitary_from_pair(g, AglerPair(entry["P"], entry["Q"]))
        f = polynomial_from_unitary(rep)
        print(f"reconstructed {args.dataset}: bidegree {f.bidegree}")
        return 0, _polynomial_outputs(
            f, dataset=args.dataset,
            unitary=[[complex_to_pair(c) for c in row] for row in rep.U])
    if not args.unitary or not args.size:
        raise ValueError("detgen needs either --dataset or both --size and --unitary")
    U = _load_matrix(args.unitary)
    rep = DetRep(complex(args.scale_re, args.scale_im), U, args.size[0], args.size[1])
    f = polynomial_from_unitary(rep)
    print(f"generated polynomial of bidegree {f.bidegree}")
    return 0, _polynomial_outputs(f)


def _cmd_torus_zeros(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    scan, tz = zero_reports(f)
    print(f"torus zero set: {tz.kind.value}")
    return 0, {
        "torus_zeros.json": {"stability": scan.to_dict(), "torus_zeros": tz.to_dict()},
        "torus_zeros.csv": ("re_z1,im_z1,re_z2,im_z2",
                            [(p.real, p.imag, q.real, q.imag) for p, q in tz.points])}


def _cmd_curve_type(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    branch = trace_branch(f, _centered_window(args.t, args.half_width, args.nodes),
                          args.nodes)
    report = curve_type_at(branch, args.t, args.max_order)
    print(f"type at t={args.t}: {report.tau if report.tau else 'infinite'}")
    return 0, {
        "curve_type.json": {"report": report.to_dict()},
        "branch.csv": ("t,m,dm,d2m", zip(branch.t, branch.m, *branch.derivatives[:2]))}


def _cmd_fourier(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    mu = branch_measure(f, args.K, args.uniform_line)
    table = fourier_coefficients(mu, args.K)
    K = table.K
    ks = range(-K, K + 1)
    doc = {"K": args.K, "profile": mu.profile,
           "coefficients": [[complex_to_pair(c) for c in row] for row in table.coeffs]}
    cells = zip(itertools.product(ks, ks), table.coeffs.ravel().tolist())
    files = {"fourier.json": doc,
             "fourier.csv": ("k,l,re,im", [(k, l, c.real, c.imag) for (k, l), c in cells])}
    if args.K >= 32:
        fit = decay_fit(table, args.shells, tau_claimed=args.tau)
        doc["decay"] = {"slope": fit.slope, "bound_statistic": fit.bound_statistic,
                        "shell_maxima": fit.shell_maxima.tolist()}
        files["decay.csv"] = ("shell_radius,shell_max",
                              zip(fit.shell_radii, fit.shell_maxima))
    print(f"computed {2*K+1}x{2*K+1} coefficient table ({mu.profile} profile)")
    return 0, files


def _energy_outputs(name: str, report) -> dict:
    """<name>.json and <name>.csv for an energy report."""
    return {f"{name}.json": {"report": report.to_dict()},
            f"{name}.csv": ("cutoff,partial_sum", zip(report.cutoffs, report.partial_sums))}


def _cmd_energy(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    mu = branch_measure(f, args.K, args.uniform_line)
    table = fourier_coefficients(mu, args.K)
    cutoffs = args.cutoffs or [args.K // 8, args.K // 4, args.K // 2, args.K]
    report = riesz_energy(table, args.alpha[0], cutoffs)
    print(f"energy trend at alpha={args.alpha[0]}: {report.verdict.value}")
    return 0, _energy_outputs("energy", report)


def _cmd_certificate(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    report = noncyclicity_certificate(f, args.alpha[0], K=args.K)
    print(f"certificate at alpha={args.alpha[0]}: {report.verdict.value}")
    return 0, _energy_outputs("certificate", report)


def _cmd_cofactor(args) -> tuple[int, dict]:
    f = _load_poly(args.poly)
    tz = torus_zero_classification(f)
    if tz.kind is TorusZeroKind.CURVE:
        raise ValueError("cofactor experiment requires finitely many torus zeros")
    report = cofactor_experiment(f, list(tz.points), args.q, args.N, args.grid)
    print(f"cofactor verdicts: beta1 {report.verdicts[1].value}, "
          f"beta2 {report.verdicts[2].value}; sup |Q| = {report.sup_norm:.6g}")
    return 0, {
        "cofactor.json": {"report": report.to_dict()},
        "cofactor.csv": ("cutoff,beta1_sum,beta2_sum",
                         zip(report.cutoffs, report.weighted_sums[1], report.weighted_sums[2]))}


def _bundled_suite() -> list[tuple[str, list[Poly2], str]]:
    return [
        ("z1 - 1", [Poly2([[-1], [1]])], "CyclicIffAlphaLeqOne"),
        ("2 - z1 - z2", [Poly2([[2, -1], [-1, 0]])], "CyclicIffAlphaLeqOne"),
        ("1 + z1 z2", [Poly2([[1, 0], [0, 1]])], "CyclicIffAlphaLeqHalf"),
        ("1 - z1 z2", [Poly2([[1, 0], [0, -1]])], "CyclicIffAlphaLeqHalf"),
        ("f_a, a=0.25", [fa_poly(0.25)], "CyclicIffAlphaLeqHalf"),
        ("f_a, a=0.5", [fa_poly(0.5)], "CyclicIffAlphaLeqHalf"),
        ("f_a, a=0.75", [fa_poly(0.75)], "CyclicIffAlphaLeqHalf"),
        ("(1 - z1)(1 - z2)", [Poly2([[1], [-1]]), Poly2([[1, -1]])],
         "CyclicIffAlphaLeqOne"),
        ("3 + z1 + z2", [Poly2([[3, 1], [1, 0]])], "CyclicAllAlpha"),
    ]


def _cmd_reproduce_paper(args) -> tuple[int, dict]:
    rng = np.random.default_rng(args.seed)
    summary = {"cases": []}
    rows = []
    for name, factors, expected in _bundled_suite():
        verdict = classify(factors)
        match = verdict.threshold.label == expected
        summary["cases"].append({
            "name": name,
            "threshold": verdict.threshold.label,
            "expected": expected,
            "match": match,
            "per_factor": [fa.to_dict() for fa in verdict.per_factor],
        })
        rows.append((f'"{name}"', verdict.threshold.label, expected, match))
        print(f"{name:18s} -> {verdict.threshold.label:24s} "
              f"({'ok' if match else 'MISMATCH'})")

    # distance profiles bracketing the cyclicity threshold of 1 + z1 z2
    f0 = Poly2([[1, 0], [0, 1]])
    profiles = {}
    for alpha in (0.25, 1.0):
        prof = distance_profile(f0, AlphaSpace(alpha), [0, 4, 8])
        profiles[str(alpha)] = [{"N": r.degree_cap, "distance": r.distance}
                                for r in prof]
    summary["approximant_profiles_f0"] = profiles

    # energy certificate for the curve family above the threshold
    cert = noncyclicity_certificate(fa_poly(0.5), 0.6, K=64)
    summary["certificate_fa_05"] = cert.to_dict()

    # cofactor experiment at the single torus zero of 2 - z1 - z2
    cof = cofactor_experiment(Poly2([[2, -1], [-1, 0]]), [(1 + 0j, 1 + 0j)],
                              q=1, N=4, grid=256)
    summary["cofactor_2_z1_z2"] = cof.to_dict()

    # seeded random-unitary determinantal spot check: det(I - U Z) satisfies
    # f~ = lambda f with |lambda| = 1, which makes it a curve case
    worst_sym = 0.0
    first_poly = None
    for _ in range(20):
        size = int(rng.integers(2, 5))
        n = int(rng.integers(1, size))
        U = random_unitary(size, rng)
        f = polynomial_from_unitary(DetRep(1.0, U, n, size - n))
        if first_poly is None:
            first_poly = f.to_json_dict()
        worst_sym = max(worst_sym, unimodular_reflection_match(f).residual)
    summary["random_detrep_symmetry_residual"] = worst_sym
    summary["random_detrep_first_poly"] = first_poly

    ok = all(c["match"] for c in summary["cases"])
    print(f"suite {'passed' if ok else 'FAILED'}; outputs in {Path(args.out)}")
    return (0 if ok else 1), {"summary.json": summary,
                            "summary.csv": ("case,threshold,expected,match", rows)}


_HANDLERS = {
    "classify": _cmd_classify,
    "approximant": _cmd_approximant,
    "detgen": _cmd_detgen,
    "torus-zeros": _cmd_torus_zeros,
    "curve-type": _cmd_curve_type,
    "fourier": _cmd_fourier,
    "energy": _cmd_energy,
    "certificate": _cmd_certificate,
    "cofactor": _cmd_cofactor,
    "reproduce-paper": _cmd_reproduce_paper,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `run` call.

    parse_args hands a default to the namespace as the object itself, so the
    sequence defaults are tuples: no call can change what the next one sees.
    """
    ap = argparse.ArgumentParser(
        prog="bicyclic",
        description="Classify bivariate polynomials by cyclicity in "
                    "Dirichlet-type spaces of the bidisk and certify the "
                    "verdicts numerically.")
    ap.add_argument("--out", default="bicyclic-out", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_poly(p):
        p.add_argument("--poly", required=True, help="polynomial JSON file")

    def add_measure(p):
        p.add_argument("--K", type=int, default=64)
        p.add_argument("--uniform-line", action="store_true",
                       help="uniform measure even on a curved branch")

    p = sub.add_parser("classify", help="cyclicity classification of a factor list")
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--alpha", type=float, nargs="*", default=())
    p.add_argument("--caps", type=int, nargs="*", default=(0, 4, 8))

    p = sub.add_parser("approximant", help="optimal-approximant distance profile")
    add_poly(p)
    p.add_argument("--alpha", type=float, nargs=1, required=True)
    p.add_argument("--caps", type=int, nargs="+", default=(0, 4, 8, 12))

    p = sub.add_parser("detgen", help="polynomial from a unitary matrix")
    p.add_argument("--size", type=int, nargs=2, metavar=("N", "M"))
    p.add_argument("--unitary", help="matrix JSON [[re,im],...]")
    p.add_argument("--dataset", default=None,
                   help="reconstruct a bundled named example instead")
    p.add_argument("--scale-re", type=float, help="default 1.0")
    p.add_argument("--scale-im", type=float, help="default 0.0")

    p = sub.add_parser("torus-zeros", help="empty/finite/curve classification")
    add_poly(p)

    p = sub.add_parser("curve-type", help="contact type of a branch point")
    add_poly(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--half-width", type=float, default=0.8)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--max-order", type=int, default=5)

    p = sub.add_parser("fourier", help="Fourier coefficients of a curve measure")
    add_poly(p)
    add_measure(p)
    p.add_argument("--shells", type=int, default=5)
    p.add_argument("--tau", type=float, default=None)

    p = sub.add_parser("energy", help="truncated Riesz energy of a curve measure")
    add_poly(p)
    add_measure(p)
    p.add_argument("--alpha", type=float, nargs=1, required=True)
    p.add_argument("--cutoffs", type=int, nargs="*", default=None)

    p = sub.add_parser("certificate", help="non-cyclicity energy certificate")
    add_poly(p)
    p.add_argument("--alpha", type=float, nargs=1, required=True)
    p.add_argument("--K", type=int, default=128)

    p = sub.add_parser("cofactor", help="finite-zeros cofactor experiment")
    add_poly(p)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--grid", type=int, default=256)

    p = sub.add_parser("reproduce-paper", help="run the bundled example suite")
    return ap


# detgen's --unitary route options, with the defaults of those that have one
_DETGEN_UNITARY_OPTIONS = {"size": None, "unitary": None, "scale_re": 1.0, "scale_im": 0.0}


def _detgen_options(ap: argparse.ArgumentParser, args) -> None:
    """--dataset takes none of the --unitary route's options (a usage error
    naming the first one given); that route gets its defaults where unset."""
    for k, default in _DETGEN_UNITARY_OPTIONS.items():
        if getattr(args, k) is None:
            if not args.dataset:
                setattr(args, k, default)
        elif args.dataset:
            ap.error(f"detgen --dataset cannot be combined with --{k.replace('_', '-')}")


def run(argv=None) -> int:
    """Parse argv, dispatch, and translate failures into exit codes."""
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.subcommand == "detgen":
        _detgen_options(ap, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        code, files = _HANDLERS[args.subcommand](args)
        _write_outputs(out_dir, _config(args), files)
        return code
    except (ValueError, OSError, np.linalg.LinAlgError) as e:
        _write_json(out_dir / "error.json",
                    {"error": str(e), "subcommand": args.subcommand})
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
