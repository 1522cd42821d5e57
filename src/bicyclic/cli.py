"""Command-line front end: every pipeline as a subcommand with file outputs.

All subcommands write JSON (sorted keys, so identical runs are byte
identical) and CSV into the output directory.  The classify exit code
encodes the verdict: 0 cyclic for all alpha, 3 cyclic iff alpha <= 1,
4 cyclic iff alpha <= 1/2, 5 not cyclic for any alpha.  Usage errors exit
with argparse's code 2; numerical failures write a structured JSON error
and exit 70.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capacity import (branch_measure, cofactor_experiment, decay_fit,
                       fourier_coefficients, noncyclicity_certificate, riesz_energy)
from .classifier import Threshold, classify, classify_with_evidence
from .curvegeom import _centered_window, curve_type_at, fa_poly, trace_branch
from .detrep import (DetRep, load_pair_dataset, polynomial_from_unitary,
                     random_unitary)
from .dirichlet import AlphaSpace, distance_profile, profile_csv_rows
from .poly2 import Poly2
from .stability import TorusZeroKind, torus_zero_classification, zero_reports

EXIT_CODES = {
    Threshold.CYCLIC_ALL_ALPHA: 0,
    Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE: 3,
    Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF: 4,
    Threshold.NOT_CYCLIC_ANY_ALPHA: 5,
}
EXIT_NUMERICAL = 70


@dataclass
class RunConfig:
    """Resolved invocation: inputs, knobs, seed, and the output directory."""

    subcommand: str
    out_dir: Path
    seed: int
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "options": self.options,
        }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, rows) -> None:
    path.write_text("\n".join(rows) + "\n")


def _write_polynomial(cfg: RunConfig, f: Poly2, **extra) -> None:
    """detgen.json (config, polynomial, extra keys) and detgen.csv."""
    doc = {"config": cfg.to_dict(), "polynomial": f.to_json_dict(), **extra}
    _write_json(cfg.out_dir / "detgen.json", doc)
    rows = ["k,l,re,im"]
    for k in range(f.coeffs.shape[0]):
        for l in range(f.coeffs.shape[1]):
            c = f.coeffs[k, l]
            rows.append(f"{k},{l},{c.real!r},{c.imag!r}")
    _write_csv(cfg.out_dir / "detgen.csv", rows)


def _load_poly(path: str) -> Poly2:
    with open(path) as fh:
        return Poly2.from_json_dict(json.load(fh))


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        raw = json.load(fh)
    return np.array([[complex(c[0], c[1]) for c in row] for row in raw])


def _cmd_classify(cfg: RunConfig, args) -> int:
    factors = [_load_poly(p) for p in args.factors]
    if args.alpha:
        verdict = classify_with_evidence(factors, args.alpha, args.caps)
    else:
        verdict = classify(factors)
    doc = {"config": cfg.to_dict(), "verdict": verdict.to_dict()}
    _write_json(cfg.out_dir / "verdict.json", doc)
    rows = ["factor_index,threshold"]
    for i, fa in enumerate(verdict.per_factor):
        rows.append(f"{i},{fa.threshold.label}")
    rows.append(f"combined,{verdict.threshold.label}")
    _write_csv(cfg.out_dir / "verdict.csv", rows)
    print(f"verdict: {verdict.threshold.label}")
    return EXIT_CODES[verdict.threshold]


def _cmd_approximant(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    space = AlphaSpace(args.alpha[0])
    profile = distance_profile(f, space, args.caps)
    doc = {"config": cfg.to_dict(),
           "alpha": space.alpha,
           "profile": [r.to_dict() for r in profile]}
    _write_json(cfg.out_dir / "approximant.json", doc)
    _write_csv(cfg.out_dir / "approximant.csv", profile_csv_rows(profile))
    print(f"d_N: {[round(r.distance, 6) for r in profile]}")
    return 0


def _cmd_detgen(cfg: RunConfig, args) -> int:
    if args.dataset:
        entry = load_pair_dataset().get(args.dataset)
        if entry is None:
            raise ValueError(f"no dataset entry named {args.dataset!r}")
        from .detrep import AglerPair, unitary_from_pair
        from .poly2 import normalize_symmetric
        g, _ = normalize_symmetric(entry["f"])
        rep = unitary_from_pair(g, AglerPair(entry["P"], entry["Q"]))
        f = polynomial_from_unitary(rep)
        _write_polynomial(cfg, f, dataset=args.dataset,
                          unitary=[[[c.real, c.imag] for c in row] for row in rep.U])
        print(f"reconstructed {args.dataset}: bidegree {f.bidegree}")
        return 0
    if not args.unitary or not args.size:
        raise ValueError("detgen needs either --dataset or both --size and --unitary")
    U = _load_matrix(args.unitary)
    rep = DetRep(complex(args.scale_re, args.scale_im), U, args.size[0], args.size[1])
    f = polynomial_from_unitary(rep)
    _write_polynomial(cfg, f)
    print(f"generated polynomial of bidegree {f.bidegree}")
    return 0


def _cmd_torus_zeros(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    scan, tz = zero_reports(f)
    doc = {"config": cfg.to_dict(), "stability": scan.to_dict(),
           "torus_zeros": tz.to_dict()}
    _write_json(cfg.out_dir / "torus_zeros.json", doc)
    rows = ["re_z1,im_z1,re_z2,im_z2"]
    for p in tz.points:
        rows.append(f"{p[0].real!r},{p[0].imag!r},{p[1].real!r},{p[1].imag!r}")
    _write_csv(cfg.out_dir / "torus_zeros.csv", rows)
    print(f"torus zero set: {tz.kind.value}")
    return 0


def _cmd_curve_type(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    branch = trace_branch(f, _centered_window(args.t, args.half_width, args.nodes),
                          args.nodes)
    report = curve_type_at(branch, args.t, args.max_order)
    doc = {"config": cfg.to_dict(), "report": report.to_dict()}
    _write_json(cfg.out_dir / "curve_type.json", doc)
    _write_csv(cfg.out_dir / "branch.csv", branch.csv_rows())
    print(f"type at t={args.t}: {report.tau if report.tau else 'infinite'}")
    return 0


def _cmd_fourier(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    mu = branch_measure(f, args.K, args.uniform_line)
    table = fourier_coefficients(mu, args.K)
    fit = decay_fit(table, args.shells, tau_claimed=args.tau) if args.K >= 32 else None
    doc = {"config": cfg.to_dict(), "K": args.K, "profile": mu.profile,
           "coefficients": [[[c.real, c.imag] for c in row] for row in table.coeffs]}
    if fit is not None:
        doc["decay"] = {"slope": fit.slope, "bound_statistic": fit.bound_statistic,
                        "shell_maxima": fit.shell_maxima.tolist()}
        _write_csv(cfg.out_dir / "decay.csv", fit.csv_rows())
    _write_json(cfg.out_dir / "fourier.json", doc)
    rows = ["k,l,re,im"]
    K = table.K
    for k in range(-K, K + 1):
        for l in range(-K, K + 1):
            c = table.get(k, l)
            rows.append(f"{k},{l},{c.real!r},{c.imag!r}")
    _write_csv(cfg.out_dir / "fourier.csv", rows)
    print(f"computed {2*K+1}x{2*K+1} coefficient table ({mu.profile} profile)")
    return 0


def _cmd_energy(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    mu = branch_measure(f, args.K, args.uniform_line)
    table = fourier_coefficients(mu, args.K)
    cutoffs = args.cutoffs or [args.K // 8, args.K // 4, args.K // 2, args.K]
    report = riesz_energy(table, args.alpha[0], cutoffs)
    doc = {"config": cfg.to_dict(), "report": report.to_dict()}
    _write_json(cfg.out_dir / "energy.json", doc)
    _write_csv(cfg.out_dir / "energy.csv", report.csv_rows())
    print(f"energy trend at alpha={args.alpha[0]}: {report.verdict.value}")
    return 0


def _cmd_certificate(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    report = noncyclicity_certificate(f, args.alpha[0], K=args.K)
    doc = {"config": cfg.to_dict(), "report": report.to_dict()}
    _write_json(cfg.out_dir / "certificate.json", doc)
    _write_csv(cfg.out_dir / "certificate.csv", report.csv_rows())
    print(f"certificate at alpha={args.alpha[0]}: {report.verdict.value}")
    return 0


def _cmd_cofactor(cfg: RunConfig, args) -> int:
    f = _load_poly(args.poly)
    tz = torus_zero_classification(f, stability_check=False)
    if tz.kind is TorusZeroKind.CURVE:
        raise ValueError("cofactor experiment requires finitely many torus zeros")
    report = cofactor_experiment(f, list(tz.points), args.q, args.N, args.grid)
    doc = {"config": cfg.to_dict(), "report": report.to_dict()}
    _write_json(cfg.out_dir / "cofactor.json", doc)
    rows = ["cutoff,beta1_sum,beta2_sum"]
    for i, c in enumerate(report.cutoffs):
        rows.append(f"{c},{report.weighted_sums[1][i]!r},{report.weighted_sums[2][i]!r}")
    _write_csv(cfg.out_dir / "cofactor.csv", rows)
    print(f"cofactor verdicts: beta1 {report.verdicts[1].value}, "
          f"beta2 {report.verdicts[2].value}; sup |Q| = {report.sup_norm:.6g}")
    return 0


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


def _cmd_reproduce_paper(cfg: RunConfig, args) -> int:
    rng = np.random.default_rng(cfg.seed)
    summary = {"config": cfg.to_dict(), "cases": []}
    rows = ["case,threshold,expected,match"]
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
        rows.append(f"\"{name}\",{verdict.threshold.label},{expected},{match}")
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

    # seeded random-unitary determinantal spot check
    worst_sym = 0.0
    first_poly = None
    for _ in range(20):
        size = int(rng.integers(2, 5))
        n = int(rng.integers(1, size))
        U = random_unitary(size, rng)
        f = polynomial_from_unitary(DetRep(1.0, U, n, size - n))
        if first_poly is None:
            first_poly = f.to_json_dict()
        th = rng.uniform(0.0, 2 * np.pi, (40, 2))
        z1, z2 = np.exp(1j * th[:, 0]), np.exp(1j * th[:, 1])
        ft = f.reflect()
        worst_sym = max(worst_sym, float(np.abs(
            np.abs(f(z1, z2)) - np.abs(ft(z1, z2))).max()))
    summary["random_detrep_symmetry_residual"] = worst_sym
    summary["random_detrep_first_poly"] = first_poly

    _write_json(cfg.out_dir / "summary.json", summary)
    _write_csv(cfg.out_dir / "summary.csv", rows)
    ok = all(c["match"] for c in summary["cases"])
    print(f"suite {'passed' if ok else 'FAILED'}; outputs in {cfg.out_dir}")
    return 0 if ok else 1


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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--alpha", type=float, nargs="*", default=[])
    p.add_argument("--caps", type=int, nargs="*", default=[0, 4, 8])

    p = sub.add_parser("approximant", help="optimal-approximant distance profile")
    add_poly(p)
    p.add_argument("--alpha", type=float, nargs=1, required=True)
    p.add_argument("--caps", type=int, nargs="+", default=[0, 4, 8, 12])

    p = sub.add_parser("detgen", help="polynomial from a unitary matrix")
    p.add_argument("--size", type=int, nargs=2, metavar=("N", "M"))
    p.add_argument("--unitary", help="matrix JSON [[re,im],...]")
    p.add_argument("--dataset", default=None,
                   help="reconstruct a bundled named example instead")
    p.add_argument("--scale-re", type=float, default=1.0)
    p.add_argument("--scale-im", type=float, default=0.0)

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


def run(argv=None) -> int:
    """Parse argv, dispatch, and translate failures into exit codes."""
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(
        subcommand=args.subcommand,
        out_dir=out_dir,
        seed=args.seed,
        options={k: v for k, v in sorted(vars(args).items())
                 if k not in ("subcommand", "out", "seed") and v is not None
                 and not isinstance(v, Path)},
    )
    try:
        return _HANDLERS[args.subcommand](cfg, args)
    except (ValueError, OSError, np.linalg.LinAlgError) as e:
        _write_json(out_dir / "error.json",
                    {"error": str(e), "subcommand": args.subcommand})
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
