"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criterion 4's plateau is checked in its own test.  The bound once stated
for it, d_12 - d_4 > -0.02 at alpha = 1 for 1 + z1 z2, contradicted the
closed form d_N^2 = 1 / sum_{k=0}^{floor(N/2)+1} (k+1)^{-2 alpha}, which
gives d_12 - d_4 = -0.0289823157.  The criterion now pins that exact gap
against the closed form, computed in the test suite.
"""
import json
import time

import numpy as np

from bicyclic.capacity import (TrendVerdict, cofactor_experiment, decay_fit,
                               fourier_coefficients, make_bump_measure,
                               make_uniform_measure, riesz_energy, trend_verdict)
from bicyclic.classifier import Threshold, classify
from bicyclic.cli import run as cli_run
from bicyclic.curvegeom import curve_type_at, fa_poly, mobius_retype, trace_branch
from bicyclic.detrep import (AglerPair, DetRep, polynomial_from_unitary,
                             random_unitary, unitary_from_pair,
                             verify_agler_identity)
from bicyclic.dirichlet import AlphaSpace, alpha_norm, optimal_approximant
from bicyclic.poly2 import Poly2, coeff_distance, compute_h, normalize_symmetric
from bicyclic.stability import bidisk_zero_scan
from conftest import closed_form_branch_fa
from test_dirichlet import alpha_inner

TWO_PI = 2 * np.pi


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_acceptance_1_main_theorem_reproduction(two_minus, f0):
    t0 = time.time()
    cases = [
        ([two_minus], Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE),
        ([Poly2([[-1], [1]])], Threshold.CYCLIC_IFF_ALPHA_LEQ_ONE),
        ([Poly2([[1, 0], [0, -1]])], Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF),
        ([f0], Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF),
        ([fa_poly(0.25)], Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF),
        ([fa_poly(0.5)], Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF),
        ([fa_poly(0.75)], Threshold.CYCLIC_IFF_ALPHA_LEQ_HALF),
        ([Poly2([[3, 1], [1, 0]])], Threshold.CYCLIC_ALL_ALPHA),
        ([Poly2([[0], [1]]), Poly2([[0, 1]])], Threshold.NOT_CYCLIC_ANY_ALPHA),
    ]
    ok = all(classify(fs).threshold is expect for fs, expect in cases)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10.0,
           f"9 verdicts exact, {elapsed:.2f}s (< 10 s)")


def test_acceptance_2_determinantal_exactness(rng):
    worst_family = 0.0
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        b = np.sqrt(1 - a * a)
        U = np.array([[a, -b], [b, a]])
        f = polynomial_from_unitary(DetRep(1.0, U, 1, 1))
        worst_family = max(worst_family, coeff_distance(f, Poly2([[1, -a], [-a, 1]])))

    worst_sym = 0.0
    open_zero_found = False
    for _ in range(200):
        size = int(rng.integers(2, 7))
        n = int(rng.integers(1, size))
        f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng),
                                           n, size - n))
        scan = bidisk_zero_scan(f)
        open_zero_found |= scan.has_zero_in_open_bidisk
        th = rng.uniform(0.0, TWO_PI, (40, 2))
        z1, z2 = np.exp(1j * th[:, 0]), np.exp(1j * th[:, 1])
        dev = float(np.abs(np.abs(f(z1, z2)) - np.abs(f.reflect()(z1, z2))).max())
        worst_sym = max(worst_sym, dev / max(1.0, f.scale))
    report(2, worst_family <= 1e-10 and not open_zero_found and worst_sym <= 1e-10,
           f"family residual {worst_family:.2e}, 200 unitaries: no open zeros, "
           f"symmetry {worst_sym:.2e}")


def test_acceptance_3_section4_identities(rng, f0):
    # h + h~ = (n+m) f on reflection-symmetric polynomials
    sym_polys = [f0, Poly2([[1, 0], [0, -1]]), fa_poly(0.25), fa_poly(0.5), fa_poly(0.75)]
    for _ in range(10):
        g = Poly2((rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))))
        sym_polys.append(normalize_symmetric(g * g.reflect())[0])
    worst_euler = 0.0
    for f in sym_polys:
        f, _ = normalize_symmetric(f)
        n, m = f.bidegree
        h = compute_h(f)
        resid = coeff_distance(h + h.reflect(bidegree=(n, m)), (n + m) * f)
        worst_euler = max(worst_euler, resid / max(1.0, f.scale))

    pair = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),))
    agler_resid = verify_agler_identity(f0, pair)

    rep = unitary_from_pair(f0, pair)
    roundtrip = coeff_distance(polynomial_from_unitary(rep), f0)

    report(3, worst_euler <= 1e-12 and agler_resid <= 1e-12 and roundtrip <= 1e-8,
           f"euler {worst_euler:.2e}, agler {agler_resid:.2e}, roundtrip {roundtrip:.2e}")


def test_acceptance_4_norm_and_approximant(f0):
    checks = []
    for alpha in (0.0, 0.25, 0.5, 1.0):
        checks.append(abs(alpha_norm(f0, AlphaSpace(alpha)) ** 2 - (1 + 4.0 ** alpha)) <= 1e-12)

    for alpha in (0.0, 0.25, 1.0):
        r = optimal_approximant(f0, AlphaSpace(alpha), 0)
        w = 4.0 ** alpha
        checks.append(abs(complex(r.approximant.coeffs[0, 0]) - 1 / (1 + w)) <= 1e-12)
        checks.append(abs(r.distance ** 2 - w / (1 + w)) <= 1e-12)

    # residual orthogonality at every N <= 12, both regimes
    for alpha in (0.25, 1.0):
        sp = AlphaSpace(alpha)
        dists = []
        for N in range(13):
            r = optimal_approximant(f0, sp, N)
            dists.append(r.distance)
            resid = Poly2.constant(1.0) - r.approximant * f0
            worst = max(abs(alpha_inner(resid, Poly2.monomial(i, j) * f0, sp))
                        for i in range(N + 1) for j in range(N + 1 - i))
            checks.append(worst <= 1e-9)
        checks.append(all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])))

    d = {(a, N): optimal_approximant(f0, AlphaSpace(a), N).distance
         for a in (0.25, 1.0) for N in (4, 12)}
    checks.append(d[(0.25, 12)] < d[(0.25, 4)])
    checks.append(d[(1.0, 12)] > 0.1)

    # independent dense brute-force cross-check at N = 4
    from test_dirichlet import brute_force_approximant
    for alpha in (0.25, 1.0):
        _, bd = brute_force_approximant(f0, alpha, 4)
        checks.append(abs(bd - d[(alpha, 4)]) <= 1e-10)

    report("4 (norms, closed forms, orthogonality, monotonicity, brute force)",
           all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_acceptance_4_plateau_gap_as_stated(f0):
    # At alpha = 1, 1 + z1 z2 is not cyclic, so d_N levels off at a positive
    # value.  The gap is pinned to the closed form: d_4 = 0.8381163549,
    # d_12 = 0.8091340393, d_12 - d_4 = -0.0289823157, limit sqrt(6)/pi.
    from test_dirichlet import diagonal_distance_oracle
    sp = AlphaSpace(1.0)
    d4, d8, d12 = (optimal_approximant(f0, sp, N).distance for N in (4, 8, 12))
    e4, e12 = diagonal_distance_oracle(1.0, 4), diagonal_distance_oracle(1.0, 12)
    limit = np.sqrt(6.0) / np.pi
    ok = (abs(d4 - e4) <= 1e-12 and abs(d12 - e12) <= 1e-12
          and abs((d12 - d4) - (e12 - e4)) <= 1e-12
          and d8 - d12 < d4 - d8 and d12 > limit > 0)
    report("4 (plateau gap as stated)", ok,
           f"d_12 - d_4 = {d12 - d4:.10f}, closed form {e12 - e4:.10f}, "
           f"d_12 = {d12:.10f} > sqrt(6)/pi = {limit:.10f}")


def test_acceptance_5_curve_geometry(f0):
    tr = trace_branch(fa_poly(0.5), (0.0, TWO_PI), 512)
    cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 512)
    m_err = float(np.abs(tr.m - cf.m).max())

    tau_half_pi = curve_type_at(cf, np.pi / 2).tau
    tau_zero = curve_type_at(cf, 0.0).tau
    line_branch = trace_branch(f0, (0.0, TWO_PI), 256)
    line_infinite = curve_type_at(line_branch, 1.0).tau is None
    _, retype_rep = mobius_retype(f0, 0.0, [0.3 + 0.4j])

    ok = (m_err <= 1e-8 and tau_half_pi == 2 and tau_zero == 3
          and line_infinite and retype_rep.tau == 2)
    report(5, ok, f"m err {m_err:.2e}, tau(pi/2)={tau_half_pi}, tau(0)={tau_zero}, "
           f"line infinite={line_infinite}, retype tau={retype_rep.tau}")


def test_acceptance_6_fourier_energy(f0):
    t0 = time.time()
    br = trace_branch(f0, (0.0, TWO_PI), 2048)
    tab = fourier_coefficients(make_uniform_measure(br), 128)
    K = tab.K
    ks = np.arange(-K, K + 1)
    expect = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    expect[ks + K, ks + K] = (-1.0) ** ks
    line_err = float(np.abs(tab.coeffs - expect).max())

    stats = []
    for Kb, shells in ((64, 6), (128, 7)):
        cfb = closed_form_branch_fa(0.5, (0.0, TWO_PI), 8 * Kb)
        tb = fourier_coefficients(make_bump_measure(cfb, np.pi / 2, 1.0), Kb)
        stats.append(decay_fit(tb, shells, tau_claimed=2.0).bound_statistic)
    stat_stable = abs(stats[1] - stats[0]) <= 0.2 * stats[0]

    v1 = riesz_energy(tab, 0.75, [16, 32, 64, 128]).verdict
    v2 = riesz_energy(tab, 0.4, [16, 32, 64, 128]).verdict
    hbr = trace_branch(Poly2([[1, -1]]), (0.0, TWO_PI), 2048)
    htab = fourier_coefficients(make_uniform_measure(hbr), 128)
    v3 = riesz_energy(htab, 0.9, [16, 32, 64, 128]).verdict
    elapsed = time.time() - t0

    ok = (line_err <= 1e-12 and stat_stable
          and v1 is TrendVerdict.CONVERGENT and v2 is TrendVerdict.DIVERGENT
          and v3 is TrendVerdict.DIVERGENT and elapsed < 60.0)
    report(6, ok, f"line coeffs {line_err:.2e}, stat {stats[0]:.3f}->{stats[1]:.3f}, "
           f"verdicts ({v1.value}, {v2.value}, {v3.value}), {elapsed:.1f}s (< 60 s)")


def test_acceptance_7_cofactor_experiment(two_minus):
    zeros = [(1 + 0j, 1 + 0j)]
    sup256 = cofactor_experiment(two_minus, zeros, 1, 1, 256).sup_norm
    sup512 = cofactor_experiment(two_minus, zeros, 1, 1, 512).sup_norm
    sup_ok = 0.9 <= sup512 / sup256 <= 1.1

    totals = [cofactor_experiment(two_minus, zeros, 1, 4, g).weighted_sums[2][-1]
              for g in (256, 512, 1024)]
    across = trend_verdict(totals)
    report(7, sup_ok and across is TrendVerdict.CONVERGENT,
           f"sup ratio {sup512 / sup256:.4f}, beta=2 sums across grids "
           f"{[round(t, 3) for t in totals]} -> {across.value}")


def test_acceptance_8_reproduce_paper_determinism(tmp_path):
    t0 = time.time()
    rc1 = cli_run(["--out", str(tmp_path / "r1"), "--seed", "7", "reproduce-paper"])
    rc2 = cli_run(["--out", str(tmp_path / "r2"), "--seed", "7", "reproduce-paper"])
    elapsed = time.time() - t0
    same = all((tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
               for name in ("summary.json", "summary.csv"))
    doc = json.loads((tmp_path / "r1" / "summary.json").read_text())
    ok = (rc1 == rc2 == 0 and same and elapsed < 300.0
          and all(c["match"] for c in doc["cases"]))
    report(8, ok, f"byte-identical, all cases match, {elapsed:.1f}s (< 5 min)")
