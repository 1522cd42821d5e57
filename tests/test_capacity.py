import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bicyclic import capacity
from bicyclic.capacity import (_FOURIER_BLOCK_MODES, _FOURIER_BLOCK_NODES, FourierTable,
                               TrendVerdict, _node_offsets, _phase_powers, _root_powers,
                               branch_measure, cofactor_experiment, decay_fit,
                               fourier_coefficients, make_bump_measure, make_uniform_measure,
                               noncyclicity_certificate, riesz_energy, trend_verdict)
from bicyclic.classifier import classify
from bicyclic.curvegeom import curve_type_at, fa_poly, trace_branch
from bicyclic.poly2 import SAME_POINT_TOL, ZERO_VALUE_TOL, Poly2
from conftest import closed_form_branch_fa, f_eps

TWO_PI = 2 * np.pi


def lattice_values(f, grid):
    """Oracle: f on the grid x grid torus lattice by a zero-padded inverse FFT."""
    n, m = f.bidegree
    padded = np.zeros((grid, grid), dtype=complex)
    padded[: n + 1, : m + 1] = f.coeffs
    return np.fft.ifft2(padded) * grid * grid


def direct_lattice_values(f, w):
    """f(w[i], w[j]) over the roots of unity w[k] = exp(2 pi i k / grid), as
    V1 a V2^T from the table of w: the product cofactor_experiment builds in
    row blocks."""
    n, m = f.bidegree
    return _root_powers(w, n) @ f.coeffs @ _root_powers(w, m).T


def line_table(K=64, nodes=1024):
    br = trace_branch(Poly2([[1, 0], [0, 1]]), (0.0, TWO_PI), nodes)
    return fourier_coefficients(make_uniform_measure(br), K)


def horizontal_table(K=64, nodes=1024):
    br = trace_branch(Poly2([[1, -1]]), (0.0, TWO_PI), nodes)  # 1 - z2
    return fourier_coefficients(make_uniform_measure(br), K)


def entry(table, k, l):
    """mu_hat(k, l) read from the (2K+1) x (2K+1) coefficient array."""
    return complex(table.coeffs[k + table.K, l + table.K])


def dense_fourier_oracle(mu, K):
    """The trapezoid sum over every branch node, zeros of psi included."""
    br = mu.branch
    ks = np.arange(-K, K + 1)
    E1 = np.exp(-1j * np.outer(ks, br.t))
    E2 = np.exp(-1j * np.outer(ks, br.m))
    table = (E1 * (mu.psi * br.spacing)[None, :]) @ E2.T
    return 0.5 * (table + np.conj(table[::-1, ::-1]))


def direct_exp_fourier_oracle(mu, K):
    """The support sum with one exp per table entry, as before the phases
    came from `_phase_powers`."""
    br = mu.branch
    support = np.flatnonzero(mu.psi)
    ks = np.arange(K + 1)
    E1 = np.exp(-1j * np.outer(ks, br.t[support]))
    E2 = np.exp(-1j * np.outer(ks, br.m[support]))
    E2 = np.concatenate([np.conj(E2[:0:-1]), E2])
    table = np.empty((2 * K + 1, 2 * K + 1), dtype=complex)
    top = table[K:]
    np.matmul(E1 * (mu.psi[support] * br.spacing)[None, :], E2.T, out=top)
    top[0] = 0.5 * (top[0] + np.conj(top[0, ::-1]))
    table[:K] = np.conj(top[:0:-1, ::-1])
    return table


def one_shot_fourier_oracle(mu, K):
    """The support sum as one matmul over every support node, as before the
    nodes were summed in blocks."""
    br = mu.branch
    support = np.flatnonzero(mu.psi)
    E1 = _phase_powers(br.t[support], K)
    E2 = _phase_powers(br.m[support], K)
    E2 = np.concatenate([np.conj(E2[:0:-1]), E2])
    table = np.empty((2 * K + 1, 2 * K + 1), dtype=complex)
    top = table[K:]
    np.matmul(E1 * (mu.psi[support] * br.spacing)[None, :], E2.T, out=top)
    top[0] = 0.5 * (top[0] + np.conj(top[0, ::-1]))
    table[:K] = np.conj(top[:0:-1, ::-1])
    return table


def extended_fourier_reference(mu, K, chunk=32):
    """Rows k >= 0 of the table with clongdouble phases and weights.

    Each factor is split as hi + lo in complex128; the hi @ hi product is
    summed over chunks of 32 nodes into a clongdouble accumulator, so its
    rounding is that of a 32-term sum of terms no larger than their weights,
    and the hi @ lo cross terms are far below the tested errors.
    """
    br = mu.branch
    support = np.flatnonzero(mu.psi)
    ks = np.arange(K + 1, dtype=np.longdouble)

    def phases(x):
        angle = np.outer(ks, x.astype(np.longdouble))
        return np.cos(angle) - 1j * np.sin(angle)

    weights = mu.psi[support].astype(np.longdouble) * np.longdouble(br.spacing)
    E1 = phases(br.t[support]) * weights[None, :]
    E2 = phases(br.m[support])
    E2 = np.concatenate([np.conj(E2[:0:-1]), E2])
    A, B = E1.astype(complex), E2.astype(complex)
    a, b = (E1 - A).astype(complex), (E2 - B).astype(complex)
    acc = np.zeros((K + 1, 2 * K + 1), dtype=np.clongdouble)
    for j in range(0, support.size, chunk):
        acc += A[:, j:j + chunk] @ B[:, j:j + chunk].T
    return acc + (A @ b.T + a @ B.T)


def fixed_bump(a, K, center, shrinks):
    """A bump on f_a at a fixed centre and width (0.8 shrunk `shrinks` times
    by 0.7): on a real f the largest |m''| ties between the mirror nodes t
    and 2 pi - t, so the centre `branch_measure` picks turns on the last
    bit of m'', and these inputs should not."""
    half = 0.8
    for _ in range(shrinks):
        half *= 0.7
    return make_bump_measure(trace_branch(fa_poly(a), (0.0, TWO_PI), 8 * K), center, half)


ACCURACY_INPUTS = {
    "f_0.5-K128": (lambda: fixed_bump(0.5, 128, 5.884350302329319, 3), 128),
    "f_0.4-K256": (lambda: fixed_bump(0.4, 256, 5.755495916146925, 2), 256),
    "f_0.77-K256": (lambda: fixed_bump(0.77, 256, 0.15033011721279282, 6), 256),
    "1+z1z2-K128": (lambda: branch_measure(Poly2([[1, 0], [0, 1]]), 128), 128),
    "1-z1z2-K256": (lambda: branch_measure(Poly2([[1, 0], [0, -1]]), 256), 256),
    # 1,600 nodes: not a power of two, so t_j = fl(2 pi j / N) rounds twice
    "1+z1z2-K200": (lambda: branch_measure(Poly2([[1, 0], [0, 1]]), 200), 200),
}


@functools.lru_cache(maxsize=None)
def accuracy_case(name):
    make, K = ACCURACY_INPUTS[name]
    return make(), K


MEASURE_KINDS = ["closed-form bump", "narrow traced bump", "uniform"]


def oracle_measure(kind):
    if kind == "closed-form bump":
        branch = closed_form_branch_fa(0.5, (0.0, TWO_PI), 2048)
        return make_bump_measure(branch, np.pi / 2, 0.9)
    if kind == "narrow traced bump":
        mu = make_bump_measure(trace_branch(fa_poly(0.25), (0.0, TWO_PI), 2048), 2.0, 0.15)
        assert np.count_nonzero(mu.psi) < 0.05 * mu.psi.size
        return mu
    return make_uniform_measure(trace_branch(Poly2([[1, 0], [0, 1]]), (0.0, TWO_PI), 1024))


class TestFourierCoefficients:
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_support_sum_matches_dense_oracle(self, kind):
        mu = oracle_measure(kind)
        K = 128
        got = fourier_coefficients(mu, K).coeffs
        assert np.abs(got - dense_fourier_oracle(mu, K)).max() <= 1e-14

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("K", [1, 64, 128])
    def test_whole_table_conjugate_symmetric(self, kind, K):
        # only the rows k >= 0 are summed; the rest must mirror them exactly
        tab = fourier_coefficients(oracle_measure(kind), K).coeffs
        assert np.array_equal(tab, np.conj(tab[::-1, ::-1]))
        assert tab[K, K].imag == 0.0

    def test_exact_line_measure(self):
        tab = line_table(48)
        K = tab.K
        ks = np.arange(-K, K + 1)
        expect = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
        expect[ks + K, ks + K] = (-1.0) ** ks
        assert np.abs(tab.coeffs - expect).max() <= 1e-12

    def test_normalization(self):
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 1024)
        mu = make_bump_measure(cf, np.pi / 2, 1.0)
        tab = fourier_coefficients(mu, 32)
        assert abs(entry(tab, 0, 0) - 1.0) <= 1e-12

    def test_conjugate_symmetry_exact(self):
        cf = closed_form_branch_fa(0.25, (0.0, TWO_PI), 1024)
        tab = fourier_coefficients(make_bump_measure(cf, 2.0, 0.8), 32)
        for k, l in ((3, 5), (-7, 2), (10, -4)):
            assert entry(tab, -k, -l) == np.conj(entry(tab, k, l))

    def test_resolution_guard(self):
        br = trace_branch(Poly2([[1, 0], [0, 1]]), (0.0, TWO_PI), 128)
        with pytest.raises(ValueError, match="resolution"):
            fourier_coefficients(make_uniform_measure(br), 64)

    def test_negative_K_named(self):
        mu = oracle_measure("uniform")
        with pytest.raises(ValueError, match="^K must be at least 0, got K = -1$"):
            fourier_coefficients(mu, -1)
        with pytest.raises(ValueError, match="^K must be at least 0, got K = -3$"):
            branch_measure(Poly2([[1, 0], [0, 1]]), -3)
        assert fourier_coefficients(mu, 0).coeffs.shape == (1, 1)

    def test_bump_profile_properties(self):
        cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 2048)
        mu = make_bump_measure(cf, np.pi / 2, 0.9)
        h = cf.spacing
        assert abs(mu.psi.sum() * h - 1.0) <= 1e-10
        outside = np.abs((cf.t - np.pi / 2 + np.pi) % TWO_PI - np.pi) >= 0.9
        assert np.all(mu.psi[outside] == 0)

    def test_quadrature_spectral_convergence(self):
        vals = []
        for nodes in (1024, 2048):
            cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), nodes)
            tab = fourier_coefficients(make_bump_measure(cf, np.pi / 2, 1.0), 16)
            vals.append(entry(tab, 5, 3))
        assert abs(vals[0] - vals[1]) <= 1e-9

    def test_constant_branch_reduces_to_1d(self):
        br = trace_branch(Poly2([[1, -1]]), (0.0, TWO_PI), 1024)
        mu = make_bump_measure(br, np.pi, 1.5)
        tab = fourier_coefficients(mu, 24)
        for l in (-5, 0, 7):
            for k in (-3, 1, 9):
                assert abs(entry(tab, k, l) - entry(tab, k, 0)) <= 1e-12


def partial_window(nodes):
    """The uniform measure on the branch of 1 + z1 z2 over (0.1, 2.0), which
    is not a full turn."""
    return make_uniform_measure(trace_branch(Poly2([[1, 0], [0, 1]]), (0.1, 2.0), nodes))


WINDOW_CASES = {"window-K32": (lambda: partial_window(256), 32),
                "window-K256": (lambda: partial_window(2048), 256)}
ONE_BLOCK = ["f_0.5-K128", "f_0.4-K256", "f_0.77-K256", "narrow traced bump", "window-K32"]
SEVERAL_BLOCKS = ["closed-form bump", "window-K256"]


def block_case(name):
    """(measure, K) of an accuracy input, a partial window, or an oracle
    measure at K 128."""
    if name in ACCURACY_INPUTS:
        return accuracy_case(name)
    if name in WINDOW_CASES:
        make, K = WINDOW_CASES[name]
        return make(), K
    return oracle_measure(name), 128


class TestFourierNodeBlocks:
    @pytest.mark.parametrize("name", ONE_BLOCK)
    def test_one_block_support_is_one_matmul(self, name):
        mu, K = block_case(name)
        assert np.count_nonzero(mu.psi) <= _FOURIER_BLOCK_NODES
        got = fourier_coefficients(mu, K).coeffs
        assert np.array_equal(got, one_shot_fourier_oracle(mu, K))

    @pytest.mark.parametrize("name", SEVERAL_BLOCKS)
    def test_block_sum_within_rounding_of_one_matmul(self, name):
        # the block sums reorder the node sum, so entries move by rounding only
        mu, K = block_case(name)
        assert np.count_nonzero(mu.psi) > _FOURIER_BLOCK_NODES
        got = fourier_coefficients(mu, K).coeffs
        oracle = one_shot_fourier_oracle(mu, K)
        bound = 4 * np.finfo(float).eps * np.abs(oracle).max()
        assert np.abs(got - oracle).max() <= bound

    def test_peak_memory_at_K_256_uniform(self):
        # the one-matmul form peaks at about 41 MB under tracemalloc
        mu, K = accuracy_case("1-z1z2-K256")
        tracemalloc.start()
        try:
            fourier_coefficients(mu, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


# 2 pi to 62 significant digits
TWO_PI_EXACT = Fraction("6.2831853071795864769252867665590057683943387987502116419498892")
FULL_TURN = ["1+z1z2-K128", "1-z1z2-K256", "1+z1z2-K200"]


class TestFourierFullTurn:
    @pytest.mark.parametrize("N", [1024, 1600, 2048])
    def test_node_offsets_exact(self, N):
        # delta_j = t_j - 2 pi j / N against rational arithmetic, to the
        # rounding of delta itself
        t = TWO_PI * np.arange(N) / N
        delta = _node_offsets(t)
        exact = [Fraction(float(tj)) - TWO_PI_EXACT * j / N for j, tj in enumerate(t)]
        err = max(abs(Fraction(float(d)) - e) for d, e in zip(delta, exact))
        assert np.abs(delta).max() <= 2 * np.pi * np.finfo(float).eps
        assert err <= 2 * np.finfo(float).eps * np.abs(delta).max()

    @pytest.mark.parametrize("name", FULL_TURN + ONE_BLOCK + SEVERAL_BLOCKS)
    def test_fft_exactly_on_full_turn_support(self, name, monkeypatch):
        mu, K = block_case(name)
        calls = []
        route = capacity._full_turn_columns

        def spy(*args):
            calls.append(args)
            route(*args)

        monkeypatch.setattr(capacity, "_full_turn_columns", spy)
        fourier_coefficients(mu, K)
        assert len(calls) == (name in FULL_TURN)

    @pytest.mark.parametrize("name", FULL_TURN)
    def test_mode_blocks_equal_one_pass(self, name, monkeypatch):
        # each transform is one row of the FFT, so blocking the rows l
        # changes no bit
        mu, K = block_case(name)
        assert K + 1 > _FOURIER_BLOCK_MODES
        got = fourier_coefficients(mu, K).coeffs
        monkeypatch.setattr(capacity, "_FOURIER_BLOCK_MODES", 4 * (K + 1))
        assert np.array_equal(got, fourier_coefficients(mu, K).coeffs)


class TestPhasePowers:
    @pytest.mark.parametrize("K", [0, 1, 2, 3, 8, 15, 24, 100, 255])
    def test_rows_match_direct_exp(self, K):
        x = np.linspace(-7.0, 13.0, 37)
        got = _phase_powers(x, K)
        assert got.shape == (K + 1, x.size)
        expect = np.exp(-1j * np.outer(np.arange(K + 1), x))
        # both round the phase k x, so they differ by a few eps * k |x|
        bound = 4 * np.finfo(float).eps * max(K, 1) * np.abs(x).max()
        assert np.abs(got - expect).max() <= bound
        assert np.all(got[0] == 1.0)

    @pytest.mark.parametrize("name", list(ACCURACY_INPUTS))
    def test_row_zero_exactly_one(self, name):
        mu, K = accuracy_case(name)
        support = np.flatnonzero(mu.psi)
        for x in (mu.branch.t[support], mu.branch.m[support]):
            assert np.all(_phase_powers(x, K)[0] == 1.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("name", list(ACCURACY_INPUTS))
    def test_table_error_within_bound_and_oracle(self, name):
        # against an extended-precision reference, the table is within
        # 3e-14 of its largest entry and no worse than one exp per entry
        mu, K = accuracy_case(name)
        ref = extended_fourier_reference(mu, K)
        scale = float(np.abs(ref).max())
        got = float(np.abs(fourier_coefficients(mu, K).coeffs[K:] - ref).max()) / scale
        oracle = float(np.abs(direct_exp_fourier_oracle(mu, K)[K:] - ref).max()) / scale
        assert got <= 3e-14
        assert got <= oracle

    @pytest.mark.parametrize("name", list(ACCURACY_INPUTS))
    def test_energy_partial_sums_match_oracle(self, name):
        mu, K = accuracy_case(name)
        cutoffs = [K // 8, K // 4, K // 2, K]
        for alpha in (0.4, 0.75):
            got = riesz_energy(fourier_coefficients(mu, K), alpha, cutoffs).partial_sums
            oracle = riesz_energy(FourierTable(K, direct_exp_fourier_oracle(mu, K)),
                                  alpha, cutoffs).partial_sums
            assert np.allclose(got, oracle, rtol=1e-15, atol=0.0)


class TestDecayFit:
    def test_line_no_decay(self):
        fit = decay_fit(line_table(64), shells=5)
        assert abs(fit.slope) <= 1e-10
        assert np.allclose(fit.shell_maxima, 1.0)

    def test_type2_bound_statistic_stable(self):
        stats = []
        for K, shells in ((64, 6), (128, 7)):
            cf = closed_form_branch_fa(0.5, (0.0, TWO_PI), 8 * K)
            tab = fourier_coefficients(make_bump_measure(cf, np.pi / 2, 1.0), K)
            stats.append(decay_fit(tab, shells, tau_claimed=2.0).bound_statistic)
        assert abs(stats[1] - stats[0]) <= 0.2 * stats[0]

    def test_axis_slope_zero_for_constant_branch(self):
        br = trace_branch(Poly2([[1, -1]]), (0.0, TWO_PI), 1024)
        tab = fourier_coefficients(make_bump_measure(br, np.pi, 1.5), 64)
        along_l = [abs(entry(tab, 0, l)) for l in range(1, 65)]
        assert np.std(along_l) <= 1e-12

    def test_small_table_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(line_table(16, 512), shells=3)

    @pytest.mark.parametrize("shells", [1, 0])
    def test_shells_validated(self, shells):
        # a line through one shell reads slope 0, through none a NaN residual
        with pytest.raises(ValueError, match=f"^shells must be at least 2, got shells = {shells}$"):
            decay_fit(line_table(64), shells)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_tau_validated(self, tau):
        with pytest.raises(ValueError, match="^tau_claimed must be positive"):
            decay_fit(line_table(64), 5, tau_claimed=tau)


def riesz_energy_oracle(table, alpha, cutoffs):
    """The energy partial sums term by term from the moduli of the whole
    table, one Python sum per axis and one matrix product per double sum."""
    K = table.K
    mods2 = table.moduli() ** 2
    sums = []
    for c in cutoffs:
        ax1 = sum(mods2[K + k, K] / k ** alpha for k in range(1, c + 1))
        ax2 = sum(mods2[K, K + l] / l ** alpha for l in range(1, c + 1))
        kidx = np.concatenate([np.arange(-c, 0), np.arange(1, c + 1)])
        lidx = np.arange(1, c + 1)
        block = mods2[np.ix_(K + kidx, K + lidx)]
        wkk = np.abs(kidx).astype(float) ** (-alpha)
        wll = lidx.astype(float) ** (-alpha)
        sums.append(1.0 + ax1 + ax2 + 0.5 * float(wkk @ block @ wll))
    return sums


def energy_oracle_tables():
    """{name: table} at K 8, 64 and 256: the line and horizontal tables and
    the Fourier tables of this file's measures, where they have 8K nodes."""
    out = {}
    for K in (8, 64, 256):
        nodes = max(1024, 8 * K)
        out[f"line-K{K}"] = lambda K=K, nodes=nodes: line_table(K, nodes)
        out[f"horizontal-K{K}"] = lambda K=K, nodes=nodes: horizontal_table(K, nodes)
        # the uniform oracle measure has 1,024 nodes, too few for K 256
        for kind in MEASURE_KINDS if K <= 128 else MEASURE_KINDS[:2]:
            out[f"{kind}-K{K}"] = lambda K=K, kind=kind: fourier_coefficients(
                oracle_measure(kind), K)
        for name in ACCURACY_INPUTS:
            if ACCURACY_INPUTS[name][1] >= K:
                out[f"{name}-K{K}"] = lambda K=K, name=name: fourier_coefficients(
                    accuracy_case(name)[0], K)
    return out


ENERGY_ORACLE_TABLES = energy_oracle_tables()


class TestRieszEnergy:
    @pytest.mark.parametrize("name", list(ENERGY_ORACLE_TABLES))
    def test_slice_sums_match_term_by_term_oracle(self, name):
        # the sums over weighted sub-blocks of the slice |k|, l <= c agree
        # with the term-by-term sums over the whole table to 1e-14, with the
        # same verdict
        table = ENERGY_ORACLE_TABLES[name]()
        K = table.K
        cutoffs = [K // 8, K // 4, K // 2, K]
        for alpha in (0.4, 0.75, 1.0):
            rep = riesz_energy(table, alpha, cutoffs)
            oracle = riesz_energy_oracle(table, alpha, cutoffs)
            assert np.allclose(rep.partial_sums, oracle, rtol=1e-14, atol=0.0)
            assert rep.verdict is trend_verdict(oracle)

    def test_diagonal_convergent_above_half(self):
        rep = riesz_energy(line_table(64), 0.75, [8, 16, 32, 64])
        assert rep.verdict is TrendVerdict.CONVERGENT
        # oracle: partial sums equal 1 + 0.5 sum_{k<=c} k^(-1.5) exactly
        for c, s in zip(rep.cutoffs, rep.partial_sums):
            expect = 1.0 + 0.5 * np.sum(np.arange(1, c + 1) ** -1.5)
            assert abs(s - expect) <= 1e-10

    def test_diagonal_divergent_below_half(self):
        rep = riesz_energy(line_table(64), 0.4, [8, 16, 32, 64])
        assert rep.verdict is TrendVerdict.DIVERGENT

    def test_horizontal_divergent_at_09(self):
        rep = riesz_energy(horizontal_table(64), 0.9, [8, 16, 32, 64])
        assert rep.verdict is TrendVerdict.DIVERGENT

    def test_partial_sums_monotone(self):
        for alpha in (0.4, 0.75):
            rep = riesz_energy(line_table(64), alpha, [8, 16, 32, 64])
            s = rep.partial_sums
            assert all(b >= a for a, b in zip(s, s[1:]))

    def test_verdict_stable_under_doubling(self):
        tab = line_table(128, 2048)
        r1 = riesz_energy(tab, 0.75, [8, 16, 32, 64])
        r2 = riesz_energy(tab, 0.75, [16, 32, 64, 128])
        assert r1.verdict is r2.verdict is TrendVerdict.CONVERGENT

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            riesz_energy(line_table(48, 512), 1.5, [8, 16, 32])

    def test_cutoffs_validated(self):
        with pytest.raises(ValueError):
            riesz_energy(line_table(48, 512), 0.75, [64, 32])

    @pytest.mark.parametrize("cutoffs", [[8, 8, 16, 32, 64], [8, 16, 16, 32, 64]])
    def test_repeated_cutoff_rejected(self, cutoffs):
        # a repeat adds a zero increment, which the trend reads as ratio 0:
        # on 1 + z1 z2 at alpha 0.3 it turned DivergentTrend into Inconclusive
        tab = line_table(64)
        assert riesz_energy(tab, 0.3, [8, 16, 32, 64]).verdict is TrendVerdict.DIVERGENT
        with pytest.raises(ValueError, match="strictly increasing"):
            riesz_energy(tab, 0.3, cutoffs)


class TestTrendVerdict:
    def test_geometric_convergent(self):
        s = [1.0, 1.5, 1.75, 1.875]
        assert trend_verdict(s) is TrendVerdict.CONVERGENT

    def test_growing_divergent(self):
        s = [1.0, 2.0, 3.5, 5.5]
        assert trend_verdict(s) is TrendVerdict.DIVERGENT

    def test_flat_is_convergent(self):
        s = [2.0, 2.0, 2.0, 2.0]
        assert trend_verdict(s) is TrendVerdict.CONVERGENT

    def test_mixed_inconclusive(self):
        s = [1.0, 1.1, 1.8, 1.85]
        assert trend_verdict(s) is TrendVerdict.INCONCLUSIVE


class TestBranchMeasure:
    # |m''| of f_eps reaches 50 eps, and the order-2 cut is 1e-7
    def test_near_line_without_type_two_is_uniform(self):
        mu = branch_measure(f_eps(1.5e-9), 64)
        assert mu.profile == "uniform"

    def test_near_line_with_type_two_is_bump(self):
        mu = branch_measure(f_eps(3e-9), 64)
        assert mu.profile == "bump"
        center = float(mu.branch.t[np.argmax(mu.psi)])
        assert curve_type_at(mu.branch, center).tau == 2

    @pytest.mark.parametrize("f", [
        Poly2([[1, 0], [0, 1]]), Poly2([[1, 0], [0, -1]]), Poly2([[1, -1]]),
        fa_poly(1e-8), fa_poly(0.25), fa_poly(0.5), fa_poly(0.75),
        f_eps(1e-8), f_eps(1.5e-8), f_eps(3e-8),
    ], ids=["1+z1z2", "1-z1z2", "1-z2", "f_1e-8", "f_0.25", "f_0.5", "f_0.75",
            "f_eps_1e-8", "f_eps_1.5e-8", "f_eps_3e-8"])
    def test_bump_exactly_when_steepest_bend_has_type_two(self, f):
        mu = branch_measure(f, 64)
        br = mu.branch
        tau = curve_type_at(br, float(br.t[np.argmax(np.abs(br.derivatives[1]))])).tau
        assert (mu.profile == "bump") == (tau == 2)
        assert branch_measure(f, 64, uniform=True).profile == "uniform"


class TestCertificate:
    def test_fa_above_threshold(self):
        rep = noncyclicity_certificate(fa_poly(0.5), 0.6, K=64)
        assert rep.verdict is TrendVerdict.CONVERGENT

    def test_line_at_075(self, f0):
        rep = noncyclicity_certificate(f0, 0.75, K=64)
        assert rep.verdict is TrendVerdict.CONVERGENT

    def test_line_below_threshold_diverges(self, f0):
        rep = noncyclicity_certificate(f0, 0.4, K=64)
        assert rep.verdict is TrendVerdict.DIVERGENT

    @pytest.mark.parametrize("K", [-1, 0, 4, 7])
    def test_K_below_eight_named(self, f0, K):
        with pytest.raises(ValueError, match=f"^K must be at least 8, got K = {K}$"):
            noncyclicity_certificate(f0, 0.75, K=K)

    def test_smallest_K(self, f0):
        rep = noncyclicity_certificate(f0, 0.75, K=8)
        assert rep.cutoffs == (1, 2, 4, 8)

    def test_requires_curve(self, two_minus):
        with pytest.raises(ValueError, match="curve"):
            noncyclicity_certificate(two_minus, 0.75, K=64)


def whole_lattice_cofactor_oracle(f, zeros, q, N, grid):
    """The cofactor experiment on the whole lattice at once, as before it
    ran in row blocks: (weighted_sums, verdict values, sup_norm)."""
    zeros = list(zeros)
    w = np.exp(1j * TWO_PI * np.arange(grid) / grid)
    fv = direct_lattice_values(f, w)
    zeta = np.asarray(zeros, dtype=complex).reshape(-1, 2)
    a = np.prod(w[:, None] - zeta[:, 0], axis=1) ** q
    b = np.prod(w[:, None] - zeta[:, 1], axis=1) ** q
    q0v = np.outer(a ** N, b ** N)
    tiny = np.abs(fv) <= ZERO_VALUE_TOL * f.scale
    for i, j in zip(*np.nonzero(tiny)):
        p1, p2 = w[i], w[j]
        if not any(abs(p1 - z1) + abs(p2 - z2) < SAME_POINT_TOL for (z1, z2) in zeros):
            raise ValueError(f"f vanishes on the lattice at ({p1:.6g}, {p2:.6g}) away from "
                             "the supplied zeros")
    qv = np.divide(q0v, fv, out=np.zeros_like(fv), where=~tiny)
    sup = float(np.abs(qv).max())
    cutoffs = [grid // 8, grid // 4, grid // 2 - 1]
    kmax = cutoffs[-1]
    qhat = np.fft.fft(np.fft.fft(qv, axis=1)[:, : kmax + 1], axis=0)[: kmax + 1]
    block = np.abs(qhat / (grid * grid)) ** 2
    sums, verdicts = {}, {}
    for beta in (1, 2):
        wk = (np.arange(kmax + 1) + 1.0) ** beta
        weighted = block * wk[:, None] * wk[None, :]
        sums[beta] = [float(weighted[: c + 1, : c + 1].sum()) for c in cutoffs]
        verdicts[beta] = trend_verdict(sums[beta]).value
    return sums, verdicts, sup


U_ROT, V_ROT = np.exp(0.3j), np.exp(-1.1j)
CORNERS = [(s1 + 0j, s2 + 0j) for s1 in (1, -1) for s2 in (1, -1)]
COFACTOR_INPUTS = {
    "2-z1-z2-g256": (Poly2([[2, -1], [-1, 0]]), [(1 + 0j, 1 + 0j)], 256),
    "2-z1-z2-g512": (Poly2([[2, -1], [-1, 0]]), [(1 + 0j, 1 + 0j)], 512),
    "2-z1-z2-g1024": (Poly2([[2, -1], [-1, 0]]), [(1 + 0j, 1 + 0j)], 1024),
    "2-z1^2-z2^2-corners": (Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]]), CORNERS, 512),
    "rotated": (Poly2([[2, -V_ROT], [-U_ROT, 0]]), [(np.conj(U_ROT), np.conj(V_ROT))], 512),
    "3+z1+z2-no-zeros": (Poly2([[3, 1], [1, 0]]), [], 256),
}


class TestCofactorRowBlocks:
    @pytest.mark.parametrize("q", [1, 4])
    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize("name", list(COFACTOR_INPUTS))
    def test_bit_identical_to_whole_lattice(self, name, q, N):
        f, zeros, grid = COFACTOR_INPUTS[name]
        sums, verdicts, sup = whole_lattice_cofactor_oracle(f, zeros, q, N, grid)
        report = cofactor_experiment(f, zeros, q, N, grid)
        assert report.weighted_sums == sums
        assert {b: v.value for b, v in report.verdicts.items()} == verdicts
        assert report.sup_norm == sup

    @pytest.mark.parametrize("dropped", range(5))
    def test_same_error_for_a_missing_zero(self, dropped):
        # each lattice corner left out of the zeros (or all of them) must be
        # reported at the same first point, in the same words
        f = Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]])
        zeros = [z for k, z in enumerate(CORNERS) if k != dropped] if dropped < 4 else []
        with pytest.raises(ValueError) as expect:
            whole_lattice_cofactor_oracle(f, zeros, 1, 1, 256)
        with pytest.raises(ValueError, match="away from") as got:
            cofactor_experiment(f, zeros, 1, 1, 256)
        assert str(got.value) == str(expect.value)

    def test_peak_memory_at_grid_1024(self, two_minus):
        # the whole-lattice form peaks above 70 MB under tracemalloc, the
        # whole second FFT pass at about 26 MB
        tracemalloc.start()
        try:
            cofactor_experiment(two_minus, [(1 + 0j, 1 + 0j)], 1, 4, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestCofactor:
    def test_sup_norm_stable_q1(self, two_minus):
        zeros = [(1 + 0j, 1 + 0j)]
        sups = [cofactor_experiment(two_minus, zeros, 1, 1, g).sup_norm
                for g in (256, 512)]
        assert 0.9 <= sups[1] / sups[0] <= 1.1

    def test_n4_beta2_convergent(self, two_minus):
        zeros = [(1 + 0j, 1 + 0j)]
        report = cofactor_experiment(two_minus, zeros, 1, 4, 256)
        assert report.verdicts[2] is TrendVerdict.CONVERGENT
        for beta in (1, 2):
            s = report.weighted_sums[beta]
            assert all(b >= a for a, b in zip(s, s[1:]))

    def test_smooth_reciprocal(self):
        report = cofactor_experiment(Poly2([[3, 1], [1, 0]]), [], 0, 1, 256)
        assert report.verdicts[1] is TrendVerdict.CONVERGENT
        assert report.verdicts[2] is TrendVerdict.CONVERGENT

    def test_sup_at_verdict_zeros(self):
        # the verdict's four zeros (+-1, +-1) of 2 - z1^2 - z2^2 explain every
        # lattice zero; sup |Q0^4 / f| is 2^16 / 4, at z1 = z2 = i
        f = Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]])
        zeros = classify([f]).per_factor[0].torus_zeros.points
        assert len(zeros) == 4
        report = cofactor_experiment(f, list(zeros), 1, 4, 512)
        assert report.sup_norm == pytest.approx(16384.0, rel=1e-9)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("N", [1, 4])
    def test_q0_matches_poly2_product(self, q, N):
        # reference: Q0 built as a Poly2 product and put on the lattice by FFT
        f = Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]])
        zeros = [(s1 + 0j, s2 + 0j) for s1 in (1, -1) for s2 in (1, -1)]
        grid = 256
        q0 = Poly2.constant(1.0)
        for z1, z2 in zeros:
            for _ in range(q):
                q0 = q0 * Poly2([[-z1], [1.0]]) * Poly2([[-z2, 1.0]])
        fv = lattice_values(f, grid)
        good = np.abs(fv) > 1e-10 * f.scale
        qv = np.zeros_like(fv)
        qv[good] = lattice_values(q0, grid)[good] ** N / fv[good]
        qhat2 = np.abs(np.fft.fft2(qv) / grid ** 2) ** 2
        report = cofactor_experiment(f, zeros, q, N, grid)
        assert report.sup_norm == pytest.approx(np.abs(qv).max(), rel=1e-12)
        for beta in (1, 2):
            wk = (np.arange(grid) + 1.0) ** beta
            weighted = qhat2 * wk[:, None] * wk[None, :]
            expect = [weighted[: c + 1, : c + 1].sum() for c in report.cutoffs]
            assert report.weighted_sums[beta] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("grid", [256, 1024])
    def test_direct_lattice_values_match_ifft2(self, grid):
        rng = np.random.default_rng(grid)
        polys = [Poly2([[2, -1], [-1, 0]]), Poly2([[2, 0, -1], [0, 0, 0], [-1, 0, 0]]),
                 Poly2(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))]
        w = np.exp(1j * TWO_PI * np.arange(grid) / grid)
        for f in polys:
            err = np.abs(direct_lattice_values(f, w) - lattice_values(f, grid)).max()
            assert err <= 1e-13 * f.scale

    def test_zeros_read_once(self, two_minus):
        # the zeros are read twice, so a one-pass iterable must be listed first
        listed = cofactor_experiment(two_minus, [(1, 1)], 1, 1, 256)
        once = cofactor_experiment(two_minus, (z for z in [(1, 1)]), 1, 1, 256)
        assert once == listed
        assert once.sup_norm == pytest.approx(1.0)

    def test_unexplained_zero_rejected(self, two_minus):
        with pytest.raises(ValueError, match="away from"):
            cofactor_experiment(two_minus, [], 1, 1, 256)

    def test_q_and_N_validated(self, two_minus):
        zeros = [(1 + 0j, 1 + 0j)]
        with pytest.raises(ValueError, match="^q must be at least 0, got q = -1$"):
            cofactor_experiment(two_minus, zeros, -1, 1, 256)
        with pytest.raises(ValueError, match="^N must be at least 0, got N = -2$"):
            cofactor_experiment(two_minus, zeros, 1, -2, 256)
        # zero stays allowed: q = 0 and N = 0 both give Q = 1/f
        a = cofactor_experiment(two_minus, zeros, 0, 3, 256)
        b = cofactor_experiment(two_minus, zeros, 1, 0, 256)
        assert (a.weighted_sums, a.sup_norm) == (b.weighted_sums, b.sup_norm)

    def test_grid_validated(self, two_minus):
        with pytest.raises(ValueError):
            cofactor_experiment(two_minus, [(1 + 0j, 1 + 0j)], 1, 1, 200)
        with pytest.raises(ValueError):
            cofactor_experiment(two_minus, [(1 + 0j, 1 + 0j)], 1, 1, 128)
