import numpy as np
import pytest

from bicyclic._roots import interpolate_roots_of_unity, roots_low_first
from bicyclic.detrep import (AglerPair, DetRep, load_pair_dataset,
                             polynomial_from_unitary, random_unitary,
                             unitary_from_pair, verify_agler_identity)
from bicyclic.poly2 import (Poly2, coeff_distance, compute_h, normalize_symmetric,
                            unimodular_slice_roots)
from bicyclic.stability import bidisk_zero_scan
from conftest import torus_samples

INNER_RADIUS_TOL = 1e-8     # a det P root below 1 - tol lies inside the disk


def rotation_family(a: float) -> np.ndarray:
    b = np.sqrt(1.0 - a * a)
    return np.array([[a, -b], [b, a]])


def p_matrix(pair: AglerPair) -> np.ndarray:
    """(n, n, d+1) array: entry [i, j] holds the z2-coefficients of the
    z1^j component of P_i."""
    n = pair.n
    dmax = max(p.bidegree[1] for p in pair.P)
    return np.array([p.padded((n, dmax + 1)) for p in pair.P])


def det_p_extraction(pair_or_matrix) -> np.ndarray:
    """Determinant of the z2-coefficient matrix P(z2) as a univariate polynomial.

    Accepts an AglerPair or a raw (n, n, d+1) coefficient array.  Evaluates
    the matrix determinant at enough roots of unity, interpolates, and
    asserts the result has no roots strictly inside the unit disk.
    """
    if isinstance(pair_or_matrix, AglerPair):
        mat = p_matrix(pair_or_matrix)
    else:
        mat = np.asarray(pair_or_matrix, dtype=complex)
        if mat.ndim != 3 or mat.shape[0] != mat.shape[1]:
            raise ValueError("expected an (n, n, d+1) coefficient array")
    n, _, dp1 = mat.shape
    S = n * (dp1 - 1) + 1
    nodes = np.exp(2j * np.pi * np.arange(S) / S)
    V = nodes[:, None] ** np.arange(dp1)[None, :]
    dets = np.linalg.det(np.einsum("ijd,sd->sij", mat, V))
    coeffs = interpolate_roots_of_unity(dets)
    for r in roots_low_first(coeffs):
        if abs(r) < 1.0 - INNER_RADIUS_TOL:
            raise ValueError(
                f"det P has a zero at {r:.6g} inside the unit disk; pair invalid")
    return coeffs


def sampled_procrustes_oracle(f: Poly2, pair: AglerPair) -> np.ndarray:
    """The unitary mapping (z1 P, z2 Q) to (P, Q) at torus zeros of f, by an
    orthogonal Procrustes fit over the zeros on 64 circle slices."""
    nodes = np.exp(1j * (np.linspace(0.0, 2 * np.pi, 64, endpoint=False) + 0.05))
    z2, which, _ = unimodular_slice_roots(f, nodes)
    z1 = nodes[which]
    Pv = np.array([p(z1, z2) for p in pair.P])
    Qv = np.array([q(z1, z2) for q in pair.Q])
    X = np.vstack([z1 * Pv, z2 * Qv])
    Y = np.vstack([Pv, Qv])
    W, _, Vh = np.linalg.svd(Y @ X.conj().T)
    return W @ Vh


# (name, g, pair): the f0 pair of 1 + z1 z2 and every bundled pair, g the
# normalized f
BUNDLED = [("f0-fixture", Poly2([[1, 0], [0, 1]]),
            AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),)))] + [
    (name, normalize_symmetric(entry["f"])[0], AglerPair(entry["P"], entry["Q"]))
    for name, entry in load_pair_dataset().items()]


class TestPolynomialFromUnitary:
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_degree_one_family(self, a):
        f = polynomial_from_unitary(DetRep(1.0, rotation_family(a), 1, 1))
        expect = Poly2([[1, -a], [-a, 1]])
        assert coeff_distance(f, expect) <= 1e-10

    def test_rotation_matrix(self):
        U = np.array([[0.0, -1.0], [1.0, 0.0]])
        f = polynomial_from_unitary(DetRep(1.0, U, 1, 1))
        assert coeff_distance(f, Poly2([[1, 0], [0, 1]])) <= 1e-12

    def test_identity_matrix(self):
        f = polynomial_from_unitary(DetRep(1.0, np.eye(2), 1, 1))
        assert coeff_distance(f, Poly2([[1, -1], [-1, 1]])) <= 1e-12

    def test_scale(self):
        f = polynomial_from_unitary(DetRep(2j, np.eye(2), 1, 1))
        assert coeff_distance(f, Poly2([[2j, -2j], [-2j, 2j]])) <= 1e-12

    def test_unitarity_validated(self):
        with pytest.raises(ValueError, match="unitary"):
            DetRep(1.0, np.array([[1.0, 0.0], [0.0, 1.1]]), 1, 1)

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            DetRep(1.0, np.full((2, 2), np.nan), 1, 1)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DetRep(1.0, np.eye(3), 1, 1)

    def test_negative_block_size_rejected(self):
        # n + m = 2 matches the 2x2 unitary, so only the sign can reject it
        with pytest.raises(ValueError, match="^block sizes must be at least 0, got n = -1, m = 3$"):
            DetRep(1.0, np.eye(2), -1, 3)

    def test_constant_term_is_scale(self, rng):
        for _ in range(5):
            U = random_unitary(4, rng)
            f = polynomial_from_unitary(DetRep(1.5 - 0.5j, U, 2, 2))
            assert abs(f.coeffs[0, 0] - (1.5 - 0.5j)) <= 1e-10


class TestAglerIdentity:
    def test_f0_pair(self, f0):
        pair = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),))
        assert verify_agler_identity(f0, pair) <= 1e-12

    def test_wrong_pair_fails(self, f0):
        # right shapes, wrong scale: the identity residual exposes it
        bad = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 4.0),))
        assert verify_agler_identity(f0, bad) > 0.1

    def test_out_of_shape_pair_rejected_early(self):
        # Q = 2 z2 breaks the bidegree bound (n, m-1) and never constructs
        with pytest.raises(ValueError, match="exceeds"):
            AglerPair((Poly2.constant(2.0),), (Poly2.monomial(0, 1, 2.0),))

    def test_degenerate_pair(self, f0):
        zero_pair = AglerPair((Poly2.zero(),), (Poly2.zero(),))
        # residual equals the largest coefficient of ht ht* - h h*
        assert verify_agler_identity(f0, zero_pair) > 0.1

    def test_requires_symmetric_f(self, two_minus):
        pair = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),))
        with pytest.raises(ValueError, match="normalize"):
            verify_agler_identity(two_minus, pair)

    def test_shape_mismatch(self, f0):
        pair = AglerPair((Poly2.constant(2.0), Poly2.constant(1.0)),
                         (Poly2.monomial(1, 0, 2.0),))
        with pytest.raises(ValueError, match="shape"):
            verify_agler_identity(f0, pair)

    def test_dataset_pairs(self):
        ds = load_pair_dataset()
        for name in ("f0", "fa_025", "fa_05", "fa_075"):
            entry = ds[name]
            pair = AglerPair(entry["P"], entry["Q"])
            assert verify_agler_identity(entry["f"], pair) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 0.1, 1.0])
    def test_scaled_q_residual_is_the_q_kernel(self, eps):
        # with Q scaled by 1 + eps the two sides differ by exactly
        # (2 eps + eps^2) K_Q, K_Q(z, w) = (1 - z2 conj(w2)) Q(w)* Q(z)
        ds = load_pair_dataset()
        for name in ("f0", "fa_025", "fa_05", "fa_075"):
            entry = ds[name]
            n, m = entry["f"].bidegree
            KQ = 0
            for q in entry["Q"]:
                g = q.padded((n + 1, m + 1))
                zg = np.zeros_like(g)
                zg[:, 1:] = g[:, :-1]           # z2 q
                KQ = KQ + np.multiply.outer(g, np.conj(g)) - np.multiply.outer(zg, np.conj(zg))
            scaled = AglerPair(entry["P"], tuple(q * (1 + eps) for q in entry["Q"]))
            expect = (2 * eps + eps * eps) * np.abs(KQ).max()
            assert verify_agler_identity(entry["f"], scaled) == pytest.approx(expect, rel=1e-12)


class TestUnitaryFromPair:
    def test_f0_reconstruction(self, f0):
        pair = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),))
        rep = unitary_from_pair(f0, pair)
        assert np.abs(rep.U - np.array([[0, -1], [1, 0]])).max() <= 1e-8
        assert coeff_distance(polynomial_from_unitary(rep), f0) <= 1e-8

    def test_family_roundtrip_from_dataset(self):
        ds = load_pair_dataset()
        for name, a in (("fa_025", 0.25), ("fa_05", 0.5), ("fa_075", 0.75)):
            entry = ds[name]
            rep = unitary_from_pair(entry["f"], AglerPair(entry["P"], entry["Q"]))
            regen = polynomial_from_unitary(rep)
            assert coeff_distance(regen, Poly2([[1, -a], [-a, 1]])) <= 1e-8

    def test_normalized_diagonal_line(self):
        ds = load_pair_dataset()
        entry = ds["one_minus_z1z2"]
        g, _ = normalize_symmetric(entry["f"])  # 1 - z1 z2 has lambda = -1
        rep = unitary_from_pair(g, AglerPair(entry["P"], entry["Q"]))
        assert coeff_distance(polynomial_from_unitary(rep), g) <= 1e-8
        assert np.abs(np.abs(rep.U) - np.array([[0, 1], [1, 0]])).max() <= 1e-8

    def test_invalid_pair_rejected(self, f0):
        bad = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 1.0),))
        with pytest.raises(ValueError, match="identity"):
            unitary_from_pair(f0, bad)

    def test_degree_bounds_validated(self):
        with pytest.raises(ValueError, match="exceeds"):
            AglerPair((Poly2.monomial(1, 0),), (Poly2.monomial(1, 0),))
        with pytest.raises(ValueError, match="exceeds"):
            AglerPair((Poly2.constant(1.0),), (Poly2.monomial(0, 1),))

    @pytest.mark.parametrize("name,g,pair", BUNDLED, ids=[b[0] for b in BUNDLED])
    def test_exact_closure_matches_sampled_oracle(self, name, g, pair):
        # the unitary closed from the coefficient colligation is the one the
        # Procrustes fit over sampled torus zeros finds
        rep = unitary_from_pair(g, pair)
        size = rep.n + rep.m
        assert np.abs(rep.U - sampled_procrustes_oracle(g, pair)).max() <= 1e-12
        assert np.abs(rep.U.conj().T @ rep.U - np.eye(size)).max() <= 1e-14
        assert coeff_distance(polynomial_from_unitary(rep), g) <= 1e-14 * g.scale


class TestDetPExtraction:
    def test_f0(self):
        pair = AglerPair((Poly2.constant(2.0),), (Poly2.monomial(1, 0, 2.0),))
        p = det_p_extraction(pair)
        assert p.size == 1 and abs(p[0] - 2.0) <= 1e-12

    def test_fa_degree_bound(self):
        ds = load_pair_dataset()
        pair = AglerPair(ds["fa_05"]["P"], ds["fa_05"]["Q"])
        mat = p_matrix(pair)
        p = det_p_extraction(pair)
        n, _, dp1 = mat.shape
        assert p.size <= n * (dp1 - 1) + 1

    def test_inner_root_rejected(self):
        # diag(1 - 2 z2, 1) has det root at z2 = 1/2
        mat = np.zeros((2, 2, 2), dtype=complex)
        mat[0, 0] = [1.0, -2.0]
        mat[1, 1] = [1.0, 0.0]
        with pytest.raises(ValueError, match="inside the unit disk"):
            det_p_extraction(mat)


class TestGeneratedFamilies:
    def test_no_open_zeros_and_symmetry(self, rng):
        for _ in range(25):
            size = int(rng.integers(2, 7))
            n = int(rng.integers(1, size))
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng),
                                               n, size - n))
            scan = bidisk_zero_scan(f)
            assert not scan.has_zero_in_open_bidisk
            z1, z2 = torus_samples(rng, 60)
            ft = f.reflect()
            dev = np.abs(np.abs(f(z1, z2)) - np.abs(ft(z1, z2))).max()
            assert dev <= 1e-10 * max(1.0, f.scale)

    def test_euler_identity_on_generated(self, rng):
        for _ in range(10):
            size = int(rng.integers(2, 6))
            n = int(rng.integers(1, size))
            m = size - n
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng), n, m))
            g, _ = normalize_symmetric(f)
            h = compute_h(g)
            assert h(0.0, 0.0) == 0
            ht = h.reflect(bidegree=(n, m))
            assert coeff_distance(h + ht, (n + m) * g) <= 1e-12 * max(1.0, g.scale)
