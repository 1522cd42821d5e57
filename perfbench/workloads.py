"""Seeded inputs, operations and ground-truth checks for each workload.

A workload is cut into blocks.  Every block holds the same fixed mix of
operation kinds in a seeded order, so any whole number of blocks runs the
mix exactly and the seed only changes the random parameters (unitaries,
family parameters, rotations) and the order.  Ground truth comes from how
each input was built, never from running the program.

Every call into bicyclic goes through the package objects handed in
(``bc.classify``, ``cli.run``), looked up at call time, so a tracer that
swaps module attributes sees the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

ALL, ONE, HALF, NOT = ("CyclicAllAlpha", "CyclicIffAlphaLeqOne",
                       "CyclicIffAlphaLeqHalf", "NotCyclicAnyAlpha")
# a product takes the smallest range of its factors
RANK = {NOT: 0, HALF: 1, ONE: 2, ALL: 3}
# det(I - U diag(z1 I_n, z2 I_m)) has its zeros where max |z_i| >= 1 and a
# zero curve on the torus; evaluating it at r z moves that curve to radius 1/r
RADIUS_TRUTH = {0.9: ALL, 1.0: HALF, 1 / 0.9: NOT}
EXIT_CODE = {ALL: 0, ONE: 3, HALF: 4, NOT: 5}
CONVERGENT = "ConvergentTrend"


@dataclass
class Op:
    """One timed call with its check.

    ``check`` gets the return value and says whether it is right.
    ``known_defect`` gets (result, exception) and says whether the outcome
    is the documented wrong behaviour of the program at the commit that
    defined the benchmark; such ops still fail, but are counted apart.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_defect: Callable[[object, BaseException | None], bool] | None = None
    prepare: Callable[[], None] | None = None


def _grid(terms: dict, n: int, m: int) -> np.ndarray:
    a = np.zeros((n + 1, m + 1), dtype=complex)
    for (k, l), c in terms.items():
        a[k, l] = c
    return a


def two_minus_powers(k: int, d: float = 0.0, u: complex = 1.0, v: complex = 1.0) -> np.ndarray:
    """Coefficients of 2 - u z1^k - (1 + d) v z2^k."""
    return _grid({(0, 0): 2.0, (k, 0): -u, (0, k): -(1.0 + d) * v}, k, k)


def fa_coeffs(a: float) -> np.ndarray:
    """Coefficients of 1 - a z1 - a z2 + z1 z2 for real a."""
    return _grid({(0, 0): 1.0, (1, 0): -a, (0, 1): -a, (1, 1): 1.0}, 1, 1)


def one_plus_z1z2(sign: float) -> np.ndarray:
    return _grid({(0, 0): 1.0, (1, 1): sign}, 1, 1)


def diagonal_distances(alpha: float, caps) -> list[float]:
    """d_N for 1 +/- z1 z2, exactly.

    The problem is invariant under (z1, z2) -> (e^{is} z1, e^{-is} z2), so
    the optimal p is a polynomial in w = z1 z2 of degree floor(N/2), and the
    one-variable problem for 1 +/- w with weights (k+1)^(2 alpha) has
    d^2 = 1 / sum_{k=0}^{floor(N/2)+1} (k+1)^(-2 alpha).
    """
    return [float(1.0 / np.sqrt(np.sum((np.arange(N // 2 + 2) + 1.0) ** (-2 * alpha))))
            for N in caps]


def cap_zero_distance(coeffs: np.ndarray, alpha: float) -> float:
    """d_0 = sqrt(1 - |f(0)|^2 / ||f||^2): projection of 1 onto span{f}."""
    K, L = coeffs.shape
    w = (np.arange(K)[:, None] + 1.0) ** alpha * (np.arange(L)[None, :] + 1.0) ** alpha
    norm2 = float(np.sum(w * np.abs(coeffs) ** 2))
    return float(np.sqrt(max(0.0, 1.0 - abs(coeffs[0, 0]) ** 2 / norm2)))


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(y), 1e-300)


def _same_points(found, expected, tol: float = 1e-6) -> bool:
    """Whether two lists of torus points (z1, z2) agree as sets."""
    if len(found) != len(expected):
        return False
    return all(any(abs(p[0] - q[0]) + abs(p[1] - q[1]) <= tol for p in found)
               for q in expected)


def _shuffled(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


class Workload:
    """Base: a fixed pool of pre-generated blocks, reused cyclically."""

    name: str
    # nominal block time on a 2-core x86 box at the defining commit; only
    # used to size traced runs, so that their counts repeat exactly
    block_seconds: float
    blocks: list

    def block(self, i: int) -> list[Op]:
        return self.blocks[i % len(self.blocks)]


# -- classify-mix --------------------------------------------------------------

class ClassifyMix(Workload):
    """``classify`` on 1-3 factor lists: determinantal factors at three radii,
    finite-zero factors, the nine bundled cases and the hard inputs."""

    name = "classify-mix"
    block_seconds = 8.0
    pool_blocks = 16

    # The scan cost of an interior-zero input moves about 3x with its unitary,
    # which would make the spread between seeds that of a handful of draws.
    # Those inputs take their unitaries from this fixed stream instead, and
    # the seed rotates them, (z1, z2) -> (e^{is} z1, e^{it} z2), which keeps
    # both the verdict and the size of the zero pocket.
    interior_stream = 1408

    def __init__(self, bc, cli, seed: int, workdir: str):
        self.bc = bc
        self.fixed = np.random.default_rng(self.interior_stream)
        rng = np.random.default_rng([seed, 1])
        self.blocks = [self._make_block(rng) for _ in range(self.pool_blocks)]

    def _det(self, n: int, r: float, rng):
        bc = self.bc
        interior = RADIUS_TRUTH[r] == NOT
        U = bc.random_unitary(2 * n, self.fixed if interior else rng)
        f = bc.polynomial_from_unitary(bc.DetRep(1.0, U, n, n))
        k = np.arange(n + 1)
        scale = r ** (k[:, None] + k[None, :])
        if interior:
            s, t = rng.uniform(0.0, 2 * np.pi, 2)
            scale = scale * np.exp(1j * (s * k[:, None] + t * k[None, :]))
        return bc.Poly2(f.coeffs * scale), RADIUS_TRUTH[r]

    def _op(self, kind: str, factors, truths, known_defect=None) -> Op:
        bc = self.bc
        expected = min(truths, key=RANK.get)

        def check(v) -> bool:
            return (v.threshold.label == expected
                    and [fa.threshold.label for fa in v.per_factor] == list(truths))

        return Op(kind, lambda: bc.classify(factors), check, known_defect)

    def _make_block(self, rng) -> list[Op]:
        P = self.bc.Poly2
        r_in, r_on, r_out = 0.9, 1.0, 1 / 0.9
        f1 = (P(two_minus_powers(1)), ONE)
        f2 = (P(two_minus_powers(2)), ONE)
        ops = []
        for n in (1, 2, 3, 4):
            for r in (r_in, r_on, r_out):
                f, t = self._det(n, r, rng)
                ops.append(self._op(f"det{n}-{RADIUS_TRUTH[r]}", [f], [t]))
        ops.append(self._op("finite-2-z1-z2", [f1[0]], [ONE]))
        ops.append(self._op("finite-2-z1^2-z2^2", [f2[0]], [ONE]))
        for kind, items in (
                ("list2", [self._det(1, r_in, rng), f1]),
                ("list2", [self._det(2, r_on, rng), self._det(1, r_in, rng)]),
                ("list3", [f2, self._det(1, r_on, rng), self._det(2, r_in, rng)]),
                ("list3", [self._det(1, r_out, rng), f1, self._det(1, r_on, rng)])):
            ops.append(self._op(kind, [f for f, _ in items], [t for _, t in items]))
        for _, grids, expected in bundled_cases():
            ops.append(self._op("bundled", [P(g) for g in grids], expected))
        for k in (3, 4):
            # stable and irreducible with k^2 torus zeros of high multiplicity
            ops.append(self._op(f"hard-2-z1^{k}-z2^{k}", [P(two_minus_powers(k))], [ONE],
                                known_defect=_raises_likely_reducible))
        for d in (1e-2, 1e-3):
            # zeros inside the bidisk, e.g. z1 = 1 - d/4, z2 = (2 - z1)/(1 + d)
            ops.append(self._op(f"hard-2-z1-(1+{d:g})z2", [P(two_minus_powers(1, d))], [NOT],
                                known_defect=_returns(ONE)))
        return _shuffled(ops, rng)

    def warm_up(self) -> None:
        P = self.bc.Poly2
        rng = np.random.default_rng(0)
        for r in RADIUS_TRUTH:
            self.bc.classify([self._det(1, r, rng)[0]])
        self.bc.classify([P(two_minus_powers(1))])


def bundled_cases():
    """The nine bundled examples: (name, factor grids, per-factor truth)."""
    return [
        ("z1 - 1", [[[-1], [1]]], [ONE]),
        ("2 - z1 - z2", [two_minus_powers(1)], [ONE]),
        ("1 + z1 z2", [one_plus_z1z2(1.0)], [HALF]),
        ("1 - z1 z2", [one_plus_z1z2(-1.0)], [HALF]),
        ("f_a, a=0.25", [fa_coeffs(0.25)], [HALF]),
        ("f_a, a=0.5", [fa_coeffs(0.5)], [HALF]),
        ("f_a, a=0.75", [fa_coeffs(0.75)], [HALF]),
        ("(1 - z1)(1 - z2)", [[[1], [-1]], [[1, -1]]], [ONE, ONE]),
        ("3 + z1 + z2", [[[3, 1], [1, 0]]], [ALL]),
    ]


def _raises_likely_reducible(result, exc) -> bool:
    return isinstance(exc, ValueError) and "likely reducible" in str(exc)


def _returns(label: str):
    def known(result, exc) -> bool:
        return exc is None and result.threshold.label == label
    return known


# -- evidence ------------------------------------------------------------------

ALPHAS = (0.25, 0.75)
CAPS_24 = (0, 8, 16, 24)
CAPS_32 = (0, 8, 16, 24, 32)


class Evidence(Workload):
    """One factor per op: ``classify_with_evidence`` at alphas 0.25 and 0.75,
    plus ``cofactor_experiment`` on the verdict's torus zeros when they are
    finitely many."""

    name = "evidence"
    block_seconds = 3.6
    pool_blocks = 24

    def __init__(self, bc, cli, seed: int, workdir: str):
        self.bc = bc
        rng = np.random.default_rng([seed, 2])
        self.blocks = [self._make_block(rng) for _ in range(self.pool_blocks)]

    def _op(self, kind, coeffs, expected, caps, K=128, grid=512, zeros=(), sup=None,
            exact=None, known_defect=None) -> Op:
        bc = self.bc
        f = bc.Poly2(coeffs)

        def run():
            v = bc.classify_with_evidence([f], ALPHAS, list(caps), certificate_K=K)
            cof = None
            tz = v.per_factor[0].torus_zeros
            if tz is not None and tz.kind is bc.TorusZeroKind.FINITE:
                cof = bc.cofactor_experiment(f, list(tz.points), 1, 4, grid)
            return v, cof

        def check(result) -> bool:
            v, cof = result
            if v.threshold.label != expected or v.flags or len(v.evidence) != len(ALPHAS):
                return False
            for ev, alpha in zip(v.evidence, ALPHAS):
                dists = [r.distance for r in ev.profile]
                if ev.alpha != alpha or [r.degree_cap for r in ev.profile] != list(caps):
                    return False
                if not _close(dists[0], cap_zero_distance(coeffs, alpha), 1e-9):
                    return False
                if exact is not None and not all(
                        _close(d, e, 1e-8) for d, e in zip(dists, exact(alpha, caps))):
                    return False
                wants_cert = expected == HALF and alpha > 0.5
                if wants_cert != (ev.certificate is not None):
                    return False
                if wants_cert and ev.certificate.verdict.value != CONVERGENT:
                    return False
            if expected != ONE:
                return cof is None
            # Q = Q0^4 / f is bounded with sup |Q| reached at a lattice point
            # and smooth enough that both weighted sums converge
            return (cof is not None
                    and _same_points(v.per_factor[0].torus_zeros.points, zeros)
                    and all(cof.verdicts[b].value == CONVERGENT for b in (1, 2))
                    and 0.99 * sup <= cof.sup_norm <= sup * (1 + 1e-9))

        return Op(kind, run, check, known_defect)

    def _make_block(self, rng) -> list[Op]:
        a1, a2 = rng.uniform(0.2, 0.8, 2)
        ones = [(1, 1)]
        corners = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
        ops = [
            self._op("fa-N24-K128", fa_coeffs(a1), HALF, CAPS_24, K=128),
            self._op("fa-N32-K256", fa_coeffs(a2), HALF, CAPS_32, K=256),
            self._op("1+z1z2-N32-K128", one_plus_z1z2(1.0), HALF, CAPS_32, K=128,
                     exact=diagonal_distances),
            self._op("1-z1z2-N24-K256", one_plus_z1z2(-1.0), HALF, CAPS_24, K=256,
                     exact=diagonal_distances),
            # sup |(z1-1)^4 (z2-1)^4 / (2-z1-z2)| is 2^8 / 4, at z1 = z2 = -1
            self._op("2-z1-z2-N24-g1024", two_minus_powers(1), ONE, CAPS_24, grid=1024,
                     zeros=ones, sup=64.0),
            self._op("2-z1-z2-N32-g512", two_minus_powers(1), ONE, CAPS_32, grid=512,
                     zeros=ones, sup=64.0),
            # the same with w = z^2: 2^16 / 4
            self._op("2-z1^2-z2^2-N24-g512", two_minus_powers(2), ONE, CAPS_24, grid=512,
                     zeros=corners, sup=16384.0, known_defect=_cofactor_rejects_zeros),
        ]
        return _shuffled(ops, rng)

    def warm_up(self) -> None:
        bc = self.bc
        bc.classify_with_evidence([bc.Poly2(fa_coeffs(0.5))], ALPHAS, [0, 4], certificate_K=64)
        f = bc.Poly2(two_minus_powers(1))
        bc.cofactor_experiment(f, [(1 + 0j, 1 + 0j)], 1, 4, 256)


def _cofactor_rejects_zeros(result, exc) -> bool:
    # the verdict's torus zeros miss z1 = -1, so the lattice finds zeros of f
    # away from them
    return isinstance(exc, ValueError) and "away from the supplied zeros" in str(exc)


# -- cli -----------------------------------------------------------------------

def _poly_json(coeffs) -> dict:
    a = np.asarray(coeffs, dtype=complex)
    return {"bidegree": [a.shape[0] - 1, a.shape[1] - 1],
            "coeffs": [[[float(c.real), float(c.imag)] for c in row] for row in a]}


def _read_outputs(out_dir: str) -> dict:
    files = {}
    for entry in sorted(os.scandir(out_dir), key=lambda e: e.name):
        with open(entry.path, "rb") as fh:
            files[entry.name] = fh.read()
    return files


class Cli(Workload):
    """In-process ``bicyclic.cli.run`` over six subcommands on seeded JSON
    files; the same inputs repeat in every block, and every repeat must give
    byte-identical output files."""

    name = "cli"
    block_seconds = 1.6
    pool_blocks = 64

    def __init__(self, bc, cli, seed: int, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.reference: dict = {}
        rng = np.random.default_rng([seed, 3])
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)

        def save(name, coeffs) -> str:
            path = os.path.join(inputs, name + ".json")
            with open(path, "w") as fh:
                json.dump(_poly_json(coeffs), fh)
            return path

        def det(n, r):
            U = bc.random_unitary(2 * n, rng)
            f = bc.polynomial_from_unitary(bc.DetRep(1.0, U, n, n))
            k = np.arange(n + 1)
            return f.coeffs * r ** (k[:, None] + k[None, :])

        u, v = np.exp(2j * np.pi * rng.uniform(size=2))
        alpha = float(rng.uniform(0.2, 1.0))
        sign = float(rng.choice([1.0, -1.0]))
        a = float(rng.uniform(0.2, 0.8))
        rot = save("rot", two_minus_powers(1, u=u, v=v))
        zero = (complex(np.conj(u)), complex(np.conj(v)))
        specs = [
            ("classify-all", ["classify", "--factors", save("det2_in", det(2, 0.9))],
             EXIT_CODE[ALL], self._verdict(ALL)),
            ("classify-half", ["classify", "--factors", save("det1_on", det(1, 1.0)),
                               save("f1", two_minus_powers(1))],
             EXIT_CODE[HALF], self._verdict(HALF)),
            # a wide pocket of interior zeros, so the scan cost barely moves with u, v
            ("classify-not", ["classify", "--factors",
                              save("rot_out", two_minus_powers(1, 0.1, u, v))],
             EXIT_CODE[NOT], self._verdict(NOT)),
            ("torus-zeros", ["torus-zeros", "--poly", rot], 0, self._torus(zero)),
            ("approximant", ["approximant", "--poly", save("diag", one_plus_z1z2(sign)),
                             "--alpha", repr(alpha)], 0, self._profile(alpha)),
            ("certificate", ["certificate", "--poly", save("fa", fa_coeffs(a)),
                             "--alpha", "0.75", "--K", "128"], 0, self._certificate),
            ("cofactor", ["cofactor", "--poly", rot, "--q", "1", "--N", "4"], 0,
             self._cofactor),
            ("reproduce-paper", ["--seed", str(seed), "reproduce-paper"], 0, self._summary),
        ]
        ops = [self._op(*spec) for spec in specs]
        self.blocks = [_shuffled(ops, rng) for _ in range(self.pool_blocks)]

    def _op(self, kind, argv, code, validate) -> Op:
        out = os.path.join(self.workdir, "out", kind)
        argv = ["--out", out] + argv

        def prepare():
            shutil.rmtree(out, ignore_errors=True)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    return self.cli.run(argv)
                except SystemExit as e:   # argparse usage errors
                    return e.code

        def check(exit_code) -> bool:
            if exit_code != code:
                return False
            files = _read_outputs(out)
            ref = self.reference.get(kind)
            if ref is None:
                if not validate(files):
                    return False
                self.reference[kind] = files
                return True
            return files == ref

        return Op(kind, run, check, prepare=prepare)

    @staticmethod
    def _verdict(label):
        def validate(files) -> bool:
            doc = json.loads(files["verdict.json"])
            rows = files["verdict.csv"].decode().split()
            return doc["verdict"]["threshold"] == label and rows[-1] == f"combined,{label}"
        return validate

    @staticmethod
    def _torus(zero):
        def validate(files) -> bool:
            tz = json.loads(files["torus_zeros.json"])["torus_zeros"]
            pts = [(complex(*p[0]), complex(*p[1])) for p in tz["points"]]
            return tz["kind"] == "finite" and _same_points(pts, [zero])
        return validate

    @staticmethod
    def _profile(alpha):
        def validate(files) -> bool:
            prof = json.loads(files["approximant.json"])["profile"]
            caps = [r["degree_cap"] for r in prof]
            return caps == [0, 4, 8, 12] and all(
                _close(r["distance"], e, 1e-8)
                for r, e in zip(prof, diagonal_distances(alpha, caps)))
        return validate

    @staticmethod
    def _certificate(files) -> bool:
        return json.loads(files["certificate.json"])["report"]["verdict"] == CONVERGENT

    @staticmethod
    def _cofactor(files) -> bool:
        rep = json.loads(files["cofactor.json"])["report"]
        return (all(rep["verdicts"][b] == CONVERGENT for b in ("1", "2"))
                and 0.99 * 64.0 <= rep["sup_norm"] <= 64.0 * (1 + 1e-9))

    @staticmethod
    def _summary(files) -> bool:
        cases = json.loads(files["summary.json"])["cases"]
        truth = {name: min(t, key=RANK.get) for name, _, t in bundled_cases()}
        return len(cases) == len(truth) and all(
            c["threshold"] == truth[c["name"]] for c in cases)

    def warm_up(self) -> None:
        out = os.path.join(self.workdir, "warm")
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.run(["--out", out, "torus-zeros", "--poly",
                          os.path.join(self.workdir, "inputs", "f1.json")])
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClassifyMix, Evidence, Cli)}
