import csv
import hashlib
import json

import numpy as np
import pytest

from bicyclic.cli import EXIT_NUMERICAL, _build_parser, run
from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic.poly2 import Poly2, unimodular_reflection_match
from conftest import f_eps


def write_poly(path, grid):
    path.write_text(json.dumps(Poly2(grid).to_json_dict()))
    return str(path)


@pytest.fixture
def f0_file(tmp_path):
    return write_poly(tmp_path / "f0.json", [[1, 0], [0, 1]])


@pytest.fixture
def finite_file(tmp_path):
    return write_poly(tmp_path / "g.json", [[2, -1], [-1, 0]])


class TestClassify:
    def test_exit_code_encodes_threshold(self, tmp_path, f0_file):
        rc = run(["--out", str(tmp_path / "o"), "classify", "--factors", f0_file])
        assert rc == 4  # cyclic iff alpha <= 1/2
        doc = json.loads((tmp_path / "o" / "verdict.json").read_text())
        assert doc["verdict"]["threshold"] == "CyclicIffAlphaLeqHalf"

    def test_all_alpha_exit_zero(self, tmp_path):
        p = write_poly(tmp_path / "p.json", [[3, 1], [1, 0]])
        assert run(["--out", str(tmp_path / "o"), "classify", "--factors", p]) == 0

    def test_not_cyclic_exit(self, tmp_path):
        p = write_poly(tmp_path / "p.json", [[0], [1]])
        assert run(["--out", str(tmp_path / "o"), "classify", "--factors", p]) == 5

    def test_with_evidence(self, tmp_path, f0_file):
        rc = run(["--out", str(tmp_path / "o"), "classify", "--factors", f0_file,
                  "--alpha", "0.25", "--caps", "0", "4"])
        assert rc == 4
        doc = json.loads((tmp_path / "o" / "verdict.json").read_text())
        assert len(doc["verdict"]["evidence"]) == 1

    def test_evidence_above_one_has_no_certificate(self, tmp_path):
        # the energy of every measure converges above alpha = 1: no certificate
        fa = write_poly(tmp_path / "fa05.json", [[1, -0.5], [-0.5, 1]])
        rc = run(["--out", str(tmp_path / "o"), "classify", "--factors", fa,
                  "--alpha", "0.25", "1.5", "--caps", "0", "4"])
        assert rc == 4
        doc = json.loads((tmp_path / "o" / "verdict.json").read_text())
        evidence = doc["verdict"]["evidence"]
        assert [e["alpha"] for e in evidence] == [0.25, 1.5]
        assert all(len(e["profile"]) == 2 for e in evidence)
        assert evidence[1]["certificate"] is None

    def test_csv_written(self, tmp_path, finite_file):
        run(["--out", str(tmp_path / "o"), "classify", "--factors", finite_file])
        rows = (tmp_path / "o" / "verdict.csv").read_text().strip().splitlines()
        assert rows[0] == "factor_index,threshold"
        assert rows[-1] == "combined,CyclicIffAlphaLeqOne"


class TestDetgen:
    def test_family(self, tmp_path):
        a, b = 0.5, np.sqrt(0.75)
        u = tmp_path / "u.json"
        u.write_text(json.dumps([[[a, 0.0], [-b, 0.0]], [[b, 0.0], [a, 0.0]]]))
        rc = run(["--out", str(tmp_path / "o"), "detgen", "--size", "1", "1",
                  "--unitary", str(u)])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "detgen.json").read_text())
        got = Poly2.from_json_dict(doc["polynomial"])
        expect = Poly2([[1, -a], [-a, 1]])
        from bicyclic.poly2 import coeff_distance
        assert coeff_distance(got, expect) <= 1e-10

    def test_dataset_by_name(self, tmp_path):
        rc = run(["--out", str(tmp_path / "o"), "detgen", "--dataset", "fa_05"])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "detgen.json").read_text())
        got = Poly2.from_json_dict(doc["polynomial"])
        from bicyclic.poly2 import coeff_distance
        assert coeff_distance(got, Poly2([[1, -0.5], [-0.5, 1]])) <= 1e-8

    def test_unknown_dataset(self, tmp_path):
        rc = run(["--out", str(tmp_path / "o"), "detgen", "--dataset", "nope"])
        assert rc == EXIT_NUMERICAL

    def test_missing_inputs(self, tmp_path):
        rc = run(["--out", str(tmp_path / "o"), "detgen"])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("extra, option", [
        (["--size", "1", "1"], "--size"),
        (["--unitary", "u.json"], "--unitary"),
        (["--scale-re", "1.0"], "--scale-re"),
        (["--scale-im", "0.0"], "--scale-im"),
    ], ids=["size", "unitary", "scale-re", "scale-im"])
    def test_dataset_rejects_unitary_options(self, tmp_path, capsys, extra, option):
        # the dataset route would ignore them, so they are a usage error
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path / "o"), "detgen", "--dataset", "fa_05", *extra])
        assert exc.value.code == 2
        assert f"detgen --dataset cannot be combined with {option}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dataset_config_records_only_the_dataset(self, tmp_path):
        assert run(["--out", str(tmp_path / "o"), "detgen", "--dataset", "fa_05"]) == 0
        doc = json.loads((tmp_path / "o" / "detgen.json").read_text())
        assert doc["config"]["options"] == {"dataset": "fa_05"}

    def test_unitary_route_records_default_scale(self, tmp_path):
        u = tmp_path / "u.json"
        u.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
        assert run(["--out", str(tmp_path / "o"), "detgen", "--size", "1", "1",
                    "--unitary", str(u)]) == 0
        options = json.loads((tmp_path / "o" / "detgen.json").read_text())["config"]["options"]
        assert (options["scale_re"], options["scale_im"]) == (1.0, 0.0)


class TestPipelines:
    def test_torus_zeros(self, tmp_path, finite_file):
        assert run(["--out", str(tmp_path / "o"), "torus-zeros",
                    "--poly", finite_file]) == 0
        doc = json.loads((tmp_path / "o" / "torus_zeros.json").read_text())
        assert doc["torus_zeros"]["kind"] == "finite"
        assert len(doc["torus_zeros"]["points"]) == 1

    def test_curve_type_line(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "curve-type", "--poly", f0_file,
                    "--t", "0.0"]) == 0
        doc = json.loads((tmp_path / "o" / "curve_type.json").read_text())
        assert doc["report"]["tau"] is None

    def test_fourier_uniform_line(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "fourier", "--poly", f0_file,
                    "--uniform-line", "--K", "64"]) == 0
        doc = json.loads((tmp_path / "o" / "fourier.json").read_text())
        K = doc["K"]
        coef = doc["coefficients"]
        for k in (1, 5, 33):
            re, im = coef[K + k][K + k]
            assert abs(complex(re, im) - (-1.0) ** k) <= 1e-10
        assert (tmp_path / "o" / "fourier.csv").exists()

    def test_energy(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "energy", "--poly", f0_file,
                    "--uniform-line", "--alpha", "0.75", "--K", "64"]) == 0
        doc = json.loads((tmp_path / "o" / "energy.json").read_text())
        assert doc["report"]["verdict"] == "ConvergentTrend"

    @pytest.mark.parametrize("grid", [[[1, -0.5], [-0.5, 1]], [[1, 0], [0, 1]]],
                             ids=["f_0.5", "1+z1z2"])
    def test_energy_and_certificate_pick_one_measure(self, tmp_path, grid):
        path = write_poly(tmp_path / "f.json", grid)
        argv = ["--poly", path, "--alpha", "0.75", "--K", "128"]
        assert run(["--out", str(tmp_path / "e"), "energy"] + argv) == 0
        assert run(["--out", str(tmp_path / "c"), "certificate"] + argv) == 0
        energy = json.loads((tmp_path / "e" / "energy.json").read_text())["report"]
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())["report"]
        assert energy["cutoffs"] == cert["cutoffs"]
        assert energy["partial_sums"] == cert["partial_sums"]

    def test_certificate(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "certificate", "--poly", f0_file,
                    "--alpha", "0.75", "--K", "64"]) == 0

    def test_certificate_on_a_near_line(self, tmp_path):
        # no node of this nearly straight branch has type 2: a uniform
        # measure, not an error
        path = write_poly(tmp_path / "f.json", f_eps(1.5e-8).coeffs)
        assert run(["--out", str(tmp_path / "o"), "certificate", "--poly", path,
                    "--alpha", "0.75"]) == 0
        doc = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert doc["report"]["verdict"] == "ConvergentTrend"

    def test_cofactor(self, tmp_path, finite_file):
        assert run(["--out", str(tmp_path / "o"), "cofactor", "--poly", finite_file,
                    "--q", "1", "--N", "4", "--grid", "256"]) == 0
        doc = json.loads((tmp_path / "o" / "cofactor.json").read_text())
        assert doc["report"]["verdicts"]["2"] == "ConvergentTrend"

    def test_approximant(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "approximant", "--poly", f0_file,
                    "--alpha", "0.25", "--caps", "0", "4", "8"]) == 0
        rows = (tmp_path / "o" / "approximant.csv").read_text().strip().splitlines()
        assert rows[0] == "N,d_N"
        ds = [float(r.split(",")[1]) for r in rows[1:]]
        assert ds == sorted(ds, reverse=True)


@pytest.fixture(scope="module")
def all_outputs(tmp_path_factory):
    """The output directories of one run of each of the ten subcommands."""
    root = tmp_path_factory.mktemp("all")
    f0 = write_poly(root / "f0.json", [[1, 0], [0, 1]])
    fa = write_poly(root / "fa.json", [[1, -0.5], [-0.5, 1]])
    g = write_poly(root / "g.json", [[2, -1], [-1, 0]])
    u = root / "u.json"
    a, b = 0.5, np.sqrt(0.75)
    u.write_text(json.dumps([[[a, 0.0], [-b, 0.0]], [[b, 0.0], [a, 0.0]]]))
    calls = {
        "classify": (["classify", "--factors", g, f0], 4),
        "approximant": (["approximant", "--poly", f0, "--alpha", "0.5",
                         "--caps", "0", "2"], 0),
        "detgen": (["detgen", "--size", "1", "1", "--unitary", str(u)], 0),
        "torus-zeros": (["torus-zeros", "--poly", g], 0),
        "curve-type": (["curve-type", "--poly", fa, "--t", "1.5707963267948966",
                        "--nodes", "64"], 0),
        "fourier": (["fourier", "--poly", fa, "--K", "32", "--tau", "2"], 0),
        "energy": (["energy", "--poly", fa, "--alpha", "0.75", "--K", "64"], 0),
        "certificate": (["certificate", "--poly", fa, "--alpha", "0.75", "--K", "64"], 0),
        "cofactor": (["cofactor", "--poly", g, "--q", "1", "--N", "4"], 0),
        "reproduce-paper": (["--seed", "3", "reproduce-paper"], 0),
    }
    outs = {}
    for name, (argv, code) in calls.items():
        outs[name] = root / "out" / name
        assert run(["--out", str(outs[name])] + argv) == code, name
    return outs


# every CSV file each subcommand writes
CSV_FILES = [("classify", "verdict.csv"), ("approximant", "approximant.csv"),
             ("detgen", "detgen.csv"), ("torus-zeros", "torus_zeros.csv"),
             ("curve-type", "branch.csv"), ("fourier", "fourier.csv"),
             ("fourier", "decay.csv"), ("energy", "energy.csv"),
             ("certificate", "certificate.csv"), ("cofactor", "cofactor.csv"),
             ("reproduce-paper", "summary.csv")]
# the CSV columns that hold labels; every other cell is a number
TEXT_COLUMNS = {"factor_index", "threshold", "case", "expected", "match"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestOutputFiles:
    def test_csv_files_listed(self, all_outputs):
        written = {(name, p.name) for name, out in all_outputs.items()
                   for p in out.glob("*.csv")}
        assert written == set(CSV_FILES)

    @pytest.mark.parametrize("name, csv_name", CSV_FILES, ids=[c for _, c in CSV_FILES])
    def test_numeric_cells_parse_as_floats(self, all_outputs, name, csv_name):
        header, *rows = read_csv(all_outputs[name] / csv_name)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for col, cell in zip(header, row):
                if col not in TEXT_COLUMNS:
                    float(cell)

    def test_branch_csv(self, all_outputs):
        header, *rows = read_csv(all_outputs["curve-type"] / "branch.csv")
        assert header == ["t", "m", "dm", "d2m"]
        assert len(rows) == 64

    def test_approximant_csv(self, all_outputs):
        header, *rows = read_csv(all_outputs["approximant"] / "approximant.csv")
        assert header == ["N", "d_N"]
        assert [r[0] for r in rows] == ["0", "2"]

    def test_config_records_inputs_by_name_and_hash(self, all_outputs):
        doc = json.loads((all_outputs["classify"] / "verdict.json").read_text())
        factors = doc["config"]["options"]["factors"]
        assert [r["name"] for r in factors] == ["g.json", "f0.json"]
        g = all_outputs["classify"].parent.parent / "g.json"
        assert factors[0]["sha256"] == hashlib.sha256(g.read_bytes()).hexdigest()

    @pytest.mark.parametrize("argv", [["torus-zeros", "--poly"], ["classify", "--factors"]],
                             ids=["torus-zeros", "classify"])
    def test_outputs_independent_of_input_directory(self, tmp_path, argv):
        # one polynomial saved under two directories of different path length
        for tag, sub in (("short", "a"), ("long", "a-much-longer-directory-name/nested")):
            (tmp_path / sub).mkdir(parents=True)
            path = write_poly(tmp_path / sub / "g.json", [[2, -1], [-1, 0]])
            run(["--out", str(tmp_path / "out" / tag)] + argv + [path])
        a = sorted((tmp_path / "out" / "short").iterdir())
        b = sorted((tmp_path / "out" / "long").iterdir())
        assert a and [p.name for p in a] == [p.name for p in b]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


class TestParserReuse:
    def test_back_to_back_runs_match_fresh_runs(self, tmp_path, f0_file, finite_file):
        # one parser serves every run in a process; no run may leave state in
        # it (a mutated default, say) that changes what the next run writes
        calls = [
            ("approximant", ["approximant", "--poly", f0_file, "--alpha", "0.25"]),
            ("classify-evidence", ["classify", "--factors", finite_file,
                                   "--alpha", "0.5", "--caps", "0", "2"]),
            ("classify", ["classify", "--factors", finite_file]),
            ("approximant-again", ["approximant", "--poly", f0_file, "--alpha", "0.25"]),
        ]
        for name, argv in calls:
            run(["--out", str(tmp_path / "shared" / name)] + argv)
        assert _build_parser() is _build_parser()
        for name, argv in calls:
            _build_parser.cache_clear()     # a fresh parser, as in a new process
            run(["--out", str(tmp_path / "fresh" / name)] + argv)
            shared = sorted((tmp_path / "shared" / name).iterdir())
            fresh = sorted((tmp_path / "fresh" / name).iterdir())
            assert [p.name for p in shared] == [p.name for p in fresh]
            assert all(a.read_bytes() == b.read_bytes() for a, b in zip(shared, fresh))


class TestErrors:
    def test_numerical_error_structured(self, tmp_path):
        p = write_poly(tmp_path / "bad.json", [[0], [1]])  # z1, no torus curve
        rc = run(["--out", str(tmp_path / "o"), "certificate", "--poly", str(p),
                  "--alpha", "0.75"])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert "error" in doc

    def test_singular_gram_block(self, tmp_path, monkeypatch):
        # a Cholesky that fails from block size 40 on: 2 - z1 - 0.5 z2 has
        # blocks of 1, 15, 45 and 91 shifts at caps 0, 4, 8 and 12
        cholesky = np.linalg.cholesky

        def failing(M):
            if M.shape[0] >= 40:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        p = write_poly(tmp_path / "p.json", [[2, -0.5], [-1, 0]])
        rc = run(["--out", str(tmp_path / "o"), "approximant", "--poly", p,
                  "--alpha", "0.75", "--caps", "0", "4", "8", "12"])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert doc["error"] == ("singular Gram matrix: the block of degree cap 8 "
                                "is not positive definite")
        assert not (tmp_path / "o" / "approximant.json").exists()

    @pytest.mark.parametrize("text, problem", [
        ('{"bidegree": ["1", 1], "coeffs": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}',
         "bidegree"),
        ('{"bidegree": [-1, 0], "coeffs": []}', "bidegree"),
        ('{"bidegree": [0, 0], "coeffs": [[["a", 0]]]}', "pair of real numbers"),
        ('{"bidegree": [0, 0], "coeffs": [[[null, 0]]]}', "pair of real numbers"),
        ('{"bidegree": [0, 0], "coeffs": [[[1e400, 0]]]}', "non-finite coefficient"),
        ('{"bidegree": [0, 0], "coeffs": [[[NaN, 0]]]}', "non-finite coefficient"),
    ], ids=["string-bidegree", "negative-bidegree", "string-coeff", "null-coeff",
            "overflow-coeff", "nan-coeff"])
    def test_malformed_polynomial(self, tmp_path, text, problem):
        p = tmp_path / "bad.json"
        p.write_text(text)
        rc = run(["--out", str(tmp_path / "o"), "classify", "--factors", str(p)])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert problem in doc["error"]

    @pytest.mark.parametrize("text, problem", [
        ('[[["x", 0], [0, 0]], [[0, 0], [1, 0]]]', "pair of real numbers"),
        ('[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]', "not unitary"),
    ], ids=["string-entry", "nan-entry"])
    def test_malformed_unitary(self, tmp_path, text, problem):
        u = tmp_path / "u.json"
        u.write_text(text)
        rc = run(["--out", str(tmp_path / "o"), "detgen", "--size", "1", "1",
                  "--unitary", str(u)])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert problem in doc["error"]
        assert not (tmp_path / "o" / "detgen.json").exists()

    @pytest.mark.parametrize("argv, problem", [
        (["certificate", "--alpha", "0.75", "--K", "4"], "K must be at least 8, got K = 4"),
        (["certificate", "--alpha", "0.75", "--K", "7"], "K must be at least 8, got K = 7"),
        (["fourier", "--K", "-1"], "K must be at least 0, got K = -1"),
        (["energy", "--alpha", "0.75", "--K", "-1"], "K must be at least 0, got K = -1"),
    ], ids=["certificate-K4", "certificate-K7", "fourier-K-1", "energy-K-1"])
    def test_K_out_of_range_named(self, tmp_path, f0_file, argv, problem):
        # the error names K and its bound, not the cutoffs or an array shape
        rc = run(["--out", str(tmp_path / "o"), argv[0], "--poly", f0_file, *argv[1:]])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert doc["error"] == problem

    @pytest.mark.parametrize("argv, problem", [
        (["energy", "--alpha", "0.3", "--cutoffs", "8", "8", "16"],
         "cutoffs must be strictly increasing and bounded by K"),
        (["fourier", "--tau", "0"], "tau_claimed must be positive, got tau_claimed = 0.0"),
        (["fourier", "--tau", "-1"], "tau_claimed must be positive, got tau_claimed = -1.0"),
        (["fourier", "--shells", "1"], "shells must be at least 2, got shells = 1"),
        (["fourier", "--shells", "0"], "shells must be at least 2, got shells = 0"),
        (["cofactor", "--q", "-1"], "q must be at least 0, got q = -1"),
        (["cofactor", "--N", "-2"], "N must be at least 0, got N = -2"),
        (["curve-type", "--t", "0", "--max-order", "1"],
         "max_order must be between 2 and 5, got max_order = 1"),
        (["curve-type", "--t", "0", "--max-order", "6"],
         "max_order must be between 2 and 5, got max_order = 6"),
    ], ids=["energy-repeated-cutoff", "fourier-tau0", "fourier-tau-1", "fourier-shells1",
            "fourier-shells0", "cofactor-q-1", "cofactor-N-2", "curve-type-max-order1",
            "curve-type-max-order6"])
    def test_numeric_option_out_of_range_named(self, tmp_path, f0_file, finite_file,
                                               argv, problem):
        poly = finite_file if argv[0] == "cofactor" else f0_file
        rc = run(["--out", str(tmp_path / "o"), argv[0], "--poly", poly, *argv[1:]])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert doc["error"] == problem
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["error.json"]

    # every numeric option at 0 and at -1: the exit code of each, where 0
    # means the value is valid; "P" is a polynomial file, "U" a unitary
    @pytest.mark.parametrize("argv, codes", [
        (["--seed", "V", "reproduce-paper"], (0, 70)),
        (["classify", "--factors", "P", "--alpha", "V"], (0, 0)),
        (["classify", "--factors", "P", "--alpha", "0.5", "--caps", "V"], (0, 70)),
        (["approximant", "--poly", "P", "--alpha", "V"], (0, 0)),
        (["approximant", "--poly", "P", "--alpha", "0.5", "--caps", "V"], (0, 70)),
        (["detgen", "--size", "V", "V", "--unitary", "U"], (70, 70)),
        # with --scale-im at its default 0, --scale-re 0 is the scale c = 0
        (["detgen", "--size", "1", "1", "--unitary", "U", "--scale-re", "V"], (70, 0)),
        (["detgen", "--size", "1", "1", "--unitary", "U", "--scale-im", "V"], (0, 0)),
        (["curve-type", "--poly", "P", "--t", "V"], (0, 0)),
        (["curve-type", "--poly", "P", "--t", "0", "--half-width", "V"], (70, 70)),
        (["curve-type", "--poly", "P", "--t", "0", "--nodes", "V"], (70, 70)),
        (["curve-type", "--poly", "P", "--t", "0", "--max-order", "V"], (70, 70)),
        (["fourier", "--poly", "P", "--K", "V"], (0, 70)),
        (["fourier", "--poly", "P", "--shells", "V"], (70, 70)),
        (["fourier", "--poly", "P", "--tau", "V"], (70, 70)),
        (["energy", "--poly", "P", "--alpha", "0.5", "--K", "V"], (70, 70)),
        (["energy", "--poly", "P", "--alpha", "V"], (70, 70)),
        (["energy", "--poly", "P", "--alpha", "0.5", "--cutoffs", "V"], (70, 70)),
        (["certificate", "--poly", "P", "--alpha", "V"], (70, 70)),
        (["certificate", "--poly", "P", "--alpha", "0.75", "--K", "V"], (70, 70)),
        (["cofactor", "--poly", "P", "--q", "V"], (0, 70)),
        (["cofactor", "--poly", "P", "--N", "V"], (0, 70)),
        (["cofactor", "--poly", "P", "--grid", "V"], (70, 70)),
    ], ids=["seed", "classify-alpha", "classify-caps", "approximant-alpha", "approximant-caps",
            "detgen-size", "detgen-scale-re", "detgen-scale-im", "curve-type-t",
            "curve-type-half-width", "curve-type-nodes", "curve-type-max-order", "fourier-K",
            "fourier-shells", "fourier-tau", "energy-K", "energy-alpha", "energy-cutoffs",
            "certificate-alpha", "certificate-K", "cofactor-q", "cofactor-N", "cofactor-grid"])
    def test_zero_and_negative_numeric_options(self, tmp_path, argv, codes):
        # a zero-free factor for classify, the finite-zero line for cofactor,
        # the curve 1 + z1 z2 elsewhere
        grid = {"classify": [[3, 1], [1, 0]], "cofactor": [[2, -1], [-1, 0]]}.get(
            argv[0], [[1, 0], [0, 1]])
        files = {"P": write_poly(tmp_path / "p.json", grid), "U": str(tmp_path / "u.json")}
        (tmp_path / "u.json").write_text("[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]")
        for value, code in zip(("0", "-1"), codes):
            out = tmp_path / f"o{value}"
            args = [files.get(a, value if a == "V" else a) for a in argv]
            assert run(["--out", str(out), *args]) == code, value
            assert (out / "error.json").exists() == (code == EXIT_NUMERICAL), value

    def test_negative_block_size_named(self, tmp_path):
        u = tmp_path / "u.json"
        u.write_text("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]")
        rc = run(["--out", str(tmp_path / "o"), "detgen", "--size", "-1", "3",
                  "--unitary", str(u)])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert doc["error"] == "block sizes must be at least 0, got n = -1, m = 3"

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestReproducePaper:
    def test_deterministic_and_correct(self, tmp_path):
        rc1 = run(["--out", str(tmp_path / "a"), "--seed", "3", "reproduce-paper"])
        rc2 = run(["--out", str(tmp_path / "b"), "--seed", "3", "reproduce-paper"])
        assert rc1 == rc2 == 0
        ja = (tmp_path / "a" / "summary.json").read_bytes()
        jb = (tmp_path / "b" / "summary.json").read_bytes()
        assert ja == jb
        ca = (tmp_path / "a" / "summary.csv").read_bytes()
        cb = (tmp_path / "b" / "summary.csv").read_bytes()
        assert ca == cb
        doc = json.loads(ja)
        assert all(c["match"] for c in doc["cases"])
        assert doc["certificate_fa_05"]["verdict"] == "ConvergentTrend"

    def test_symmetry_residual_is_the_reflection_residual(self, tmp_path):
        # det(I - U Z) satisfies f~ = lambda f; the spot check reports the
        # largest coefficient defect over the seed's 20 polynomials
        run(["--out", str(tmp_path / "a"), "--seed", "3", "reproduce-paper"])
        doc = json.loads((tmp_path / "a" / "summary.json").read_text())
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            size = int(rng.integers(2, 5))
            n = int(rng.integers(1, size))
            f = polynomial_from_unitary(DetRep(1.0, random_unitary(size, rng), n, size - n))
            worst = max(worst, unimodular_reflection_match(f).residual)
        assert doc["random_detrep_symmetry_residual"] == worst <= 1e-14

    def test_seed_changes_sampled_outputs(self, tmp_path):
        run(["--out", str(tmp_path / "a"), "--seed", "3", "reproduce-paper"])
        run(["--out", str(tmp_path / "b"), "--seed", "4", "reproduce-paper"])
        da = json.loads((tmp_path / "a" / "summary.json").read_text())
        db = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert da["random_detrep_first_poly"] != db["random_detrep_first_poly"]
