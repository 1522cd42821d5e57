import json

import numpy as np
import pytest

from bicyclic.cli import EXIT_NUMERICAL, run
from bicyclic.poly2 import Poly2


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

    def test_cofactor(self, tmp_path, finite_file):
        assert run(["--out", str(tmp_path / "o"), "cofactor", "--poly", finite_file,
                    "--q", "1", "--N", "4", "--grid", "256"]) == 0
        doc = json.loads((tmp_path / "o" / "cofactor.json").read_text())
        assert doc["report"]["verdicts"]["2"] == "ConvergentTrend"

    def test_approximant(self, tmp_path, f0_file):
        assert run(["--out", str(tmp_path / "o"), "approximant", "--poly", f0_file,
                    "--alpha", "0.25", "--caps", "0", "4", "8"]) == 0
        rows = (tmp_path / "o" / "approximant.csv").read_text().strip().splitlines()
        assert rows[0] == "N,d_N,gram_condition"
        ds = [float(r.split(",")[1]) for r in rows[1:]]
        assert ds == sorted(ds, reverse=True)


class TestErrors:
    def test_numerical_error_structured(self, tmp_path):
        p = write_poly(tmp_path / "bad.json", [[0], [1]])  # z1, no torus curve
        rc = run(["--out", str(tmp_path / "o"), "certificate", "--poly", str(p),
                  "--alpha", "0.75"])
        assert rc == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert "error" in doc

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

    def test_seed_changes_sampled_outputs(self, tmp_path):
        run(["--out", str(tmp_path / "a"), "--seed", "3", "reproduce-paper"])
        run(["--out", str(tmp_path / "b"), "--seed", "4", "reproduce-paper"])
        da = json.loads((tmp_path / "a" / "summary.json").read_text())
        db = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert da["random_detrep_first_poly"] != db["random_detrep_first_poly"]
