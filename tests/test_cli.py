"""Command-line interface tests.

main(argv) is exercised in process for speed; one subprocess test
checks the console entry point: always the one declared in
pyproject.toml, run as a console-script launcher runs it, and also the
installed `oddsgamma` script wherever one is on PATH. Output contracts:
JSON numbers are pre-rounded to 10 significant digits, identical
command lines give byte-identical output, and exit codes distinguish
usage (64), data (65), numerical (70), and partial-result (2) failures.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import oddsgamma
from oddsgamma.cli import main
from oddsgamma.expgamma import OEGammaDist

M2 = "0.131,0.179,0.539"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# child interpreters import the oddsgamma these tests import, also when
# pytest put it on sys.path itself (pyproject's pythonpath = ["src"])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(oddsgamma.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_json_fit_on_embedded_data(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--model", "m2")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "oe-gamma"
        assert doc["data"] == "wheaton"
        assert doc["n"] == 72
        assert doc["converged"] is True
        assert doc["loglik"] == pytest.approx(-249.515, abs=0.01)
        assert doc["params"]["alpha"] == pytest.approx(0.131, abs=0.02)
        assert doc["warnings"] == []

    def test_json_numbers_are_pre_rounded(self, capsys):
        _, out, _ = run_cli(capsys, "fit", "--model", "m6")
        doc = json.loads(out)
        for v in [doc["loglik"], *doc["params"].values(), *doc["std_errors"].values()]:
            assert v == float(f"{v:.10g}")

    def test_tsv_fit_is_key_value_lines(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--model", "m6", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model\tweibull"
        assert lines[1] == "converged\ttrue"
        keys = [ln.split("\t")[0] for ln in lines]
        assert keys == ["model", "converged", "loglik",
                        "param.shape", "param.rate",
                        "stderr.shape", "stderr.rate"]

    def test_zb_display_params_in_output(self, capsys):
        _, out, _ = run_cli(capsys, "fit", "--model", "m1")
        doc = json.loads(out)
        assert set(doc["params"]) == {"alpha", "beta", "lambda"}
        assert doc["params"]["lambda"] == 1.96
        assert doc["std_errors"]["lambda"] == 0.0

    def test_csv_input(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value\n" + "\n".join(
            str(v) for v in np.random.default_rng(0).exponential(2.0, 60)) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "m6",
                               "--data", str(p), "--column", "value")
        assert code == 0
        assert json.loads(out)["data"] == "d.csv"


class TestCompare:
    def test_ranked_by_aic(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        doc = json.loads(out)
        assert doc["data"] == "wheaton" and doc["n"] == 72
        order = [r["model"] for r in doc["models"]]
        assert order == ["oe-gamma", "weibull", "zb-gamma-exp"]
        aics = [r["aic"] for r in doc["models"]]
        assert aics == sorted(aics)

    def test_tsv_table_shape(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].split("\t")[:4] == ["model", "converged", "loglik", "aic"]
        assert all(len(ln.split("\t")) == len(lines[0].split("\t")) for ln in lines[1:])

    def test_failed_row_keeps_report_alive(self, capsys, tmp_path):
        # three points cannot support AICc for a two-parameter model, so
        # the row carries the error and the exit code flags it
        p = tmp_path / "three.csv"
        p.write_text("2.0\n5.5\n9.1\n")
        code, out, _ = run_cli(capsys, "compare", "--model", "m6", "--data", str(p))
        assert code == 2
        row = json.loads(out)["models"][0]
        assert row["converged"] is False
        assert row["error"] == "AICc undefined for n <= k + 1 (n=3, k=2)"

    def test_error_rows_sort_last(self, capsys, tmp_path):
        p = tmp_path / "four.csv"
        p.write_text("2.0\n5.5\n9.1\n3.3\n")
        code, out, _ = run_cli(capsys, "compare", "--model", "m2,m6", "--data", str(p))
        assert code == 2
        rows = json.loads(out)["models"]
        assert "aic" in rows[0] or "error" in rows[-1]
        assert "error" in rows[-1]

    def test_empty_model_list_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--model", ",")
        assert code == 64
        assert "at least one model" in err


class TestCurves:
    def test_known_row_is_byte_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--model", "m2", "--params", "1,1,1",
            "--grid", "0.6931471805599453:0.6931471805599453:1")
        assert code == 0
        assert out == ("x\tpdf\tcdf\thazard\n"
                       "0.6931471806\t0.7357588823\t0.3678794412\t1.163953414\n")

    def test_grid_outside_support_warns_and_zeroes(self, capsys):
        code, out, err = run_cli(
            capsys, "curves", "--model", "m2", "--params", "1,1,1",
            "--grid=-1:1:3")
        assert code == 0
        assert "outside the support" in err
        rows = [ln.split("\t") for ln in out.splitlines()[1:]]
        assert rows[0] == ["-1", "0", "0", "0"]
        assert rows[1] == ["0", "0", "0", "0"]
        assert float(rows[2][1]) > 0.0

    def test_competitor_curves_work(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--model", "m6",
                               "--params", "0.9,0.086", "--grid", "1:30:5")
        assert code == 0
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("model, params, x, closed_form", [
        # the m2 hazard P(alpha, beta w) form of OEGammaDist.hazard
        ("m2", "0.131,0.179,0.539", 500.0,
         lambda x: OEGammaDist(0.131, 0.179, 0.539).hazard(x)),
        ("m2", "0.131,0.179,0.539", 700.0,
         lambda x: OEGammaDist(0.131, 0.179, 0.539).hazard(x)),
        # Weibull: k lam^k x^(k-1)
        ("m6", "0.9,0.086", 500.0, lambda x: 0.9 * 0.086**0.9 * x ** -0.1),
        # gamma: rho^a x^(a-1) e^(-rho x) / Gamma(a) / Q(a, rho x)
        ("m1", "0.8,0.05", 900.0,
         lambda x: 0.05**0.8 * x ** -0.2 * np.exp(-0.05 * x - special.gammaln(0.8))
         / special.gammaincc(0.8, 0.05 * x)),
    ])
    def test_upper_tail_hazard_matches_closed_form(self, capsys, model, params, x, closed_form):
        # where the cdf rounds to 1 the hazard divides by the model's own
        # survival, not by 1 - cdf
        code, out, _ = run_cli(capsys, "curves", "--model", model, "--params", params,
                               "--grid", f"{x}:{x}:1")
        assert code == 0
        row = out.splitlines()[1].split("\t")
        assert row[2] == "1"
        assert float(row[3]) == pytest.approx(closed_form(x), rel=1e-9)

    @pytest.mark.parametrize("bad,fragment", [
        ("1:2", "start:stop:count"),
        ("1:2:x", "do not parse"),
        ("1:2:0", "count must be >= 1"),
        ("5:1:3", "finite start <= stop"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, bad, fragment):
        code, _, err = run_cli(capsys, "curves", "--model", "m2",
                               "--params", "1,1,1", "--grid", bad)
        assert code == 64
        assert fragment in err

    def test_wrong_param_count(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--model", "m2",
                               "--params", "1,1", "--grid", "1:2:2")
        assert code == 64
        assert "takes 3 parameters" in err

    def test_nonpositive_params(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--model", "m2",
                               "--params", "1,-1,1", "--grid", "1:2:2")
        assert code == 64
        assert "positive finite" in err


class TestSample:
    def test_pinned_stream(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n", "5", "--seed", "7", "--format", "tsv")
        assert code == 0
        assert out == ("6.510803697\n0.7279619261\n0.7046974722\n"
                       "19.46995316\n15.73755529\n")

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                              "--n", "50", "--seed", "3")
        _, second, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n", "50", "--seed", "3")
        assert first == second

    def test_json_matches_library_draws(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                            "--n", "4", "--seed", "11")
        doc = json.loads(out)
        ref = OEGammaDist(0.131, 0.179, 0.539).sample(4, np.random.default_rng(11))
        assert doc["seed"] == 11 and doc["n"] == 4
        for got, want in zip(doc["values"], ref):
            assert got == float(f"{want:.10g}")

    def test_zero_draws(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n", "0", "--format", "tsv")
        assert code == 0
        assert out == ""

    def test_negative_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n=-1")
        assert code == 64
        assert "--n must be >= 0" in err

    def test_competitor_model_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--model", "m6",
                               "--params", "1,1", "--n", "3")
        assert code == 64
        assert "proposed model only" in err


class TestMoments:
    def test_quadrature_moments_reported(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--params", M2, "--order", "2")
        assert code == 0
        doc = json.loads(out)
        dist = OEGammaDist(0.131, 0.179, 0.539)
        assert doc["moments"]["m1"] == float(f"{dist.moment_quadrature(1):.10g}")
        assert doc["moments"]["m2"] == float(f"{dist.moment_quadrature(2):.10g}")
        assert set(doc) == {"params", "moments", "skewness", "kurtosis"}

    def test_entropy_block(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--params", "1,1,1", "--eta", "2")
        doc = json.loads(out)
        assert doc["renyi_entropy"]["eta"] == 2.0
        assert doc["renyi_entropy"]["value"] == pytest.approx(np.log(2.0), rel=1e-8)

    def test_tsv_keys(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--params", "1,1,1", "--order", "1",
                            "--eta", "2", "--format", "tsv")
        keys = [ln.split("\t")[0] for ln in out.splitlines()]
        assert keys == ["m1", "skewness", "kurtosis", "renyi_entropy.eta=2"]

    def test_eta_one_is_numerical_error(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--params", "1,1,1", "--eta", "1")
        assert code == 70
        assert err.startswith("numerical error:")
        assert "eta != 1" in err

    def test_order_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--params", "1,1,1", "--order", "0")
        assert code == 64
        assert "--order must be >= 1" in err


class TestGof:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "gof", "--model", "m2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 72 and doc["k"] == 3
        assert doc["aic"] == pytest.approx(505.03, abs=0.01)
        assert doc["a_squared"] == pytest.approx(0.4515, abs=0.001)
        assert doc["converged"] is True

    def test_tsv_line_order(self, capsys):
        _, out, _ = run_cli(capsys, "gof", "--model", "m6", "--format", "tsv")
        keys = [ln.split("\t")[0] for ln in out.splitlines()]
        assert keys == ["model", "n", "k", "loglik", "aic", "aicc", "bic",
                        "hqic", "a_squared", "w_squared", "converged"]


class TestExitCodesAndIo:
    def test_no_command_is_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 64
        assert "usage" in err

    def test_unknown_model_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "m7")
        assert code == 64
        assert "unknown model 'm7'" in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "m2"],
        ["compare"],
        ["curves", "--params", M2, "--grid", "1:2:2"],
        ["moments", "--params", M2],
        ["gof", "--model", "m6"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_sample_only(self, capsys, argv):
        # only sample draws random numbers, so only sample takes --seed
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 64
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "m2", "--bogus", "1")
        assert code == 64
        assert "usage error" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "m2",
                               "--data", "/no/such/file.csv")
        assert code == 65
        assert err.startswith("data error: cannot read")

    def test_negative_observations_are_data_error(self, capsys, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("1.0\n-3.0\n2.0\n")
        code, _, err = run_cli(capsys, "fit", "--model", "m2", "--data", str(p))
        assert code == 65
        assert "strictly positive" in err

    def test_out_redirects_everything(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "gof", "--model", "m6",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, "gof", "--model", "m6")
        assert target.read_text() == direct

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "oddsgamma.cli"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 64
        curves = ["curves", "--model", "m2", "--params", "1,1,1",
                  "--grid", "1:1:1"]
        installed = shutil.which("oddsgamma")
        if installed is not None:
            script = subprocess.run([installed, *curves],
                                    capture_output=True, text=True)
            assert script.returncode == 0
            assert script.stdout.startswith("x\tpdf\tcdf\thazard\n")
        # Run the entry point declared in pyproject.toml through the body a
        # console-script launcher holds, so a wrong script name or target
        # fails here also where nothing is installed.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["oddsgamma"]
        module, attr = target.split(":")
        launcher = (f"import sys; sys.argv[0] = 'oddsgamma'; "
                    f"from {module} import {attr}; sys.exit({attr}())")
        script = subprocess.run([sys.executable, "-c", launcher, *curves],
                                capture_output=True, text=True, env=CHILD_ENV)
        assert script.returncode == 0
        assert script.stdout.startswith("x\tpdf\tcdf\thazard\n")


class TestImportCost:
    """scipy.optimize costs about a third of a second to import, and no
    command loads it: the fits are Newton iterations in numpy."""

    PROBE = """\
import contextlib, io, json, sys
import oddsgamma
report = {"import": "scipy.optimize" in sys.modules}
from oddsgamma.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report[argv[0]] = [code, "scipy.optimize" in sys.modules]
print(json.dumps(report))
"""

    def test_no_command_loads_optimize(self):
        commands = [
            ["moments", "--params", "1,1,1", "--order", "2"],
            ["sample", "--params", M2, "--n", "10", "--seed", "1"],
            ["curves", "--params", M2, "--grid", "0.5:5:4"],
            ["compare"],
            ["fit", "--model", "m2"],
            ["gof", "--model", "m6"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, json.dumps(commands)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["import"] is False
        for argv in commands:
            assert report[argv[0]] == [0, False], argv[0]
