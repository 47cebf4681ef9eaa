"""Command-line interface tests.

main(argv) is exercised in process for speed; one subprocess test
checks the console entry point: always the one declared in
pyproject.toml, run as a console-script launcher runs it, and also the
installed `oddsgamma` script wherever one is on PATH. Output contracts:
JSON numbers are pre-rounded to 10 significant digits, identical
command lines give byte-identical output, and exit codes distinguish
usage (64), data (65), numerical (70), and partial-result (2) failures.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import oddsgamma
from oddsgamma import cli
from oddsgamma.cli import _fmt10, _json_list_last, _round10, main
from oddsgamma.expgamma import OEGammaDist
from oddsgamma.family import GammaRatioDist, _hazard
from oddsgamma.models import get_model

M2 = "0.131,0.179,0.539"
# tests/test_fit.py's SUBNORMAL: m6 reports its rate at the float edge
SUBNORMAL = 1e-315 * (1.0 + np.random.default_rng(0).random(20))
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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFloatEdge:
    """Ten digits of a float near the top of the range can round to
    1.797693135e+308, which parses as inf; the output prints the nearest
    ten-digit value toward zero instead."""

    EDGE = "1.797693134e+308"

    @pytest.fixture
    def csv(self, tmp_path):
        p = tmp_path / "subnormal.csv"
        p.write_text("".join(f"{v}\n" for v in SUBNORMAL.tolist()))
        return str(p)

    @pytest.mark.parametrize("v, text", [
        (sys.float_info.max, EDGE),
        (-sys.float_info.max, "-" + EDGE),
        (1.7976931345e308, EDGE),
        (1.797693134e308, EDGE),
        (1.7976931334e308, "1.797693133e+308"),
    ])
    def test_ten_digits_stay_finite(self, v, text):
        assert _fmt10(v) == text
        assert _round10(v) == float(text)

    def test_fit(self, capsys, csv):
        code, out, _ = run_cli(capsys, "fit", "--model", "m6", "--data", csv)
        assert code == 2
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["params"]["rate"] == float(self.EDGE)
        _, out, _ = run_cli(capsys, "fit", "--model", "m6", "--data", csv, "--format", "tsv")
        assert f"param.rate\t{self.EDGE}\n" in out

    def test_compare(self, capsys, csv):
        code, out, _ = run_cli(capsys, "compare", "--data", csv)
        assert code == 2
        doc = json.loads(out, parse_constant=_reject_constant)
        [row] = [r for r in doc["models"] if r["model"] == "weibull"]
        assert row["params"]["rate"] == float(self.EDGE)
        _, out, _ = run_cli(capsys, "compare", "--data", csv, "--format", "tsv")
        [row] = [ln.split("\t") for ln in out.splitlines() if ln.startswith("weibull\t")]
        assert row[-2].endswith(f";rate={self.EDGE}")


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

    def test_hazard_divides_by_a_survival_below_1e_300(self, capsys):
        # Weibull sf = exp(-(rate x)^shape) is about 1e-302 here; the
        # hazard is still k rate^k x^(k-1)
        x = 16700.0
        assert 0.0 < math.exp(-(0.086 * x) ** 0.9) < 1e-300
        code, out, _ = run_cli(capsys, "curves", "--model", "m6", "--params", "0.9,0.086",
                               "--grid", f"{x}:{x}:1")
        assert code == 0
        hazard = float(out.splitlines()[1].split("\t")[3])
        assert hazard == pytest.approx(0.9 * 0.086**0.9 * x ** -0.1, rel=1e-9)

    @pytest.mark.parametrize("model, params, x", [
        ("m2", M2, 5000.0),
        ("m6", "0.9,0.086", 20000.0),
        ("m1", "0.84,0.0687", 15000.0),
        # a subnormal survival has lost digits: the true hazards are
        # k rate^k x^(k-1) = 0.0371499 and, by mpmath, 0.0687
        ("m6", "0.9,0.086", 17920.0),
        ("m1", "0.84,0.0687", 10800.0),
    ])
    def test_hazard_is_nan_where_the_survival_underflows(self, capsys, model, params, x):
        code, out, _ = run_cli(capsys, "curves", "--model", model, "--params", params,
                               "--grid", f"{x}:{x}:1")
        assert code == 0
        row = out.splitlines()[1].split("\t")
        assert row[2] == "1"
        assert row[3] == "nan"

    def test_m2_hazard_column_is_the_library_hazard(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--model", "m2", "--params", M2,
                               "--grid", "0.1:30:200")
        assert code == 0
        want = OEGammaDist(0.131, 0.179, 0.539).hazard(np.linspace(0.1, 30.0, 200))
        assert [ln.split("\t")[3] for ln in out.splitlines()[1:]] == [_fmt10(h) for h in want]

    def test_params_that_do_not_parse(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--model", "m2",
                               "--params", "abc", "--grid", "1:2:2")
        assert code == 64
        assert "--params must be a comma list of numbers" in err

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
        assert out == ("6.510803697\n0.2626997416\n2.764806457\n"
                       "17.64432171\n16.64565365\n")

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

    @pytest.mark.parametrize("n", [0, 1, 100_000])
    def test_output_is_the_indented_dump(self, capsys, n):
        # the bytes json.dumps(indent=2) and a _fmt10 line per value give
        draws = OEGammaDist(0.131, 0.179, 0.539).sample(n, np.random.default_rng(5))
        doc = {"model": "oe-gamma", "seed": 5, "n": n,
               "values": [_round10(v) for v in draws]}
        for fmt, want in (("json", json.dumps(doc, indent=2) + "\n"),
                          ("tsv", "".join(_fmt10(v) + "\n" for v in draws))):
            _, out, _ = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                                "--n", str(n), "--seed", "5", "--format", fmt)
            assert out == want, fmt

    def test_edge_values_are_the_indented_dump(self):
        # the list is written as each number's _round10 gives it
        values = [None, 1e16, 12345678901.0, 1e-5, -0.0, 1.797693134e308, 5e-324]
        rounded = [v if v is None else _round10(v) for v in values]
        for seed in (None, 7):
            doc = {"model": "oe-gamma", "seed": seed, "n": len(values), "values": values}
            want = json.dumps({**doc, "values": rounded}, indent=2) + "\n"
            assert _json_list_last(doc) == want

    def test_negative_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n=-1")
        assert code == 64
        assert "--n must be >= 0" in err

    def test_negative_seed_rejected(self, capsys):
        # numpy refuses a negative seed; it is the caller's error, not a
        # numerical one
        code, _, err = run_cli(capsys, "sample", "--model", "m2", "--params", M2,
                               "--n", "3", "--seed=-1")
        assert code == 64
        assert "--seed must be >= 0" in err

    def test_competitor_model_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--model", "m6",
                               "--params", "1,1", "--n", "3")
        assert code == 64
        assert "proposed model only" in err


def _clamped(f):
    # the ten-digit value toward zero past the largest one inside the range
    return max(-1.797693134e308, min(1.797693134e308, f))


def _json_number(v):
    return float(f"{_clamped(v):.10g}") if math.isfinite(v) else None


def _tsv_number(v):
    return f"{_clamped(v):.10g}" if math.isfinite(v) else "nan"


class TestBulkNumbers:
    """sample and curves format their numbers in one pass and rewrite
    the few that pass cannot print one by one: the bytes stay those of
    json.dumps(indent=2) over 10-digit floats (null where not finite)
    and of a 10-digit line per number (nan where not finite)."""

    EDGE = [0.0, -0.0, 1.0, 3.0, 0.99999999996, -0.99999999996, 99999.999999,
            9999999999.6, 12345678901.0, 1.5e12, 1e16, 1e-5, 2.5e-7,
            5e-324, 4.9e-314, 2.2250738585072014e-308,
            1.797693134e308, 1.7976931348e308, sys.float_info.max,
            math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("values", [[], EDGE[:1], EDGE, [-v for v in EDGE]],
                             ids=["n0", "n1", "edge", "negated"])
    def test_sample_edge_values(self, capsys, monkeypatch, values):
        monkeypatch.setattr(GammaRatioDist, "sample",
                            lambda dist, n, rng=None: np.array(values[:n]))
        n = len(values)
        doc = {"model": "oe-gamma", "seed": 3, "n": n,
               "values": [_json_number(v) for v in values]}
        for fmt, want in (("json", json.dumps(doc, indent=2) + "\n"),
                          ("tsv", "".join(_tsv_number(v) + "\n" for v in values))):
            code, out, _ = run_cli(capsys, "sample", "--params", M2, "--n", str(n),
                                   "--seed", "3", "--format", fmt)
            assert code == 0
            assert out == want, fmt
        if values is self.EDGE:
            # the oracle's reading of the edge values, by hand
            assert out.splitlines()[:3] == ["0", "-0", "1"]
            assert [json.dumps(v) for v in doc["values"]] == [
                "0.0", "-0.0", "1.0", "3.0", "1.0", "-1.0", "100000.0",
                "10000000000.0", "12345678900.0", "1500000000000.0", "1e+16",
                "1e-05", "2.5e-07", "5e-324", "4.9e-314", "2.225073859e-308",
                "1.797693134e+308", "1.797693134e+308", "1.797693134e+308",
                "null", "null", "null"]

    def test_curves_rows_with_edge_values(self, capsys, monkeypatch):
        # a model whose curves put the edge values in the cdf column and,
        # by the pdf's exp, 0, 1, an infinite and a clamped pdf in the rows
        n = len(self.EDGE)
        lp = np.full(n, -1.5)
        lp[:4] = [-np.inf, 0.0, 710.0, 709.782712893384]
        sf = np.linspace(1.0, 0.0, n)
        fake = dataclasses.replace(get_model("m6"), log_pdf=lambda x, t: lp,
                                   cdf=lambda x, t: np.array(self.EDGE), sf=lambda x, t: sf)
        monkeypatch.setattr(cli, "get_model", lambda name: fake)
        code, out, _ = run_cli(capsys, "curves", "--params", "1,1", "--grid", f"1:2:{n}")
        assert code == 0
        with np.errstate(over="ignore"):
            pdf = np.exp(lp)
        columns = [np.linspace(1.0, 2.0, n), pdf, self.EDGE, _hazard(lp, sf)]
        want = "x\tpdf\tcdf\thazard\n" + "".join(
            "\t".join(_tsv_number(float(c[i])) for c in columns) + "\n" for i in range(n))
        assert out == want
        rows = [ln.split("\t") for ln in out.splitlines()[1:]]
        assert [r[1] for r in rows[:4]] == ["0", "1", "nan", "1.797693134e+308"]
        assert rows[1][2] == "-0" and rows[2][2] == "1" and rows[-1][3] == "nan"

    @pytest.mark.parametrize("model, params, grid", [
        ("m6", "0.9,0.086", "-20000:20000:3"),  # 0 rows, cdf 1, hazard nan
        ("m1", "0.001,1", "-1e-320:1e-320:3"),  # an infinite pdf
        ("m2", M2, "0.1:30:200"),
    ])
    def test_curves_rows_are_the_per_value_text(self, capsys, model, params, grid):
        code, out, _ = run_cli(capsys, "curves", "--model", model, "--params", params,
                               f"--grid={grid}")
        assert code == 0
        m, theta = get_model(model), [float(t) for t in params.split(",")]
        start, stop, count = grid.split(":")
        x = np.linspace(float(start), float(stop), int(count))
        with np.errstate(all="ignore"):
            lp = np.asarray(m.log_pdf(x, theta), dtype=float)
            pdf = np.where(x > 0.0, np.exp(lp), 0.0)
            cdf = np.where(x > 0.0, np.asarray(m.cdf(x, theta), dtype=float), 0.0)
        columns = [x, pdf, cdf, _hazard(lp, np.asarray(m.sf(x, theta), dtype=float))]
        want = "".join("\t".join(_tsv_number(float(c[i])) for c in columns) + "\n"
                       for i in range(x.size))
        assert out == "x\tpdf\tcdf\thazard\n" + want


class TestMoments:
    def test_quadrature_moments_reported(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--params", M2, "--order", "2")
        assert code == 0
        doc = json.loads(out)
        dist = OEGammaDist(0.131, 0.179, 0.539)
        assert doc["moments"]["m1"] == float(f"{dist.moment_quadrature(1):.10g}")
        assert doc["moments"]["m2"] == float(f"{dist.moment_quadrature(2):.10g}")
        assert set(doc) == {"params", "moments", "skewness", "kurtosis"}

    def test_ten_digits_round_to_the_mpmath_side(self, capsys):
        # mpmath (30 digits, quadrature over ln T with X = log1p(1/T)/lam,
        # T ~ Gamma(alpha, rate beta)) gives kurtosis 12.800840415090023
        # here, a hair above the rounding midpoint of the tenth digit
        code, out, _ = run_cli(capsys, "moments", "--params", "2.14548,0.900244,2.82175",
                               "--order", "4")
        assert code == 0
        assert '"kurtosis": 12.80084042\n' in out

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

    def test_infinite_eta_is_not_a_divergence(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--params", "2,1,3", "--eta", "inf")
        assert code == 70 and out == ""
        assert err == "numerical error: renyi_entropy requires a finite eta, got eta = inf\n"

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

    @pytest.mark.parametrize("command", ["fit", "gof", "compare"])
    def test_negative_observations_are_data_error(self, capsys, tmp_path, command):
        p = tmp_path / "neg.csv"
        p.write_text("1.0\n-3.0\n2.0\n")
        code, out, err = run_cli(capsys, command, "--model", "m2", "--data", str(p))
        assert code == 65
        assert out == ""
        assert err == "data error: observations must be finite and strictly positive\n"

    def test_too_few_observations_for_gof_are_data_error(self, capsys, tmp_path):
        # the fit itself succeeds on two points; the criteria cannot
        p = tmp_path / "two.csv"
        p.write_text("2.0\n5.5\n")
        code, out, err = run_cli(capsys, "gof", "--model", "m6", "--data", str(p))
        assert code == 65
        assert out == ""
        assert err == "data error: AICc undefined for n <= k + 1 (n=2, k=2)\n"

    def test_out_redirects_everything(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "gof", "--model", "m6",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, "gof", "--model", "m6")
        assert target.read_text() == direct

    def test_python_dash_m_runs_the_cli(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--model", "m6")
        proc = subprocess.run(
            [sys.executable, "-m", "oddsgamma", "fit", "--model", "m6"],
            capture_output=True, env=CHILD_ENV)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()
        assert proc.stderr == err.encode() == b""

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
    """scipy.special costs about half a second to import, and neither
    `import oddsgamma` nor the sample command loads it (nor any scipy
    module), nor do curves for m1, m2 or m6, compare, fit, gof and
    moments: lnGamma, psi, the trigamma term, the normal cdf and
    quantile, and the incomplete gamma pair outside scipy's uniform
    asymptotic window (a > 20 with x near a) are the package's own, and
    the moments and entropies take their nodes on the gamma scale,
    without an inverse of the incomplete gamma. Every command prints the
    same bytes as in an interpreter that had it loaded before.
    scipy.optimize costs about a third of a second, and no
    command loads it: the fits are Newton iterations in numpy. Nor does
    any command load scipy.integrate: the expectations run on the
    package's own tanh-sinh rule."""

    PROBE = """\
import contextlib, io, json, sys
WATCHED = ("scipy", "scipy.special", "scipy.optimize", "scipy.integrate")
def loaded():
    return [name for name in WATCHED if name in sys.modules]
import oddsgamma
report = {"import": loaded(), "runs": []}
from oddsgamma.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    report["runs"].append([code, loaded(), out.getvalue()])
print(json.dumps(report))
"""

    # one interpreter runs them all in turn, so each command's loaded
    # modules include those of the commands before it
    COMMANDS = [
        ["sample", "--params", M2, "--n", "10", "--seed", "1"],
        ["curves", "--model", "m1", "--params", "0.84,0.0687", "--grid", "0.1:60:200"],
        ["curves", "--params", M2, "--grid", "0.1:30:200"],
        ["curves", "--model", "m6", "--params", "0.9,0.086", "--grid", "0.1:60:200"],
        ["compare"],
        ["fit", "--model", "m2"],
        ["gof", "--model", "m6"],
        ["moments", "--params", "2,1,3", "--order", "4", "--eta", "2"],
        ["curves", "--params", M2, "--grid", "0.5:5:4"],
    ]
    IDS = ["sample", "curves-m1", "curves-m2", "curves-m6", "compare", "fit", "gof",
           "moments", "curves"]

    @pytest.fixture(scope="class")
    def report(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, json.dumps(self.COMMANDS)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        return dict(report, **dict(zip(self.IDS, report["runs"])))

    def test_import_loads_no_scipy(self, report):
        assert report["import"] == []

    def test_sample_loads_no_scipy(self, report):
        assert report["sample"][:2] == [0, []]

    @pytest.mark.parametrize("run", ["curves-m1", "curves-m2", "curves-m6"])
    def test_curves_loads_no_scipy_special(self, report, run):
        code, loaded, out = report[run]
        assert code == 0 and out.startswith("x\tpdf\tcdf\thazard\n")
        assert "scipy.special" not in loaded, run

    @pytest.mark.parametrize("run", ["compare", "fit", "gof"])
    def test_fits_load_no_scipy_special(self, report, run):
        code, loaded, out = report[run]
        assert code == 0 and out, run
        assert "scipy.special" not in loaded, run

    def test_moments_loads_no_scipy_special(self, report):
        # raw moments 1-4 and the order-2 entropy on gamma-scale nodes
        code, loaded, out = report["moments"]
        assert code == 0 and '"renyi_entropy"' in out
        assert "scipy.special" not in loaded

    def test_no_command_loads_optimize(self, report):
        for run in self.IDS:
            code, loaded, _ = report[run]
            assert code == 0, run
            assert "scipy.optimize" not in loaded, run
            assert "scipy.integrate" not in loaded, run

    @pytest.mark.parametrize("run, argv", list(zip(IDS, COMMANDS)), ids=IDS)
    def test_output_matches_a_preloaded_scipy(self, capsys, report, run, argv):
        assert "scipy.special" in sys.modules
        code, out, _ = run_cli(capsys, *argv)
        assert [code, out] == [report[run][0], report[run][2]]
