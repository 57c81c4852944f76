"""File formats and the command-line interface."""
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chaoslimits import (
    BUILTIN_FAMILIES,
    SymmetricKernel,
    classifier,
    cli,
    dumps_struct,
    gamma_fixed_family,
    gamma_target,
    gaussian_clt_family,
    iter_gaussian_chunks,
    load_target,
    mc_twins,
    normal_target,
    run_family_diagnostics,
    sample_gaussian,
    save_samples,
    simulate,
    SimConfig,
    symmetrize,
)
from chaoslimits.io import format_float
from oracles import load_samples
from test_golden_cli import TARGET_PARAMS


# --- float and JSON formatting -----------------------------------------------------------

def test_format_float_round_trips_17_digits():
    for x in (1 / 3, 0.1, 12345.6789e-12, -2.5, math.pi):
        assert float(format_float(x)) == x


def test_format_float_normalizes_negative_zero():
    assert format_float(-0.0) == "0"
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps_struct_is_valid_json():
    obj = {"a": [1, 2.5, None], "b": {"c": True, "d": "x"},
           "e": np.array([0.25, -0.0])}
    text = dumps_struct(obj)
    back = json.loads(text)
    assert back["a"] == [1, 2.5, None]
    assert back["b"] == {"c": True, "d": "x"}
    assert back["e"] == [0.25, 0]


def test_dumps_struct_deterministic():
    obj = {"z": 1.0, "a": [1 / 3] * 3}
    assert dumps_struct(obj) == dumps_struct(obj)


# --- target files -----------------------------------------------------------------------------

def test_target_file_custom_grid(tmp_path):
    xs = np.linspace(0.1, 6.0, 60)
    ps = np.exp(-xs)
    p = tmp_path / "custom.json"
    p.write_text(json.dumps({
        "name": "custom",
        "density": [[float(x), float(q)] for x, q in zip(xs, ps)],
        "support": [0.1, 6.0],
    }))
    t = load_target(p)
    assert t.name == "custom"
    assert abs(t.moment(0) - 1.0) < 1e-6


def test_target_file_rejections(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "custom", "density": [[0, 1], [1, 1]]}))
    with pytest.raises(ValueError):
        load_target(p)  # grid too short / support missing


# --- sample files -----------------------------------------------------------------------------

def test_sample_file_round_trip(tmp_path):
    t = gamma_target(2.0, 1.0)
    e = simulate(t, SimConfig(dt=2e-3, burn_in=200, samples=50, thinning=2,
                              seed=9))
    p = tmp_path / "samples.txt"
    save_samples(e, p)
    values, header = load_samples(p)
    assert np.array_equal(values, e.values)
    assert header["schema_version"] == "1"
    assert float(header["clamp_fraction"]) == e.clamp_fraction
    assert int(header["count"]) == 50


# --- the command-line interface ----------------------------------------------------------------

def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_targets_list(capsys):
    code, out, _ = run_cli(capsys, ["targets-list"])
    assert code == 0
    doc = json.loads(out)
    names = {row["name"] for row in doc["targets"]}
    assert {"normal", "student", "pareto", "gamma", "inverse_gamma",
            "f", "uniform", "beta"} <= names


def test_cli_target_flags_are_the_listed_params(capsys):
    # targets-coeffs takes one flag per parameter targets-list prints, and a
    # target given exactly its listed params echoes them back
    _, out, _ = run_cli(capsys, ["targets-list"])
    rows = json.loads(out)["targets"]
    code, help_text, _ = run_cli(capsys, ["targets-coeffs", "--help"])
    assert code == 0
    flags = set(re.findall(r"--(\w+) [A-Z]+", help_text)) - {"name"}
    assert flags == {p for row in rows for p in row["params"]}
    for row in rows:
        argv = [arg for p in row["params"] for arg in (f"--{p}", "5")]
        code, out, err = run_cli(capsys, ["targets-coeffs", "--name", row["name"], *argv])
        assert code == 0, err
        assert list(json.loads(out)["target"]["params"]) == row["params"]


def test_cli_targets_coeffs_student(capsys):
    code, out, _ = run_cli(capsys, ["targets-coeffs", "--name", "student",
                                    "--nu", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 0.5
    assert doc["beta"] == 0.0
    assert doc["gamma"] == 2.5


def test_cli_classify_gamma(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--alpha", "0", "--beta", "2",
                                    "--gamma", "2"])
    assert code == 0
    doc = json.loads(out)["classifier"]
    assert doc["kind"] == "GammaOnly"
    assert doc["gamma_params"] == {"lambda": 1.0, "a": 1.0}
    assert doc["roots"] == [2, 2]


def test_cli_classify_outside(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--alpha", "0.3", "--beta",
                                    "1", "--gamma", "1"])
    assert code == 0
    doc = json.loads(out)["classifier"]
    assert doc["kind"] == "OutsideHypotheses"
    assert doc["ec_discriminant"] < 0


def test_cli_diagnose_clt_trend(capsys):
    code, out, _ = run_cli(capsys, ["diagnose", "--family", "gaussian_clt",
                                    "--m", "2,4,8", "--name", "normal",
                                    "--gamma", "1"])
    assert code == 0
    doc = json.loads(out)
    ef4 = [rec["ef4"] for rec in doc["members"]]
    assert ef4 == sorted(ef4, reverse=True)
    assert abs(ef4[-1] - (3 + 12 / 8)) < 1e-12
    assert doc["classifier"]["kind"] == "GaussianOnly"


def test_cli_simulate_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "run.txt"
    argv = ["simulate", "--name", "gamma", "--a", "2", "--lambda", "1",
            "--dt", "2e-3", "--burn-in", "500", "--samples", "100",
            "--seed", "4", "--out", str(out_file)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["count"] == 100
    assert 0 <= doc["ks_distance"] <= 1
    assert "dictionary" in doc and "w1_vs_exact_sampling" in doc
    values, header = load_samples(out_file)
    assert len(values) == 100
    # byte-identical rerun
    first = out_file.read_bytes()
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert out_file.read_bytes() == first


def test_cli_stein_check_named(capsys):
    code, out, _ = run_cli(capsys, ["stein-check", "--name", "gamma",
                                    "--a", "2", "--lambda", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert max(doc["max_abs_residual"].values()) < 1e-6


@pytest.mark.parametrize("name", sorted(TARGET_PARAMS))
def test_cli_stein_check_named_targets_at_rounding_level(capsys, name):
    # x and x^2 take the closed-form polynomial Stein solution
    code, out, _ = run_cli(capsys, ["stein-check", "--name", name, *TARGET_PARAMS[name]])
    assert code == 0
    assert max(json.loads(out)["max_abs_residual"].values()) <= 1e-12


def test_cli_stein_check_inverse_gamma_near_its_moment_bound(capsys):
    # E X^2 exists for lambda = 2.5; the quadrature route's x^2 residual was
    # 6.5e-6, past the 1e-6 tolerance
    code, out, _ = run_cli(capsys, ["stein-check", "--name", "inverse_gamma",
                                    "--delta", "3", "--lambda", "2.5"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cli_stein_check_beta_with_singular_ends(capsys):
    # ppf(0.005) of Beta(0.1, 0.1) rounds to the lower end, where a(x) = 0;
    # validate rejected the law there before the grid was kept inside the support
    code, out, _ = run_cli(capsys, ["stein-check", "--name", "beta",
                                    "--a", "0.1", "--b", "0.1"])
    assert code == 0
    assert max(json.loads(out)["max_abs_residual"].values()) <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [["gamma", "--a", "0.05", "--lambda", "1"],
                                  ["f", "--a", "0.1", "--b", "20"],
                                  ["beta", "--a", "0.05", "--b", "2"],
                                  ["gamma", "--a", "0.3", "--lambda", "1"]],
                         ids=" ".join)
def test_cli_stein_check_beside_a_singular_end(capsys, args):
    # validate's quad used to reject the first two laws and warn on the others
    code, out, err = run_cli(capsys, ["stein-check", "--name", *args])
    assert code == 0 and json.loads(out)["pass"] is True and err == ""


def test_cli_stein_check_grid_target_file(capsys):
    # a 97-knot N(0, 1) density on [-6, 6]: both residuals meet the named
    # targets' tolerance, with no quadrature warning
    path = Path(__file__).parent / "data" / "normal_grid97.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["stein-check", "--target", str(path)])
    assert code == 0 and err == ""
    assert not caught
    doc = json.loads(out)
    assert doc["pass"] is True
    assert max(doc["max_abs_residual"].values()) <= 1e-6


def test_cli_oracle_check(capsys):
    code, out, _ = run_cli(capsys, ["oracle-check", "--seed", "2", "--m", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    first = out
    code, out, _ = run_cli(capsys, ["oracle-check", "--seed", "2", "--m", "8"])
    assert out == first  # byte-identical rerun


def test_cli_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["targets-coeffs", "--name", "cauchy"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, ["classify", "--alpha", "1", "--beta",
                                    "0", "--gamma", "-1"])
    assert code == 0  # excluded alpha is a verdict, not an error
    code, _, err = run_cli(capsys, ["diagnose", "--family", "gaussian_clt",
                                    "--m", "2", "--name", "normal",
                                    "--gamma", "1", "--mc", "100"])
    assert code == 2 and "seed" in err
    bad = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, ["stein-check", "--target", str(bad)])
    assert code == 2
    code, _, err = run_cli(capsys, ["simulate", "--name", "normal",
                                    "--gamma", "1", "--dt", "1e9",
                                    "--samples", "10", "--burn-in", "10",
                                    "--seed", "1"])
    assert code == 1 and "numeric failure" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_is_not_bad_input(capsys, monkeypatch):
    # a closed stdout is no validation error: exit 1 and no "error:" line
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["classify", "--alpha", "0", "--beta", "2", "--gamma", "4"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # a bad flag first, then valid calls: each gives the bytes and exit code
    # it gives on a parser of its own, and the parser is built once
    calls = [
        ["classify", "--alpha", "0", "--bogus", "1"],
        ["classify", "--alpha", "0", "--beta", "2", "--gamma", "4"],
        ["targets-coeffs", "--name", "student", "--nu", "5"],
        ["stein-check", "--name", "beta", "--a", "2", "--b", "3"],
    ]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, argv))
    assert [code for code, _, _ in alone] == [2, 0, 0, 0]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run_cli(capsys, argv) for argv in calls] == alone
    assert len(built) == 1
    cli._parser.cache_clear()


def test_cli_oracle_check_rejects_a_trial_count_below_one(capsys):
    for m in ("0", "-3"):
        code, out, err = run_cli(capsys, ["oracle-check", "--seed", "1", "--m", m])
        assert code == 2 and "--m must be >= 1" in err and not out


def test_cli_diagnose_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(capsys, ["diagnose", "--family", "gaussian_clt",
                                      "--m", "2", "--name", "normal", "--gamma",
                                      "1", "--mc", "-5", "--seed", "1"])
    assert code == 2 and "mc_samples must be >= 0" in err and not out


def test_cli_diagnose_rejects_a_single_sample(capsys):
    code, out, err = run_cli(capsys, ["diagnose", "--family", "gaussian_clt",
                                      "--m", "2", "--name", "normal", "--gamma",
                                      "1", "--mc", "1", "--seed", "1"])
    assert code == 2 and "mc_samples must be 0 or >= 2" in err and not out
    assert "Warning" not in err


def test_cli_diagnose_rejects_non_integer_family_size(capsys):
    # --k parses as an int, so 4.0 is rejected rather than read as 4
    for k, named in (("2.5", "invalid int value: '2.5'"),
                     ("4.0", "invalid int value: '4.0'"), ("0", "k must be >= 1")):
        code, out, err = run_cli(capsys, ["diagnose", "--family", "gamma_fixed",
                                          "--k", k, "--m", "1", "--name",
                                          "normal", "--gamma", "1"])
        assert code == 2 and named in err and not out


def test_cli_diagnose_gamma_family_fixed_point(capsys):
    # --k sizes the family and the matched Gamma(k/2, 1/2) is named by flags
    code, out, _ = run_cli(capsys, ["diagnose", "--family", "gamma_fixed",
                                    "--k", "1", "--m", "1,2", "--name", "gamma",
                                    "--a", "0.5", "--lambda", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["members"][0]["stein_residual_l2_chaos"] == 0.0
    assert doc["members"][0]["gamma_kernel_gap"] == 0.0
    assert doc["classifier"]["kind"] == "GammaOnly"


def test_cli_diagnose_pairs_gamma_family_with_its_named_limit(capsys):
    # --k sizes the family and --a shapes the target, so Gamma(k/2, 1/2) is
    # reachable by flags alone
    code, out, _ = run_cli(capsys, ["diagnose", "--family", "gamma_fixed",
                                    "--k", "2", "--m", "1,2", "--name", "gamma",
                                    "--a", "1", "--lambda", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert [rec["stein_residual_l2_chaos"] for rec in doc["members"]] == [0.0, 0.0]
    # --a no longer sizes the family: k stays at its default 1
    code, out, _ = run_cli(capsys, ["diagnose", "--family", "gamma_fixed",
                                    "--m", "1", "--name", "gamma", "--a", "3",
                                    "--lambda", "0.5"])
    assert code == 0 and json.loads(out)["members"][0]["dim"] == 1


# --- one check per input: nothing given is silently dropped ---------------------------

GRID_FILE = str(Path(__file__).parent / "data" / "normal_grid97.json")


@pytest.mark.parametrize("argv, named", [
    # a target flag the named target does not take
    (["targets-coeffs", "--name", "gamma", "--a", "2", "--lambda", "1",
      "--nu", "9"], "nu"),
    (["targets-coeffs", "--name", "beta", "--a", "2", "--b", "3",
      "--gamma", "1"], "gamma"),
    (["stein-check", "--name", "normal", "--gamma", "1", "--lambda", "2"], "lam"),
    # a target flag with a target file
    (["stein-check", "--target", GRID_FILE, "--gamma", "5"], "--gamma"),
    # both --name and --target
    (["stein-check", "--name", "beta", "--a", "2", "--b", "3",
      "--target", GRID_FILE], "--target"),
    # --k on a family that has no size
    (["diagnose", "--family", "gaussian_clt", "--k", "5", "--m", "2",
      "--name", "normal", "--gamma", "1"], "'k'"),
    # a non-finite target parameter, which no "<= 0" guard catches
    (["simulate", "--name", "normal", "--gamma", "inf", "--seed", "1"],
     "parameter gamma must be finite"),
    (["stein-check", "--name", "gamma", "--a", "nan", "--lambda", "1"],
     "parameter a must be finite"),
    (["targets-coeffs", "--name", "student", "--nu", "inf"], "parameter nu must be finite"),
    # a non-finite coefficient, named by the classifier, not by the serializer
    (["classify", "--alpha", "nan", "--beta", "0", "--gamma", "1"],
     "alpha=nan, beta=0.0, gamma=1.0"),
    # --target reads a grid file: it is not a second spelling of --name, and a
    # grid's numeric a(x) has no use in targets-coeffs or diagnose
    (["stein-check", "--target", "uniform"], "No such file"),
    (["targets-coeffs", "--name", "normal", "--gamma", "1", "--target", GRID_FILE],
     "unrecognized arguments: --target"),
    (["diagnose", "--family", "gaussian_clt", "--m", "2", "--name", "normal",
      "--gamma", "1", "--target", GRID_FILE], "unrecognized arguments: --target"),
    # a report goes to stdout (> FILE); only simulate --out writes a file
    *[(argv + ["--out", os.devnull], "unrecognized arguments: --out") for argv in (
        ["targets-list"],
        ["targets-coeffs", "--name", "student", "--nu", "5"],
        ["classify", "--alpha", "0", "--beta", "2", "--gamma", "4"],
        ["diagnose", "--family", "gaussian_clt", "--m", "2", "--name", "normal",
         "--gamma", "1"],
        ["stein-check", "--name", "uniform"],
        ["oracle-check", "--seed", "1", "--m", "1"])],
    # a non-finite step, which used to overflow the chain (exit 1)
    (["simulate", "--name", "normal", "--gamma", "1", "--seed", "1", "--dt", "inf"],
     "dt must be positive and finite"),
    # --a is not a second spelling of inverse_gamma's delta
    (["targets-coeffs", "--name", "inverse_gamma", "--a", "3", "--lambda", "4"], "delta"),
    # the families are BUILTIN_FAMILIES' names
    (["diagnose", "--family", "nope", "--m", "2", "--name", "normal", "--gamma", "1"],
     "invalid choice: 'nope'"),
    # a seed with no Monte Carlo twins to seed
    (["diagnose", "--family", "gaussian_clt", "--m", "2", "--name", "normal",
      "--gamma", "1", "--seed", "5"], "--seed seeds the Monte Carlo twins: give it with --mc"),
])
def test_cli_rejects_an_input_it_would_drop(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and named in err and not out


def test_cli_target_file_holds_a_density_grid(capsys, tmp_path):
    # a named law is given by --name, never by a target file
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps({"name": "gamma", "params": {"a": 2.0, "lambda": 1.0}}))
    code, out, err = run_cli(capsys, ["stein-check", "--target", str(p)])
    assert code == 2 and "--name" in err and not out


def _grid_file_with(tmp_path, field, value):
    doc = json.loads(Path(GRID_FILE).read_text())
    if field == "support":
        doc["support"] = value
    else:
        doc["density"][10][1] = value
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("field, value", [
    ("support", ["-6", "6"]), ("support", [True, 6.0]), ("support", [-6.0, None]),
    ("density", "0.1"), ("density", False), ("density", None),
])
def test_cli_grid_file_rejects_an_entry_that_is_not_a_number(capsys, tmp_path, field,
                                                             value):
    # each entry must be a JSON number, not one that float() would accept
    path = _grid_file_with(tmp_path, field, value)
    code, out, err = run_cli(capsys, ["stein-check", "--target", path])
    assert code == 2 and f"'{field}'" in err and not out


def _mc_twins(seed):
    return mc_twins(gaussian_clt_family()(2), (0.0, 0.0, 2.0), 10, seed)


def _family_mc(seed):
    return run_family_diagnostics(gaussian_clt_family(), [2], normal_target(1.0),
                                  mc_samples=10, seed=seed)


@pytest.mark.parametrize("call, named", [
    (lambda: SimConfig(burn_in=True, seed=1), "burn_in"),
    (lambda: SimConfig(burn_in=2.5, seed=1), "burn_in"),
    (lambda: SimConfig(samples=100.0, seed=1), "samples"),
    (lambda: SimConfig(thinning=True, seed=1), "thinning"),
    (lambda: gaussian_clt_family()(2.5), "m"),
    (lambda: gaussian_clt_family()(0), "m"),
    (lambda: gamma_fixed_family(2)(-3), "m"),
    (lambda: sample_gaussian(2, 10, 3.7), "seed"),
    (lambda: sample_gaussian(2, 0, True), "seed"),
    (lambda: list(iter_gaussian_chunks(1, -5, 1)), "count"),
    (lambda: list(iter_gaussian_chunks(1, 5, 1, rows=-1)), "rows"),
    (lambda: _mc_twins(3.7), "seed"),
    (lambda: _family_mc(3.7), "seed"),
    (lambda: _family_mc(True), "seed"),
    (lambda: gamma_target(2.0, 1.0).sample_exact(10, seed=3.7), "seed"),
    (lambda: gamma_target(2.0, 1.0).sample_exact(10, seed=True), "seed"),
    (lambda: SymmetricKernel(2, 1, {(0.7,): 1.0}), "index"),
    (lambda: SymmetricKernel(2, 1, {(True,): 1.0}), "index"),
    (lambda: symmetrize({(0.7, 1): 1.0}, 2, 2), "index"),
    (lambda: symmetrize({(True,): 1.0}, 2, 1), "index"),
    # nan compares false in every branch test: unchecked, (nan, 0, 1) would be
    # GaussianOnly and (0, nan, 1) GammaOnly with lambda = nan
    (lambda: classifier(math.nan, 0.0, 1.0), "alpha=nan"),
    (lambda: classifier(0.0, math.nan, 1.0), "beta=nan"),
    (lambda: classifier(0.0, 2.0, math.inf), "gamma=inf"),
])
def test_library_rejects_an_input_it_would_drop(call, named):
    # each is rejected, never truncated (3.7 -> 3, True -> 1) or ignored
    with pytest.raises(ValueError, match=named):
        call()


def test_gaussian_clt_family_takes_no_size():
    with pytest.raises(TypeError, match="'k'"):
        BUILTIN_FAMILIES["gaussian_clt"](k=5)
