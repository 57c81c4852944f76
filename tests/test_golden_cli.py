"""Byte-identical CLI output for fixed inputs.

Each case runs ``chaoslimits.cli.main`` in-process and compares its stdout
with ``tests/golden/<case>.out`` byte for byte, and its exit code with the
table below.  Only exact subcommands are pinned: the bytes of ``--mc``,
``simulate`` and ``stein-check`` depend on numpy summation order or scipy
quadrature, which may differ between library versions.

After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import pathlib
import sys

import pytest

from chaoslimits import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

TARGET_PARAMS = {
    "normal": ["--gamma", "1"],
    "student": ["--nu", "7"],
    "pareto": ["--nu", "5"],
    "gamma": ["--a", "2", "--lambda", "1"],
    "inverse_gamma": ["--delta", "3", "--lambda", "4"],
    "f": ["--a", "6", "--b", "10"],
    "uniform": [],
    "beta": ["--a", "2", "--b", "3"],
}

# case name -> (argv, exit code)
CASES = {
    "diagnose_clt_normal": (
        ["diagnose", "--family", "gaussian_clt", "--m", "1,2,4,8,64",
         "--name", "normal", "--gamma", "1"], 0),
    "diagnose_gamma_fixed": (
        ["diagnose", "--family", "gamma_fixed", "--k", "4", "--m", "1,2",
         "--name", "gamma", "--a", "4", "--lambda", "0.5"], 0),
    "diagnose_clt_beta": (
        ["diagnose", "--family", "gaussian_clt", "--m", "2,4,8",
         "--name", "beta", "--a", "2", "--b", "3"], 0),
    "oracle_check_seed3": (["oracle-check", "--seed", "3"], 0),
    "targets_list": (["targets-list"], 0),
    "classify_gamma": (
        ["classify", "--alpha", "0", "--beta", "2", "--gamma", "4"], 0),
    **{
        f"targets_coeffs_{name}": (
            ["targets-coeffs", "--name", name, *params], 0)
        for name, params in TARGET_PARAMS.items()
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    argv, expected_code = CASES[case]
    assert cli.main(list(argv)) == expected_code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{case}.out").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, expected_code) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != expected_code:
            sys.exit(f"{case}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{case}.out").write_bytes(buf.getvalue().encode())
