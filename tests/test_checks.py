import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticebv import checks
from latticebv.checks import (
    CHECK_IDS,
    CheckConfig,
    CheckResult,
    emit_report,
    run_check,
    run_suite,
    suite_exit_code,
)
from latticebv.cli import main
from latticebv.complexes import ModelParams

DEFAULTS = CheckConfig(seed=0, params=ModelParams.symbolic())


def test_registry_has_the_full_suite():
    assert len(CHECK_IDS) == 23
    assert CHECK_IDS[0] == "dsq-zero"
    assert "massless-commutator" in CHECK_IDS
    assert "homotopy-certificate-3.5" in CHECK_IDS


def test_every_check_function_is_registered_once_in_definition_order():
    # a _check_* function defined without its decorator would be missing here
    defined = sorted(
        (fn for name, fn in vars(checks).items() if name.startswith("_check_") and inspect.isfunction(fn)),
        key=lambda fn: fn.__code__.co_firstlineno,
    )
    assert [fn for _, fn in checks._BY_ID.values()] == defined
    assert CHECK_IDS == tuple(checks._BY_ID)


def test_statements_survive_python_OO():
    # statements are decorator arguments, so stripping docstrings keeps them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def statement(*flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "latticebv.cli", "check", "--id", "kernel-functions", "--format", "json"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)[0]["statement"]

    assert statement("-OO") == statement() == checks._BY_ID["kernel-functions"][0]


def test_unknown_id_is_an_error():
    with pytest.raises(ValueError):
        run_check("nonexistent", DEFAULTS)


def test_cheap_checks_pass_with_witnesses():
    result = run_check("kernel-functions", DEFAULTS)
    assert result.status == "pass"
    result = run_check("chain-level-product", DEFAULTS)
    assert result.status == "pass"
    assert "delta[0]*delta[2]" in result.witness["product"]
    result = run_check("relocation-4.3", DEFAULTS)
    assert result.status == "pass"
    assert result.witness["certificate"]["verified"] is True


BOGUS_CERTIFICATE_UNDER_O = """
import sys
from latticebv.checks import _certificate_witness
from latticebv.complexes import ModelParams
from latticebv.parser import parse_cochain as p
from latticebv.reduction import HomotopyCertificate

assert sys.flags.optimize, "must run under python -O"
cert = HomotopyCertificate(p("delta[3]"), p("delta[0]"), p("bdelta[1]"))
try:
    _certificate_witness(cert, ModelParams.symbolic())
except AssertionError:  # CertificateError, raised explicitly
    sys.exit(0)
sys.exit("bogus certificate came back verified")
"""


def test_certificate_witness_rejects_bogus_certificate_under_optimize():
    # delta[3] = delta[0] + d_h(bdelta[1]) is false; python -O strips asserts
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BOGUS_CERTIFICATE_UNDER_O],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_reports_and_exit_codes():
    results = run_suite(["kernel-functions", "chain-level-product"], DEFAULTS)
    text = emit_report(results, "text")
    assert "PASS" in text and "2/2 checks passed" in text
    payload = json.loads(emit_report(results, "json"))
    assert [entry["id"] for entry in payload] == ["kernel-functions", "chain-level-product"]
    assert all(
        set(entry) == {"id", "status", "statement", "witness", "elapsed"}
        for entry in payload
    )
    assert suite_exit_code(results) == 0

    failed = results + [
        CheckResult(id="fake", status="fail", statement="x", witness=None, elapsed_ms=0)
    ]
    assert suite_exit_code(failed) == 1
    with pytest.raises(ValueError):
        emit_report(results, "xml")


def test_crashing_check_is_reported_as_error(monkeypatch):
    def crash(_config):
        return 1 // 0

    monkeypatch.setitem(checks._BY_ID, "kernel-functions", ("crashes", crash))
    results = run_suite(["kernel-functions", "chain-level-product"], DEFAULTS)
    assert [r.status for r in results] == ["error", "pass"]
    assert results[0].witness == {
        "error": "ZeroDivisionError",
        "message": "integer division or modulo by zero",
    }
    assert "1/2 checks passed" in emit_report(results, "text")
    assert suite_exit_code(results) == 1


def test_empty_selection():
    results = run_suite([], DEFAULTS)
    assert results == []
    assert json.loads(emit_report(results, "json")) == []
    assert suite_exit_code(results) == 0


def test_reports_are_deterministic():
    def snapshot():
        config = CheckConfig(seed=42, params=ModelParams.symbolic())
        results = run_suite(["gamma-equivariance", "q-injective"], config)
        for r in results:
            r.elapsed_ms = 0
        return emit_report(results, "json")

    assert snapshot() == snapshot()


# -- command line ---------------------------------------------------------------


def test_cli_parse(capsys):
    assert main(["parse", "bdelta[1]*bdelta[1]"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["parse", "delta[1]*3"]) == 0
    assert capsys.readouterr().out.strip() == "3*delta[1]"
    assert main(["parse", "delta[oops"]) == 2


def test_cli_nf(capsys):
    code = main(["nf", "delta[2]", "--interval=-3,3", "--window", "0", "--alpha", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_form"] == "-delta[0] + 2*delta[1]"
    assert payload["verified"] is True


def test_cli_star(capsys):
    code = main(["star", "delta[2] - delta[1]", "delta[0]", "--geometry", "massless35", "--alpha", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delta" in out
    code = main(["star", "delta[0]", "delta[0]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "delta[0]^2"


def test_cli_cohomology(capsys):
    code = main(["cohomology", "--interval", "0,5", "--maxdeg", "2", "--hbar", "1", "--alpha", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"-2": 0, "-1": 0, "0": 6}


def test_cli_check_selected(capsys):
    code = main(
        ["check", "--id", "kernel-functions", "--id", "chain-level-product", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["status"] for entry in payload] == ["pass", "pass"]


def test_cli_check_list(capsys):
    assert main(["check", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == list(CHECK_IDS)


def test_cli_rejects_bad_interval(capsys):
    assert main(["nf", "delta[0]", "--interval", "0,1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "delta[0]", "--alpha", "1/0"],
        ["nf", "delta[0]", "--interval", "0,1/0"],
        ["check", "--id", "kernel-functions", "--hbar", "1/0"],
        ["star", "delta[0]", "delta[0]", "--hbar", "1/0"],
        ["cohomology", "--interval", "0,4", "--maxdeg", "1", "--alpha", "1/0"],
    ],
)
def test_cli_rejects_zero_denominators(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: zero denominator")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--id", "kernel-functions", "--alpha", "0"],
        ["nf", "delta[0]", "--alpha", "0"],
        ["star", "delta[0]", "delta[0]", "--alpha", "0"],
    ],
)
def test_cli_rejects_a_non_unit_alpha(argv, capsys):
    # the check parameters are built with the config, before any check runs
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: 0 is not a unit")


def test_cli_on_a_very_wide_interval(capsys):
    wide = "--interval=-1000000000,1000000000"
    assert main(["nf", "delta[0]", wide]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"] == "delta[0]"
    assert main(["cohomology", wide, "--maxdeg", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"0": 1}
    assert main(["cohomology", wide, "--maxdeg", "1"]) == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["nf", "delta[3]^256", "--interval=-4,4"], ["star", "delta[3]^256", "delta[0]"]],
)
def test_cli_rejects_high_powers_far_from_the_window(argv):
    # the work bound is checked before reducing: exit 2 at once, not a hang
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latticebv.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: reduction may rewrite more than")
    assert not proc.stdout


def test_full_suite_passes_end_to_end():
    # the complete named suite: 23 entries, all passing, exit code 0, and
    # the JSON report equal to the recorded one with elapsed times zeroed
    results = run_suite(None, DEFAULTS)
    assert len(results) == 23
    assert [r.id for r in results] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in results), emit_report(results, "text")
    assert suite_exit_code(results) == 0
    for r in results:
        r.elapsed_ms = 0
    recorded = json.loads((Path(__file__).parent / "data" / "check_all.json").read_text())
    assert json.loads(emit_report(results, "json")) == recorded
