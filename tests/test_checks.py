import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_registry_has_the_full_suite():
    assert len(CHECK_IDS) == 23
    assert CHECK_IDS[0] == "dsq-zero"
    assert "massless-commutator" in CHECK_IDS
    assert "homotopy-certificate-3.5" in CHECK_IDS


def test_unknown_id_is_an_error():
    with pytest.raises(ValueError):
        run_check("nonexistent")


def test_cheap_checks_pass_with_witnesses():
    result = run_check("kernel-functions")
    assert result.status == "pass"
    result = run_check("chain-level-product")
    assert result.status == "pass"
    assert "delta[0]*delta[2]" in result.witness["product"]
    result = run_check("relocation-4.3")
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
    results = run_suite(["kernel-functions", "chain-level-product"])
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


def test_empty_selection():
    results = run_suite([])
    assert results == []
    assert json.loads(emit_report(results, "json")) == []
    assert suite_exit_code(results) == 0


def test_reports_are_deterministic():
    def snapshot():
        results = run_suite(["gamma-equivariance", "q-injective"], CheckConfig(seed=42))
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


def test_full_suite_passes_end_to_end():
    # the complete named suite: 23 entries, all passing, exit code 0
    results = run_suite()
    assert len(results) == 23
    assert [r.id for r in results] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in results), emit_report(results, "text")
    assert suite_exit_code(results) == 0
