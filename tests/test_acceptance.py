"""Acceptance gate: every criterion at its stated (exact) tolerance and budget.

All identities are exact algebraic equalities over Q[hbar][alpha, alpha^-1];
there is no numerical tolerance anywhere.  Each criterion prints one
pass/fail line (run with ``pytest -s`` to see them as they happen).  The
checks are read from the suite run once per session (``suite_results`` in
``conftest.py``), each held to its budget as timed in that run.
"""

from fractions import Fraction

from latticebv.cochains import Cochain
from latticebv.complexes import ModelParams, d_quantum
from latticebv.operad import Interval
from latticebv.oracle import d_quantum_reference
from latticebv.parser import parse_cochain
from latticebv.reduction import Window, relocate
from latticebv.scalars import HBAR, Scalar
from latticebv.weyl import StarAlgebra, WeylElement

MASSLESS = ModelParams.massless()
SYMBOLIC = ModelParams.symbolic()


def _run(suite, criterion: int, check_id: str, budget_ms: int):
    result = next(r for r in suite if r.id == check_id)
    print(
        f"criterion {criterion:>2} [{check_id}]: {result.status.upper()} "
        f"({result.elapsed_ms} ms, budget {budget_ms} ms)"
    )
    assert result.status == "pass", result.witness
    assert result.elapsed_ms < budget_ms, f"{check_id} exceeded its {budget_ms} ms budget"
    return result


def test_criterion_01_massless_commutator(suite_results):
    result = _run(suite_results, 1, "massless-commutator", 1000)
    assert result.witness["certificate"]["verified"] is True
    algebra = StarAlgebra(MASSLESS, "massless35")
    x = algebra.class_of(parse_cochain("delta[2] - delta[1]"))
    y = algebra.class_of(parse_cochain("delta[0]"))
    assert algebra.commutator(x, y).canonical_form == Cochain.scalar(HBAR)


def test_criterion_02_homotopy_certificate(suite_results):
    input_cochain = parse_cochain(
        "3*delta[0]*delta[1] - 2*delta[-1]*delta[1] - 2*delta[0]*delta[2] + delta[-1]*delta[2]"
    )
    homotopy = parse_cochain(
        "bdelta[1]*delta[-1] - bdelta[0]*delta[0] - 2*bdelta[1]*delta[0]"
    )
    lhs = input_cochain - Cochain.scalar(HBAR)
    rhs = d_quantum(homotopy, MASSLESS)
    # term-by-term comparison of the two sides
    monomials = {m for m, _ in lhs.terms()} | {m for m, _ in rhs.terms()}
    for m in monomials:
        assert lhs.coefficient(m) == rhs.coefficient(m), f"mismatch at {m}"
    assert lhs == d_quantum_reference(homotopy, MASSLESS)
    _run(suite_results, 2, "homotopy-certificate-3.5", 1000)


def test_criterion_03_massive_commutator(suite_results):
    result = _run(suite_results, 3, "massive-commutator", 5000)
    assert result.witness["unnormalized"] == "2*hbar"
    assert result.witness["normalized"] == "hbar"


def test_criterion_04_relocation(suite_results):
    cert = relocate(parse_cochain("delta[0]"), Interval(-4, 4), Window(2), SYMBOLIC)
    ap1 = SYMBOLIC.alpha_plus_inverse()
    assert cert.normal_form == Cochain.field(2) * (ap1 * ap1 - Scalar.one()) - Cochain.field(3) * ap1
    assert cert.homotopy == Cochain.antifield(1) + Cochain.antifield(2) * ap1
    _run(suite_results, 4, "relocation-4.3", 1000)


def test_criterion_05_time_evolution_matrix(suite_results):
    _run(suite_results, 5, "time-evolution-matrix", 5000)
    # alpha := 1 degeneration
    assert time_evolution_massless_images() == (
        WeylElement.q() + WeylElement.p(),
        WeylElement.p(),
    )


def time_evolution_massless_images():
    algebra = StarAlgebra(MASSLESS, "default")
    return (
        algebra.to_weyl(algebra.translate_class(algebra.q_class, 1)),
        algebra.to_weyl(algebra.translate_class(algebra.p_class, 1)),
    )


def test_criterion_06_weyl_iso(suite_results):
    result = _run(suite_results, 6, "weyl-iso", 60000)
    assert result.witness["basis_size"] == 28  # all q^a p^b with a+b <= 6
    assert result.witness["structure_pairs"] == 210


def test_criterion_07_mass_independence(suite_results):
    result = _run(suite_results, 7, "mass-independence", 60000)
    assert result.witness["alphas"] == ["symbolic", "1", "2", "3"]


def test_criterion_08_anti_involution_and_fock(suite_results):
    first = _run(suite_results, 8, "anti-involution", 5000)
    second = _run(suite_results, 8, "fock-action", 5000)
    assert first.elapsed_ms + second.elapsed_ms < 5000


def test_criterion_09_property_suite(suite_results):
    total = 0
    for check_id in ("dsq-zero", "bv-identity", "pairing-compat", "q-injective", "confluence"):
        result = _run(suite_results, 9, check_id, 120000)
        total += result.elapsed_ms
    print(f"criterion  9 [property suite total]: {total} ms, budget 120000 ms")
    assert total < 120000


def test_criterion_10_local_constancy(suite_results):
    result = _run(suite_results, 10, "local-constancy", 120000)
    entries = result.witness["pairs"]
    assert len(entries) == 20  # 10 nested pairs at two specializations
    for entry in entries:
        maxdeg = entry["maxdeg"]
        assert entry["h0_dim"] == (maxdeg + 1) * (maxdeg + 2) // 2
