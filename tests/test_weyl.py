import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from latticebv import operad, reduction, weyl
from latticebv.cli import main
from latticebv.cochains import Cochain, Monomial
from latticebv.complexes import ModelParams
from latticebv.reduction import Window, normal_form, verify_certificate
from latticebv.scalars import HBAR, Scalar
from latticebv.weyl import (
    GEOMETRIES,
    H0Class,
    StarAlgebra,
    WeylElement,
    fock_action,
    fock_projection,
    time_evolution,
    time_reversal_weyl,
)

d = Cochain.field
BENCHMARK = str(Path(__file__).resolve().parents[1] / "benchmark")

MASSLESS = ModelParams.massless()
SYMBOLIC = ModelParams.symbolic()
AP1 = SYMBOLIC.alpha_plus_inverse()


# -- normal ordering ----------------------------------------------------------


def _reduce_word(word: list[str]) -> WeylElement:
    """Oracle: reduce a q/p word with single pq -> qp + hbar swaps."""
    for i in range(len(word) - 1):
        if word[i] == "p" and word[i + 1] == "q":
            swapped = word[:i] + ["q", "p"] + word[i + 2 :]
            dropped = word[:i] + word[i + 2 :]
            return _reduce_word(swapped) + _reduce_word(dropped) * Scalar.hbar()
    return WeylElement({(word.count("q"), word.count("p")): 1})


def _naive_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    out = WeylElement.zero()
    for (a, b), c1 in x.terms():
        for (c, e), c2 in y.terms():
            word = ["q"] * a + ["p"] * b + ["q"] * c + ["p"] * e
            out = out + _reduce_word(word) * (c1 * c2)
    return out


def test_weyl_mul_examples():
    q, p = WeylElement.q(), WeylElement.p()
    assert p * q == WeylElement({(1, 1): 1, (0, 0): HBAR})
    assert q * p == WeylElement({(1, 1): 1})
    assert p * WeylElement.q(2) == WeylElement({(2, 1): 1, (1, 0): HBAR * 2})


def test_weyl_mul_matches_single_swap_oracle():
    rng = random.Random(12)
    for _ in range(60):
        x = WeylElement({(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        y = WeylElement({(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        if x.is_zero or y.is_zero:
            continue
        assert x * y == _naive_mul(x, y)


def test_weyl_mul_associative():
    rng = random.Random(13)
    for _ in range(60):
        xs = [
            WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
            for _ in range(3)
        ]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


# -- star product -------------------------------------------------------------


def test_star_of_delta0_with_itself():
    algebra = StarAlgebra(SYMBOLIC, "default")
    q = algebra.q_class
    product = algebra.star(q, q)
    assert product.canonical_form == d(0) ** 2
    assert verify_certificate(product.certificate, SYMBOLIC)


def test_massless_commutator_is_hbar():
    algebra = StarAlgebra(MASSLESS, "massless35")
    x = algebra.class_of(d(2) - d(1))
    y = algebra.class_of(d(0))
    assert algebra.commutator(x, y).canonical_form == Cochain.scalar(HBAR)


def test_massive_commutator_symbolic():
    algebra = StarAlgebra(SYMBOLIC, "default")
    two_p = algebra.class_of(d(1) - d(-1))
    assert algebra.commutator(two_p, algebra.q_class).canonical_form == Cochain.scalar(
        HBAR * 2
    )
    assert algebra.commutator(
        algebra.p_class, algebra.q_class
    ).canonical_form == Cochain.scalar(HBAR)


def test_star_unital():
    algebra = StarAlgebra(SYMBOLIC, "default")
    for x in (algebra.q_class, algebra.p_class, algebra.psi(2, 1)):
        assert algebra.star(algebra.one, x) == x
        assert algebra.star(x, algebra.one) == x


def test_star_independent_of_geometry():
    reps = [d(0), d(1) - d(-1), d(0) ** 2, d(0) * d(1)]
    results = {}
    for name in ("default", "massless35", "alternate"):
        algebra = StarAlgebra(MASSLESS, name)
        x = algebra.class_of(reps[0] + reps[2])
        y = algebra.class_of(reps[1])
        results[name] = algebra.star(x, y).canonical_form
    assert results["default"] == results["massless35"] == results["alternate"]


def test_star_independent_of_geometry_symbolic():
    for name in ("default", "alternate"):
        algebra = StarAlgebra(SYMBOLIC, name)
        got = algebra.commutator(algebra.p_class, algebra.q_class).canonical_form
        assert got == Cochain.scalar(HBAR)


def test_massless_p_representatives_agree():
    algebra = StarAlgebra(MASSLESS, "default")
    assert algebra.class_of(d(2) - d(1)) == algebra.class_of(d(1) - d(0))
    assert algebra.class_of(d(2) - d(1)) == algebra.p_class


# -- Weyl correspondence --------------------------------------------------------


def test_class_to_weyl_generators():
    algebra = StarAlgebra(SYMBOLIC, "default")
    assert algebra.to_weyl(algebra.q_class) == WeylElement.q()
    assert algebra.to_weyl(algebra.p_class) == WeylElement.p()
    assert algebra.to_weyl(algebra.one) == WeylElement.one()


def test_weyl_to_class_generators():
    algebra = StarAlgebra(SYMBOLIC, "default")
    assert algebra.from_weyl(WeylElement.q()) == algebra.q_class
    assert algebra.from_weyl(WeylElement.one()) == algebra.one
    qp = algebra.from_weyl(WeylElement({(1, 1): 1}))
    assert qp == algebra.star(algebra.q_class, algebra.p_class)


def test_round_trip_low_degree():
    algebra = StarAlgebra(SYMBOLIC, "default")
    for a in range(3):
        for b in range(3 - a):
            w = WeylElement({(a, b): 1})
            assert algebra.to_weyl(algebra.from_weyl(w)) == w


def test_degree_bound_enforced():
    algebra = StarAlgebra(SYMBOLIC, "default")
    with pytest.raises(ValueError):
        algebra.psi(7, 6)


def _triangular_to_weyl(algebra: StarAlgebra, x: H0Class) -> WeylElement:
    """Reference: peel the canonical form against the star powers psi(a, b).

    The canonical form of psi(a, b) is delta[0]^a delta[1]^b plus terms of
    smaller delta[1]-exponent or smaller total degree, with unit leading
    coefficient, so coefficients come off from the top.
    """
    residual = x.canonical_form
    coefficients = {}
    for n in range(residual.max_polynomial_degree(), -1, -1):
        for b in range(n, -1, -1):
            c = residual.coefficient(Monomial.make({0: n - b, 1: b}))
            if not c.is_zero:
                coefficients[(n - b, b)] = c
                residual = residual - algebra.psi(n - b, b).canonical_form * c
    assert residual.is_zero
    return WeylElement(coefficients)


@pytest.mark.parametrize("params", [SYMBOLIC, MASSLESS, ModelParams.at(alpha=2)], ids=["alpha", "1", "2"])
def test_to_weyl_matches_the_triangular_solve(params):
    algebra = StarAlgebra(params, "default")
    basis = [(a, n - a) for n in range(7) for a in range(n + 1)]
    for a, b in basis:
        x = algebra.psi(a, b)
        assert algebra.to_weyl(x) == _triangular_to_weyl(algebra, x) == WeylElement({(a, b): 1})
    for u, v in product(basis, repeat=2):
        if sum(u) + sum(v) <= 6:
            x = algebra.star(algebra.psi(*u), algebra.psi(*v))
            assert algebra.to_weyl(x) == _triangular_to_weyl(algebra, x)


def test_to_weyl_uses_neither_psi_nor_star(monkeypatch):
    def refuse(*args):
        raise AssertionError("to_weyl must not build star powers")

    rep = d(0) ** 2 * d(1) + (d(2) - d(-1)) ** 3 * d(3) ** 3
    reference = StarAlgebra(SYMBOLIC, "default")
    expected = _triangular_to_weyl(reference, reference.class_of(rep))
    monkeypatch.setattr(StarAlgebra, "psi", refuse)
    monkeypatch.setattr(StarAlgebra, "star", refuse)
    fresh = StarAlgebra(SYMBOLIC, "default")
    x = fresh.class_of(rep)
    assert x.canonical_form.max_polynomial_degree() == 6
    assert fresh.to_weyl(x) == expected


def test_star_and_to_weyl_build_no_homotopy(monkeypatch):
    # the star path reads only normal forms; a homotopy is built on first read
    built = []
    build = reduction._homotopy_cochain

    def counting(raw):
        built.append(raw)
        return build(raw)

    monkeypatch.setattr(reduction, "_homotopy_cochain", counting)
    algebra = StarAlgebra(SYMBOLIC, "default")
    x = algebra.star(algebra.star(algebra.psi(1, 1), algebra.psi(2, 0)), algebra.psi(0, 3))
    assert algebra.to_weyl(x) == WeylElement.q() * WeylElement.p() * WeylElement.q(2) * WeylElement.p(3)
    assert not built
    cert = x.certificate
    assert not cert.homotopy.is_zero and cert.homotopy is cert.homotopy
    assert len(built) == 1
    assert verify_certificate(cert, SYMBOLIC)


def test_to_weyl_rejects_a_form_outside_the_window():
    algebra = StarAlgebra(SYMBOLIC, "default")
    x = algebra.class_of(d(0))
    x._cert = normal_form(d(2), GEOMETRIES["default"].ambient, Window(2), SYMBOLIC)
    with pytest.raises(ValueError, match="leaves the window"):
        algebra.to_weyl(x)


@pytest.mark.parametrize("hbar", [0, 1, Fraction(2, 3)])
def test_to_weyl_needs_the_symbolic_hbar(hbar):
    # WeylElement products use the symbol hbar, so a reading at a rational
    # hbar would not be multiplicative; star itself works at any hbar
    algebra = StarAlgebra(ModelParams.at(hbar=hbar), "default")
    comm = algebra.commutator(algebra.p_class, algebra.q_class)
    assert comm.canonical_form == Cochain.scalar(Fraction(hbar))
    with pytest.raises(ValueError, match="symbolic hbar"):
        algebra.to_weyl(algebra.q_class)
    assert main(["star", "delta[1] - delta[-1]", "delta[0]", "--hbar", str(hbar)]) == 0


# -- symmetries ------------------------------------------------------------------


def test_time_evolution_images():
    half = Fraction(1, 2)
    expected_q = WeylElement({(1, 0): AP1 * half, (0, 1): Scalar.one()})
    gap_sq = (Scalar.alpha(2) - Scalar.rational(2) + Scalar.alpha(-2)) * Fraction(1, 4)
    expected_p = WeylElement({(1, 0): gap_sq, (0, 1): AP1 * half})
    assert time_evolution(WeylElement.q(), SYMBOLIC) == expected_q
    assert time_evolution(WeylElement.p(), SYMBOLIC) == expected_p
    assert time_evolution(WeylElement.q(), MASSLESS) == WeylElement.q() + WeylElement.p()
    assert time_evolution(WeylElement.p(), MASSLESS) == WeylElement.p()


def test_time_evolution_preserves_commutator():
    tq = time_evolution(WeylElement.q(), SYMBOLIC)
    tp = time_evolution(WeylElement.p(), SYMBOLIC)
    assert tp * tq - tq * tp == WeylElement({(0, 0): HBAR})


def test_time_evolution_is_homomorphism():
    rng = random.Random(14)
    for _ in range(30):
        x = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        y = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        evolved = time_evolution(x, SYMBOLIC) * time_evolution(y, SYMBOLIC)
        assert time_evolution(x * y, SYMBOLIC) == evolved


def test_time_reversal_weyl():
    qp = WeylElement({(1, 1): 1})
    assert time_reversal_weyl(qp) == WeylElement({(1, 1): -1, (0, 0): -HBAR})
    assert time_reversal_weyl(WeylElement.q(2)) == WeylElement.q(2)
    rng = random.Random(15)
    for _ in range(30):
        w = WeylElement(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 3),
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, -1),
            }
        )
        assert time_reversal_weyl(time_reversal_weyl(w)) == w


def test_class_level_time_reversal_matches():
    algebra = StarAlgebra(SYMBOLIC, "default")
    assert algebra.to_weyl(algebra.reverse_class(algebra.q_class)) == WeylElement.q()
    assert algebra.to_weyl(algebra.reverse_class(algebra.p_class)) == -WeylElement.p()


# -- Fock module -------------------------------------------------------------------


def test_fock_action_examples():
    assert fock_action(WeylElement.q(), WeylElement.q(3)) == WeylElement.q(4)
    assert fock_action(WeylElement.p(), WeylElement.q(3)) == WeylElement({(2, 0): HBAR * 3})
    assert fock_action(WeylElement.p(), WeylElement.q(0)).is_zero
    # the action depends only on the class: p-terms of the vector drop out
    v = WeylElement.q(3) + WeylElement.q() * WeylElement.p(2)
    assert fock_action(WeylElement.p(), v) == fock_action(WeylElement.p(), WeylElement.q(3))
    assert fock_projection(v) == WeylElement.q(3)


def test_fock_matches_unit_hbar_display():
    for n in range(1, 11):
        got = fock_action(WeylElement.p(), WeylElement.q(n))
        assert got.coefficient(n - 1, 0).specialize(1, 1) == Fraction(n)


def test_fock_module_axioms():
    rng = random.Random(16)
    for _ in range(40):
        w1 = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        w2 = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        v = WeylElement({(rng.randint(0, 4), 0): rng.randint(1, 3)})
        assert fock_action(w1 * w2, v) == fock_action(w1, fock_action(w2, v))


def test_fock_commutation():
    for n in range(5):
        v = WeylElement.q(n)
        pq = fock_action(WeylElement.p(), fock_action(WeylElement.q(), v))
        qp = fock_action(WeylElement.q(), fock_action(WeylElement.p(), v))
        assert pq - qp == v * HBAR


def test_coinvariant_ideal_is_generated_by_p():
    # generator differences g - tau(g) land in the left ideal (p)
    for g in (WeylElement.q(), WeylElement.p()):
        assert fock_projection(g - time_reversal_weyl(g)).is_zero
    assert WeylElement.p() - time_reversal_weyl(WeylElement.p()) == WeylElement.p() * 2
    # and conversely p is recovered from the difference up to the unit 1/2
    assert (WeylElement.p() * 2) * Fraction(1, 2) == WeylElement.p()


# -- classes ----------------------------------------------------------------------


def test_h0_class_validation():
    with pytest.raises(ValueError):
        H0Class(Cochain.antifield(0), GEOMETRIES["default"].ambient, SYMBOLIC)
    with pytest.raises(ValueError):
        H0Class(d(7), GEOMETRIES["default"].ambient, SYMBOLIC)


def test_a_class_certificate_does_not_recheck_its_representative(monkeypatch):
    # H0Class.__init__ checks the representative; its certificate runs the
    # reduction proper, while relocate still checks its argument
    sys.path.insert(0, BENCHMARK)
    try:
        import workloads
    finally:
        sys.path.remove(BENCHMARK)
    calls = Counter()
    for module in (operad, reduction, weyl):
        check = module.support_within
        monkeypatch.setattr(
            module, "support_within", lambda c, i, _f=check, _m=module.__name__: calls.update([_m]) or _f(c, i)
        )
    star = workloads.WORKLOADS["star-massless"]
    objs = star.build()
    for inp in star.inputs(1):
        star.op(objs, inp)
    # the 191 classes are checked once each, by H0Class.__init__; the engine
    # checks only the arguments of the 159 relocations
    assert calls == {"latticebv.weyl": 191, "latticebv.reduction": 159, "latticebv.operad": 234}
    with pytest.raises(ValueError, match="not supported"):
        objs["algebra"]._relocated(d(9), Window(3))


def test_h0_class_arithmetic_and_equality():
    algebra = StarAlgebra(SYMBOLIC, "default")
    x = algebra.class_of(d(2))
    y = algebra.class_of(d(1) * AP1 - d(0))
    assert x == y
    assert (x - y).canonical_form.is_zero
