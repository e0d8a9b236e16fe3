import random
from fractions import Fraction

import pytest

from latticebv import reduction
from latticebv.cochains import Cochain, Monomial
from latticebv.complexes import ModelParams, d_quantum
from latticebv.operad import Interval
from latticebv.reduction import (
    STRATEGIES,
    HomotopyCertificate,
    IrreducibleSiteError,
    Window,
    normal_form,
    relocate,
    rewrite_step,
    verify_certificate,
)
from latticebv.scalars import HBAR, Scalar

from strategies import peak_allocation, seeded_cochain

d = Cochain.field
bd = Cochain.antifield

MASSLESS = ModelParams.massless()
SYMBOLIC = ModelParams.symbolic()
AP1 = SYMBOLIC.alpha_plus_inverse()
J33 = Interval(-3, 3)
J44 = Interval(-4, 4)


def test_rewrite_step_single_site():
    repl, h = rewrite_step(Monomial.make({2: 1}), 2, J33, Window(0), MASSLESS)
    assert repl == d(1) * 2 - d(0)
    assert h == bd(1)


def test_rewrite_step_with_spectator():
    # derived by expanding d_h(bdelta1 * delta1) and solving for delta2*delta1
    repl, h = rewrite_step(Monomial.make({2: 1, 1: 1}), 2, J33, Window(0), MASSLESS)
    assert repl == d(1) ** 2 * 2 - d(0) * d(1) - Cochain.scalar(HBAR)
    assert h == bd(1) * d(1)
    # the identity m = repl + d_h(h) holds exactly
    m = Cochain.monomial({2: 1, 1: 1})
    assert m == repl + d_quantum(h, MASSLESS)


def test_rewrite_step_neighbour_squared_symbolic():
    # rest = delta[1]^2, so the derivative term is -2*hbar*delta[1]
    m = Monomial.make({2: 1, 1: 2})
    repl, h = rewrite_step(m, 2, J33, Window(0), SYMBOLIC)
    assert repl == d(1) ** 3 * AP1 - d(0) * d(1) ** 2 - d(1) * (HBAR * 2)
    assert h == bd(1) * d(1) ** 2
    assert Cochain({m: Scalar.one()}) == repl + d_quantum(h, SYMBOLIC)


def test_rewrite_step_neighbour_squared_at_hbar_zero():
    params = ModelParams.at(hbar=0, alpha=1)
    m = Monomial.make({2: 1, 1: 2})
    repl, h = rewrite_step(m, 2, J33, Window(0), params)
    stored = dict(repl.terms())
    assert stored == {Monomial.make({1: 3}): Scalar.rational(2), Monomial.make({0: 1, 1: 2}): -Scalar.one()}
    assert h == bd(1) * d(1) ** 2
    assert Cochain({m: Scalar.one()}) == repl + d_quantum(h, params)


def test_rewrite_step_mirrored():
    repl, h = rewrite_step(Monomial.make({-1: 1}), -1, J33, Window(0), SYMBOLIC)
    assert repl == d(0) * AP1 - d(1)
    assert h == bd(0)


def test_rewrite_step_rejects_bad_input():
    with pytest.raises(ValueError):
        rewrite_step(Monomial.make({0: 1}), 0, J33, Window(0), MASSLESS)
    with pytest.raises(ValueError):
        rewrite_step(Monomial.make({2: 1}), 3, J33, Window(0), MASSLESS)
    # window pushed against an interval whose antifield sites do not reach
    with pytest.raises(IrreducibleSiteError):
        rewrite_step(Monomial.make({2: 1}), 2, Interval(0, 5), Window(0), MASSLESS)


def test_normal_form_paper_four_term():
    four = (
        d(0) * d(1) * 3 - d(-1) * d(1) * 2 - d(0) * d(2) * 2 + d(-1) * d(2)
    )
    cert = normal_form(four, J33, Window(0), MASSLESS)
    assert cert.normal_form == Cochain.scalar(HBAR)
    assert verify_certificate(cert, MASSLESS)
    # the stated homotopy is an equally valid witness
    stated = bd(1) * d(-1) - bd(0) * d(0) - bd(1) * d(0) * 2
    assert verify_certificate(
        HomotopyCertificate(four, Cochain.scalar(HBAR), stated), MASSLESS
    )


def test_normal_form_already_in_window():
    cert = normal_form(d(0) ** 2, J33, Window(0), SYMBOLIC)
    assert cert.normal_form == d(0) ** 2
    assert cert.homotopy.is_zero


def test_normal_form_single_step_symbolic():
    cert = normal_form(d(2), J33, Window(0), SYMBOLIC)
    assert cert.normal_form == d(1) * AP1 - d(0)
    assert verify_certificate(cert, SYMBOLIC)


def test_normal_form_validates_input():
    with pytest.raises(ValueError):
        normal_form(bd(0) * d(0), J33, Window(0), MASSLESS)
    with pytest.raises(ValueError):
        normal_form(d(5), J33, Window(0), MASSLESS)  # not supported within
    with pytest.raises(ValueError):
        normal_form(d(1), Interval(0, 5), Window(0), MASSLESS)  # 0 not a field site
    with pytest.raises(ValueError):
        normal_form(d(1), J33, Window(0), MASSLESS, strategy="zigzag")


@pytest.mark.parametrize("c", [d(3) ** 3, d(3) ** 4, d(-3) ** 2 * d(3) ** 2])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_monomial_is_rewritten_once_per_site(c, strategy, monkeypatch):
    seen = []

    def recording(m, site, *rest):
        seen.append((m, site))
        return rewrite_step(m, site, *rest)

    monkeypatch.setattr(reduction, "rewrite_step", recording)
    cert = normal_form(c, J44, Window(0), SYMBOLIC, strategy)
    assert seen and len(seen) == len(set(seen))
    assert verify_certificate(cert, SYMBOLIC)


def test_rewrite_guard_counts_monomials_before_reducing(monkeypatch):
    # degree 3 over the sites 0..3: comb(3 + 4, 4) = 35 monomials
    monkeypatch.setattr(reduction, "REWRITE_GUARD", 34)
    with pytest.raises(ValueError, match="rewrite more than 34"):
        normal_form(d(3) ** 3, J44, Window(0), SYMBOLIC)
    # already in the window: comb(8 + 2, 2) = 45, but nothing is rewritten
    assert normal_form(d(0) ** 8, J44, Window(0), SYMBOLIC).homotopy.is_zero
    monkeypatch.setattr(reduction, "REWRITE_GUARD", 35)
    assert verify_certificate(normal_form(d(3) ** 3, J44, Window(0), SYMBOLIC), SYMBOLIC)


def test_relocation_of_delta0():
    cert = relocate(d(0), J44, Window(2), SYMBOLIC)
    assert cert.normal_form == d(2) * (AP1 * AP1 - Scalar.one()) - d(3) * AP1
    assert cert.homotopy == bd(1) + bd(2) * AP1
    assert verify_certificate(cert, SYMBOLIC)


def test_relocation_mirror():
    cert = relocate(d(0), J44, Window(-3), SYMBOLIC)
    assert cert.normal_form == d(-2) * (AP1 * AP1 - Scalar.one()) - d(-3) * AP1
    assert verify_certificate(cert, SYMBOLIC)


def test_relocation_unreachable_target():
    with pytest.raises(ValueError):
        relocate(d(1), J44, Window(5), SYMBOLIC)


def test_relocation_trivial():
    cert = relocate(d(2), J44, Window(2), SYMBOLIC)
    assert cert.normal_form == d(2)
    assert cert.homotopy.is_zero


def test_verify_certificate_tampering():
    cert = normal_form(d(2), J33, Window(0), MASSLESS)
    assert verify_certificate(cert, MASSLESS)
    tampered = HomotopyCertificate(
        cert.input, cert.normal_form + Cochain.one(), cert.homotopy
    )
    assert not verify_certificate(tampered, MASSLESS)
    zero = HomotopyCertificate(Cochain.zero(), Cochain.zero(), Cochain.zero())
    assert verify_certificate(zero, MASSLESS)


def test_certificate_soundness_random():
    rng = random.Random(5)
    ambient = Interval(-6, 6)
    for _ in range(150):
        c = seeded_cochain(rng, min_site=-5, max_site=5, max_poly_degree=4, even_only=True)
        cert = normal_form(c, ambient, Window(0), SYMBOLIC)
        assert verify_certificate(cert, SYMBOLIC)
        assert cert.normal_form.field_support() <= {0, 1}


def test_confluence_and_window_change_random():
    rng = random.Random(6)
    ambient = Interval(-6, 6)
    for i in range(100):
        c = seeded_cochain(rng, min_site=-5, max_site=5, max_poly_degree=4, even_only=True)
        right = normal_form(c, ambient, Window(0), MASSLESS, strategy="right")
        left = normal_form(c, ambient, Window(0), MASSLESS, strategy="left")
        assert right.normal_form == left.normal_form
        if i % 4 == 0:
            staged = normal_form(
                normal_form(c, ambient, Window(2), MASSLESS).normal_form,
                ambient,
                Window(0),
                MASSLESS,
            )
            assert staged.normal_form == right.normal_form


def test_reduction_linear_over_scalars():
    c = d(2) * HBAR - d(-2) * Fraction(3, 2)
    cert = normal_form(c, J33, Window(0), SYMBOLIC)
    parts = [
        normal_form(d(2), J33, Window(0), SYMBOLIC).normal_form * HBAR,
        normal_form(d(-2), J33, Window(0), SYMBOLIC).normal_form * Fraction(-3, 2),
    ]
    assert cert.normal_form == parts[0] + parts[1]


def test_wide_interval_reduces_without_listing_sites():
    # half-width 10^5: a tuple or set of the sites alone would take several MB
    wide = Interval(-100000, 100000)
    c = d(3) * d(-2) + d(0)
    certs = []
    peak = peak_allocation(lambda: certs.append(normal_form(c, wide, Window(0), SYMBOLIC)))
    assert peak < 2**20
    assert certs[0].normal_form == normal_form(c, J44, Window(0), SYMBOLIC).normal_form
