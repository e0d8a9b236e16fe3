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
    # the engine rewrites each monomial through reduction._rewrite
    seen = []
    rewrite = reduction._rewrite

    def recording(m, site, *rest):
        seen.append((m, site))
        return rewrite(m, site, *rest)

    monkeypatch.setattr(reduction, "_rewrite", recording)
    cert = normal_form(c, J44, Window(0), SYMBOLIC, strategy)
    assert seen and len(seen) == len(set(seen))
    # each rewrite writes its own homotopy monomial
    assert len(cert.homotopy.terms()) == len(seen)
    assert verify_certificate(cert, SYMBOLIC)


def test_an_engine_certificate_compares_and_prints_as_a_stated_one():
    # one rewrite at site 2, as in test_rewrite_step_with_spectator
    engine = normal_form(d(2) * d(1), J33, Window(0), MASSLESS)
    stated = HomotopyCertificate(engine.input, engine.normal_form, bd(1) * d(1))
    assert repr(engine) == repr(stated)
    assert engine == stated
    assert engine != HomotopyCertificate(engine.input, engine.normal_form, bd(1))


def test_rewrite_guard_counts_monomials_before_reducing(monkeypatch):
    # degree 3 over the sites 0..3: comb(3 + 4, 4) = 35 monomials
    monkeypatch.setattr(reduction, "REWRITE_GUARD", 34)
    with pytest.raises(ValueError, match="rewrite more than 34"):
        normal_form(d(3) ** 3, J44, Window(0), SYMBOLIC)
    # already in the window: comb(8 + 2, 2) = 45, but nothing is rewritten
    assert normal_form(d(0) ** 8, J44, Window(0), SYMBOLIC).homotopy.is_zero
    monkeypatch.setattr(reduction, "REWRITE_GUARD", 35)
    assert verify_certificate(normal_form(d(3) ** 3, J44, Window(0), SYMBOLIC), SYMBOLIC)


def test_rewrite_guard_does_not_count_the_degree_already_in_the_window():
    # comb(201 + 3, 3) monomials of degree <= 201, but the one term has one
    # factor outside the window: 1 * comb(1 + 3, 3) = 4, and one rewrite
    cert = normal_form(d(0) ** 200 * d(2), J44, Window(0), SYMBOLIC)
    assert verify_certificate(cert, SYMBOLIC)


def test_rewrite_step_checks_its_termination_measure(monkeypatch):
    monkeypatch.setattr(Window, "distance", lambda self, site: 1)
    with pytest.raises(AssertionError, match="termination measure failed to decrease"):
        rewrite_step(Monomial.make({2: 1}), 2, J33, Window(0), MASSLESS)


def test_engine_checks_its_termination_measure_once_per_site(monkeypatch):
    sites = []
    site_rule = reduction._site_rule

    def recording(site, *rest):
        sites.append(site)
        return site_rule(site, *rest)

    monkeypatch.setattr(reduction, "_site_rule", recording)
    assert verify_certificate(normal_form(d(3) ** 3 + d(-2), J44, Window(0), SYMBOLIC), SYMBOLIC)
    assert sites == [3, -2, 2, -1]  # each cleared site once, farthest distance first
    monkeypatch.setattr(Window, "distance", lambda self, site: 1)
    with pytest.raises(AssertionError, match="termination measure failed to decrease"):
        normal_form(d(2), J33, Window(0), MASSLESS)


def _reference_reduction(c, interval, window, params, strategy):
    """The documented schedule, applying rewrite_step with Cochain arithmetic."""
    work, homotopy = c, Cochain.zero()
    reach = max((window.distance(s) for s in c.field_support()), default=0)
    for distance in range(reach, 0, -1):
        right, left = window.base + 1 + distance, window.base - distance
        for site in (right, left) if strategy == "right" else (left, right):
            top = max((m.field_exponent(site) for m, _ in work.terms()), default=0)
            for level in range(top, 0, -1):
                # a rewrite at this level makes only lower levels, so the coefficients stay
                for m, coeff in [(m, v) for m, v in work.terms() if m.field_exponent(site) == level]:
                    replacement, hterm = rewrite_step(m, site, interval, window, params)
                    work = work - Cochain({m: coeff}) + replacement * coeff
                    homotopy = homotopy + hterm * coeff
    return work, homotopy


@pytest.mark.parametrize(
    "params",
    [
        SYMBOLIC,
        MASSLESS,
        ModelParams.at(alpha=2),
        ModelParams.at(hbar=Fraction(1, 2), alpha=Fraction(3, 2)),
        ModelParams.at(hbar=0),
    ],
    ids=["symbolic", "massless", "alpha-2", "hbar-0.5-alpha-1.5", "hbar-0"],
)
def test_engine_equals_reference_reducer(params):
    rng = random.Random(18)
    ambient = Interval(-5, 5)
    for i in range(40):
        c = seeded_cochain(rng, min_site=-4, max_site=4, max_poly_degree=4, even_only=True)
        window = Window(i % 3 - 1)
        for strategy in STRATEGIES:
            cert = normal_form(c, ambient, window, params, strategy)
            assert (cert.normal_form, cert.homotopy) == _reference_reduction(c, ambient, window, params, strategy)


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


def test_a_far_site_costs_memory_in_its_degree_not_its_reach():
    # 4,999 rewrites of a degree-1 monomial: a key that spanned the reach of
    # 5,000 sites, as a dense exponent vector would, takes hundreds of MB
    params = ModelParams.at(hbar=1, alpha=1)
    certs = []

    def reduce_and_read():
        cert = normal_form(d(5000), Interval(-5010, 5010), Window(0), params)
        certs.append((cert.normal_form, cert.homotopy))

    assert peak_allocation(reduce_and_read) <= 10 * 2**20
    # at alpha = 1, delta[n] = 2 delta[n-1] - delta[n-2] + d_h(bdelta[n-1])
    normal, homotopy = certs[0]
    assert normal == d(1) * 5000 - d(0) * 4999
    assert homotopy == Cochain({Monomial((), (y,)): 5000 - y for y in range(1, 5000)})
