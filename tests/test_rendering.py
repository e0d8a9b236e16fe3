"""Exact rendered strings of every term-map class, one coefficient at a time.

Each class renders a sum of coefficient-times-basis terms in the parser's
grammar; these pins fix the output byte for byte, coefficient by
coefficient: 1, -1, a fraction, hbar alone, a negative alpha power, a
multi-term coefficient (parenthesized), and zero.  Seeded maps are also
compared byte for byte with a reference renderer over ``Fraction``s.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from latticebv._sparse import hbar_alpha, power, product
from latticebv.cochains import Cochain, LatticeFunction, Monomial
from latticebv.parser import parse_cochain
from latticebv.scalars import ALPHA, HBAR, ONE, ZERO, Scalar
from latticebv.weyl import WeylElement, fock_action, fock_projection

MULTI = HBAR - Scalar.alpha(-2) * Fraction(3, 2) + ONE
COEFFICIENTS = {
    "one": ONE,
    "minus_one": -ONE,
    "three_halves": Scalar.rational(Fraction(3, 2)),
    "hbar": HBAR,
    "alpha_inv2": Scalar.alpha(-2),
    "multi": MULTI,
    "zero": ZERO,
}
M = "(-3/2*alpha^-2 + 1 + hbar)"

# name -> (Scalar, Cochain delta[0]*c, Cochain c*1, Cochain mixed-sign sum)
COCHAIN_CASES = {
    "one": ("1", "delta[0]", "1", "-2*delta[2] + bdelta[2]*delta[1]"),
    "minus_one": ("-1", "-delta[0]", "-1", "-2*delta[2] - bdelta[2]*delta[1]"),
    "three_halves": ("3/2", "3/2*delta[0]", "3/2", "-2*delta[2] + 3/2*bdelta[2]*delta[1]"),
    "hbar": ("hbar", "hbar*delta[0]", "hbar", "-2*delta[2] + hbar*bdelta[2]*delta[1]"),
    "alpha_inv2": (
        "alpha^-2",
        "alpha^-2*delta[0]",
        "alpha^-2",
        "-2*delta[2] + alpha^-2*bdelta[2]*delta[1]",
    ),
    "multi": (M[1:-1], f"{M}*delta[0]", M, f"-2*delta[2] + {M}*bdelta[2]*delta[1]"),
    "zero": ("0", "0", "0", "-2*delta[2]"),
}

# name -> (Weyl q*p^2*c, Weyl c*1, Weyl p*c + 3 q^2, Fock c q^2 + 1); a Fock
# vector is the p-free Weyl element of its class and renders like one
WEYL_CASES = {
    "one": ("q*p^2", "1", "3*q^2 + p", "q^2 + 1"),
    "minus_one": ("-q*p^2", "-1", "3*q^2 - p", "-q^2 + 1"),
    "three_halves": ("3/2*q*p^2", "3/2", "3*q^2 + 3/2*p", "3/2*q^2 + 1"),
    "hbar": ("hbar*q*p^2", "hbar", "3*q^2 + hbar*p", "hbar*q^2 + 1"),
    "alpha_inv2": ("alpha^-2*q*p^2", "alpha^-2", "3*q^2 + alpha^-2*p", "alpha^-2*q^2 + 1"),
    "multi": (f"{M}*q*p^2", M, f"3*q^2 + {M}*p", f"{M}*q^2 + 1"),
    "zero": ("0", "0", "3*q^2", "1"),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_scalar_and_cochain_rendering(name):
    c = COEFFICIENTS[name]
    scalar, field, unit, mixed = COCHAIN_CASES[name]
    assert str(c) == scalar
    assert str(Cochain.field(0) * c) == field
    assert str(Cochain.scalar(c)) == unit
    assert str(Cochain.field(1) * Cochain.antifield(2) * c - Cochain.field(2) * 2) == mixed


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_weyl_and_fock_rendering(name):
    c = COEFFICIENTS[name]
    monomial, unit, mixed, fock = WEYL_CASES[name]
    assert str(WeylElement.q() * WeylElement.p(2) * c) == monomial
    assert str(WeylElement.one() * c) == unit
    assert str(WeylElement.p() * c + WeylElement.q(2) * 3) == mixed
    assert str(fock_action(WeylElement.q(2) * c, WeylElement.one()) + WeylElement.one()) == fock
    assert str(fock_projection(WeylElement.one() * c + WeylElement.p())) == unit


def test_scalar_rendering_orders_terms_and_joins_powers():
    x = HBAR**2 * ALPHA * -2 + Scalar.alpha(-1) - HBAR * Fraction(1, 3)
    assert str(x) == "alpha^-1 - 1/3*hbar - 2*hbar^2*alpha"


def test_lattice_function_renders_as_its_field_cochain():
    f = LatticeFunction({2: ALPHA, -1: 3})
    assert str(f) == "3*delta[-1] + alpha*delta[2]"
    assert repr(f) == "LatticeFunction(3*delta[-1] + alpha*delta[2])"
    assert parse_cochain(str(f)) == f.as_field_cochain()
    assert str(LatticeFunction.zero()) == "0"


def _fraction_render(items, name) -> str:
    """The renderer over ``Fraction`` coefficients, kept as a reference.

    A coefficient is a ``Fraction`` or a ``Scalar`` read through
    ``Scalar.terms()``, and a multi-term ``Scalar`` is rendered by this
    function too, so nothing here reads numerators or denominators.
    """
    pieces = []
    for k, c in items:
        basis = name(k)
        if not isinstance(c, Fraction):
            if len(c) > 1:
                c, basis = Fraction(1), product(f"({_scalar_text(c)})", basis)
            else:
                ((scalar_key, c),) = c.terms()
                basis = product(hbar_alpha(scalar_key), basis)
        magnitude = abs(c)
        body = product("" if magnitude == 1 and basis else str(magnitude), basis)
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append("-" + body if c < 0 else body)
    return " ".join(pieces) or "0"


def _scalar_text(s: Scalar) -> str:
    return _fraction_render(sorted(s.terms()), hbar_alpha)


def _cochain_text(c: Cochain) -> str:
    ordered = sorted(c.terms(), key=lambda t: t[0].sort_key())
    return _fraction_render(ordered, lambda m: "" if m == Monomial.UNIT else str(m))


def _weyl_text(w: WeylElement) -> str:
    ordered = sorted(w.terms(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))
    return _fraction_render(ordered, lambda k: product(power("q", k[0]), power("p", k[1])))


def _seeded_scalar(rng: random.Random) -> Scalar:
    """One to four terms: a ±1, a rational with a shared factor, a lone rational or a small fraction."""
    terms = {}
    for _ in range(rng.choice([1, 1, 2, 3, 4])):
        key = (rng.randint(0, 3), rng.randint(-3, 3)) if rng.random() < 0.8 else (0, 0)
        shape = rng.randrange(4)
        if shape == 0:
            value = Fraction(rng.choice([-1, 1]))
        elif shape == 1:  # halves and quarters over a shared 4 or 12
            value = Fraction(rng.choice([-3, -1, 1, 3]), rng.choice([2, 4, 6, 12]))
        else:
            value = Fraction(rng.randint(-12, 12) or 7, rng.randint(1, 12))
        terms[key] = value
    return Scalar(terms)


def test_rendering_matches_the_fraction_reference_on_seeded_maps():
    rng = random.Random(2024)
    scalars = [_seeded_scalar(rng) for _ in range(150)]
    cochains, weyls = [], []
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            fields = {rng.randint(-3, 3): rng.randint(1, 3) for _ in range(rng.randint(0, 2))}
            anti = rng.sample(range(-3, 4), rng.randint(0, 2))
            terms[Monomial.make(fields, tuple(sorted(anti)))] = _seeded_scalar(rng)
        cochains.append(Cochain(terms))
        weyls.append(WeylElement({(rng.randint(0, 3), rng.randint(0, 3)): _seeded_scalar(rng) for _ in range(3)}))
    for s in scalars:
        assert str(s) == _scalar_text(s)
    for c in cochains:
        assert str(c) == _cochain_text(c)
    for w in weyls:
        assert str(w) == _weyl_text(w)
    # the seeds reach each case the numerator renderer treats on its own
    coefficients = scalars + [v for m in cochains + weyls for _, v in m.terms()]
    one_term = [s for s in coefficients if len(s) == 1]
    assert sum(s.terms()[0][0] != (0, 0) and abs(s.terms()[0][1]) == 1 for s in one_term) >= 20
    assert sum(s.terms()[0][0] == (0, 0) and s.terms()[0][1].denominator > 1 for s in one_term) >= 10
    assert sum(len(s) == 1 for m in cochains + weyls for _, s in m.terms()) >= 100
    assert sum(any(key[1] < 0 for key, _ in s.terms()) for s in coefficients) >= 100
    # a rational stored as a numerator that shares a factor with the denominator, e.g. 1/2 as 2/4
    shared = [s for s in coefficients if any(gcd(c, s._den) > 1 for c in s._terms.values())]
    assert len(shared) >= 50
    assert len(scalars) + len(cochains) + len(weyls) >= 300
