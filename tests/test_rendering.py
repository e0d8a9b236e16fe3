"""Exact rendered strings of every term-map class, one coefficient at a time.

Each class renders a sum of coefficient-times-basis terms in the parser's
grammar; these pins fix the output byte for byte, coefficient by
coefficient: 1, -1, a fraction, hbar alone, a negative alpha power, a
multi-term coefficient (parenthesized), and zero.
"""

from fractions import Fraction

import pytest

from latticebv.cochains import Cochain
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
