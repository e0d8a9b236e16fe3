from fractions import Fraction

import pytest
from hypothesis import given, settings

from latticebv.scalars import ALPHA, HBAR, ONE, ZERO, Scalar, as_scalar, mass_squared

from strategies import scalars


def test_inverse_pair():
    assert Scalar.alpha(1) * Scalar.alpha(-1) == ONE


def test_square_difference():
    plus = ALPHA + Scalar.alpha(-1)
    minus = ALPHA - Scalar.alpha(-1)
    assert plus * plus - minus * minus == Scalar.rational(4)


def test_absorbing_zero():
    assert HBAR * ZERO == ZERO
    assert (HBAR * 0).is_zero


def test_specialize_examples():
    assert (ALPHA + Scalar.alpha(-1)).specialize(7, 2) == Fraction(5, 2)
    assert HBAR.specialize(1, 5) == 1
    with pytest.raises(ValueError):
        ALPHA.specialize(1, 0)


def test_specialize_is_ring_homomorphism():
    import random

    rng = random.Random(7)
    points = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)),
              (Fraction(2, 3), Fraction(-1)), (Fraction(-1), Fraction(1, 2)),
              (Fraction(5), Fraction(3))]
    for _ in range(100):
        x = Scalar({(rng.randint(0, 2), rng.randint(-2, 2)): Fraction(rng.randint(-5, 5))})
        y = Scalar({(rng.randint(0, 2), rng.randint(-2, 2)): Fraction(rng.randint(-5, 5))})
        for h, a in points:
            assert (x * y).specialize(h, a) == x.specialize(h, a) * y.specialize(h, a)
            assert (x + y).specialize(h, a) == x.specialize(h, a) + y.specialize(h, a)


@given(scalars())
@settings(max_examples=100)
def test_canonical_form_cancels(x):
    assert (x + (-x)).is_zero
    assert not list((x - x).terms())


def test_mass_squared_symbolic():
    assert mass_squared(ALPHA) == ALPHA + Scalar.alpha(-1) - Scalar.rational(2)


def test_mass_squared_massless_vanishes():
    assert mass_squared(Fraction(1)).is_zero
    assert mass_squared(ONE).is_zero


def test_mass_squared_specialized():
    assert mass_squared(Fraction(4)) == Scalar.rational(Fraction(9, 4))


def test_mass_squared_nonnegative_on_positive_rationals():
    import random

    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        value = mass_squared(a).specialize(1, 1)
        assert value >= 0


def test_mass_squared_rejects_zero_and_hbar():
    with pytest.raises(ValueError):
        mass_squared(0)
    with pytest.raises(ValueError):
        mass_squared(HBAR)


def test_specialize_alpha_keeps_hbar():
    x = HBAR * ALPHA + Scalar.alpha(-2)
    assert x.specialize_alpha(2) == HBAR * 2 + Scalar.rational(Fraction(1, 4))
    assert x.specialize_alpha(2).is_alpha_free


def test_power_and_division():
    assert (ALPHA + ONE) ** 2 == ALPHA * ALPHA + ALPHA * 2 + ONE
    assert (ALPHA * 4) / 2 == ALPHA * 2
    with pytest.raises(ValueError):
        ALPHA ** (-1)


def test_coercion():
    assert as_scalar(3) == Scalar.rational(3)
    assert as_scalar(Fraction(1, 2)) * 2 == ONE
    with pytest.raises(TypeError):
        as_scalar("alpha")


def test_rendering_is_deterministic():
    x = HBAR * ALPHA - Scalar.alpha(-1) * Fraction(3, 2) + ONE
    assert str(x) == "-3/2*alpha^-1 + 1 + hbar*alpha"
    assert str(ZERO) == "0"


def test_powers_match_repeated_products():
    x = ALPHA + HBAR * Fraction(1, 2) - Scalar.alpha(-1)
    product = ONE
    for n in range(9):
        assert x**n == product
        product = product * x


def test_inverse_of_units():
    assert ALPHA.inverse() == Scalar.alpha(-1)
    assert (Scalar.alpha(-2) * Fraction(-3, 4)).inverse() == Scalar.alpha(2) * Fraction(-4, 3)
    assert Scalar.rational(5).inverse() * 5 == ONE
    for non_unit in (ZERO, HBAR, ALPHA + ONE, HBAR * ALPHA):
        with pytest.raises(ValueError):
            non_unit.inverse()
