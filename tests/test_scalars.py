import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from latticebv._sparse import TermMap
from latticebv.cochains import Cochain
from latticebv.scalars import ALPHA, HBAR, ONE, ZERO, Scalar, as_scalar, mass_squared
from latticebv.weyl import WeylElement

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
    zero = ZERO.specialize(3, 2)
    assert zero == 0 and type(zero) is Fraction
    # at hbar = 0 the hbar^0 terms stay (0**0 is 1)
    assert Scalar({(0, -2): 3, (1, 1): 5}).specialize(0, 2) == Fraction(3, 4)
    # negative powers of a negative fractional alpha
    assert Scalar({(0, -3): 2, (1, -1): Fraction(1, 2)}).specialize(2, Fraction(-2, 3)) == Fraction(-33, 4)
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
    assert x.specialize_alpha(Fraction(-1, 2)) == HBAR * Fraction(-1, 2) + Scalar.rational(4)
    with pytest.raises(ValueError):
        x.specialize_alpha(0)


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
    # a foreign operand gets its reflected product
    assert HBAR * Cochain.field(0) == Cochain.field(0) * HBAR
    assert HBAR * WeylElement.q() == WeylElement.q() * HBAR
    with pytest.raises(TypeError):
        HBAR * "x"


def test_rendering_is_deterministic():
    x = HBAR * ALPHA - Scalar.alpha(-1) * Fraction(3, 2) + ONE
    assert str(x) == "-3/2*alpha^-1 + 1 + hbar*alpha"
    assert str(ZERO) == "0"
    # Scalar is a TermMap and takes its repr
    assert isinstance(ONE, TermMap) and repr(HBAR) == "Scalar(hbar)"


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


# -- independent cross-check of the ring operations ----------------------------
#
# Each result is read back through terms() and evaluated at random rational
# (hbar, alpha) points by the plain Fraction code below, which calls no Scalar
# arithmetic.  Two Laurent polynomials of the small degrees used here that
# agree at several random points are equal (Schwartz-Zippel), so an
# arithmetic error shows as a mismatch at some point.


def _evaluate(x, h, a):
    total = Fraction(0)
    for (hp, ap), c in x.terms():
        total += c * h**hp * a**ap
    return total


def _random_scalar(rng):
    # mixed denominators; the constructor, not arithmetic, builds the map
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(0, 2), rng.randint(-3, 3))
        terms[key] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10)))
    return Scalar(terms)


def _random_point(rng):
    h = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
    a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
    return h, a


def _assert_canonical(x):
    assert x._den > 0
    g = x._den
    for c in x._terms.values():
        assert isinstance(c, int) and c
        g = math.gcd(g, c)
    assert g == 1
    if not x._terms:
        assert x._den == 1
    for _, c in x.terms():
        assert isinstance(c, Fraction)


def test_ring_operations_match_independent_evaluation():
    rng = random.Random(2024)
    for _ in range(300):
        x, y = _random_scalar(rng), _random_scalar(rng)
        unit = Scalar({(0, rng.randint(-3, 3)): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))})
        n = rng.randint(0, 4)
        a0 = _random_point(rng)[1]
        results = {
            "add": x + y,
            "sub": x - y,
            "mul": x * y,
            "pow": x**n,
            "neg": -x,
            "cancel_sub": x * y - y * x,
            "cancel_add": (x + y) * (x - y) + (y * y - x * x),
            "cancel_mixed": x * (y + unit) - x * y - x * unit,
            "partial": (x + y) - y,
            "inverse": unit.inverse(),
            "specialize_alpha": x.specialize_alpha(a0),
        }
        for value in results.values():
            _assert_canonical(value)
        assert not results["cancel_sub"] and not results["cancel_add"] and not results["cancel_mixed"]
        assert results["partial"] == x
        assert results["specialize_alpha"].is_alpha_free
        for _ in range(3):
            h, a = _random_point(rng)
            ex, ey, eu = _evaluate(x, h, a), _evaluate(y, h, a), _evaluate(unit, h, a)
            assert _evaluate(results["add"], h, a) == ex + ey
            assert _evaluate(results["sub"], h, a) == ex - ey
            assert _evaluate(results["mul"], h, a) == ex * ey
            assert _evaluate(results["pow"], h, a) == ex**n
            assert _evaluate(results["neg"], h, a) == -ex
            assert _evaluate(results["inverse"], h, a) * eu == 1
            assert _evaluate(results["specialize_alpha"], h, a) == _evaluate(x, h, a0)
            assert x.specialize(h, a) == ex


def test_canonical_form_is_unique():
    half = (
        Scalar({(0, 0): Fraction(2, 4)}),
        Scalar.rational(Fraction(1, 2)),
        ONE * Fraction(1, 2),
        as_scalar(Fraction(3, 6)),
        (ALPHA * Fraction(3, 4) + ONE * Fraction(1, 2)) - ALPHA * Fraction(6, 8),
    )
    for x in half:
        _assert_canonical(x)
        assert x == half[0] == Fraction(1, 2)
        assert hash(x) == hash(half[0])
        assert x.terms() == [((0, 0), Fraction(1, 2))]
    # a zero operand takes the general sum and product
    x = HBAR * Fraction(1, 2) - ALPHA * Fraction(1, 3) + Scalar.alpha(-1) * Fraction(5, 6)
    assert x._den == 6 and len(x) == 3
    for same in (x + ZERO, ZERO + x):
        _assert_canonical(same)
        assert same == x and hash(same) == hash(x)
    for zero in (ZERO, Scalar(), Scalar({(1, 1): 0}), HBAR - HBAR, ONE * 0, Scalar.rational(0),
                 (HBAR * Fraction(1, 3)).specialize_alpha(5) * 0, ZERO * x):
        _assert_canonical(zero)
        assert zero._terms == {} and zero._den == 1
        assert zero == ZERO and hash(zero) == hash(ZERO)
    # the gcd is taken over the denominator and all numerators together, not term by term
    x = Scalar({(0, 0): Fraction(1, 6), (1, 0): Fraction(1, 4)})
    assert x._den == 12 and x._terms == {(0, 0): 2, (1, 0): 3}
    assert Scalar({(0, 0): 2, (0, 1): 4}) * Fraction(1, 2) == Scalar({(0, 0): 1, (0, 1): 2})
