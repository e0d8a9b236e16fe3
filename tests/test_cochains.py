from fractions import Fraction

import pytest
from hypothesis import given, settings

from latticebv.cochains import (
    Cochain,
    LatticeFunction,
    Monomial,
    pairing,
    sort_antifields,
    support_within,
)
from latticebv.operad import Interval
from latticebv.scalars import ALPHA, HBAR, Scalar

from strategies import cochains, lattice_functions, scalars

d = Cochain.field
bd = Cochain.antifield


def test_odd_generators_anticommute():
    assert bd(1) * bd(0) == Cochain.monomial(antifields=(0, 1), coefficient=-1)


def test_odd_square_is_zero():
    assert (bd(0) * bd(0)).is_zero
    assert Cochain.monomial(antifields=(1, 1)).is_zero


def test_bilinearity_on_even_part():
    assert (d(0) + d(1)) * d(0) == d(0) * d(0) + d(0) * d(1)
    h = HBAR * Fraction(1, 2)
    x, y = (d(0) + d(1)) * d(0) * h, d(0) * d(0) * h + d(1) * d(0) * h
    assert x == y
    # equal cochains built apart have one canonical, hashable key
    assert x.key() == y.key() and hash(x.key()) == hash(y.key())


def test_sort_antifields_signs():
    assert sort_antifields([3, 1]) == ((1, 3), -1)
    assert sort_antifields([1, 3]) == ((1, 3), 1)
    assert sort_antifields([2, 2]) == ((), 0)
    assert sort_antifields([5, 1, 3]) == ((1, 3, 5), 1)


def test_monomial_canonicalization_signs():
    # any permutation of the odd sites gives the same monomial times the
    # sign of the permutation
    canonical = Cochain.monomial(antifields=(0, 1, 2))
    assert Cochain.monomial(antifields=(1, 0, 2)) == canonical * (-1)
    assert Cochain.monomial(antifields=(2, 1, 0)) == canonical * (-1)
    assert Cochain.monomial(antifields=(1, 2, 0)) == canonical


@given(cochains(), cochains())
@settings(max_examples=100, deadline=None)
def test_multiplication_graded_commutative(x, y):
    # x y = (-1)^(deg x deg y) y x, degreewise
    for dx in x.degrees():
        for dy in y.degrees():
            xk = x.homogeneous_part(dx)
            yk = y.homogeneous_part(dy)
            sign = -1 if (dx % 2) and (dy % 2) else 1
            assert xk * yk == (yk * xk) * sign


def test_multiplication_associative_counted():
    import random

    from strategies import seeded_cochain

    rng = random.Random(11)
    for _ in range(500):
        x = seeded_cochain(rng, max_poly_degree=2, max_terms=2)
        y = seeded_cochain(rng, max_poly_degree=2, max_terms=2)
        z = seeded_cochain(rng, max_poly_degree=2, max_terms=2)
        assert (x * y) * z == x * (y * z)


def test_multiplication_graded_commutative_counted():
    import random

    from strategies import seeded_cochain

    rng = random.Random(12)
    for _ in range(500):
        x = seeded_cochain(rng, max_poly_degree=3, max_terms=2)
        y = seeded_cochain(rng, max_poly_degree=3, max_terms=2)
        for dx in x.degrees():
            for dy in y.degrees():
                xk, yk = x.homogeneous_part(dx), y.homogeneous_part(dy)
                sign = -1 if (dx % 2) and (dy % 2) else 1
                assert xk * yk == (yk * xk) * sign


def test_partial_field_examples():
    assert d(0) ** 3 == Cochain.monomial({0: 3})
    assert (d(0) ** 3).partial_field(0) == Cochain.monomial({0: 2}, coefficient=3)
    assert (d(0) ** 2).partial_field(1).is_zero
    spectator = bd(2) * d(0) * d(1)
    assert spectator.partial_field(0) == bd(2) * d(1)


def test_partial_antifield_examples():
    assert (bd(0) * d(5)).partial_antifield(0) == d(5)
    # second position picks up one sign; cross-check by anticommuting to front
    word = bd(0) * bd(1)
    assert word.partial_antifield(1) == -bd(0)
    fronted = bd(1) * bd(0)  # = -word
    assert fronted.partial_antifield(1) == bd(0)
    assert word.partial_antifield(3).is_zero


@given(cochains(max_poly_degree=3), cochains(max_poly_degree=3))
@settings(max_examples=60, deadline=None)
def test_partial_field_leibniz(x, y):
    s = 1
    lhs = (x * y).partial_field(s)
    assert lhs == x.partial_field(s) * y + x * y.partial_field(s)


@given(cochains(max_poly_degree=3), cochains(max_poly_degree=3))
@settings(max_examples=60, deadline=None)
def test_partial_antifield_graded_leibniz(x, y):
    s = 0
    for deg in x.degrees():
        xk = x.homogeneous_part(deg)
        lhs = (xk * y).partial_antifield(s)
        rhs = xk.partial_antifield(s) * y + (xk * y.partial_antifield(s)) * (
            1 if deg % 2 == 0 else -1
        )
        assert lhs == rhs


@given(cochains())
@settings(max_examples=60, deadline=None)
def test_double_odd_derivatives_anticommute(c):
    x, y = 0, 1
    lhs = c.partial_antifield(x).partial_antifield(y)
    rhs = c.partial_antifield(y).partial_antifield(x)
    assert lhs == -rhs


def test_pairing_examples():
    one_site = LatticeFunction.delta(0)
    assert pairing(one_site, one_site) == Scalar.one()
    assert pairing(LatticeFunction.delta(0), LatticeFunction.delta(1)).is_zero
    ap1 = ALPHA + Scalar.alpha(-1)
    f = LatticeFunction({-2: ap1, -1: Scalar.one(), 1: -Scalar.one(), 2: -ap1})
    g = LatticeFunction({1: 1, -1: -1})
    assert pairing(f, g) == Scalar.rational(-2)


@given(lattice_functions(), lattice_functions())
@settings(max_examples=60)
def test_pairing_symmetric(f, g):
    assert pairing(f, g) == pairing(g, f)


def test_support_within_examples():
    window = Interval(0, 5)
    assert support_within(d(1) * d(2), window)
    assert not support_within(bd(1), window)  # antifields live in (1, 4)
    assert support_within(bd(2), window)
    assert not support_within(d(0), window)


def test_degrees_and_components():
    c = d(0) + bd(1) * d(2) + bd(0) * bd(3)
    assert c.degrees() == {0, -1, -2}
    assert c.homogeneous_part(0) == d(0)
    assert c.homogeneous_part(-2) == bd(0) * bd(3)
    assert c.max_polynomial_degree() == 2


def test_site_maps_and_reversal_sign():
    c = bd(1) * bd(2)
    # negating sites reverses the odd word, which costs one transposition
    assert c.map_sites(lambda s: -s) == Cochain.monomial(antifields=(-2, -1), coefficient=-1)
    assert c.map_sites(lambda s: -s).map_sites(lambda s: -s) == c
    with pytest.raises(ValueError):
        (d(0) * d(1)).map_sites(lambda s: 0)


def test_lattice_function_views():
    f = LatticeFunction({0: 2, 3: -1})
    assert f.as_field_cochain() == d(0) * 2 - d(3)
    assert f.as_antifield_cochain() == bd(0) * 2 - bd(3)
    assert (f - f).is_zero


@given(scalars())
@settings(max_examples=40)
def test_scalar_embedding(s):
    assert Cochain.scalar(s) * Cochain.one() == Cochain.scalar(s)
    assert (Cochain.scalar(s) - Cochain.scalar(s)).is_zero


def test_raise_field_inverts_lower_field():
    m = Monomial.make({-2: 1, 3: 2}, (0, 4))
    for site, fields in ((-5, {-5: 1, -2: 1, 3: 2}), (-2, {-2: 2, 3: 2}), (1, {-2: 1, 1: 1, 3: 2}),
                         (3, {-2: 1, 3: 3}), (7, {-2: 1, 3: 2, 7: 1})):
        raised = m.raise_field(site)
        assert raised == Monomial.make(fields, (0, 4))
        assert raised.lower_field(site) == m
    assert Monomial.UNIT.raise_field(0) == Monomial.make({0: 1})
