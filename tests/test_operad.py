import random
from fractions import Fraction

import pytest

from latticebv.cochains import Cochain, LatticeFunction
from latticebv.complexes import ModelParams, d_quantum
from latticebv.operad import (
    Interval,
    IntervalOperation,
    factorization_product,
    gamma_permutation,
    local_constancy_check,
    perm_substitute,
    substitute,
    sum_operation,
    time_reversal,
    translate,
)
from latticebv.cochains import support_within

from strategies import seeded_cochain

d = Cochain.field
bd = Cochain.antifield

SYMBOLIC = ModelParams.symbolic()


def test_interval_legality():
    with pytest.raises(ValueError):
        Interval(0, 2)
    with pytest.raises(ValueError):
        Interval(0, Fraction(3, 2))
    assert Interval(0, Fraction(5, 2)).field_sites() == (1, 2)


def test_interval_sites():
    iv = Interval(0, 5)
    assert iv.field_sites() == (1, 2, 3, 4)
    assert iv.antifield_sites() == (2, 3)
    half = Interval(Fraction(-3, 2), 4)
    assert half.field_sites() == (-1, 0, 1, 2, 3)
    assert half.antifield_sites() == (0, 1, 2)
    assert Interval(-4, Fraction(-3, 2)).field_sites() == (-3, -2)
    assert Interval.parse("-3/2,4") == half
    assert str(half) == "(-3/2,4)"
    iv = Interval(0, 3)
    assert iv.reflect() == Interval(-3, 0)
    assert iv.shift(2) == Interval(2, 5)


def test_interval_operations_validate():
    with pytest.raises(ValueError):
        IntervalOperation((Interval(0, 3), Interval(2, 5)), Interval(0, 8))
    with pytest.raises(ValueError):
        IntervalOperation((Interval(0, 3),), Interval(1, 4))


def test_gamma_examples():
    assert gamma_permutation(IntervalOperation((Interval(0, 3),), Interval(0, 8))) == (0,)
    ordered = IntervalOperation((Interval(0, 3), Interval(4, 7)), Interval(0, 8))
    assert gamma_permutation(ordered) == (0, 1)
    swapped = IntervalOperation((Interval(4, 7), Interval(0, 3)), Interval(0, 8))
    assert gamma_permutation(swapped) == (1, 0)
    assert ordered.reflect().shift(2).output == Interval(-6, 2)
    # reversal flips the reading order, translations never do
    assert gamma_permutation(ordered.reflect()) == (1, 0)
    assert gamma_permutation(ordered.shift(2)) == (0, 1)


def test_perm_substitute_explicit():
    # plugging a transposition into the middle slot of a 2-cycle
    sigma = (1, 0)
    tau = (1, 0)
    assert perm_substitute(sigma, 0, tau) == (2, 1, 0)
    assert perm_substitute(sigma, 1, tau) == (2, 1, 0)
    assert perm_substitute((0, 1), 1, (1, 0)) == (0, 2, 1)


def test_substitute_matches_gamma():
    outer = IntervalOperation((Interval(10, 16), Interval(0, 8)), Interval(-1, 20))
    inner = IntervalOperation((Interval(5, 8), Interval(1, 4)), Interval(0, 8))
    composite = substitute(outer, 1, inner)
    assert gamma_permutation(composite) == perm_substitute(
        gamma_permutation(outer), 1, gamma_permutation(inner)
    )
    with pytest.raises(ValueError):
        substitute(outer, 0, inner)


def test_factorization_product_paper_example():
    left = (d(0), Interval(-2, Fraction(1, 2)))
    right = (d(2) - d(1), Interval(Fraction(1, 2), 3))
    out = factorization_product([left, right], Interval(-3, 3))
    assert out == d(0) * d(2) - d(0) * d(1)


def test_factorization_product_unary_and_unit():
    ambient = Interval(-3, 3)
    assert factorization_product([(d(0), Interval(-2, Fraction(1, 2)))], ambient) == d(0)
    both_units = [
        (Cochain.one(), Interval(-2, Fraction(1, 2))),
        (Cochain.one(), Interval(Fraction(1, 2), 3)),
    ]
    assert factorization_product(both_units, ambient) == Cochain.one()


def test_factorization_product_rejects_support_violation():
    with pytest.raises(ValueError):
        factorization_product([(d(2), Interval(-2, Fraction(1, 2)))], Interval(-3, 3))


def test_sum_operation():
    f = (LatticeFunction({0: 1}), Interval(-2, 1))
    g = (LatticeFunction({3: 2}), Interval(2, 5))
    out = sum_operation([f, g], Interval(-3, 6))
    assert out == LatticeFunction({0: 1, 3: 2})
    assert sum_operation([f], Interval(-3, 6)) == f[0]
    empty = (LatticeFunction.zero(), Interval(2, 5))
    assert sum_operation([f, empty], Interval(-3, 6)) == f[0]
    with pytest.raises(ValueError):
        sum_operation([(LatticeFunction({2: 1}), Interval(-2, 1))], Interval(-3, 6))


def test_translate_examples():
    assert translate(d(0), 1) == d(1)
    assert translate(bd(2) * d(0), -2) == bd(0) * d(-2)
    c = d(0) * 3 - bd(1) * d(2)
    assert translate(c, 0) == c
    assert translate(translate(c, 5), -5) == c


def test_time_reversal_examples():
    assert time_reversal(d(2) - d(1)) == d(-2) - d(-1)
    assert time_reversal(bd(1) * bd(2)) == -(bd(-2) * bd(-1))
    c = d(0) * 3 - bd(1) * d(2)
    assert time_reversal(time_reversal(c)) == c


def test_symmetries_commute_with_differential():
    rng = random.Random(9)
    for _ in range(60):
        c = seeded_cochain(rng)
        n = rng.randint(-3, 3)
        assert d_quantum(translate(c, n), SYMBOLIC) == translate(d_quantum(c, SYMBOLIC), n)
        assert d_quantum(time_reversal(c), SYMBOLIC) == time_reversal(
            d_quantum(c, SYMBOLIC)
        )


def test_d_quantum_preserves_supports():
    rng = random.Random(10)
    ambient = Interval(-4, 4)
    for _ in range(60):
        c = seeded_cochain(rng, min_site=-3, max_site=3, max_poly_degree=3)
        if not support_within(c, ambient):
            continue
        assert support_within(d_quantum(c, SYMBOLIC), ambient)


def test_factorization_product_composition_compatibility():
    rng = random.Random(20)
    middle = Interval(0, 8)
    ambient = Interval(-1, 13)
    slots = (Interval(0, 3), Interval(4, 7), Interval(9, 12))
    for _ in range(30):
        cochains_in_slots = []
        for slot in slots:
            sites = slot.field_sites()
            fields = {rng.choice(sites): rng.randint(1, 2)}
            cochains_in_slots.append(Cochain.monomial(fields, (), rng.randint(-3, 3)))
        c1, c2, c3 = cochains_in_slots
        one_step = factorization_product(
            [(c1, slots[0]), (c2, slots[1]), (c3, slots[2])], ambient
        )
        partial = factorization_product([(c1, slots[0]), (c2, slots[1])], middle)
        two_step = factorization_product([(partial, middle), (c3, slots[2])], ambient)
        assert one_step == two_step


def test_local_constancy_examples():
    assert local_constancy_check(Interval(0, 3), Interval(-1, 4), 2, 1, 1)
    same = Interval(0, 3)
    assert local_constancy_check(same, same, 2, 1, 1)
    assert local_constancy_check(Interval(0, Fraction(5, 2)), Interval(0, 25), 1, 1, 1)
    with pytest.raises(ValueError):
        local_constancy_check(Interval(0, 5), Interval(1, 4), 1, 1, 1)
