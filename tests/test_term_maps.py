"""The linear structure shared by Cochain, LatticeFunction and WeylElement.

Sums and equality hold only between maps of one class, and powers are
repeated products from the unit, for non-negative integer exponents only.
"""

import pytest

from latticebv.cochains import Cochain, LatticeFunction
from latticebv.scalars import HBAR
from latticebv.weyl import WeylElement


@pytest.mark.parametrize(
    "x, y",
    [
        (LatticeFunction({0: 1}), Cochain.field(3)),
        (WeylElement.q(), LatticeFunction({1: 2})),
        (Cochain.field(0), WeylElement.q()),
    ],
)
def test_term_maps_of_different_classes_do_not_add(x, y):
    with pytest.raises(TypeError):
        x + y
    with pytest.raises(TypeError):
        y + x
    assert x != y


def test_powers_take_non_negative_integer_exponents():
    with pytest.raises(ValueError):
        Cochain.field(0) ** -1
    with pytest.raises(ValueError):
        WeylElement.q() ** 1.5
    with pytest.raises(TypeError):
        LatticeFunction({0: 1}) ** 2


def test_powers_are_repeated_products():
    d0 = Cochain.field(0)
    assert d0**3 == d0 * d0 * d0
    assert d0**0 == Cochain.one()
    x = WeylElement.q() + WeylElement.p()
    assert x**2 == x * x
    # p q = q p + hbar
    assert x**2 == WeylElement({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): HBAR})
