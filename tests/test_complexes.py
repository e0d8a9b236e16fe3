from fractions import Fraction

import pytest
from hypothesis import given, settings

from latticebv.cochains import Cochain, LatticeFunction, pairing
from latticebv.complexes import (
    ModelParams,
    d_quantum,
    differential,
    kernel_function,
    laplace,
    odd_laplacian,
    phi,
    phi_section,
    poisson_bracket,
)
from latticebv.scalars import ALPHA, HBAR, Scalar
from latticebv.weyl import WeylElement

from strategies import cochains, lattice_functions

d = Cochain.field
bd = Cochain.antifield

MASSLESS = ModelParams.massless()
SYMBOLIC = ModelParams.symbolic()
AP1 = SYMBOLIC.alpha_plus_inverse()


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=Scalar.zero(), hbar=HBAR)
    with pytest.raises(ValueError):
        ModelParams(alpha=HBAR, hbar=HBAR)
    with pytest.raises(ValueError):
        ModelParams(alpha=ALPHA + Scalar.one(), hbar=HBAR)
    assert ModelParams.at(1, 2).alpha_power(-1) == Scalar.rational(Fraction(1, 2))
    assert SYMBOLIC.alpha_power(-3) == Scalar.alpha(-3)


def test_laplace_examples():
    f = LatticeFunction.delta(0)
    assert laplace(f, MASSLESS) == LatticeFunction({-1: 1, 0: -2, 1: 1})
    assert laplace(f, SYMBOLIC) == LatticeFunction({-1: Scalar.one(), 0: -AP1, 1: Scalar.one()})
    assert laplace(LatticeFunction.zero(), SYMBOLIC).is_zero


def test_differential_on_generators():
    assert differential(bd(1), MASSLESS) == d(0) - d(1) * 2 + d(2)
    assert differential(bd(1), SYMBOLIC) == d(0) - d(1) * AP1 + d(2)
    assert differential(d(0) ** 3, SYMBOLIC).is_zero


def test_differential_leibniz_on_odd_pair():
    lhs = differential(bd(0) * bd(1), SYMBOLIC)
    rhs = differential(bd(0), SYMBOLIC) * bd(1) - bd(0) * differential(bd(1), SYMBOLIC)
    assert lhs == rhs
    assert differential(lhs, SYMBOLIC).is_zero


@given(cochains(max_poly_degree=3), cochains(max_poly_degree=3))
@settings(max_examples=60, deadline=None)
def test_differential_graded_leibniz(x, y):
    for deg in x.degrees():
        xk = x.homogeneous_part(deg)
        lhs = differential(xk * y, SYMBOLIC)
        rhs = differential(xk, SYMBOLIC) * y + (xk * differential(y, SYMBOLIC)) * (
            1 if deg % 2 == 0 else -1
        )
        assert lhs == rhs


def test_odd_laplacian_examples():
    assert odd_laplacian(bd(0) * d(0)) == Cochain.one()
    assert odd_laplacian(d(0)).is_zero
    assert odd_laplacian(bd(1) * d(0)).is_zero
    assert odd_laplacian(bd(0) * bd(1)).is_zero  # odd factors and no fields


def test_d_quantum_paper_vectors():
    got = d_quantum(bd(0) * d(0), MASSLESS)
    want = d(-1) * d(0) - d(0) ** 2 * 2 + d(1) * d(0) + Cochain.scalar(HBAR)
    assert got == want
    got = d_quantum(bd(1) * d(-1), MASSLESS)
    want = d(0) * d(-1) - d(1) * d(-1) * 2 + d(2) * d(-1)
    assert got == want


@given(cochains())
@settings(max_examples=100, deadline=None)
def test_d_quantum_squares_to_zero(c):
    assert d_quantum(d_quantum(c, SYMBOLIC), SYMBOLIC).is_zero


@given(cochains())
@settings(max_examples=60, deadline=None)
def test_differential_identities(c):
    assert differential(differential(c, SYMBOLIC), SYMBOLIC).is_zero
    assert odd_laplacian(odd_laplacian(c)).is_zero
    mixed = differential(odd_laplacian(c), SYMBOLIC) + odd_laplacian(
        differential(c, SYMBOLIC)
    )
    assert mixed.is_zero


def test_poisson_bracket_generator_values():
    assert poisson_bracket(bd(0), d(0)) == Cochain.one()
    assert poisson_bracket(d(0), d(1)).is_zero
    assert poisson_bracket(bd(2), d(0)).is_zero


@given(cochains(max_poly_degree=3), cochains(max_poly_degree=3))
@settings(max_examples=60, deadline=None)
def test_bracket_is_bv_defect(x, y):
    for deg in x.degrees():
        xk = x.homogeneous_part(deg)
        defect = odd_laplacian(xk * y) - odd_laplacian(xk) * y
        tail = xk * odd_laplacian(y)
        defect = defect - tail if deg % 2 == 0 else defect + tail
        assert poisson_bracket(xk, y) == defect


def test_kernel_function_values():
    assert kernel_function("u", 3, SYMBOLIC) == Scalar.alpha(3)
    assert kernel_function("v", 3, SYMBOLIC) == Scalar.alpha(-3)
    assert kernel_function("A", 0, SYMBOLIC) == Scalar.one()
    assert kernel_function("B", 0, SYMBOLIC).is_zero
    assert kernel_function("B", 2, SYMBOLIC) == ALPHA + Scalar.alpha(-1)
    assert kernel_function("B", -2, SYMBOLIC) == -(ALPHA + Scalar.alpha(-1))
    for x in range(-6, 7):
        assert kernel_function("B", x, MASSLESS) == Scalar.rational(x)
    with pytest.raises(ValueError):
        kernel_function("w", 0, SYMBOLIC)


def test_kernels_are_harmonic():
    for kind in ("u", "v", "A", "B"):
        for x in range(-8, 9):
            lhs = (
                kernel_function(kind, x - 1, SYMBOLIC)
                - AP1 * kernel_function(kind, x, SYMBOLIC)
                + kernel_function(kind, x + 1, SYMBOLIC)
            )
            assert lhs.is_zero, (kind, x)


def test_phi_values():
    assert phi(LatticeFunction.delta(0), SYMBOLIC) == WeylElement.q()
    half = Fraction(1, 2)
    assert phi(LatticeFunction.delta(1), SYMBOLIC) == WeylElement(
        {(1, 0): AP1 * half, (0, 1): Scalar.one()}
    )
    expected_q = (Scalar.alpha(2) - Scalar.rational(2) + Scalar.alpha(-2)) * half
    assert phi(LatticeFunction({2: 1, 0: -1}), SYMBOLIC) == WeylElement(
        {(1, 0): expected_q, (0, 1): AP1}
    )


@given(lattice_functions())
@settings(max_examples=60, deadline=None)
def test_phi_kills_laplacian_images(g):
    assert phi(laplace(g, SYMBOLIC), SYMBOLIC) == WeylElement.zero()


@given(lattice_functions(), lattice_functions())
@settings(max_examples=60, deadline=None)
def test_pairing_laplace_adjoint(f, g):
    assert pairing(laplace(f, SYMBOLIC), g) == pairing(f, laplace(g, SYMBOLIC))


def test_phi_section_examples():
    assert phi_section(1) == (LatticeFunction({0: 1}), LatticeFunction({2: 1, 1: -1}))
    assert phi_section(0) == (LatticeFunction({0: 1}), LatticeFunction({1: 1, 0: -1}))
    q_rep, p_rep = phi_section(2)
    assert phi(q_rep, MASSLESS) == WeylElement.q()
    assert phi(p_rep, MASSLESS) == WeylElement.p()


def test_phi_massless_is_mass_and_moment():
    f = LatticeFunction({-1: 3, 2: -1})
    total = Scalar.rational(2)
    moment = Scalar.rational(-3 - 2)
    assert phi(f, MASSLESS) == WeylElement({(1, 0): total, (0, 1): moment})


def test_laplacian_support_growth():
    f = LatticeFunction({0: 1, 3: 2})
    assert laplace(f, SYMBOLIC).support() <= {-1, 0, 1, 2, 3, 4}
