"""Exact coefficient ring Q[hbar][alpha, alpha^-1].

Every coefficient in this package lives in the commutative ring of Laurent
polynomials in ``alpha`` whose coefficients are polynomials in ``hbar`` over
the rationals.  ``hbar`` is a genuine polynomial variable (never inverted);
``alpha`` is invertible.  The massless model is the specialization
``alpha := 1``, in which case ``alpha + alpha^-1 - 2`` (the mass squared)
vanishes.

A scalar is stored as integer numerators over one shared positive
denominator, kept canonical: no zero numerator is stored, the denominator
and the numerators have no common factor, and zero is the empty map over 1.
Structural equality is therefore ring equality.  Sums and products are
exact integer arithmetic on the numerators; powers are repeated products
(the one loop of ``_sparse.TermMap``), and specialization evaluates each
term over ``Fraction``.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

from ._sparse import TermMap, accumulate, canonical, hbar_alpha, render

RationalLike = Union[int, Fraction]

__all__ = ["Scalar", "ZERO", "ONE", "HBAR", "ALPHA", "as_scalar", "mass_squared"]


class Scalar:
    """Element of Q[hbar][alpha, alpha^-1] as a sparse term map.

    Terms are keyed by ``(hbar_power, alpha_power)`` with ``hbar_power >= 0``
    and ``alpha_power`` any integer; the value of a term is its nonzero
    integer numerator over the scalar's common denominator.

    >>> x = Scalar.alpha(1) + Scalar.alpha(-1)
    >>> print(x * x - (Scalar.alpha(1) - Scalar.alpha(-1)) ** 2)
    4
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], RationalLike] | None = None):
        rationals = canonical(terms, Fraction, _checked_key)
        den = 1
        for c in rationals.values():
            d = c.denominator
            if d != 1:
                den = den // gcd(den, d) * d
        # over the lcm of the denominators no common factor is left
        self._terms = {k: c.numerator * (den // c.denominator) for k, c in rationals.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return ONE

    @classmethod
    def rational(cls, value: RationalLike) -> "Scalar":
        if isinstance(value, int):
            return _scalar({(0, 0): value}, 1) if value else ZERO
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return _scalar({(0, 0): value.numerator}, value.denominator) if value else ZERO

    @classmethod
    def hbar(cls, power: int = 1) -> "Scalar":
        return _scalar({_checked_key((power, 0)): 1}, 1)

    @classmethod
    def alpha(cls, power: int = 1) -> "Scalar":
        return _scalar({(0, int(power)): 1}, 1)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, Scalar):
            other = as_scalar(other)
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _reduced(accumulate(dict(a), b.items()), d1)
        # over the lcm of the two denominators
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        sums = {k: c * m1 for k, c in a.items()}
        return _reduced(accumulate(sums, ((k, c * m2) for k, c in b.items())), d1 * m1)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar({key: -c for key, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return as_scalar(other) + (-self)

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, Scalar):
            other = as_scalar(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a shift of every key by one monomial: no two products collide
            (((h2, a2), c2),) = b.items()
            products = {(h1 + h2, a1 + a2): c1 * c2 for (h1, a1), c1 in a.items()}
        else:
            products = accumulate(
                {},
                (
                    ((h1 + h2, a1 + a2), c1 * c2)
                    for (h1, a1), c1 in a.items()
                    for (h2, a2), c2 in b.items()
                ),
            )
        return _reduced(products, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Scalar":
        d = Fraction(other)
        if not d:
            raise ZeroDivisionError("division of a Scalar by zero")
        return self * Scalar.rational(1 / d)

    # the shared power loop, bound in this class's own namespace so the benchmark's span tracer finds it
    __pow__ = TermMap.__pow__

    def inverse(self) -> "Scalar":
        """The inverse of a unit: a single term c*alpha^k with no hbar.

        >>> print((Scalar.alpha(-2) * 3).inverse())
        1/3*alpha^2
        """
        if len(self._terms) == 1:
            (((hp, ap), c),) = self._terms.items()
            if not hp:
                # c and the denominator are coprime, so den/c is reduced
                return _scalar({(0, -ap): self._den if c > 0 else -self._den}, abs(c))
        raise ValueError(f"{self} is not a unit: units are single terms without hbar")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = as_scalar(other)
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._terms)

    @property
    def is_alpha_free(self) -> bool:
        return all(ap == 0 for (_, ap) in self._terms)

    def terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """The ``(key, rational coefficient)`` pairs."""
        den = self._den
        return [(key, Fraction(c, den)) for key, c in self._terms.items()]

    def key(self) -> tuple:
        """Canonical hashable key (used for caching downstream)."""
        return (tuple(sorted(self._terms.items())), self._den)

    # -- specialization ----------------------------------------------------

    def specialize(self, hval: RationalLike, aval: RationalLike) -> Fraction:
        """Evaluate at hbar = hval, alpha = aval.  A ring homomorphism.

        ``aval`` must be nonzero since alpha is invertible; at hval = 0 the
        hbar^0 terms stay, since 0**0 is 1.
        """
        hval, aval = Fraction(hval), Fraction(aval)
        if not aval:
            raise ValueError("alpha must be specialized to a nonzero rational")
        return Fraction(sum(c * hval**hp * aval**ap for (hp, ap), c in self._terms.items()), self._den)

    def specialize_alpha(self, aval: RationalLike) -> "Scalar":
        """Substitute alpha := aval, keeping hbar symbolic."""
        aval = Fraction(aval)
        if not aval:
            raise ValueError("alpha must be specialized to a nonzero rational")
        return Scalar(accumulate({}, (((hp, 0), c * aval**ap) for (hp, ap), c in self.terms())))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(sorted(self.terms()), hbar_alpha)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _scalar(terms: dict, den: int) -> Scalar:
    """A Scalar holding ``terms`` over ``den``, which must already be canonical."""
    out = object.__new__(Scalar)
    out._terms = terms
    out._den = den
    return out


def _reduced(terms: dict, den: int) -> Scalar:
    """A Scalar holding nonzero integer ``terms`` over ``den > 0``, made canonical."""
    if not terms:
        return ZERO
    if den != 1:
        g = den
        for c in terms.values():
            g = gcd(g, c)
            if g == 1:
                break
        else:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _scalar(terms, den)


def _checked_key(key: tuple[int, int]) -> tuple[int, int]:
    hp, ap = key
    if hp < 0:
        raise ValueError("hbar powers must be non-negative")
    return (int(hp), int(ap))


def as_scalar(value: "Scalar | RationalLike") -> Scalar:
    """Coerce an int or Fraction into the coefficient ring."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


def mass_squared(aval: "Scalar | RationalLike") -> Scalar:
    """The mass squared alpha + alpha^-1 - 2 attached to a lattice weight.

    Accepts the symbol alpha itself (or any single invertible alpha-power
    times a rational) or a nonzero rational specialization.  At alpha = 1
    the result is 0, the massless case.

    >>> print(mass_squared(Scalar.alpha()))
    alpha^-1 - 2 + alpha
    >>> print(mass_squared(Fraction(4)))
    9/4
    """
    a = as_scalar(aval)
    return a + a.inverse() - Scalar.rational(2)


ZERO = _scalar({}, 1)
ONE = _scalar({(0, 0): 1}, 1)
HBAR = Scalar.hbar()
ALPHA = Scalar.alpha()
