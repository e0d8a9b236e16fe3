"""Exact coefficient ring Q[hbar][alpha, alpha^-1].

Every coefficient in this package lives in the commutative ring of Laurent
polynomials in ``alpha`` whose coefficients are polynomials in ``hbar`` over
the rationals.  ``hbar`` is a genuine polynomial variable (never inverted);
``alpha`` is invertible.  The massless model is the specialization
``alpha := 1``, in which case ``alpha + alpha^-1 - 2`` (the mass squared)
vanishes.

Scalars are immutable and canonical: a zero coefficient is never stored, so
structural equality of the term maps is ring equality.  All arithmetic is
exact (``fractions.Fraction``); no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from ._sparse import accumulate, canonical, hbar_alpha, render, wrap

RationalLike = Union[int, Fraction]

__all__ = ["Scalar", "ZERO", "ONE", "HBAR", "ALPHA", "as_scalar", "mass_squared"]


class Scalar:
    """Element of Q[hbar][alpha, alpha^-1] as a sparse term map.

    Terms are keyed by ``(hbar_power, alpha_power)`` with ``hbar_power >= 0``
    and ``alpha_power`` any integer; values are nonzero rationals.

    >>> x = Scalar.alpha(1) + Scalar.alpha(-1)
    >>> print(x * x - (Scalar.alpha(1) - Scalar.alpha(-1)) ** 2)
    4
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], RationalLike] | None = None):
        self._terms = canonical(terms, Fraction, _checked_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({(0, 0): 1})

    @classmethod
    def rational(cls, value: RationalLike) -> "Scalar":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def hbar(cls, power: int = 1) -> "Scalar":
        return cls({(power, 0): 1})

    @classmethod
    def alpha(cls, power: int = 1) -> "Scalar":
        return cls({(0, power): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        other = as_scalar(other)
        return wrap(Scalar, accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return wrap(Scalar, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return as_scalar(other) + (-self)

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        other = as_scalar(other)
        products = (
            ((h1 + h2, a1 + a2), c1 * c2)
            for (h1, a1), c1 in self._terms.items()
            for (h2, a2), c2 in other._terms.items()
        )
        return wrap(Scalar, accumulate({}, products))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Scalar":
        d = Fraction(other)
        if not d:
            raise ZeroDivisionError("division of a Scalar by zero")
        return self * (Fraction(1) / d)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers must be non-negative integers")
        result = Scalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_alpha_free(self) -> bool:
        return all(ap == 0 for (_, ap) in self._terms)

    def coefficient(self, hbar_power: int, alpha_power: int) -> Fraction:
        return self._terms.get((hbar_power, alpha_power), Fraction(0))

    def terms(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return self._terms.items()

    def key(self) -> tuple:
        """Canonical hashable key (used for caching downstream)."""
        return tuple(sorted(self._terms.items()))

    # -- specialization ----------------------------------------------------

    def specialize(self, hval: RationalLike, aval: RationalLike) -> Fraction:
        """Evaluate at hbar = hval, alpha = aval.  A ring homomorphism.

        ``aval`` must be nonzero since alpha is invertible.
        """
        hval, aval = Fraction(hval), Fraction(aval)
        if not aval:
            raise ValueError("alpha must be specialized to a nonzero rational")
        total = Fraction(0)
        for (hp, ap), c in self._terms.items():
            total += c * hval**hp * aval**ap
        return total

    def specialize_alpha(self, aval: RationalLike) -> "Scalar":
        """Substitute alpha := aval, keeping hbar symbolic."""
        aval = Fraction(aval)
        if not aval:
            raise ValueError("alpha must be specialized to a nonzero rational")
        specialized = (((hp, 0), c * aval**ap) for (hp, ap), c in self._terms.items())
        return wrap(Scalar, accumulate({}, specialized))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(sorted(self._terms.items()), hbar_alpha)

    def __repr__(self) -> str:
        return f"Scalar({self})"


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
    if len(a._terms) != 1:
        raise ValueError("alpha weight must be a single invertible term")
    ((hp, ap), c) = next(iter(a._terms.items()))
    if hp != 0:
        raise ValueError("alpha weight must not involve hbar")
    inverse = Scalar({(0, -ap): Fraction(1) / c})
    return a + inverse - Scalar.rational(2)


ZERO = Scalar.zero()
ONE = Scalar.one()
HBAR = Scalar.hbar()
ALPHA = Scalar.alpha()
