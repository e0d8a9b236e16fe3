"""Sparse linear combinations: the one mechanism behind every term map.

A :class:`~latticebv.scalars.Scalar` maps ``(hbar_power, alpha_power)`` to
integer numerators over one shared denominator; a ``Cochain`` maps
monomials, a ``LatticeFunction`` sites and a ``WeylElement``
``(q_power, p_power)`` to scalars.  Each of the four stores a dict
``_terms`` from key to nonzero coefficient, and this module holds what they
share: building that dict from arbitrary input (:func:`canonical`), adding
terms into it so that a key whose coefficients cancel disappears
(:func:`accumulate`), scaling it (:func:`scale`), wrapping a dict that is
already canonical (:func:`wrap`; a ``Scalar`` also needs its denominator
and has its own), and rendering a sum of coefficient-times-basis terms in
the parser's grammar (:func:`render`).  All four subclass :class:`TermMap`,
which holds the zero test, the repr and the power loop once; the other
three also take its sums and equality, which a ``Scalar`` overrides because
they go through its denominator.
The benchmark's span tracer replaces entries of a class's own ``__dict__``,
so a class binds each traced method it takes from ``TermMap`` by an alias
line such as ``__add__ = TermMap.__add__``.

A coefficient is an ``int`` numerator over the map's denominator or a
``Scalar``, false exactly when it is zero, so one truth test serves every
class; the renderer writes each numerator in lowest terms with one ``gcd``.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

T = TypeVar("T")


def canonical(
    terms: Mapping | None,
    coerce: Callable,
    key: Callable[[Hashable], Hashable] | None = None,
) -> dict:
    """The nonzero ``coerce``-d coefficients of ``terms``, keyed by ``key(k)``."""
    out: dict = {}
    if terms:
        for k, c in terms.items():
            if key is not None:
                k = key(k)
            c = coerce(c)
            if c:
                out[k] = c
    return out


def accumulate(acc: dict, items: Iterable[tuple[Hashable, object]]) -> dict:
    """Add each ``(key, coefficient)`` into ``acc``; a key summing to zero is dropped."""
    get = acc.get
    for k, c in items:
        total = get(k)
        if total is not None:
            c = total + c
        if c:
            acc[k] = c
        elif total is not None:
            del acc[k]
    return acc


def scale(terms: dict, factor) -> dict:
    """Every coefficient times ``factor``; empty for a zero factor.

    The coefficient rings have no zero divisors, so a nonzero factor
    creates no zero coefficient.
    """
    return {k: c * factor for k, c in terms.items()} if factor else {}


def wrap(cls: type[T], terms: dict) -> T:
    """An instance of ``cls`` holding ``terms``, which must already be canonical."""
    out = cls.__new__(cls)
    out._terms = terms
    return out


class TermMap:
    """A canonical dict ``_terms`` from key to nonzero coefficient.

    A subclass builds ``_terms`` in ``__init__`` and adds its products, its
    ``__str__`` and, for powers, a classmethod ``one``.  Sums and equality
    hold only between maps of the same class, or a Scalar and a rational.
    """

    __slots__ = ("_terms",)

    @classmethod
    def zero(cls: type[T]) -> T:
        return cls()

    def __add__(self: T, other: T) -> T:
        if type(other) is not type(self):
            return NotImplemented
        return wrap(type(self), accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self: T) -> T:
        return wrap(type(self), {k: -c for k, c in self._terms.items()})

    def __sub__(self: T, other: T) -> T:
        return self + (-other)

    def __pow__(self: T, n: int) -> T:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"{type(self).__name__} powers must be non-negative integers")
        result = type(self).one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """The ``(key, coefficient)`` pairs, as a view of the stored dict."""
        return self._terms.items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def power(name: str, exponent: int) -> str:
    """``name^exponent``, or just ``name`` for 1; empty for exponent 0."""
    if not exponent:
        return ""
    return name if exponent == 1 else f"{name}^{exponent}"


def product(*factors: str) -> str:
    """The nonempty factors joined by ``*``."""
    return "*".join(f for f in factors if f)


def hbar_alpha(key: tuple[int, int]) -> str:
    """The basis element ``hbar^i*alpha^j`` of the scalar ring ("" for 1)."""
    return product(power("hbar", key[0]), power("alpha", key[1]))


def render(items: Iterable[tuple[Hashable, object]], name: Callable[[Hashable], str], den: int = 1) -> str:
    """Render the sum of ``coefficient * basis`` terms, e.g. ``-3/2*hbar*q + p``.

    ``items`` are ``(key, coefficient)`` pairs in display order and
    ``name(key)`` is the text of the basis element, empty for the unit.  A
    numerator over ``den`` is written unless it is 1 in front of a nonempty
    basis element; a one-term Scalar is written as its rational times its
    hbar and alpha powers, and a Scalar with several terms is parenthesized
    so the output stays parseable.  The empty sum is ``0``.
    """
    pieces: list[str] = []
    for k, c in items:
        basis, d = name(k), den
        if not isinstance(c, int):
            if len(c) > 1:  # its signs stay inside the parentheses
                c, d, basis = 1, 1, product(f"({c})", basis)
            else:
                d, ((scalar_key, c),) = c._den, c._terms.items()
                basis = product(hbar_alpha(scalar_key), basis)
        magnitude = abs(c)
        g = gcd(magnitude, d)
        text = str(magnitude // g) if g == d else f"{magnitude // g}/{d // g}"
        body = product("" if magnitude == d and basis else text, basis)
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append("-" + body if c < 0 else body)
    return " ".join(pieces) or "0"
