"""Sparse linear combinations: the one mechanism behind every term map.

A :class:`~latticebv.scalars.Scalar` maps ``(hbar_power, alpha_power)`` to
rationals; a ``Cochain`` maps monomials, a ``LatticeFunction`` sites, a
``WeylElement`` ``(q_power, p_power)`` and a ``FockVector`` q-powers to
scalars.  Each stores a dict ``_terms`` from key to nonzero coefficient, and
this module holds what they share: building that dict from arbitrary input
(:func:`canonical`), adding terms into it so that a key whose coefficients
cancel disappears (:func:`accumulate`), scaling it (:func:`scale`),
wrapping a dict that is already canonical (:func:`wrap`), and rendering a
sum of coefficient-times-basis terms in the parser's grammar
(:func:`render`).

A coefficient is a ``Fraction`` or a ``Scalar``; both are false exactly when
they are zero, so one truth test serves every class.
"""

from __future__ import annotations

from fractions import Fraction
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


def render(items: Iterable[tuple[Hashable, object]], name: Callable[[Hashable], str]) -> str:
    """Render the sum of ``coefficient * basis`` terms, e.g. ``-3/2*hbar*q + p``.

    ``items`` are ``(key, coefficient)`` pairs in display order and
    ``name(key)`` is the text of the basis element, empty for the unit.  A
    rational is written unless it is 1 in front of a nonempty basis element;
    a one-term Scalar is written as its rational times its hbar and alpha
    powers, and a Scalar with several terms is parenthesized so the output
    stays parseable.  The empty sum is ``0``.
    """
    pieces: list[str] = []
    for k, c in items:
        basis = name(k)
        if not isinstance(c, Fraction):
            if len(c._terms) > 1:  # its signs stay inside the parentheses
                c, basis = 1, product(f"({c})", basis)
            else:
                ((scalar_key, c),) = c._terms.items()
                basis = product(hbar_alpha(scalar_key), basis)
        magnitude = abs(c)
        body = product("" if magnitude == 1 and basis else str(magnitude), basis)
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append("-" + body if c < 0 else body)
    return " ".join(pieces) or "0"
