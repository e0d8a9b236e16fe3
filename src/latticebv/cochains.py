"""Graded-commutative observables on the integer lattice.

To each lattice site ``x`` we attach an even generator ``delta[x]`` of
cohomological degree 0 (a field observable) and an odd generator
``bdelta[x]`` of degree -1 (its antifield partner).  Monomials are words in
these generators; the odd generators anticommute and square to zero, so the
canonical form keeps them in strictly ascending site order and every sign in
the package is the Koszul sign of sorting into that order.

A :class:`Cochain` is a finite linear combination of monomials with
coefficients in the ring :class:`~latticebv.scalars.Scalar`.  A
:class:`LatticeFunction` is the linear-algebra view used by the lattice
Laplacian and the degree-1 pairing: a finitely supported map from sites to
scalars.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from ._sparse import TermMap, accumulate, canonical, power, render, scale, wrap
from .scalars import Scalar, as_scalar

Site = int

__all__ = [
    "Site",
    "Monomial",
    "Cochain",
    "LatticeFunction",
    "sort_antifields",
    "pairing",
    "support_within",
]


def sort_antifields(sites: Iterable[Site]) -> tuple[tuple[Site, ...], int]:
    """Sort odd generator sites, returning the Koszul sign of the sort.

    Returns ``(sorted_sites, sign)`` with ``sign`` in {1, -1}, or
    ``((), 0)`` when a site repeats (the square of an odd generator is 0).

    >>> sort_antifields([3, 1])
    ((1, 3), -1)
    >>> sort_antifields([2, 2])
    ((), 0)
    """
    out: list[Site] = []
    sign = 1
    for s in sites:
        pos = len(out)
        while pos > 0 and out[pos - 1] > s:
            pos -= 1
        if pos > 0 and out[pos - 1] == s:
            return (), 0
        # s jumps over len(out) - pos odd generators
        if (len(out) - pos) % 2:
            sign = -sign
        out.insert(pos, s)
    return tuple(out), sign


class Monomial:
    """Canonical monomial: sorted antifield word times a field power product.

    ``fields`` is a tuple of ``(site, exponent)`` pairs sorted by site with
    positive exponents; ``antifields`` is a strictly ascending site tuple.
    The monomial denotes bdelta[s1]...bdelta[sk] * prod delta[x]^e,
    with the odd factors written first.
    """

    __slots__ = ("fields", "antifields", "_hash")

    def __init__(
        self, fields: tuple[tuple[Site, int], ...], antifields: tuple[Site, ...]
    ):
        self.fields = fields
        self.antifields = antifields
        self._hash = hash((fields, antifields))

    @classmethod
    def make(
        cls,
        fields: Mapping[Site, int] | Iterable[tuple[Site, int]] = (),
        antifields: tuple[Site, ...] = (),
    ) -> "Monomial":
        """Build from already-sorted antifields and a field exponent map."""
        items = fields.items() if isinstance(fields, Mapping) else fields
        fc = tuple(sorted((s, e) for s, e in items if e))
        if any(e < 0 for _, e in fc):
            raise ValueError("field exponents must be positive")
        return cls(fc, antifields)

    UNIT: "Monomial"

    @property
    def degree(self) -> int:
        """Cohomological degree: minus the number of odd factors."""
        return -len(self.antifields)

    @property
    def polynomial_degree(self) -> int:
        return sum(e for _, e in self.fields) + len(self.antifields)

    def field_exponent(self, site: Site) -> int:
        for s, e in self.fields:
            if s == site:
                return e
        return 0

    def lower_field(self, site: Site) -> "Monomial":
        """Remove one delta[site] factor (the exponent must be positive)."""
        fields = tuple(
            (s, e - 1 if s == site else e)
            for s, e in self.fields
            if not (s == site and e == 1)
        )
        return Monomial(fields, self.antifields)

    def raise_field(self, site: Site) -> "Monomial":
        """Multiply by one delta[site] factor (even, so no sign)."""
        fields = self.fields
        i = bisect_left(fields, (site,))
        if i < len(fields) and fields[i][0] == site:
            raised = ((site, fields[i][1] + 1),)
            return Monomial(fields[:i] + raised + fields[i + 1 :], self.antifields)
        return Monomial(fields[:i] + ((site, 1),) + fields[i:], self.antifields)

    def sort_key(self) -> tuple:
        return (self.antifields, self.fields)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Monomial)
            and self.fields == other.fields
            and self.antifields == other.antifields
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        factors = [f"bdelta[{s}]" for s in self.antifields]
        for s, e in self.fields:
            factors.append(power(f"delta[{s}]", e))
        return "*".join(factors) if factors else "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


Monomial.UNIT = Monomial((), ())


def _mul_monomials(a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
    """Product of monomials with its Koszul sign; None if an odd site repeats."""
    if a.antifields and b.antifields:
        anti, sign = sort_antifields(a.antifields + b.antifields)
        if sign == 0:
            return None, 0
    else:
        anti, sign = a.antifields or b.antifields, 1
    if not b.fields:
        fields = a.fields
    elif not a.fields:
        fields = b.fields
    else:
        merged = dict(a.fields)
        for s, e in b.fields:
            merged[s] = merged.get(s, 0) + e
        fields = tuple(sorted(merged.items()))
    return Monomial(fields, anti), sign


class Cochain(TermMap):
    """Finite Scalar-linear combination of monomials, kept canonical."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self._terms = canonical(terms, as_scalar)

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, value: Scalar | int | Fraction) -> "Cochain":
        return cls({Monomial.UNIT: as_scalar(value)})

    @classmethod
    def one(cls) -> "Cochain":
        return cls.scalar(1)

    @classmethod
    def field(cls, site: Site) -> "Cochain":
        """The generator delta[site]."""
        return cls({Monomial(((site, 1),), ()): Scalar.one()})

    @classmethod
    def antifield(cls, site: Site) -> "Cochain":
        """The odd generator bdelta[site]."""
        return cls({Monomial((), (site,)): Scalar.one()})

    @classmethod
    def monomial(
        cls,
        fields: Mapping[Site, int] | Iterable[tuple[Site, int]] = (),
        antifields: Iterable[Site] = (),
        coefficient: Scalar | int | Fraction = 1,
    ) -> "Cochain":
        """Build a one-term cochain from possibly unsorted antifield sites.

        The Koszul sign of sorting is folded into the coefficient; a
        repeated antifield site gives the zero cochain.
        """
        anti, sign = sort_antifields(antifields)
        return cls({Monomial.make(fields, anti): as_scalar(coefficient) * sign})

    # -- linear structure ---------------------------------------------------

    # bound in this class's own namespace so the benchmark's span tracer finds them
    __add__, __neg__, __sub__ = TermMap.__add__, TermMap.__neg__, TermMap.__sub__
    __pow__, __eq__ = TermMap.__pow__, TermMap.__eq__

    def __mul__(self, other: "Cochain | Scalar | int | Fraction") -> "Cochain":
        if not isinstance(other, Cochain):
            factor = as_scalar(other)
            return wrap(Cochain, scale(self._terms, factor))

        def products():
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    prod, sign = _mul_monomials(m1, m2)
                    if prod is not None:
                        c = c1 * c2
                        yield prod, (c if sign > 0 else -c)

        return wrap(Cochain, accumulate({}, products()))

    __rmul__ = __mul__

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- structure queries ---------------------------------------------------

    @property
    def is_even_degree_zero(self) -> bool:
        """True if no monomial carries an odd factor."""
        return not any(m.antifields for m in self._terms)

    def coefficient(self, m: Monomial) -> Scalar:
        return self._terms.get(m, Scalar.zero())

    def degrees(self) -> set[int]:
        return {m.degree for m in self._terms}

    def homogeneous_part(self, degree: int) -> "Cochain":
        return wrap(Cochain, {m: c for m, c in self._terms.items() if m.degree == degree})

    def max_polynomial_degree(self) -> int:
        return max((m.polynomial_degree for m in self._terms), default=0)

    def field_support(self) -> set[Site]:
        out: set[Site] = set()
        for m in self._terms:
            out.update(s for s, _ in m.fields)
        return out

    def antifield_support(self) -> set[Site]:
        out: set[Site] = set()
        for m in self._terms:
            out.update(m.antifields)
        return out

    def support(self) -> set[Site]:
        return self.field_support() | self.antifield_support()

    def key(self) -> frozenset:
        """Canonical hashable key for caching."""
        return frozenset(self._terms.items())

    # -- derivations ---------------------------------------------------------

    def partial_field(self, site: Site) -> "Cochain":
        """Even derivative d/d delta[site]: degree 0, ordinary power rule."""
        derived = (
            (m.lower_field(site), c * e)
            for m, c in self._terms.items()
            if (e := m.field_exponent(site))
        )
        return wrap(Cochain, accumulate({}, derived))

    def partial_antifield(self, site: Site) -> "Cochain":
        """Odd left derivative d/d bdelta[site]: degree +1.

        On bdelta[s1]...bdelta[sk] * F with s_i == site the result is
        (-1)^(i-1) times the word with that factor deleted; zero when the
        site is absent.
        """

        def derived():
            for m, c in self._terms.items():
                if site in m.antifields:
                    i = m.antifields.index(site)
                    reduced = Monomial(m.fields, m.antifields[:i] + m.antifields[i + 1 :])
                    yield reduced, (c if i % 2 == 0 else -c)

        return wrap(Cochain, accumulate({}, derived()))

    def map_sites(self, fn: Callable[[Site], Site]) -> "Cochain":
        """Relabel every generator site through ``fn``, re-canonicalizing.

        ``fn`` must be injective on the support.  The Koszul sign of
        re-sorting the relabeled antifield word is folded into the
        coefficients (relevant e.g. for site negation).
        """

        def moved():
            for m, c in self._terms.items():
                fields = {fn(s): e for s, e in m.fields}
                if len(fields) != len(m.fields):
                    raise ValueError("site map is not injective on the support")
                anti, sign = sort_antifields(fn(s) for s in m.antifields)
                if sign:
                    yield Monomial.make(fields, anti), (c if sign > 0 else -c)

        return wrap(Cochain, accumulate({}, moved()))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        ordered = sorted(self._terms, key=Monomial.sort_key)
        return render(((m, self._terms[m]) for m in ordered), _basis_text)


def _basis_text(m: Monomial) -> str:
    return "" if m == Monomial.UNIT else str(m)


class LatticeFunction(TermMap):
    """Finitely supported map from lattice sites to scalars.

    This is the linear-algebra view of the degree-0 and degree-(-1) lines:
    the lattice Laplacian, the pairing and the cohomology classifier all act
    on these rather than on general cochains.
    """

    __slots__ = ()

    def __init__(self, values: Mapping[Site, Scalar | int | Fraction] | None = None):
        self._terms = canonical(values, as_scalar, int)

    @classmethod
    def delta(cls, site: Site) -> "LatticeFunction":
        """The indicator of a single site."""
        return cls({site: 1})

    # bound in this class's own namespace so the benchmark's span tracer finds it
    __add__ = TermMap.__add__
    # lattice functions have no product, so no powers
    __pow__ = None

    def get(self, site: Site) -> Scalar:
        return self._terms.get(site, Scalar.zero())

    def support(self) -> set[Site]:
        return set(self._terms)

    def as_field_cochain(self) -> Cochain:
        """The degree-0 cochain sum f(x) delta[x]."""
        return Cochain({Monomial.make({s: 1}): v for s, v in self._terms.items()})

    def as_antifield_cochain(self) -> Cochain:
        """The degree-(-1) cochain sum f(x) bdelta[x]."""
        return Cochain({Monomial((), (s,)): v for s, v in self._terms.items()})

    def __str__(self) -> str:
        return str(self.as_field_cochain())


def pairing(f: LatticeFunction, g: LatticeFunction) -> Scalar:
    """The degree-1 symmetric pairing: sum over x of f(x) g(x)."""
    total = Scalar.zero()
    for s, v in f.terms():
        w = g.get(s)
        if not w.is_zero:
            total = total + v * w
    return total


def support_within(c: Cochain, interval) -> bool:
    """Whether ``c`` is an observable of the given interval.

    Every field site must be one of ``interval.field_sites()`` and every
    antifield site one of ``interval.antifield_sites()``; the rule that picks
    them lives in :class:`~latticebv.operad.Interval`.
    """
    fields, antifields = interval.field_sites(), interval.antifield_sites()
    return all(
        all(s in fields for s, _ in m.fields) and all(s in antifields for s in m.antifields)
        for m, _ in c.terms()
    )
