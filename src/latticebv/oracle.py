"""Brute-force cohomology oracle: exact linear algebra on truncated complexes.

The span of monomials of total polynomial degree at most N is a subcomplex
(the classical differential preserves the degree, the odd Laplacian lowers
it by two), so truncating is sound without any spectral-sequence argument.
The oracle writes the matrix of the specialized quantum differential
d_h = d + hbar*D on the truncated monomial basis of an interval as sparse
rows over ``Fraction``, read off each basis monomial by a closed formula
(the Laplacian row at each odd factor plus hbar times each matching field
exponent, with Koszul signs; see ``_differential_columns``), and computes
their exact rank by fraction-free elimination.  So the dimensions use
neither the ``Scalar`` ring, nor ``Cochain`` arithmetic, nor the rewriting
engine that they check.

This module also hosts a second, independently coded evaluation path for the
quantum differential (assembled from the public derivative operations rather
than the fused per-monomial loops), used to re-verify every homotopy
certificate the harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm
from typing import Iterable, Mapping

from .cochains import Cochain, Monomial
from .complexes import ModelParams
from .operad import Interval

__all__ = [
    "TruncationSpec",
    "BasisTooLargeError",
    "truncated_basis",
    "cohomology_oracle",
    "h0_inclusion_is_iso",
    "d_quantum_reference",
    "matrix_rank",
    "BASIS_GUARD",
]

BASIS_GUARD = 20000


class BasisTooLargeError(ValueError):
    """The truncated monomial basis exceeds the desk-scale guard."""


@dataclass(frozen=True)
class TruncationSpec:
    """A finite model: interval, polynomial degree bound, rational parameters."""

    interval: Interval
    maxdeg: int
    hval: Fraction
    aval: Fraction

    def __post_init__(self):
        if self.maxdeg < 0:
            raise ValueError("maxdeg must be non-negative")
        if not Fraction(self.aval):
            raise ValueError("alpha must be specialized to a nonzero rational")


def d_quantum_reference(c: Cochain, params: ModelParams) -> Cochain:
    """Independent evaluation of d_h = d + hbar * D.

    d is assembled as sum_y (Laplacian row at y) * (odd derivative at y) and
    D as sum_x (odd derivative after field derivative), using only the
    public operations of the cochain algebra.
    """
    ap1 = params.alpha_plus_inverse()
    out = Cochain.zero()
    for y in sorted(c.antifield_support()):
        row = Cochain.field(y - 1) - Cochain.field(y) * ap1 + Cochain.field(y + 1)
        out = out + row * c.partial_antifield(y)
    laplacian = Cochain.zero()
    for x in sorted(c.field_support()):
        laplacian = laplacian + c.partial_field(x).partial_antifield(x)
    return out + laplacian * params.hbar


def _field_monomials(sites: range, max_total: int):
    """All sorted field exponent tuples of total degree <= max_total."""
    for d in range(max_total + 1):
        for combo in combinations_with_replacement(sites, d):
            fields: dict[int, int] = {}
            for s in combo:
                fields[s] = fields.get(s, 0) + 1
            yield tuple(sorted(fields.items()))


def truncated_basis(interval: Interval, maxdeg: int) -> dict[int, list[Monomial]]:
    """Monomial basis per cohomological degree, total degree <= maxdeg.

    The size is counted from the numbers of sites before anything is built,
    and a basis above :data:`BASIS_GUARD` is rejected; at maxdeg 0 the basis
    is the unit alone and the site pools are never touched, so both stay
    cheap however wide the interval is (``combinations`` copies its pool).
    """
    field_sites = interval.field_sites()
    antifield_sites = interval.antifield_sites()
    # counted from the bounds: len() of a range fails past sys.maxsize
    n_field = field_sites.stop - field_sites.start
    n_anti = max(0, antifield_sites.stop - antifield_sites.start)
    odd_counts = range(min(maxdeg, n_anti) + 1)
    # k odd factors times field monomials of degree <= maxdeg - k
    size = sum(comb(n_anti, k) * comb(n_field + maxdeg - k, maxdeg - k) for k in odd_counts)
    if size > BASIS_GUARD:
        raise BasisTooLargeError(f"truncated basis exceeds {BASIS_GUARD} monomials")
    if not maxdeg:
        return {0: [Monomial.UNIT]}
    basis: dict[int, list[Monomial]] = {}
    for k in odd_counts:
        monomials = [
            Monomial(fields, anti)
            for anti in combinations(antifield_sites, k)
            for fields in _field_monomials(field_sites, maxdeg - k)
        ]
        monomials.sort(key=Monomial.sort_key)
        basis[-k] = monomials
    return basis


def matrix_rank(rows: Iterable[Mapping[int, Fraction | int]]) -> int:
    """Exact rank over the rationals of sparse rows ``{column: entry}``.

    One fraction-free echelon pass in the style of Bareiss (Math. Comp. 22,
    1968), on integers only.  Each row is multiplied by the lcm of its
    denominators and then reduced against the pivot rows kept so far, which
    are keyed by their leading (largest) column: with ``p`` the pivot for
    the row's leading column and ``g = gcd(p[lead], r[lead])``, the step is
    ``r = (p[lead] / g) * r - (r[lead] / g) * p``, after which ``r`` is
    divided by the gcd of its entries.  A row that does not reduce to zero
    becomes a new pivot; the rank is the number of pivots.  Which column
    leads changes only the fill-in: on the d_h rows the largest makes less.
    """
    pivots: dict[int, dict[int, int]] = {}
    # reduce rather than gcd(*values): CPython 3.11 files each freed
    # 20-element tuple in a free list it never takes them back from, so
    # star-args over rows keep up to 400 KB alive
    for row in rows:
        den = reduce(lcm, (v.denominator for v in row.values()), 1)
        r = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        while r:
            content = reduce(gcd, r.values())
            if content != 1:
                r = {c: v // content for c, v in r.items()}
            lead = max(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            g = gcd(p[lead], r[lead])
            a, b = p[lead] // g, r[lead] // g
            if a != 1:
                r = {c: a * v for c, v in r.items()}
            for c, v in p.items():
                x = r.get(c, 0) - b * v
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
    return len(pivots)


def _differential_columns(
    domain: list[Monomial],
    codomain_index: dict[Monomial, int],
    spec: TruncationSpec,
) -> list[dict[int, Fraction]]:
    """Images of the domain basis under the specialized d_h, as sparse rows.

    For a monomial with antifield word s_0 < ... < s_{k-1} and exponent e_i
    of delta[s_i], the row is the sum over i of (-1)^i times

    * the Laplacian row at s_i: +1, -(a + 1/a) and +1 at delta[s_i - 1],
      delta[s_i] and delta[s_i + 1], each times the word without bdelta[s_i];
    * e_i*h at the monomial with one delta[s_i] lowered and bdelta[s_i]
      removed, when e_i and h are nonzero.

    This is d + hbar*D because d is the derivation taking bdelta[s] to the
    Laplacian row at s and D = sum_x d/d bdelta[x] d/d delta[x], and the odd
    derivative at s_i costs (-1)^i in both.  Distinct (i, site) give distinct
    monomials and a + 1/a is never 0, so no two entries meet or cancel.
    """
    h, a = Fraction(spec.hval), Fraction(spec.aval)
    laplacian = (Fraction(1), -(a + 1 / a), Fraction(1))
    # indexed by the parity of the odd factor's position: its Koszul sign
    signed = (laplacian, tuple(-w for w in laplacian))
    columns: list[dict[int, Fraction]] = []
    for m in domain:
        row: dict[int, Fraction] = {}
        word = m.antifields
        for i, s in enumerate(word):
            reduced = Monomial(m.fields, word[:i] + word[i + 1 :])
            for site, weight in zip((s - 1, s, s + 1), signed[i % 2]):
                row[codomain_index[reduced.raise_field(site)]] = weight
            e = m.field_exponent(s)
            if e and h:
                row[codomain_index[reduced.lower_field(s)]] = (-1) ** i * e * h
        columns.append(row)
    return columns


def _truncated_complex(
    spec: TruncationSpec,
) -> tuple[dict[int, dict[Monomial, int]], dict[int, list[dict[int, Fraction]]], dict[int, int]]:
    """The truncated complex: column indices, sparse coordinate columns of d_h and their ranks.

    ``index[g]`` is the one column numbering of the degree-g basis.  ``columns[g]``
    and ``ranks[g]`` describe d_h from degree g to g + 1 and are present only
    where both degrees have a basis.
    """
    basis = truncated_basis(spec.interval, spec.maxdeg)
    index = {g: {m: i for i, m in enumerate(monomials)} for g, monomials in basis.items()}
    columns: dict[int, list[dict[int, Fraction]]] = {}
    ranks: dict[int, int] = {}
    for g, monomials in basis.items():
        if g + 1 in basis:
            columns[g] = _differential_columns(monomials, index[g + 1], spec)
            ranks[g] = matrix_rank(columns[g])
    return index, columns, ranks


def _dimensions(index: dict[int, dict[Monomial, int]], ranks: dict[int, int]) -> dict[int, int]:
    return {g: len(index[g]) - ranks.get(g, 0) - ranks.get(g - 1, 0) for g in sorted(index)}


def cohomology_oracle(spec: TruncationSpec) -> dict[int, int]:
    """Cohomology dimensions of the truncated complex, degree by degree.

    Builds the specialized quantum differential on the monomial basis and
    computes exact ranks over the rationals.
    """
    index, _, ranks = _truncated_complex(spec)
    return _dimensions(index, ranks)


def h0_dimension(spec: TruncationSpec) -> int:
    return cohomology_oracle(spec)[0]


def h0_inclusion_is_iso(
    inner: Interval,
    outer: Interval,
    maxdeg: int,
    hval: Fraction | int,
    aval: Fraction | int,
) -> bool:
    """Whether inclusion induces an isomorphism on truncated H^0.

    Checks equal dimensions and that the composite (inner degree-0 basis
    into the outer complex, then onto the quotient by the image of d) has
    full rank; ranks are computed exactly over the rationals.
    """
    hval, aval = Fraction(hval), Fraction(aval)
    inner_index, _, inner_ranks = _truncated_complex(TruncationSpec(inner, maxdeg, hval, aval))
    outer_index, outer_columns, outer_ranks = _truncated_complex(
        TruncationSpec(outer, maxdeg, hval, aval)
    )
    dim_inner = _dimensions(inner_index, inner_ranks)[0]
    if dim_inner != _dimensions(outer_index, outer_ranks)[0]:
        return False

    inclusion_columns = [{outer_index[0][m]: 1} for m in inner_index[0]]

    image_columns = outer_columns.get(-1, [])
    combined = matrix_rank(image_columns + inclusion_columns)
    return combined - outer_ranks.get(-1, 0) == dim_inner
