"""Brute-force cohomology oracle: exact linear algebra on truncated complexes.

The span of monomials of total polynomial degree at most N is a subcomplex
(the classical differential preserves the degree, the odd Laplacian lowers
it by two), so truncating is sound without any spectral-sequence argument.
The oracle builds the matrix of the specialized quantum differential on the
truncated monomial basis of an interval and computes ranks and kernels over
the rationals, giving cohomology dimensions that are independent of the
rewriting engine.

This module also hosts a second, independently coded evaluation path for the
quantum differential (assembled from the public derivative operations rather
than the fused per-monomial loops), used to re-verify every homotopy
certificate the harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

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

    def params(self) -> ModelParams:
        return ModelParams.numeric(self.hval, self.aval)


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


def _field_monomials(sites: tuple[int, ...], max_total: int):
    """All sorted field exponent tuples of total degree <= max_total."""
    yield ()
    for d in range(1, max_total + 1):
        for combo in combinations_with_replacement(sites, d):
            fields: dict[int, int] = {}
            for s in combo:
                fields[s] = fields.get(s, 0) + 1
            yield tuple(sorted(fields.items()))


def truncated_basis(
    interval: Interval, maxdeg: int, include_unit: bool = True
) -> dict[int, list[Monomial]]:
    """Monomial basis per cohomological degree, total degree <= maxdeg.

    ``include_unit=False`` drops the constants and is only meaningful for
    the linear truncation (maxdeg <= 1), where it exposes the two-term
    complex itself.
    """
    if not include_unit and maxdeg > 1:
        raise ValueError("dropping the unit is only sound for maxdeg <= 1")
    field_sites = interval.field_sites()
    antifield_sites = interval.antifield_sites()
    basis: dict[int, list[Monomial]] = {}
    total = 0
    for k in range(min(maxdeg, len(antifield_sites)) + 1):
        monomials: list[Monomial] = []
        for anti in combinations(antifield_sites, k):
            for fields in _field_monomials(field_sites, maxdeg - k):
                m = Monomial(fields, anti)
                if not include_unit and m.polynomial_degree == 0:
                    continue
                monomials.append(m)
        monomials.sort(key=Monomial.sort_key)
        total += len(monomials)
        if total > BASIS_GUARD:
            raise BasisTooLargeError(
                f"truncated basis exceeds {BASIS_GUARD} monomials"
            )
        if monomials:
            basis[-k] = monomials
    return basis


def matrix_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by fraction-free-enough Gaussian elimination."""
    rows = [row[:] for row in rows if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _differential_columns(
    domain: list[Monomial],
    codomain_index: dict[Monomial, int],
    spec: TruncationSpec,
) -> list[list[Fraction]]:
    """Images of the domain basis under the specialized d_h, as coordinate rows."""
    params = spec.params()
    columns: list[list[Fraction]] = []
    size = len(codomain_index)
    for m in domain:
        image = d_quantum_reference(Cochain({m: 1}), params)
        column = [Fraction(0)] * size
        for mono, coeff in image.terms():
            column[codomain_index[mono]] = coeff.specialize(spec.hval, spec.aval)
        columns.append(column)
    return columns


def _truncated_complex(
    spec: TruncationSpec, include_unit: bool = True
) -> tuple[dict[int, list[Monomial]], dict[int, list[list[Fraction]]], dict[int, int]]:
    """The truncated complex: basis, coordinate columns of d_h and their ranks.

    ``columns[g]`` and ``ranks[g]`` describe d_h from degree g to g + 1 and
    are present only where both degrees have a basis.
    """
    basis = truncated_basis(spec.interval, spec.maxdeg, include_unit)
    columns: dict[int, list[list[Fraction]]] = {}
    ranks: dict[int, int] = {}
    for g, monomials in basis.items():
        if g + 1 in basis:
            index = {m: i for i, m in enumerate(basis[g + 1])}
            columns[g] = _differential_columns(monomials, index, spec)
            ranks[g] = matrix_rank(columns[g])
    return basis, columns, ranks


def _dimensions(basis: dict[int, list[Monomial]], ranks: dict[int, int]) -> dict[int, int]:
    return {g: len(basis[g]) - ranks.get(g, 0) - ranks.get(g - 1, 0) for g in sorted(basis)}


def cohomology_oracle(
    spec: TruncationSpec, include_unit: bool = True
) -> dict[int, int]:
    """Cohomology dimensions of the truncated complex, degree by degree.

    Builds the specialized quantum differential on the monomial basis and
    computes exact ranks over the rationals.
    """
    basis, _, ranks = _truncated_complex(spec, include_unit)
    return _dimensions(basis, ranks)


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
    inner_basis, _, inner_ranks = _truncated_complex(TruncationSpec(inner, maxdeg, hval, aval))
    outer_basis, outer_columns, outer_ranks = _truncated_complex(
        TruncationSpec(outer, maxdeg, hval, aval)
    )
    dim_inner = _dimensions(inner_basis, inner_ranks)[0]
    if dim_inner != _dimensions(outer_basis, outer_ranks)[0]:
        return False

    outer_zero_index = {m: i for i, m in enumerate(outer_basis[0])}
    size = len(outer_zero_index)
    inclusion_columns: list[list[Fraction]] = []
    for m in inner_basis[0]:
        column = [Fraction(0)] * size
        column[outer_zero_index[m]] = Fraction(1)
        inclusion_columns.append(column)

    image_columns = outer_columns.get(-1, [])
    combined = matrix_rank(image_columns + inclusion_columns)
    return combined - outer_ranks.get(-1, 0) == dim_inner
