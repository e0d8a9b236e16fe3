"""Intervals of length greater than 2 and their operadic structure.

Colors are open intervals (a, b) with rational endpoints and b - a > 2; an
operation is a pairwise-disjoint inclusion I_1 u ... u I_n c J.  Reading the
inputs left to right defines a permutation, which is the comparison map to
the associative operad: unary operations go to identities, so the algebra
extracted from the observables only remembers H^0 and the ordering of
disjoint intervals.

The structure maps implemented here are the factorization product (inclusion
followed by multiplication), the sum operation on the linear level, and the
two symmetries: integer translation and site negation (time reversal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cochains import Cochain, LatticeFunction, support_within

__all__ = [
    "Interval",
    "IntervalOperation",
    "gamma_permutation",
    "perm_substitute",
    "substitute",
    "factorization_product",
    "sum_operation",
    "translate",
    "time_reversal",
    "local_constancy_check",
    "MIN_LENGTH",
]

# colors must be longer than twice the unit scale
MIN_LENGTH = 2


@dataclass(frozen=True)
class Interval:
    """Open interval (a, b) with rational endpoints and length > 2."""

    a: Fraction
    b: Fraction
    _field_sites: range = field(init=False, repr=False, compare=False)
    _antifield_sites: range = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if b - a <= MIN_LENGTH:
            raise ValueError(f"interval ({a}, {b}) is too little: length must exceed {MIN_LENGTH}")
        object.__setattr__(self, "_field_sites", range(math.floor(a) + 1, math.ceil(b)))
        object.__setattr__(self, "_antifield_sites", range(math.floor(a) + 2, math.ceil(b) - 1))

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse 'a,b' with rational endpoints, e.g. '-4,4' or '-3/2,4'."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        try:
            return cls(Fraction(parts[0].strip()), Fraction(parts[1].strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in interval {text!r}") from None

    def field_sites(self) -> range:
        """Integer points strictly inside (a, b).

        A ``range``, built once with the interval, so membership and size
        cost O(1) however wide the interval is; nothing materializes the
        sites unless a caller iterates.  An endpoint is never a site:

        >>> iv = Interval(Fraction(-3, 2), Fraction(10, 3))
        >>> list(iv.field_sites()), list(iv.antifield_sites())
        ([-1, 0, 1, 2, 3], [0, 1, 2])
        """
        return self._field_sites

    def antifield_sites(self) -> range:
        """Integer points strictly inside (a+1, b-1), as a ``range``."""
        return self._antifield_sites

    def contains(self, other: "Interval") -> bool:
        return self.a <= other.a and other.b <= self.b

    def disjoint_from(self, other: "Interval") -> bool:
        return self.b <= other.a or other.b <= self.a

    def __lt__(self, other: "Interval") -> bool:
        """Strictly to the left (disjoint order)."""
        return self.b <= other.a

    def shift(self, r: Fraction | int) -> "Interval":
        return Interval(self.a + r, self.b + r)

    def reflect(self) -> "Interval":
        return Interval(-self.b, -self.a)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


@dataclass(frozen=True)
class IntervalOperation:
    """A pairwise-disjoint inclusion of colored inputs into an output color."""

    inputs: tuple[Interval, ...]
    output: Interval

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        for i, I in enumerate(self.inputs):
            if not self.output.contains(I):
                raise ValueError(f"input {I} is not contained in {self.output}")
            for J in self.inputs[i + 1 :]:
                if not I.disjoint_from(J):
                    raise ValueError(f"inputs {I} and {J} overlap")

    def shift(self, r: Fraction | int) -> "IntervalOperation":
        return IntervalOperation(tuple(I.shift(r) for I in self.inputs), self.output.shift(r))

    def reflect(self) -> "IntervalOperation":
        return IntervalOperation(tuple(I.reflect() for I in self.inputs), self.output.reflect())


def gamma_permutation(op: IntervalOperation) -> tuple[int, ...]:
    """The left-to-right reading permutation of an interval operation.

    Returns sigma as a tuple with sigma[i] = 0-based rank of the i-th input
    in the spatial order.  Unary operations map to the identity.
    """
    order = sorted(range(len(op.inputs)), key=lambda i: op.inputs[i].a)
    sigma = [0] * len(op.inputs)
    for rank, i in enumerate(order):
        sigma[i] = rank
    return tuple(sigma)


def perm_substitute(sigma: tuple[int, ...], j: int, tau: tuple[int, ...]) -> tuple[int, ...]:
    """Operadic substitution of permutations (associative-operad composition).

    Blows up the j-th letter of sigma into a block ordered by tau; letters of
    sigma ranked above sigma[j] shift up by len(tau) - 1.
    """
    m = len(tau)
    out: list[int] = []
    for i, rank in enumerate(sigma):
        if i == j:
            out.extend(sigma[j] + t for t in tau)
        else:
            out.append(rank + (m - 1) if rank > sigma[j] else rank)
    return tuple(out)


def substitute(outer: IntervalOperation, j: int, inner: IntervalOperation) -> IntervalOperation:
    """Compose interval operations by plugging ``inner`` into input j of ``outer``."""
    if inner.output != outer.inputs[j]:
        raise ValueError("inner output color does not match the substituted input")
    inputs = outer.inputs[:j] + inner.inputs + outer.inputs[j + 1 :]
    return IntervalOperation(inputs, outer.output)


def factorization_product(
    args: list[tuple[Cochain, Interval]], ambient: Interval
) -> Cochain:
    """The structure map of observables: include into the ambient interval and multiply.

    Each cochain must be supported within its interval and the intervals
    must form a valid operation into ``ambient``.
    """
    IntervalOperation(tuple(I for _, I in args), ambient)
    for c, I in args:
        if not support_within(c, I):
            raise ValueError(f"cochain {c} is not supported within {I}")
    out = Cochain.one()
    for c, _ in args:
        out = out * c
    return out


def sum_operation(
    args: list[tuple[LatticeFunction, Interval]], ambient: Interval
) -> LatticeFunction:
    """The linear-level structure map: pointwise sum after inclusion."""
    IntervalOperation(tuple(I for _, I in args), ambient)
    for f, I in args:
        allowed = I.field_sites()
        if not all(s in allowed for s in f.support()):
            raise ValueError(f"function {f} is not supported within {I}")
    out = LatticeFunction.zero()
    for f, _ in args:
        out = out + f
    return out


def translate(c: Cochain, n: int) -> Cochain:
    """Shift every generator site by +n (an algebra map commuting with d_h)."""
    return c.map_sites(lambda s: s + n)


def time_reversal(c: Cochain) -> Cochain:
    """Negate every generator site; involutive, with Koszul signs re-sorted."""
    return c.map_sites(lambda s: -s)


def local_constancy_check(
    inner: Interval,
    outer: Interval,
    maxdeg: int,
    hval: Fraction | int,
    aval: Fraction | int,
) -> bool:
    """Whether the inclusion induces an iso on truncated degree-0 cohomology.

    Delegates to the exact linear-algebra oracle: both truncations (total
    polynomial degree <= maxdeg) must have equal H^0 dimension and the
    induced map must have full rank.
    """
    if not outer.contains(inner):
        raise ValueError("inner interval must be contained in the outer one")
    from .oracle import h0_inclusion_is_iso

    return h0_inclusion_is_iso(inner, outer, maxdeg, hval, aval)
