"""Differentials and structural maps of the lattice field complex.

The two-term complex on an interval has the discrete Laplacian

    (Q f)(x) = f(x-1) - (alpha + alpha^-1) f(x) + f(x+1)

as its differential; on the symmetric algebra of observables this induces
the classical differential ``d`` (zero on fields, the Laplacian row on
antifields, extended as a graded derivation).  Quantization deforms it by
the odd Laplacian ``D = sum_x d/d bdelta[x] d/d delta[x]`` to

    d_h = d + hbar * D,

which still squares to zero.  The failure of the odd Laplacian to be a
derivation is the shifted Poisson bracket; both are implemented here,
together with the harmonic kernel functions u, v, A, B and the degree-0
cohomology classifier ``phi`` built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._sparse import accumulate, wrap
from .cochains import Cochain, LatticeFunction, Monomial, Site
from .scalars import Scalar, as_scalar

__all__ = [
    "ModelParams",
    "laplace",
    "differential",
    "odd_laplacian",
    "d_quantum",
    "poisson_bracket",
    "kernel_function",
    "phi",
    "phi_section",
    "KERNEL_KINDS",
]

KERNEL_KINDS = ("u", "v", "A", "B")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: the lattice weight alpha and the deformation hbar.

    ``alpha`` must be a single invertible term (the symbol alpha, a power of
    it, or a nonzero rational); ``hbar`` may be the symbol hbar or any
    scalar.  The massless model is ``alpha == 1``.
    """

    alpha: Scalar
    hbar: Scalar
    _alpha_plus_inverse: Scalar = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse = self.alpha.inverse()  # raises ValueError unless alpha is a unit
        object.__setattr__(self, "_alpha_plus_inverse", self.alpha + inverse)

    @classmethod
    def at(
        cls, hbar: Fraction | int | None = None, alpha: Fraction | int | None = None
    ) -> "ModelParams":
        """hbar and alpha at the given rationals; None keeps the symbolic variable."""
        return cls(
            alpha=Scalar.alpha() if alpha is None else Scalar.rational(alpha),
            hbar=Scalar.hbar() if hbar is None else Scalar.rational(hbar),
        )

    @classmethod
    def symbolic(cls) -> "ModelParams":
        return cls.at()

    @classmethod
    def massless(cls) -> "ModelParams":
        """alpha := 1 with hbar still a formal variable."""
        return cls.at(alpha=1)

    def alpha_power(self, k: int) -> Scalar:
        """alpha^k for any integer k, exact in the ring."""
        return self.alpha**k if k >= 0 else self.alpha.inverse() ** -k

    def alpha_plus_inverse(self) -> Scalar:
        return self._alpha_plus_inverse


def laplace(f: LatticeFunction, params: ModelParams) -> LatticeFunction:
    """The discrete Laplacian (Q f)(x) = f(x-1) - (alpha+alpha^-1) f(x) + f(x+1).

    The support grows by at most one site on each side.
    """
    ap1 = params.alpha_plus_inverse()
    bumps = (
        pair
        for s, v in f.terms()
        for pair in ((s - 1, v), (s, -(v * ap1)), (s + 1, v))
    )
    return wrap(LatticeFunction, accumulate({}, bumps))


def differential(c: Cochain, params: ModelParams) -> Cochain:
    """The classical differential d: zero on fields, the Laplacian on antifields.

    On a monomial it acts as a degree +1 graded derivation; replacing the
    i-th odd factor costs the Koszul sign (-1)^(i-1).
    """
    ap1 = params.alpha_plus_inverse()
    one = Scalar.one()

    def images():
        for m, coeff in c.terms():
            for i, s in enumerate(m.antifields):
                reduced = Monomial(m.fields, m.antifields[:i] + m.antifields[i + 1 :])
                sign_coeff = coeff if i % 2 == 0 else -coeff
                for site, weight in ((s - 1, one), (s, -ap1), (s + 1, one)):
                    yield reduced.raise_field(site), sign_coeff * weight

    return wrap(Cochain, accumulate({}, images()))


def odd_laplacian(c: Cochain) -> Cochain:
    """The odd Laplacian: sum over x of d/d bdelta[x] d/d delta[x].

    Second-order, degree +1, vanishes on generators; only sites carrying
    both an odd factor and a field power contribute.
    """

    def images():
        for m, coeff in c.terms():
            if not m.antifields or not m.fields:
                continue
            exponents = dict(m.fields)
            for i, s in enumerate(m.antifields):
                e = exponents.get(s, 0)
                if e:
                    rest = m.antifields[:i] + m.antifields[i + 1 :]
                    term = coeff * e
                    yield Monomial(m.lower_field(s).fields, rest), (term if i % 2 == 0 else -term)

    return wrap(Cochain, accumulate({}, images()))


def d_quantum(c: Cochain, params: ModelParams) -> Cochain:
    """The quantum differential d_h = d + hbar * (odd Laplacian)."""
    return differential(c, params) + odd_laplacian(c) * params.hbar


def poisson_bracket(x: Cochain, y: Cochain) -> Cochain:
    """The shifted Poisson bracket, defined as the BV defect of the odd Laplacian:

        {x, y} = D(x y) - D(x) y - (-1)^deg(x) x D(y),

    taken degreewise in x.  On generators {bdelta[a], delta[b]} = [a == b].
    """
    out = Cochain.zero()
    for deg in x.degrees():
        xk = x.homogeneous_part(deg)
        defect = odd_laplacian(xk * y) - odd_laplacian(xk) * y
        tail = xk * odd_laplacian(y)
        out = out + (defect - tail if deg % 2 == 0 else defect + tail)
    return out


def kernel_function(kind: str, x: Site, params: ModelParams) -> Scalar:
    """The four harmonic kernels annihilated by the lattice Laplacian.

    u(x) = alpha^x, v(x) = alpha^-x, A = (u + v)/2, and B is
    (u - v)/(alpha - alpha^-1) implemented by its telescoping closed form

        B(x) = sign(x) * (alpha^(|x|-1) + alpha^(|x|-3) + ... + alpha^(1-|x|))

    so no division happens in the ring; B(0) = 0 and B(x) = x at alpha = 1.
    """
    if kind == "u":
        return params.alpha_power(x)
    if kind == "v":
        return params.alpha_power(-x)
    if kind == "A":
        return (params.alpha_power(x) + params.alpha_power(-x)) * Fraction(1, 2)
    if kind == "B":
        if x == 0:
            return Scalar.zero()
        n = abs(x)
        total = Scalar.zero()
        for j in range(n):
            total = total + params.alpha_power(n - 1 - 2 * j)
        return total if x > 0 else -total
    raise ValueError(f"unknown kernel kind {kind!r}")


def phi(f: LatticeFunction, params: ModelParams):
    """The degree-0 cohomology classifier as a linear Weyl element.

    Sends a representative f to (sum f(x) A(x)) q + (sum f(x) B(x)) p.  It
    kills Laplacian images, so it is well defined on classes; at alpha = 1
    the coefficients are the total mass and the first moment of f.
    """
    from .weyl import WeylElement

    qc = Scalar.zero()
    pc = Scalar.zero()
    for s, v in f.terms():
        qc = qc + v * kernel_function("A", s, params)
        pc = pc + v * kernel_function("B", s, params)
    return WeylElement({(1, 0): qc, (0, 1): pc})


def phi_section(y: Site) -> tuple[LatticeFunction, LatticeFunction]:
    """Massless (alpha = 1) section of the classifier at anchor site y.

    Returns representatives (for q: the site-0 indicator; for p: the
    difference of indicators at y+1 and y); phi maps them back to q and p.
    """
    q_rep = LatticeFunction.delta(0)
    p_rep = LatticeFunction({y + 1: 1, y: as_scalar(-1)})
    return q_rep, p_rep
