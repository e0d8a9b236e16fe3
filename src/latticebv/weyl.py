"""The associative algebra extracted from degree-0 cohomology.

Classes of even degree-0 observables on a fixed ambient interval are
multiplied by the star recipe: relocate the left factor onto a window inside
a left sub-interval, the right factor onto a window inside a right one,
multiply with the factorization product, and reduce back to the canonical
window {0, 1}.  The result is an associative unital algebra isomorphic to
the Weyl algebra

    K<q, p> / (p q - q p = hbar),

via q = [delta[0]] and p = (1/2)[delta[1] - delta[-1]].  The isomorphism
is the time-ordered product: the class of delta[x1] ... delta[xn] with
x1 <= ... <= xn is Q(x1) ... Q(xn), where Q(x) = phi(delta(x)) is the
classifier of the indicator at x.  On the canonical window {0, 1} that is
q^a Q(1)^b for delta[0]^a delta[1]^b.

Also implemented: the normal-ordered Weyl algebra itself, the translation
(time evolution) automorphism, the site-negation anti-involution, and the
Fock module K[q] = Weyl / Weyl p, whose vectors are the p-free Weyl
elements representing their classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._sparse import TermMap, accumulate, canonical, power, product, render, scale, wrap
from .cochains import Cochain, LatticeFunction, Monomial, support_within
from .complexes import ModelParams, phi
from .operad import Interval, time_reversal, translate
from .reduction import REWRITE_GUARD, HomotopyCertificate, Window, _guarded_reach, _reduce_to_window, relocate
from .scalars import Scalar, as_scalar

__all__ = [
    "WeylElement",
    "StarGeometry",
    "GEOMETRIES",
    "H0Class",
    "StarAlgebra",
    "MAX_DEGREE",
    "time_evolution",
    "time_reversal_weyl",
    "fock_action",
    "fock_projection",
]


class WeylElement(TermMap):
    """Normal-ordered element of K<q,p>/(pq - qp = hbar).

    Terms map ``(q_power, p_power)`` to scalars, q written left of p.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], Scalar | int | Fraction] | None = None):
        self._terms = canonical(terms, as_scalar, _qp_key)

    @classmethod
    def one(cls) -> "WeylElement":
        return cls({(0, 0): 1})

    @classmethod
    def q(cls, power: int = 1) -> "WeylElement":
        return cls({(power, 0): 1})

    @classmethod
    def p(cls, power: int = 1) -> "WeylElement":
        return cls({(0, power): 1})

    # bound in this class's own namespace so the benchmark's span tracer finds it
    __add__ = TermMap.__add__

    def __mul__(self, other: "WeylElement | Scalar | int | Fraction") -> "WeylElement":
        if not isinstance(other, WeylElement):
            factor = as_scalar(other)
            return wrap(WeylElement, scale(self._terms, factor))

        def products():
            for (aq, ap), c1 in self._terms.items():
                for (bq, bp), c2 in other._terms.items():
                    base = c1 * c2
                    # p^ap q^bq = sum_k C(ap,k) C(bq,k) k! hbar^k q^(bq-k) p^(ap-k)
                    for k in range(min(ap, bq) + 1):
                        coef = math.comb(ap, k) * math.comb(bq, k) * math.factorial(k)
                        add = base * coef * Scalar.hbar(k) if k else base * coef
                        yield (aq + bq - k, ap + bp - k), add

        return wrap(WeylElement, accumulate({}, products()))

    __rmul__ = __mul__

    def coefficient(self, q_power: int, p_power: int) -> Scalar:
        return self._terms.get((q_power, p_power), Scalar.zero())

    def __str__(self) -> str:
        ordered = sorted(self._terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        return render(((k, self._terms[k]) for k in ordered), _qp_text)


def _qp_key(key: tuple[int, int]) -> tuple[int, int]:
    return (int(key[0]), int(key[1]))


def _qp_text(key: tuple[int, int]) -> str:
    return product(power("q", key[0]), power("p", key[1]))


@dataclass(frozen=True)
class StarGeometry:
    """Geometry of the star product: two ordered sub-intervals plus windows.

    The left and right factors are relocated onto ``left_window`` and
    ``right_window`` (contiguous site pairs inside the respective
    sub-intervals) before multiplying into the ambient interval.
    """

    ambient: Interval
    left: Interval
    right: Interval
    left_window: Window
    right_window: Window

    def __post_init__(self):
        if not (self.ambient.contains(self.left) and self.ambient.contains(self.right)):
            raise ValueError("sub-intervals must lie inside the ambient interval")
        if not self.left < self.right:
            raise ValueError("the left sub-interval must lie strictly left of the right one")
        if not all(s in self.left.field_sites() for s in self.left_window.sites):
            raise ValueError("left window must consist of field sites of the left sub-interval")
        if not all(s in self.right.field_sites() for s in self.right_window.sites):
            raise ValueError("right window must consist of field sites of the right sub-interval")
        if self.right_window.base not in (0, 1):  # see StarAlgebra.star
            raise ValueError("right window must start on site 0 or 1, next to the canonical window {0, 1}")


GEOMETRIES: dict[str, StarGeometry] = {
    "default": StarGeometry(
        ambient=Interval(Fraction(-4), Fraction(4)),
        left=Interval(Fraction(-4), Fraction(-3, 2)),
        right=Interval(Fraction(-3, 2), Fraction(4)),
        left_window=Window(-3),
        right_window=Window(0),
    ),
    "massless35": StarGeometry(
        ambient=Interval(Fraction(-3), Fraction(3)),
        left=Interval(Fraction(-2), Fraction(1, 2)),
        right=Interval(Fraction(1, 2), Fraction(3)),
        left_window=Window(-1),
        right_window=Window(1),
    ),
    "alternate": StarGeometry(
        ambient=Interval(Fraction(-4), Fraction(4)),
        left=Interval(Fraction(-4), Fraction(-1, 2)),
        right=Interval(Fraction(-1, 2), Fraction(4)),
        left_window=Window(-2),
        right_window=Window(1),
    ),
}

CANONICAL_WINDOW = Window(0)

# the highest total degree a + b of q^a p^b that psi and to_weyl accept
MAX_DEGREE = 12


class H0Class:
    """A degree-0 cohomology class held by an even representative.

    The canonical form (the reduction of the representative to the window
    {0, 1}) is cached with its certificate, or given with it by a star
    product (its representative is the input); classes are equal iff their
    canonical forms agree.
    """

    __slots__ = ("_rep", "ambient", "params", "_cert")

    def __init__(
        self, rep: Cochain | None, ambient: Interval, params: ModelParams, cert: HomotopyCertificate | None = None
    ):
        if cert is None and not rep.is_even_degree_zero:
            raise ValueError("class representatives must be purely even of degree 0")
        if cert is None and not support_within(rep, ambient):
            raise ValueError(f"representative is not supported within {ambient}")
        self._rep, self.ambient, self.params, self._cert = rep, ambient, params, cert

    rep = property(lambda self: self.certificate.input if self._rep is None else self._rep)

    @property
    def certificate(self) -> HomotopyCertificate:
        if self._cert is None:
            # __init__ has checked the representative: the reduction proper
            self._cert = _reduce_to_window(self._rep, self.ambient, CANONICAL_WINDOW, self.params, "right")
        return self._cert

    @property
    def canonical_form(self) -> Cochain:
        return self.certificate.normal_form

    def _compatible(self, other: "H0Class") -> None:
        if self.ambient != other.ambient or self.params != other.params:
            raise ValueError("classes live on different ambient intervals or parameters")

    def __sub__(self, other: "H0Class") -> "H0Class":
        self._compatible(other)
        return H0Class(self.rep - other.rep, self.ambient, self.params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, H0Class):
            return NotImplemented
        self._compatible(other)
        return self.canonical_form == other.canonical_form

    def __str__(self) -> str:
        return f"[{self.canonical_form}]"

    def __repr__(self) -> str:
        return f"H0Class({self.canonical_form} on {self.ambient})"


class StarAlgebra:
    """The star-product algebra on degree-0 classes of a named geometry.

    ``StarAlgebra(params, geometry)`` takes the model parameters and a key
    of :data:`GEOMETRIES`.  Each instance caches its own relocated monomials,
    reduced as :meth:`star` says, its table T, star powers of the generators
    and powers of Q(1) (nothing is shared between instances), and converts
    between classes and normal-ordered Weyl elements both ways, up to total
    degree :data:`MAX_DEGREE`.

    ``WeylElement`` products always use the symbolic hbar, so
    :meth:`to_weyl` raises unless ``params.hbar`` is the symbol; the star
    product itself works at any hbar.
    """

    def __init__(self, params: ModelParams, geometry: str):
        self.params = params
        self.geometry = GEOMETRIES[geometry]
        self._reloc: dict[tuple[Monomial, int], HomotopyCertificate] = {}
        self._table: dict[tuple[Monomial, Monomial], HomotopyCertificate] = {}
        self._psi: dict[tuple[int, int], H0Class] = {}
        self._q1_powers = [WeylElement.one(), phi(LatticeFunction.delta(1), params)]

    # -- classes -------------------------------------------------------------

    def class_of(self, rep: Cochain) -> H0Class:
        return H0Class(rep, self.geometry.ambient, self.params)

    @property
    def one(self) -> H0Class:
        return self.class_of(Cochain.one())

    @property
    def q_class(self) -> H0Class:
        return self.class_of(Cochain.field(0))

    @property
    def p_class(self) -> H0Class:
        rep = (Cochain.field(1) - Cochain.field(-1)) * Fraction(1, 2)
        return self.class_of(rep)

    # -- star product ----------------------------------------------------------

    def _relocated(self, m: Monomial, window: Window, then: Window) -> HomotopyCertificate:
        """The reduction onto ``then`` of ``m`` relocated onto ``window``, which lies in its sub-interval."""
        if (m, window.base) not in self._reloc:
            c = relocate(Cochain({m: 1}), self.geometry.ambient, window, self.params).normal_form
            self._reloc[m, window.base] = _reduce_to_window(c, self.geometry.ambient, then, self.params, "right")
        return self._reloc[m, window.base]

    def _entry(self, m: Monomial, n: Monomial) -> HomotopyCertificate:
        """T[m, n], built on first use in the two phases that :meth:`star` describes."""
        if (m, n) not in self._table:
            g = self.geometry
            first = self._relocated(m, g.left_window, Window(CANONICAL_WINDOW.base - 1))
            right = self._relocated(n, g.right_window, g.right_window).input
            second = _reduce_to_window(first.normal_form * right, g.ambient, CANONICAL_WINDOW, self.params, "right")
            # d_h(H * right) = d_h(H) * right: right has no antifield and no field at H's sites
            self._table[m, n] = HomotopyCertificate(
                lambda: first.input * right, second.normal_form, lambda: first.homotopy * right + second.homotopy
            )
        return self._table[m, n]

    def star(self, x: H0Class, y: H0Class) -> H0Class:
        """x * y: the sum of x_m y_n T[m, n] over the monomials of the canonical forms.

        T[m, n] certifies the reduction to {0, 1} of m relocated onto the
        left window times n relocated onto the right one: first of the left
        factor alone onto {-1, 0}, once per m, which makes the same rewrites
        (toward s + 1 <= -1, where the right factor has no factor), then of
        the product.  The engine is linear on normal forms and homotopies
        (``test_the_engine_is_linear_on_normal_forms_and_homotopies``), so the
        sum certifies the product; its input and homotopy are built when read.
        """
        g, p = self.geometry, self.params
        xs, ys = x.canonical_form, y.canonical_form
        span = CANONICAL_WINDOW.distance(g.left_window.base) + 2
        if math.comb(xs.max_polynomial_degree() + ys.max_polynomial_degree() + span, span) > REWRITE_GUARD:
            # maybe past the engine's guard: count the whole forms' reductions before building entries
            left, right = relocate(xs, g.ambient, g.left_window, p), relocate(ys, g.ambient, g.right_window, p)
            _guarded_reach(left.normal_form * right.normal_form, CANONICAL_WINDOW)
        pairs = [(a * b, self._entry(m, n)) for m, a in xs.terms() for n, b in ys.terms()]
        def summed(part: str) -> Cochain:
            terms = ((k, v * c) for c, entry in pairs for k, v in getattr(entry, part).terms())
            return wrap(Cochain, accumulate({}, terms))
        cert = HomotopyCertificate(lambda: summed("input"), summed("normal_form"), lambda: summed("homotopy"))
        return H0Class(None, g.ambient, p, cert)

    def commutator(self, x: H0Class, y: H0Class) -> H0Class:
        return self.star(x, y) - self.star(y, x)

    # -- Weyl correspondence ----------------------------------------------------

    def psi(self, q_power: int, p_power: int) -> H0Class:
        """The class of q^a p^b: star powers of the generator classes."""
        if q_power + p_power > MAX_DEGREE:
            raise ValueError(f"degree bound {MAX_DEGREE} exceeded")
        key = (q_power, p_power)
        cached = self._psi.get(key)
        if cached is not None:
            return cached
        if q_power == 0 and p_power == 0:
            out = self.one
        elif p_power > 0:
            out = self.star(self.psi(q_power, p_power - 1), self.p_class)
        else:
            out = self.star(self.psi(q_power - 1, 0), self.q_class)
        self._psi[key] = out
        return out

    def to_weyl(self, x: H0Class) -> WeylElement:
        """The time-ordered product: delta[0]^a delta[1]^b reads as q^a Q(1)^b.

        Q(1) = phi(delta(1)) = ((alpha+alpha^-1)/2) q + p.  A q^a on the
        left of a normal-ordered term only adds a to its q-exponent, so no
        term needs a Weyl product.  Raises unless ``params.hbar`` is the
        symbol that ``WeylElement`` products use.
        """
        if self.params.hbar != Scalar.hbar():
            raise ValueError("to_weyl needs the symbolic hbar of WeylElement products")
        form = x.canonical_form
        if form.max_polynomial_degree() > MAX_DEGREE:
            raise ValueError(f"degree bound {MAX_DEGREE} exceeded")
        powers = self._q1_powers
        out: dict = {}
        for m, c in form.terms():
            a, b = m.fields.count(0), m.fields.count(1)
            if a + b != m.polynomial_degree:
                raise ValueError(f"canonical form leaves the window {{0, 1}}: {m}")
            while len(powers) <= b:
                powers.append(powers[-1] * powers[1])
            accumulate(out, (((qa + a, pb), v * c) for (qa, pb), v in powers[b].terms()))
        return wrap(WeylElement, out)

    def from_weyl(self, w: WeylElement) -> H0Class:
        """The class of a Weyl element: scalar combination of star powers."""
        rep = Cochain.zero()
        for (a, b), c in w.terms():
            rep = rep + self.psi(a, b).canonical_form * c
        return self.class_of(rep)

    # -- symmetries --------------------------------------------------------------

    def translate_class(self, x: H0Class, n: int) -> H0Class:
        """The class of the translated canonical representative."""
        return self.class_of(translate(x.canonical_form, n))

    def reverse_class(self, x: H0Class) -> H0Class:
        """The class of the site-negated canonical representative."""
        return self.class_of(time_reversal(x.canonical_form))


def time_evolution(w: WeylElement, params: ModelParams) -> WeylElement:
    """The translation-by-one automorphism of the Weyl algebra.

    Sends q and p to the classifier images of their translated
    representatives delta[1] and (1/2)(delta[2] - delta[0]): q to
    ((alpha+alpha^-1)/2) q + p and p to
    ((alpha-alpha^-1)/2)^2 q + ((alpha+alpha^-1)/2) p; at alpha = 1 this is
    q -> q + p, p -> p.  Extended multiplicatively in normal order.
    """
    image_q = phi(LatticeFunction.delta(1), params)
    image_p = phi(LatticeFunction({2: Fraction(1, 2), 0: Fraction(-1, 2)}), params)
    out = WeylElement.zero()
    for (a, b), c in w.terms():
        out = out + (image_q**a) * (image_p**b) * c
    return out


def time_reversal_weyl(w: WeylElement) -> WeylElement:
    """The anti-involution q -> q, p -> -p: reverses products, squares to id."""
    out = WeylElement.zero()
    for (a, b), c in w.terms():
        flipped = WeylElement.p(b) * WeylElement.q(a)
        if b % 2:
            c = -c
        out = out + flipped * c
    return out


def fock_projection(w: WeylElement) -> WeylElement:
    """The quotient map onto the Fock module K[q] = Weyl / Weyl p.

    A normal-ordered term q^a p^b with b > 0 lies in the left ideal Weyl p,
    and the terms with b = 0 are independent modulo it, so the class of w is
    represented by its p-free part.
    """
    return wrap(WeylElement, {k: c for k, c in w.terms() if not k[1]})


def fock_action(w: WeylElement, v: WeylElement) -> WeylElement:
    """The left action of the Weyl algebra on K[q]: the class of w * v.

    Well defined on classes: every normal-ordered term of x * p carries a
    p factor, so w * (v + x * p) projects like w * v.  In particular
    q * q^n = q^(n+1) and p * q^n = n hbar q^(n-1); the hbar factor is
    forced by p q - q p = hbar over the polynomial coefficient ring, and the
    specialization hbar := 1 recovers the plain n q^(n-1) action.
    """
    return fock_projection(w * v)
