"""Rewriting engine: canonical degree-0 normal forms with homotopy certificates.

The degree-0 cohomology of an interval is spanned by classes of monomials in
two adjacent field generators.  The engine rewrites any purely even degree-0
cochain into that two-site window using the exact relation

    delta[s] * M  =  (alpha+alpha^-1) delta[y] * M  -  delta[2y-s] * M
                     -  hbar * dM/d delta[y]  +  d_h( bdelta[y] * M )

with y the neighbour of s on the window side.  Every reduction returns a
certificate (input, normal form, homotopy) whose identity

    input  =  normal_form  +  d_h(homotopy)

holds exactly as cochains and can be re-verified by any independent
implementation of d_h; nothing is ever trusted on the strength of the
rewriting alone.

The schedule is fixed.  For each distance d from the input's farthest field
site down to 1 it takes the two sites at that distance, the right one first
for the ``"right"`` strategy and the left one first for ``"left"``; at each
site it rewrites the monomials that carry it one exponent level at a time,
from the highest level down to 1.  A rewrite at s lowers the exponent of
delta[s] by exactly one and adds only y and 2y-s, which lie strictly closer
to the window on the same side, so a rewrite at level e creates only level
e-1 monomials and no site already cleared returns: each monomial is
rewritten at most once per site.  Clearing a site is the linear map fixed by
the per-monomial rewrite, so the order of rewrites within a level changes
neither the normal form nor the homotopy.  The strategies differ only in
which of the two sites at one distance goes first; producing identical
normal forms from both is the confluence check run by the harness.

Each rewrite strictly decreases the multiset of window-distances of the
field-site occurrences of the rewritten monomial (compared as descending
tuples): y and 2y-s must lie closer to the window than s.  That test and
the legality of y and 2y-s depend only on s, so this site rule runs once
per cleared site; :func:`rewrite_step` states the rule for one monomial.

While it rewrites, the engine keys each monomial by its ``fields`` tuple.
Each coefficient is integer numerators, keyed by (hbar power, alpha power),
over a positive denominator, and ``scalars._add`` adds two, as in the parser.
A rewrite multiplies by alpha+alpha^-1, -1, -e*hbar or 1, whose nontrivial
factors sit over one common denominator q, so the numerators stay integers
at rational points too.  Each ``Monomial`` and ``Scalar`` is built once, for
the output, and the homotopy, which the star product never reads, only when
a certificate's ``homotopy`` is read.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable
from dataclasses import dataclass
from math import comb

from ._sparse import scale, wrap
from .cochains import Cochain, Monomial, Site, support_within
from .complexes import ModelParams, d_quantum
from .operad import Interval
from .scalars import Scalar, _add, _over, _product, _reduced

__all__ = [
    "Window",
    "HomotopyCertificate",
    "IrreducibleSiteError",
    "CertificateError",
    "rewrite_step",
    "normal_form",
    "relocate",
    "verify_certificate",
    "STRATEGIES",
    "REWRITE_GUARD",
]

STRATEGIES = ("right", "left")
Lazy = Cochain | Callable[[], Cochain]  # a function is called on first read

# A reduction rewrites each monomial at most once per site, so the
# comb(D + S, S) monomials of degree <= D, the input's largest, in the S sites
# from the window out to its farthest site, window included, bound its work.
# Factors already in the window are never rewritten themselves, so T input
# terms times comb(D_out + S, S), with D_out the largest count of factors
# outside the window in one term, bound it too; the guard takes the smaller.
# No check or test passes 2,002 (degree 9 over 5 sites) and no benchmark run
# 6,188 (degree 12 over 5 sites); this leaves 12x and 4x headroom and still
# rejects delta[3]^32 on (-4,4), a count of 58,905, which takes seconds and
# megabytes, while delta[0]^200*delta[2] counts 4 and passes.
REWRITE_GUARD = 25000


class CertificateError(AssertionError):
    """A homotopy certificate failed its exact re-verification."""


class IrreducibleSiteError(ValueError):
    """A field site cannot be rewritten: no legal antifield site is available."""


@dataclass(frozen=True)
class Window:
    """The adjacent field-site pair {base, base + 1} that hosts normal forms."""

    base: Site

    @property
    def sites(self) -> tuple[Site, Site]:
        return (self.base, self.base + 1)

    def distance(self, site: Site) -> int:
        if site < self.base:
            return self.base - site
        if site > self.base + 1:
            return site - (self.base + 1)
        return 0

    def __str__(self) -> str:
        return f"{{{self.base},{self.base + 1}}}"


class HomotopyCertificate:
    """Witness that ``input = normal_form + d_h(homotopy)`` exactly.

    The input and the homotopy may be given as functions of no argument,
    called on first read, so that what no caller reads is never built.
    """

    __slots__ = ("_input", "normal_form", "_homotopy")

    def __init__(self, input: Lazy, normal_form: Cochain, homotopy: Lazy):
        self._input, self.normal_form, self._homotopy = input, normal_form, homotopy

    input = property(lambda self: self._built("_input"))
    homotopy = property(lambda self: self._built("_homotopy"))

    def _built(self, slot: str) -> Cochain:
        if callable(value := getattr(self, slot)):
            setattr(self, slot, value := value())
        return value

    def _fields(self) -> tuple[Cochain, Cochain, Cochain]:
        return (self.input, self.normal_form, self.homotopy)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HomotopyCertificate) and self._fields() == other._fields()

    def __repr__(self) -> str:
        return "HomotopyCertificate(input={!r}, normal_form={!r}, homotopy={!r})".format(*self._fields())

    def as_dict(self) -> dict:
        return {
            "input": str(self.input),
            "normal_form": str(self.normal_form),
            "homotopy": str(self.homotopy),
        }


def verify_certificate(cert: HomotopyCertificate, params: ModelParams) -> bool:
    """Re-check the certificate identity from scratch, exactly."""
    residue = cert.input - cert.normal_form - d_quantum(cert.homotopy, params)
    return residue.is_zero


def _site_rule(site: Site, interval: Interval, window: Window) -> tuple[Site, Site]:
    """The neighbour y and the mirror site 2y - site of a rewrite at ``site``.

    Raises unless the rewrite is legal in ``interval``: the site lies outside
    the window, y is an antifield site, y and the mirror are field sites, and
    both lie closer to the window than the site (the termination measure).
    """
    if site > window.base + 1:
        y = site - 1
    elif site < window.base:
        y = site + 1
    else:
        raise ValueError(f"site {site} already lies in the window {window}")
    if y not in interval.antifield_sites():
        raise IrreducibleSiteError(
            f"site {site} is irreducible in {interval}: {y} is not a legal antifield site"
        )
    mirror = 2 * y - site
    field_sites = interval.field_sites()
    if y not in field_sites or mirror not in field_sites:
        raise IrreducibleSiteError(
            f"rewrite of site {site} leaves the field sites of {interval}"
        )
    # a rewrite trades one occurrence at site for one at y or at mirror, or
    # drops two occurrences, so the measure falls iff y and mirror lie closer
    d = window.distance(site)
    if not (window.distance(y) < d and window.distance(mirror) < d):
        raise AssertionError(f"termination measure failed to decrease rewriting at site {site}")
    return y, mirror


def rewrite_step(
    m: Monomial,
    site: Site,
    interval: Interval,
    window: Window,
    params: ModelParams,
) -> tuple[Cochain, Cochain]:
    """Rewrite one delta[site] factor of ``m`` toward the window.

    Returns ``(replacement, homotopy_term)`` with the exact identity
    ``m = replacement + d_h(homotopy_term)``.  The monomial must be purely
    even and carry the site; the site must lie outside the window.  This is
    the rule the engine applies to each monomial, stated for one monomial.
    """
    if m.antifields:
        raise ValueError("rewriting applies to purely even monomials only")
    if site not in m.fields:
        raise ValueError(f"monomial {m} does not contain delta[{site}]")
    y, mirror = _site_rule(site, interval, window)
    rest = m.lower_field(site)
    one, e = Scalar.one(), rest.fields.count(y)
    # the terms carry delta[y] to the powers e+1, e and e-1, so no two merge
    terms = {rest.raise_field(y): params.alpha_plus_inverse(), rest.raise_field(mirror): -one}
    if e and params.hbar:
        terms[rest.lower_field(y)] = params.hbar * -e
    return wrap(Cochain, terms), wrap(Cochain, {Monomial(rest.fields, (y,)): one})


def _rewrite(
    m: tuple, site: Site, y: Site, mirror: Site, coeff: tuple, factors: tuple, work: dict, homotopy: dict
) -> None:
    """:func:`rewrite_step` of ``coeff * m`` on numerators, added into ``work`` and ``homotopy``.

    ``m`` is a ``Monomial.fields`` tuple; ``coeff`` is a ``(den, nums)`` pair that
    the caller hands over; ``factors`` holds the numerators of
    alpha+alpha^-1 and of hbar over their common denominator q, and q.
    """
    (den, nums), (ap1, hbar, q) = coeff, factors
    i = m.index(site)
    rest = m[:i] + m[i + 1 :]
    i = bisect(rest, y)
    _add(work, rest[:i] + (y,) + rest[i:], den * q, _product(nums, ap1))
    i = bisect(rest, mirror)
    _add(work, rest[:i] + (mirror,) + rest[i:], den, {k: -c for k, c in nums.items()})
    e = rest.count(y)
    if e and hbar:
        i = rest.index(y)
        _add(work, rest[:i] + rest[i + 1 :], den * q, _product(nums, scale(hbar, -e)))
    # for one site rest determines m, and y differs between sites: the key is new
    homotopy[rest, y] = coeff


def _homotopy_cochain(raw: dict) -> Cochain:
    """The homotopy of a map from ``(rest, y)`` to ``(den, nums)``: bdelta[y] * rest."""
    terms = {Monomial(rest, (y,)): _reduced(nums, den) for (rest, y), (den, nums) in raw.items()}
    return wrap(Cochain, terms)


def _guarded_reach(c: Cochain, window: Window) -> int:
    """The largest window distance of a field site of ``c``; raises past :data:`REWRITE_GUARD`."""
    reach = max((window.distance(s) for s in c.field_support()), default=0)
    if reach:
        n = reach + 2
        outside = max(sum(window.distance(s) > 0 for s in m.fields) for m, _ in c.terms())
        count = min(comb(c.max_polynomial_degree() + n, n), len(c.terms()) * comb(outside + n, n))
        if count > REWRITE_GUARD:
            raise ValueError(f"reduction may rewrite more than {REWRITE_GUARD} monomials")
    return reach


def _reduce_to_window(
    c: Cochain,
    interval: Interval,
    window: Window,
    params: ModelParams,
    strategy: str,
) -> HomotopyCertificate:
    """The reduction proper of an even degree-0 ``c`` supported within ``interval``."""
    field_sites = interval.field_sites()
    if not all(s in field_sites for s in window.sites):
        raise ValueError(f"window {window} is not made of field sites of {interval}")
    reach = _guarded_reach(c, window)
    if not reach:  # already in the window: its own normal form, not rebuilt
        return HomotopyCertificate(c, c, Cochain.zero())

    # The input starts over its common denominator and a rewrite multiplies a
    # denominator by q or by 1, so each is the input's times a power of q.
    q, (ap1, hbar) = _over([params.alpha_plus_inverse(), params.hbar])
    factors = (ap1, hbar, q)
    terms = list(c.terms())
    den, nums = _over([v for _, v in terms])
    work = {m.fields: (den, n) for (m, _), n in zip(terms, nums)}
    homotopy: dict = {}
    for d in range(reach, 0, -1):
        right, left = window.base + 1 + d, window.base - d
        for site in (right, left) if strategy == "right" else (left, right):
            top = max((m.count(site) for m in work), default=0)
            if top:
                y, mirror = _site_rule(site, interval, window)
            for level in range(top, 0, -1):
                for m in [m for m in work if m.count(site) == level]:
                    _rewrite(m, site, y, mirror, work.pop(m), factors, work, homotopy)
    normal = wrap(Cochain, {Monomial(m, ()): _reduced(nums, den) for m, (den, nums) in work.items()})
    return HomotopyCertificate(c, normal, lambda: _homotopy_cochain(homotopy))


def normal_form(
    c: Cochain,
    interval: Interval,
    window: Window,
    params: ModelParams,
    strategy: str = "right",
) -> HomotopyCertificate:
    """Reduce to the canonical window, producing a verified-style certificate.

    The normal form only uses the two window field sites; the identity
    ``c = normal_form + d_h(homotopy)`` holds exactly, and the result is
    independent of the strategy (confluence; checked by the harness, not
    assumed here).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not c.is_even_degree_zero:
        raise ValueError("reduction applies to purely even degree-0 cochains only")
    if not support_within(c, interval):
        raise ValueError(f"cochain is not supported within {interval}")
    return _reduce_to_window(c, interval, window, params, strategy)


def relocate(
    c: Cochain, interval: Interval, window: Window, params: ModelParams
) -> HomotopyCertificate:
    """Move a degree-0 cochain onto the contiguous site pair of ``window``.

    Same engine as :func:`normal_form`, aimed at {t, t+1}; the class is
    unchanged, as witnessed by the certificate.
    """
    return normal_form(c, interval, window, params)
