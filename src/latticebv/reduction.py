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
tuples), which is checked at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ._sparse import accumulate, wrap
from .cochains import Cochain, Monomial, Site, support_within
from .complexes import ModelParams, d_quantum
from .operad import Interval
from .scalars import Scalar

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

# A reduction rewrites each monomial at most once per site, so the
# comb(D + S, S) monomials of degree <= D, the input's largest, in the S sites
# from the window out to its farthest site, window included, bound its work.
# No check or test passes 2,002 (degree 9 over 5 sites) and no benchmark run
# 6,188 (degree 12 over 5 sites); this leaves 12x and 4x headroom and still
# rejects delta[3]^32 on (-4,4), a count of 58,905, which takes seconds and
# megabytes.
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


@dataclass(frozen=True)
class HomotopyCertificate:
    """Witness that ``input = normal_form + d_h(homotopy)`` exactly."""

    input: Cochain
    normal_form: Cochain
    homotopy: Cochain

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


def _occurrence_distances(m: Monomial, window: Window) -> tuple[int, ...]:
    """Window-distances of all field-site occurrences, sorted descending.

    This is the termination measure: each rewrite must strictly decrease it
    in the lexicographic order on descending tuples.
    """
    out: list[int] = []
    for s, e in m.fields:
        out.extend([window.distance(s)] * e)
    out.sort(reverse=True)
    return tuple(out)


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
    even and carry the site; the site must lie outside the window.
    """
    if m.antifields:
        raise ValueError("rewriting applies to purely even monomials only")
    if not m.field_exponent(site):
        raise ValueError(f"monomial {m} does not contain delta[{site}]")
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

    rest = m.lower_field(site)
    one, e = Scalar.one(), rest.field_exponent(y)
    # the terms carry delta[y] to the powers e+1, e and e-1, so no two merge
    terms = {rest.raise_field(y): params.alpha_plus_inverse(), rest.raise_field(mirror): -one}
    if e and params.hbar:
        terms[rest.lower_field(y)] = params.hbar * -e
    replacement = wrap(Cochain, terms)
    homotopy_term = wrap(Cochain, {Monomial(rest.fields, (y,)): one})

    before = _occurrence_distances(m, window)
    for produced, _ in replacement.terms():
        if not _occurrence_distances(produced, window) < before:
            raise AssertionError(
                f"termination measure failed to decrease rewriting {m} at {site}"
            )
    return replacement, homotopy_term


def _reduce_to_window(
    c: Cochain,
    interval: Interval,
    window: Window,
    params: ModelParams,
    strategy: str,
) -> HomotopyCertificate:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not c.is_even_degree_zero:
        raise ValueError("reduction applies to purely even degree-0 cochains only")
    if not support_within(c, interval):
        raise ValueError(f"cochain is not supported within {interval}")
    field_sites = interval.field_sites()
    if not all(s in field_sites for s in window.sites):
        raise ValueError(f"window {window} is not made of field sites of {interval}")

    reach = max((window.distance(s) for s in c.field_support()), default=0)
    if reach and comb(c.max_polynomial_degree() + reach + 2, reach + 2) > REWRITE_GUARD:
        raise ValueError(f"reduction may rewrite more than {REWRITE_GUARD} monomials")

    work: dict[Monomial, Scalar] = dict(c.terms())
    homotopy: dict[Monomial, Scalar] = {}
    for d in range(reach, 0, -1):
        right, left = window.base + 1 + d, window.base - d
        for site in (right, left) if strategy == "right" else (left, right):
            top = max((m.field_exponent(site) for m in work), default=0)
            for level in range(top, 0, -1):
                for m in [m for m in work if m.field_exponent(site) == level]:
                    coeff = work.pop(m)
                    replacement, hterm = rewrite_step(m, site, interval, window, params)
                    accumulate(work, ((r, v * coeff) for r, v in replacement.terms()))
                    accumulate(homotopy, ((h, v * coeff) for h, v in hterm.terms()))
    return HomotopyCertificate(
        input=c, normal_form=Cochain(work), homotopy=Cochain(homotopy)
    )


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
    return _reduce_to_window(c, interval, window, params, strategy)


def relocate(
    c: Cochain, interval: Interval, window: Window, params: ModelParams
) -> HomotopyCertificate:
    """Move a degree-0 cochain onto the contiguous site pair of ``window``.

    Same engine as :func:`normal_form`, aimed at {t, t+1}; the class is
    unchanged, as witnessed by the certificate.
    """
    return _reduce_to_window(c, interval, window, params, "right")
