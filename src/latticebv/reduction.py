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

Each rewrite strictly decreases the multiset of window-distances of the
field-site occurrences of the rewritten monomial (compared as descending
tuples), which is checked at every step and guarantees termination.  Two
tie-breaking strategies are provided; producing identical normal forms from
both is the confluence check run by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

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
]

STRATEGIES = ("right", "left")


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


def _pick_site(
    terms: dict[Monomial, Scalar], window: Window, strategy: str
) -> Site | None:
    """The field site of maximal window-distance; ties broken per strategy."""
    best: Site | None = None
    best_d = 0
    for m in terms:
        for s, _ in m.fields:
            d = window.distance(s)
            if d == 0:
                continue
            if d > best_d:
                best, best_d = s, d
            elif d == best_d and best is not None and s != best:
                best = max(best, s) if strategy == "right" else min(best, s)
    return best


def _merge(acc: dict[Monomial, Scalar], c: Cochain, factor: Scalar) -> None:
    accumulate(acc, ((m, v * factor) for m, v in c.terms()))


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

    work: dict[Monomial, Scalar] = dict(c.terms())
    homotopy: dict[Monomial, Scalar] = {}
    while True:
        site = _pick_site(work, window, strategy)
        if site is None:
            break
        # clear every occurrence of this site before picking the next one
        while True:
            batch = sorted(
                (m for m in work if m.field_exponent(site)), key=Monomial.sort_key
            )
            if not batch:
                break
            for m in batch:
                # earlier rewrites in this batch may have merged m away
                coeff = work.pop(m, None)
                if coeff is None:
                    continue
                replacement, hterm = rewrite_step(m, site, interval, window, params)
                _merge(work, replacement, coeff)
                _merge(homotopy, hterm, coeff)
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
