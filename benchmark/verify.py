"""Independent output checks for the benchmark.

Nothing here uses ``latticebv.scalars.Scalar`` arithmetic, the rewriting
engine or the package's parser.  Cochains are read back from the text the
program renders, evaluated at rational points (hbar, alpha) in plain
``Fraction`` arithmetic (Schwartz, JACM 27, 1980: a nonzero polynomial
vanishes at a random point with small probability), and the quantum
differential ``d_h = d + hbar * D`` is coded again from its definition.
Weyl elements are compared with the benchmark's own normal-ordered product.

Each check raises :class:`CheckFailed` with a short reason.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "CheckFailed",
    "evaluate",
    "d_h_at",
    "check_reduction",
    "weyl_mul",
    "weyl_basis",
    "weyl_terms",
    "check_weyl",
    "check_cohomology",
    "check_inclusion",
]


class CheckFailed(AssertionError):
    """A program output failed an independent check."""


# A point cochain maps (fields, antifields) to a Fraction.  ``fields`` is a
# tuple of (site, exponent) pairs sorted by site; ``antifields`` a strictly
# ascending tuple of sites, denoting bdelta[s1]...bdelta[sk] * fields.

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        number, name, symbol = m.groups()
        out.append(number or name or symbol)
        pos = m.end()
    out.append("")
    return out


def _mul_mono(m1, m2):
    """Product of two monomials with its Koszul sign; (None, 0) if it vanishes."""
    (f1, a1), (f2, a2) = m1, m2
    if set(a1) & set(a2):
        return None, 0
    # each odd factor of a2 passes the odd factors of a1 standing right of it
    inversions = sum(1 for s in a2 for t in a1 if t > s)
    fields = dict(f1)
    for s, e in f2:
        fields[s] = fields.get(s, 0) + e
    mono = (tuple(sorted(fields.items())), tuple(sorted(a1 + a2)))
    return mono, (-1) ** inversions


def _mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            mono, sign = _mul_mono(m1, m2)
            if mono is not None:
                out[mono] = out.get(mono, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


_UNIT = ((), ())


class _Evaluator:
    """Recursive-descent reader of the package's output grammar at a point."""

    def __init__(self, text: str, hbar: Fraction, alpha: Fraction):
        self.toks = _tokens(text)
        self.i = 0
        self.hbar = hbar
        self.alpha = alpha

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise CheckFailed(f"unreadable output: expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def peek(self) -> str:
        return self.toks[self.i]

    def run(self) -> dict:
        value = self.expr()
        self.take("")
        return value

    def expr(self) -> dict:
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            value = _add(value, self.term(), sign)
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = _mul(value, self.factor())
        return value

    def integer(self) -> int:
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        tok = self.take()
        if not tok.isdigit():
            raise CheckFailed(f"unreadable output: expected an integer, got {tok!r}")
        return sign * int(tok)

    def factor(self) -> dict:
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        value = self.primary()
        if self.peek() == "^":
            self.take()
            n = self.integer()
            if n < 0:
                (mono, c), = value.items()
                if mono != _UNIT:
                    raise CheckFailed("negative power of a generator")
                value = {_UNIT: Fraction(1) / c ** -n}
            else:
                base, value = value, {_UNIT: Fraction(1)}
                for _ in range(n):
                    value = _mul(value, base)
        return {m: sign * c for m, c in value.items()}

    def primary(self) -> dict:
        tok = self.take()
        if tok.isdigit():
            value = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                value /= int(self.take())
            return {_UNIT: value} if value else {}
        if tok == "hbar":
            return {_UNIT: self.hbar} if self.hbar else {}
        if tok == "alpha":
            return {_UNIT: self.alpha}
        if tok in ("delta", "bdelta"):
            self.take("[")
            site = self.integer()
            self.take("]")
            if tok == "delta":
                return {(((site, 1),), ()): Fraction(1)}
            return {((), (site,)): Fraction(1)}
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        raise CheckFailed(f"unreadable output: unexpected token {tok!r}")


def evaluate(text: str, hbar: Fraction, alpha: Fraction) -> dict:
    """The cochain written in ``text`` with hbar and alpha set to rationals."""
    return _Evaluator(text, Fraction(hbar), Fraction(alpha)).run()


def d_h_at(c: dict, hbar: Fraction, alpha: Fraction) -> dict:
    """d_h = d + hbar * D on a point cochain, from the definitions.

    d sends bdelta[y] to the Laplacian row delta[y-1] - (alpha + 1/alpha)
    delta[y] + delta[y+1] and kills delta[x]; it is a degree +1 derivation,
    so acting on the i-th odd factor (counting from 0) costs (-1)^i.
    D = sum_x d/d bdelta[x] d/d delta[x], the odd derivative taken from the
    left with the same sign.
    """
    ap1 = alpha + 1 / alpha
    out: dict = {}

    def bump(fields: dict, anti: tuple, value: Fraction) -> None:
        mono = (tuple(sorted((s, e) for s, e in fields.items() if e)), anti)
        out[mono] = out.get(mono, 0) + value

    for (fields, anti), coeff in c.items():
        for i, y in enumerate(anti):
            rest = anti[:i] + anti[i + 1 :]
            sign = coeff * (-1) ** i
            for site, weight in ((y - 1, 1), (y, -ap1), (y + 1, 1)):
                grown = dict(fields)
                grown[site] = grown.get(site, 0) + 1
                bump(grown, rest, sign * weight)
            exponent = dict(fields).get(y, 0)
            if exponent:
                shrunk = dict(fields)
                shrunk[y] -= 1
                bump(shrunk, rest, hbar * sign * exponent)
    return {m: v for m, v in out.items() if v}


def check_reduction(record: dict, points: list[tuple[Fraction, Fraction]]) -> None:
    """``input - normal_form - d_h(homotopy)`` vanishes at every point.

    ``record`` holds the rendered ``input``, ``normal_form`` and
    ``homotopy``.  The normal form may only contain delta at the window
    sites 0 and 1 and no antifield.
    """
    for hbar, alpha in points:
        source = evaluate(record["input"], hbar, alpha)
        nf = evaluate(record["normal_form"], hbar, alpha)
        homotopy = evaluate(record["homotopy"], hbar, alpha)
        for (fields, anti) in nf:
            if anti or any(s not in (0, 1) for s, _ in fields):
                raise CheckFailed(f"normal form leaves the window {{0, 1}}: {record['normal_form']}")
        residue = _add(_add(source, nf, -1), d_h_at(homotopy, hbar, alpha), -1)
        if residue:
            raise CheckFailed(
                f"input - normal_form - d_h(homotopy) != 0 at hbar={hbar}, alpha={alpha}"
            )


# Weyl elements: dict (q_power, p_power, hbar_power) -> Fraction, normal
# ordered with q left of p.


def weyl_basis(a: int, b: int, c: Fraction) -> dict:
    """The monomial c * q^a p^b."""
    return {(a, b, 0): Fraction(c)}


def weyl_mul(x: dict, y: dict) -> dict:
    """Normal-ordered product, p^b q^c = sum_k C(b,k) C(c,k) k! hbar^k q^(c-k) p^(b-k)."""
    out: dict = {}
    for (a, b, h1), c1 in x.items():
        for (c, d, h2), c2 in y.items():
            for k in range(min(b, c) + 1):
                key = (a + c - k, b + d - k, h1 + h2 + k)
                weight = math.comb(b, k) * math.comb(c, k) * math.factorial(k)
                out[key] = out.get(key, 0) + c1 * c2 * weight
    return {k: v for k, v in out.items() if v}


def weyl_terms(element) -> tuple[dict, bool]:
    """Read a program WeylElement into the dict form, without arithmetic.

    Returns the terms and whether every coefficient is alpha-free.  Alpha
    powers are dropped from the keys, so an alpha-dependent element is only
    meaningful together with the flag.
    """
    out: dict = {}
    alpha_free = True
    for (a, b), scalar in element.terms():
        for (hp, ap), c in scalar.terms():
            alpha_free = alpha_free and ap == 0
            out[(a, b, hp)] = out.get((a, b, hp), 0) + c
    return {k: v for k, v in out.items() if v}, alpha_free


def check_weyl(got: dict, alpha_free: bool, expected: dict) -> None:
    if not alpha_free:
        raise CheckFailed("Weyl coefficient depends on alpha")
    if got != expected:
        raise CheckFailed(f"Weyl form {sorted(got.items())} != {sorted(expected.items())}")


def check_cohomology(maxdeg: int, dims: dict) -> None:
    """dim H^0 = (N+1)(N+2)/2 and H^g = 0 for every g < 0."""
    expected = (maxdeg + 1) * (maxdeg + 2) // 2
    if dims.get(0) != expected:
        raise CheckFailed(f"dim H^0 = {dims.get(0)}, expected {expected}")
    for g, dim in dims.items():
        if g < 0 and dim != 0:
            raise CheckFailed(f"dim H^{g} = {dim}, expected 0")


def check_inclusion(is_iso: bool) -> None:
    if is_iso is not True:
        raise CheckFailed("interval inclusion does not induce an iso on H^0")
