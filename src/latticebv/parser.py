"""Parser for the cochain expression grammar.

The grammar accepted (whitespace insignificant):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* primary ('^' signed_int)?
    primary  := rational | 'hbar' | 'alpha' | generator | '(' expr ')'
    generator:= ('delta' | 'bdelta') '[' signed_int ']'
    rational := digits ('/' digits)?

Example: ``3*delta[0]*delta[1] - 2*hbar*bdelta[2]``.  Negative exponents are
only meaningful on invertible scalars (``alpha^-1``).  The renderers in this
package emit exactly this grammar, so parse and print round-trip.  Nesting
depth and exponent size are capped by ``MAX_NESTING`` and ``MAX_EXPONENT``,
``MAX_POWER_TERMS`` caps the term bound of a power and of a product, and
``MAX_DEGREE`` the polynomial degree of a term; input beyond them raises
``ParseError`` before the work is done.

Coefficients stay integer numerators over a denominator until a sum ends,
which adds with ``scalars._add`` and builds one ``Scalar`` per monomial.  A
run of atoms (primaries but parenthesized ones) is one ``Monomial``, signed
by ``sort_antifields``, and one numerator; a parenthesized value times the
run after it is one ``_mul_monomials`` and one ``scalars._product`` per term.
Only parenthesized factors take powers and ``Cochain`` products.
"""

from __future__ import annotations

import re
from math import comb

from ._sparse import wrap
from .cochains import Cochain, Monomial, _mul_monomials, sort_antifields
from .scalars import Scalar, _add, _product, _reduced

__all__ = [
    "ParseError", "parse_cochain", "parse_scalar", "MAX_NESTING", "MAX_EXPONENT", "MAX_DEGREE", "MAX_POWER_TERMS"
]

# ASCII only: a token is a number, a name or one other character; _UNKNOWN, one outside the grammar
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S", re.ASCII)
_UNKNOWN = re.compile(r"[^0-9A-Za-z_\[\]()^*+\-/\s]", re.ASCII)

# deepest parenthesis nesting accepted; each level costs a few stack frames
MAX_NESTING = 100
# largest exponent magnitude accepted; a power multiplies one factor at a time
MAX_EXPONENT = 256
# largest polynomial degree of a term; a monomial holds one entry per factor
MAX_DEGREE = 256
# largest term count a power or a product may reach, bounded before it is multiplied out
MAX_POWER_TERMS = 10000


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        if unknown := _UNKNOWN.search(text):
            raise ParseError(f"unknown character {unknown.group()!r}", unknown.start())
        self.text, self.tokens = text, _TOKEN.findall(text) + [""]  # "" ends the input
        self.pos = self.depth = 0

    def error(self, message: str, index: int) -> ParseError:
        """An error at token ``index``: positions are only found for an error."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[index])

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.pos]
        if not (tok.isdigit() if kind == "number" else tok == kind):
            raise self.error(f"expected {kind!r}, found {tok!r}", self.pos)
        self.pos += 1

    def expr(self) -> dict:
        sums: dict = {}  # monomial -> (den, numerators)
        for m, den, nums in self.term(False):
            _add(sums, m, den, nums)
        while self.tokens[self.pos] in ("+", "-"):
            self.pos += 1
            for m, den, nums in self.term(self.tokens[self.pos - 1] == "-"):
                _add(sums, m, den, nums)
        if not self.depth and self.tokens[self.pos]:
            raise self.error(f"unexpected trailing input {self.tokens[self.pos]!r}", self.pos)
        return {m: _reduced(nums, den) for m, (den, nums) in sums.items()}

    def term(self, negate: bool) -> list:
        """One product as ``(monomial, den, nums)`` terms; num/den, hbar, alpha, fields, anti hold its run."""
        num, den, hbar, alpha, fields, anti = -1 if negate else 1, 1, 0, 0, [], []
        value, count, degree, star = None, 0, 0, None  # the factors before the run: terms, degree; the last '*'
        while True:
            while self.tokens[self.pos] == "-":
                self.pos, num = self.pos + 1, -num
            tok = self.tokens[self.pos]
            if tok == "(":
                paren = self.parenthesized()
                if star is not None:  # the run comes before the factor
                    degree += len(fields) + len(anti)
                    run = _times(value, num, den, hbar, alpha, fields, anti)
                    value = wrap(Cochain, {m: _reduced(nums, d) for m, d, nums in run})
                    num, den, hbar, alpha, fields, anti = 1, 1, 0, 0, [], []
                    # a product has at most one term per pair of factor terms
                    if _term_count(value) * _term_count(paren) > MAX_POWER_TERMS:
                        raise self.error(f"product may exceed {MAX_POWER_TERMS} terms", star)
                    if degree + paren.max_polynomial_degree() > MAX_DEGREE:
                        raise self.error(f"product may exceed degree {MAX_DEGREE}", star)
                value = paren if star is None else value * paren
                count, degree = _term_count(value), value.max_polynomial_degree()
            elif tok.isdigit():
                p, q = self.number(), 1
                if self.tokens[self.pos] == "/":
                    self.pos += 1
                    q = self.number()
                    if not q:
                        raise self.error("zero denominator", self.pos - 1)
                n = self.exponent(p != 0)
                num, den = (num * p**n, den * q**n) if n >= 0 else (num * q**-n, den * p**-n)
            elif tok == "hbar" or tok == "alpha":
                self.pos += 1
                n = self.exponent(tok == "alpha")
                hbar, alpha = (hbar + n, alpha) if tok == "hbar" else (hbar, alpha + n)
            elif tok == "delta" or tok == "bdelta":
                self.pos += 1
                self.expect("[")
                site = self.number(signed=True)
                self.expect("]")
                n = self.exponent(False)
                if tok == "delta" and n:
                    fields += [site] * n
                elif tok == "bdelta" and n:
                    anti.append(site)
                    num *= n == 1  # an odd generator squares to zero
                if degree + len(fields) + len(anti) > MAX_DEGREE:  # only after a '*': one atom is within it
                    raise self.error(f"product may exceed degree {MAX_DEGREE}", star)
            else:
                kind = "unknown name" if tok.isidentifier() else "unexpected token"
                raise self.error(f"{kind} {tok!r}", self.pos)
            # a nonzero atom after a first parenthesized factor beyond the bound
            if star is not None and num and count > MAX_POWER_TERMS:
                raise self.error(f"product may exceed {MAX_POWER_TERMS} terms", star)
            if self.tokens[self.pos] != "*":
                return _times(value, num, den, hbar, alpha, fields, anti)
            star = self.pos
            self.pos += 1

    def parenthesized(self) -> Cochain:
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
        self.pos += 1
        self.depth += 1
        value = wrap(Cochain, self.expr())
        self.depth -= 1
        self.expect(")")
        caret = self.pos
        n = self.exponent(True)
        if n >= 0:
            # a power of a sum of t terms has at most one term per multiset of n of them
            if n > 1 and comb(_term_count(value) + n - 1, n) > MAX_POWER_TERMS:
                raise self.error(f"power may exceed {MAX_POWER_TERMS} terms", caret)
            if value.max_polynomial_degree() * n > MAX_DEGREE:
                raise self.error(f"power may exceed degree {MAX_DEGREE}", caret)
            return value if n == 1 else value**n
        try:  # only a scalar unit c*alpha^k has an inverse
            if value.max_polynomial_degree():
                raise ValueError("not a scalar")
            return Cochain.scalar(value.coefficient(Monomial.UNIT).inverse() ** -n)
        except ValueError:
            raise self.error("negative exponents need an invertible scalar base", caret) from None

    def exponent(self, invertible: bool) -> int:
        """The exponent after an optional '^'; negative only for an ``invertible`` base."""
        if self.tokens[self.pos] != "^":
            return 1
        caret, self.pos = self.pos, self.pos + 1
        n = self.number(signed=True)
        if abs(n) > MAX_EXPONENT:
            raise self.error(f"exponent {n} exceeds {MAX_EXPONENT} in magnitude", caret)
        if n < 0 and not invertible:
            raise self.error("negative exponents need an invertible scalar base", caret)
        return n

    def number(self, signed: bool = False) -> int:
        sign = 1
        while signed and self.tokens[self.pos] == "-":
            self.pos, sign = self.pos + 1, -sign
        self.expect("number")
        try:
            return sign * int(self.tokens[self.pos - 1])
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", self.pos - 1) from None


def _times(value: Cochain | None, num, den, hbar, alpha, fields, anti) -> list:
    """The ``(monomial, den, numerators)`` terms of ``value`` (1 when None) times the run."""
    sites, sign = sort_antifields(anti)
    if not (num and sign):
        return []
    run = Monomial(tuple(sorted(fields)), sites) if fields or sites else Monomial.UNIT
    num *= sign
    if value is None:
        return [(run, den, {(hbar, alpha): num})]
    products = ((_mul_monomials(m, run), s) for m, s in value.terms())  # k is the Koszul sign
    return [(m, s._den * den, _product(s._terms, {(hbar, alpha): num * k})) for (m, k), s in products if k]


def _term_count(c: Cochain) -> int:
    """The terms of ``c``, each rational multiple of hbar^i*alpha^j times a monomial counted once."""
    return sum(len(coeff) for _, coeff in c.terms())


def parse_cochain(text: str) -> Cochain:
    """Parse an expression into a canonical cochain.

    >>> print(parse_cochain("bdelta[1]*bdelta[1]"))
    0
    """
    return wrap(Cochain, _Parser(text).expr())


def parse_scalar(text: str) -> Scalar:
    """Parse an expression that must denote a pure scalar.

    A generator term left in the sum is reported where the first term that
    gives it starts.
    """
    c = parse_cochain(text)
    if c.max_polynomial_degree():
        parser = _Parser(text)
        while True:
            start = parser.pos
            for m, _, _ in parser.term(False):
                if m != Monomial.UNIT and c.coefficient(m):
                    raise parser.error(f"expected a scalar, found generator term {m}", start)
            parser.pos += 1  # past the '+' or '-' before the next term
    return c.coefficient(Monomial.UNIT)
