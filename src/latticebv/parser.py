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
and ``MAX_POWER_TERMS`` caps the term bound of a power and of a product;
input beyond them raises ``ParseError`` before the work is done.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .cochains import Cochain, Monomial
from .scalars import Scalar

__all__ = ["ParseError", "parse_cochain", "parse_scalar", "MAX_NESTING", "MAX_EXPONENT", "MAX_POWER_TERMS"]

# ASCII only: any other character, a Unicode digit or letter too, is an error
_TOKEN = re.compile(
    r"(?P<number>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[\[\]()^*+\-/])"
    r"|(?P<space>\s+)|(?P<other>.)",
    re.ASCII | re.DOTALL,
)

# deepest parenthesis nesting accepted; each level costs a few stack frames
MAX_NESTING = 100

# largest exponent magnitude accepted; a power multiplies one factor at a time
MAX_EXPONENT = 256

# largest term count a power or a product may reach, bounded before it is multiplied out
MAX_POWER_TERMS = 10000


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN.finditer(text):
        kind, value, position = match.lastgroup, match.group(), match.start()
        if kind == "other":
            raise ParseError(f"unknown character {value!r}", position)
        if kind != "space":
            tokens.append((value if kind == "symbol" else kind, value, position))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self) -> Cochain:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> Cochain:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Cochain:
        value = self.factor()
        while self.peek()[0] == "*":
            star = self.advance()
            rhs = self.factor()
            # a product has at most one term per pair of factor terms
            if _term_count(value) * _term_count(rhs) > MAX_POWER_TERMS:
                raise ParseError(f"product may exceed {MAX_POWER_TERMS} terms", star[2])
            value = value * rhs
        return value

    def factor(self) -> Cochain:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        value = self.primary()
        if self.peek()[0] == "^":
            caret = self.advance()
            exponent = self.signed_int()
            value = self._power(value, exponent, caret[2])
        return -value if negate else value

    def primary(self) -> Cochain:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            numerator = int(text)
            if self.peek()[0] == "/":
                self.advance()
                denom_tok = self.expect("number")
                denominator = int(denom_tok[1])
                if denominator == 0:
                    raise ParseError("zero denominator", denom_tok[2])
                return Cochain.scalar(Fraction(numerator, denominator))
            return Cochain.scalar(numerator)
        if kind == "name":
            self.advance()
            if text == "hbar":
                return Cochain.scalar(Scalar.hbar())
            if text == "alpha":
                return Cochain.scalar(Scalar.alpha())
            if text in ("delta", "bdelta"):
                self.expect("[")
                site = self.signed_int()
                self.expect("]")
                if text == "delta":
                    return Cochain.field(site)
                return Cochain.antifield(site)
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {text!r}", pos)

    def signed_int(self) -> int:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        tok = self.expect("number")
        value = int(tok[1])
        return -value if negate else value

    @staticmethod
    def _power(base: Cochain, exponent: int, position: int) -> Cochain:
        if abs(exponent) > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds {MAX_EXPONENT} in magnitude", position)
        if exponent >= 0:
            # a power of a sum of t terms has at most one term per multiset of n of them
            t = _term_count(base)
            if exponent > 1 and comb(t + exponent - 1, exponent) > MAX_POWER_TERMS:
                raise ParseError(f"power may exceed {MAX_POWER_TERMS} terms", position)
            return base**exponent
        try:
            ((mono, coeff),) = base.terms()  # ValueError unless one term
            if mono != Monomial.UNIT:
                raise ValueError("not a scalar")
            inverse = coeff.inverse()
        except ValueError:
            raise ParseError("negative exponents need an invertible scalar base", position) from None
        return Cochain.scalar(inverse ** -exponent)


def _term_count(c: Cochain) -> int:
    """The terms of ``c``, each rational multiple of hbar^i*alpha^j times a monomial counted once."""
    return sum(len(coeff) for _, coeff in c.terms())


def parse_cochain(text: str) -> Cochain:
    """Parse an expression into a canonical cochain.

    >>> print(parse_cochain("bdelta[1]*bdelta[1]"))
    0
    """
    return _Parser(text).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse an expression that must denote a pure scalar."""
    c = parse_cochain(text)
    total = Scalar.zero()
    for m, coeff in c.terms():
        if m.fields or m.antifields:
            raise ParseError(f"expected a scalar, found generator term {m}", 0)
        total = total + coeff
    return total
