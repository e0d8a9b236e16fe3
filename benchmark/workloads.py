"""The four benchmark workloads: seeded inputs, one operation, one check each.

A workload generates its inputs from the seed as plain Python data (text
in the package's grammar, basis indices, interval endpoints), builds its
program objects in :meth:`build`, runs one operation per input in
:meth:`op` and verifies each output in :meth:`check` with the independent
checks of :mod:`verify`.  A round is every operation of the input list on
freshly built objects, so the ``StarAlgebra`` tables start cold in every
round and every round does the same work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from latticebv.complexes import ModelParams
from latticebv.operad import Interval
from latticebv.oracle import TruncationSpec, cohomology_oracle, d_quantum_reference, h0_inclusion_is_iso
from latticebv.parser import parse_cochain
from latticebv.reduction import Window, normal_form, verify_certificate
from latticebv.weyl import StarAlgebra, WeylElement

import verify

__all__ = ["WORKLOADS"]


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


# (hbar power, alpha power) keys of the coefficient terms, used in turn
_COEFFICIENT_KEYS = [(hp, ap) for ap in (0, 1, -1, 2, -2) for hp in range(3)]


def _scalar_text(rng: random.Random, first: int, terms: int) -> str:
    """A coefficient with ``terms`` fixed keys and random rational values."""
    pieces = []
    for n in range(first, first + terms):
        hp, ap = _COEFFICIENT_KEYS[n % len(_COEFFICIENT_KEYS)]
        factors = [str(_random_rational(rng))]
        if hp:
            factors.append(f"hbar^{hp}")
        if ap:
            factors.append(f"alpha^{ap}")
        pieces.append("(" + "*".join(factors) + ")")
    return " + ".join(pieces)


class Reduce:
    """Random even degree-0 cochains reduced to the window {0, 1}.

    Interval (-6, 6) with sites -5..5, symbolic alpha and hbar, as in the
    package's confluence check.  Each operation does what ``latticebv nf``
    does and what a report does to print a certificate: parse, reduce,
    re-verify with ``verify_certificate`` and ``d_quantum_reference``,
    render, and parse the rendering back.
    """

    name = "reduce"
    per_round = 60
    points_per_op = 2

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"reduce-{seed}")
        out = []
        for i in range(self.per_round):
            # The cost of a reduction grows with the degree, the distances of
            # the sites from the window, how many sites share a side, and the
            # coefficient sizes.  Degrees, distances, the number of sites on
            # each side and the monomials of the coefficients follow a fixed
            # schedule, so every seed asks for nearly the same work (scalar
            # multiplications per round within 1.5 % over eight seeds); the
            # seed picks which sites lie left of the window and the rational
            # coefficient values.
            terms = []
            for j in range(1 + i % 3):
                degree = 1 + (i + j) % 4
                distances = [(i + j + k) % 5 for k in range(degree)]
                sides = [k % 2 for k in range(degree)]
                rng.shuffle(sides)
                sites = [-d if left else 1 + d for d, left in zip(distances, sides)]
                factors = "*".join(f"delta[{s}]" for s in sites)
                coefficient = _scalar_text(rng, 7 * i + 3 * j, 1 + (i + 2 * j) % 3)
                terms.append(f"({coefficient})*{factors}")
            points = [
                (_random_rational(rng), _random_rational(rng))
                for _ in range(self.points_per_op)
            ]
            out.append({"text": " + ".join(terms), "points": points})
        return out

    def build(self) -> dict:
        return {
            "params": ModelParams.symbolic(),
            "interval": Interval(Fraction(-6), Fraction(6)),
            "window": Window(0),
        }

    def op(self, objs: dict, inp: dict) -> dict:
        params = objs["params"]
        cochain = parse_cochain(inp["text"])
        cert = normal_form(cochain, objs["interval"], objs["window"], params)
        residue = cert.input - cert.normal_form - d_quantum_reference(cert.homotopy, params)
        rendered = cert.as_dict()
        parsed_back = (
            parse_cochain(rendered["input"]) == cert.input
            and parse_cochain(rendered["normal_form"]) == cert.normal_form
            and parse_cochain(rendered["homotopy"]) == cert.homotopy
        )
        rendered["verified"] = verify_certificate(cert, params) and residue.is_zero
        rendered["round_trip"] = parsed_back
        return rendered

    def check(self, inp: dict, out: dict) -> None:
        if not out["verified"]:
            raise verify.CheckFailed("the program rejected its own certificate")
        if not out["round_trip"]:
            raise verify.CheckFailed("rendering does not parse back to the same cochain")
        verify.check_reduction(out, inp["points"])
        # the certificate must be about the input that was given
        for hbar, alpha in inp["points"]:
            if verify.evaluate(inp["text"], hbar, alpha) != verify.evaluate(out["input"], hbar, alpha):
                raise verify.CheckFailed("certificate input differs from the given input")


def _basis(max_degree: int) -> list[tuple[int, int]]:
    return [(n - b, b) for n in range(max_degree + 1) for b in range(n + 1)]


class StarMassless:
    """Associativity triples (x*y)*z and x*(y*z) at alpha = 1.

    One triple per degree signature in {1, 2, 3}^3; each factor is the
    class of c * q^a p^b with a seeded nonzero rational c, built with
    ``from_weyl``.  Both sides are forced through ``to_weyl``: ``star``
    returns an unreduced class.
    """

    name = "star-massless"
    degrees = (1, 2, 3)

    def inputs(self, seed: int) -> list[dict]:
        # The triples and their order are fixed: which operation first needs
        # a star power of the generators decides who pays for filling the
        # cold tables, and a seeded order moved op_p50_ms by 70 % between
        # seeds.  In each position the factors of degree n take the basis
        # monomials of degree n in turn.  The seed draws the scalars, so no
        # product class is shared between operations.
        rng = random.Random(f"star-massless-{seed}")
        signatures = [(dx, dy, dz) for dx in self.degrees for dy in self.degrees for dz in self.degrees]
        columns = []
        for position in range(3):
            used = {n: position for n in self.degrees}
            column = []
            for sig in signatures:
                n = sig[position]
                b = used[n] % (n + 1)
                used[n] += 1
                column.append((n - b, b))
            columns.append(column)
        return [
            {"factors": [(a, b, _random_rational(rng)) for a, b in triple]}
            for triple in zip(*columns)
        ]

    def build(self) -> dict:
        return {"algebra": StarAlgebra(ModelParams.massless(), "default")}

    def op(self, objs: dict, inp: dict) -> dict:
        algebra = objs["algebra"]
        x, y, z = (algebra.from_weyl(WeylElement({(a, b): c})) for a, b, c in inp["factors"])
        lhs = algebra.to_weyl(algebra.star(algebra.star(x, y), z))
        rhs = algebra.to_weyl(algebra.star(x, algebra.star(y, z)))
        return {"lhs": verify.weyl_terms(lhs), "rhs": verify.weyl_terms(rhs)}

    def check(self, inp: dict, out: dict) -> None:
        expected = {(0, 0, 0): Fraction(1)}
        for a, b, c in inp["factors"]:
            expected = verify.weyl_mul(expected, verify.weyl_basis(a, b, c))
        verify.check_weyl(*out["lhs"], expected)
        verify.check_weyl(*out["rhs"], expected)


class WeylSymbolic:
    """Structure constants to_weyl(star(x, y)) at symbolic alpha.

    x and y are the classes of c * q^a p^b and c' * q^c p^d with seeded
    nonzero rationals c, c', for all 126 exponent pairs of total degree at
    most 5, in a fixed order.  Every coefficient must be alpha-free and
    equal the normal-ordered product.
    """

    name = "weyl-symbolic"
    max_total = 5

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"weyl-symbolic-{seed}")
        pairs = [
            (x, y)
            for x in _basis(self.max_total)
            for y in _basis(self.max_total)
            if sum(x) + sum(y) <= self.max_total
        ]
        return [
            {"factors": [(a, b, _random_rational(rng)) for a, b in pair]}
            for pair in pairs
        ]

    def build(self) -> dict:
        return {"algebra": StarAlgebra(ModelParams.symbolic(), "default")}

    def op(self, objs: dict, inp: dict) -> dict:
        algebra = objs["algebra"]
        x, y = (algebra.from_weyl(WeylElement({(a, b): c})) for a, b, c in inp["factors"])
        return {"weyl": verify.weyl_terms(algebra.to_weyl(algebra.star(x, y)))}

    def check(self, inp: dict, out: dict) -> None:
        (a, b, c), (d, e, f) = inp["factors"]
        expected = verify.weyl_mul(verify.weyl_basis(a, b, c), verify.weyl_basis(d, e, f))
        verify.check_weyl(*out["weyl"], expected)


def _interval_text(rng: random.Random, a: int, b: int) -> str:
    """Interval (a, b) moved by a random integer with random rational slack.

    The endpoints move inward by less than one site, which keeps both the
    field and the antifield site counts, so the work depends only on the
    shape and not on the seed.
    """
    shift = rng.randint(-20, 20)
    left = a + shift + Fraction(rng.randint(0, 3), 4)
    right = b + shift - Fraction(rng.randint(0, 3), 4)
    return f"{left},{right}"


class Cohomology:
    """Truncated cohomology and H^0 inclusion isomorphisms, alpha = 1 and 2.

    Interval shapes from 2 to 15 field sites at maxdeg 1 to 4, including
    maxdeg-4 shapes where the dense rational elimination dominates.  Each
    operation places its shape at a seeded offset, with seeded rational
    endpoints for the oracle, which keeps the site counts and so the work.
    """

    name = "cohomology"
    # The latency quantiles must fall inside groups of equal-cost
    # operations, or they jump between neighbours of different cost (op_p50
    # and op_p90 spread by 20 % over ten runs of identical work).  Of the 40
    # operations a round, sorted by cost: 16 below 16 ms; 8 copies of
    # (-2, 3) at maxdeg 3 (22 ms) around the median; 10 of 40 to 150 ms;
    # and 6 copies of (-2, 3) at maxdeg 4 (about 220 ms), the heaviest,
    # around the 90th percentile.  (-2, 4) at maxdeg 4 (1.5 s for one
    # operation) is left out: two of them took half of a 6 s round, so a
    # 20 s run held only three or four rounds.
    # (a, b, maxdeg, copies) for cohomology_oracle, each at both alphas
    oracle_shapes = (
        (-6, 7, 1, 1), (-8, 8, 1, 1), (0, 5, 1, 1), (-1, 5, 2, 1), (0, 4, 3, 1), (0, 4, 4, 1),
        (-2, 3, 3, 4),
        (-1, 4, 3, 1), (-4, 5, 2, 1), (-3, 3, 3, 1),
        (-2, 3, 4, 3),
    )
    # (inner a, inner b, outer a, outer b, maxdeg) for h0_inclusion_is_iso
    inclusion_shapes = ((0, 3, -1, 4, 1), (0, 4, -3, 6, 1), (-1, 3, -2, 4, 2), (0, 4, -1, 4, 3))

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"cohomology-{seed}")
        out = []
        for alpha in (1, 2):
            for a, b, maxdeg, copies in self.oracle_shapes:
                for _ in range(copies):
                    out.append({"kind": "oracle", "interval": _interval_text(rng, a, b), "maxdeg": maxdeg, "alpha": alpha})
            for ia, ib, oa, ob, maxdeg in self.inclusion_shapes:
                shift = rng.randint(-20, 20)
                out.append({
                    "kind": "inclusion",
                    "inner": f"{ia + shift},{ib + shift}",
                    "outer": f"{oa + shift},{ob + shift}",
                    "maxdeg": maxdeg,
                    "alpha": alpha,
                })
        rng.shuffle(out)
        return out

    def build(self) -> dict:
        return {}

    def op(self, objs: dict, inp: dict) -> dict:
        hval, aval = Fraction(1), Fraction(inp["alpha"])
        if inp["kind"] == "oracle":
            spec = TruncationSpec(Interval.parse(inp["interval"]), inp["maxdeg"], hval, aval)
            return {"dims": cohomology_oracle(spec)}
        inner, outer = Interval.parse(inp["inner"]), Interval.parse(inp["outer"])
        return {"iso": h0_inclusion_is_iso(inner, outer, inp["maxdeg"], hval, aval)}

    def check(self, inp: dict, out: dict) -> None:
        if inp["kind"] == "oracle":
            verify.check_cohomology(inp["maxdeg"], out["dims"])
        else:
            verify.check_inclusion(out["iso"])


WORKLOADS = {w.name: w for w in (Reduce(), StarMassless(), WeylSymbolic(), Cohomology())}
