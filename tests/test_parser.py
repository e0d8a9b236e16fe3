import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from latticebv import parser
from latticebv.cochains import Cochain
from latticebv.cli import main
from latticebv.parser import MAX_DEGREE, MAX_EXPONENT, MAX_NESTING, ParseError, parse_cochain, parse_scalar
from latticebv.scalars import ALPHA, HBAR, Scalar

from strategies import cochains, scalars

d = Cochain.field
bd = Cochain.antifield


def test_grammar_examples():
    assert parse_cochain("delta[0]*delta[1]") == d(0) * d(1)
    got = parse_cochain("3*delta[0]*delta[1] - 2*hbar*bdelta[2]")
    assert got == d(0) * d(1) * 3 - bd(2) * (HBAR * 2)
    assert parse_cochain("bdelta[1]*bdelta[1]").is_zero


def test_scalars_and_powers():
    assert parse_scalar("alpha^-1") == Scalar.alpha(-1)
    assert parse_scalar("3/2*hbar^2") == HBAR * HBAR * Fraction(3, 2)
    assert parse_scalar("(alpha + alpha^-1)^2") == (ALPHA + Scalar.alpha(-1)) ** 2
    assert parse_cochain("delta[-3]^2") == d(-3) ** 2
    assert parse_cochain("bdelta[0]^2").is_zero


def test_unary_minus_and_whitespace():
    assert parse_cochain("-delta[0]") == -d(0)
    assert parse_cochain("--delta[0]") == d(0)
    assert parse_cochain("  3 * delta[ 2 ]  ") == d(2) * 3
    assert parse_cochain("delta[0] - -delta[1]") == d(0) + d(1)


def test_parentheses():
    got = parse_cochain("(delta[0] + delta[1]) * delta[0]")
    assert got == d(0) ** 2 + d(0) * d(1)
    assert parse_cochain("2*(1 + hbar)") == Cochain.scalar(HBAR * 2 + Scalar.rational(2))


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_cochain("delta[0] + ")
    assert err.value.position == 11
    with pytest.raises(ParseError):
        parse_cochain("delta[]")
    with pytest.raises(ParseError):
        parse_cochain("gamma[0]")
    with pytest.raises(ParseError):
        parse_cochain("delta[0] delta[1]")  # missing '*'
    with pytest.raises(ParseError):
        parse_cochain("1/0")
    with pytest.raises(ParseError):
        parse_cochain("delta[0]^-1")
    with pytest.raises(ParseError):
        parse_cochain("hbar^-1")
    with pytest.raises(ParseError):
        parse_cochain("delta[0] @ delta[1]")
    with pytest.raises(ParseError):
        parse_scalar("delta[0]")
    # a generator term is reported where the first term that survives starts
    for text, position in (
        ("1 + hbar*delta[3]", 4),
        ("-delta[2]", 0),
        ("delta[0] - delta[0] + 2*delta[1]", 22),
        ("1 - (delta[1] + 1)", 4),
    ):
        with pytest.raises(ParseError, match="found generator term") as err:
            parse_scalar(text)
        assert err.value.position == position
    # only ASCII digits and letters: a superscript or Arabic-Indic digit is an unknown character
    for text, position in (("²", 0), ("delta[²]", 6), ("delta[0]^²", 9), ("٣*delta[0]", 0)):
        with pytest.raises(ParseError, match="unknown character") as err:
            parse_cochain(text)
        assert err.value.position == position


@given(cochains(max_poly_degree=4))
@settings(max_examples=150, deadline=None)
def test_round_trip_cochains(c):
    assert parse_cochain(str(c)) == c


@given(scalars())
@settings(max_examples=100)
def test_round_trip_scalars(s):
    assert parse_scalar(str(s)) == s


def test_round_trip_seeded_bulk():
    from strategies import seeded_cochain

    rng = random.Random(21)
    for _ in range(200):
        c = seeded_cochain(rng, min_site=-6, max_site=6, max_poly_degree=4)
        assert parse_cochain(str(c)) == c


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "delta[0]" + ")" * MAX_NESTING
    assert parse_cochain(deep) == d(0)
    with pytest.raises(ParseError) as err:
        parse_cochain("(" + deep + ")")
    assert err.value.position == MAX_NESTING


def test_cli_rejects_deep_nesting(capsys):
    assert main(["parse", "(" * 1200 + "1" + ")" * 1200]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_exponent_limit():
    assert parse_cochain(f"delta[0]^{MAX_EXPONENT}") == d(0) ** MAX_EXPONENT
    assert parse_scalar(f"alpha^-{MAX_EXPONENT}") == Scalar.alpha(-MAX_EXPONENT)
    for text in (f"delta[0]^{MAX_EXPONENT + 1}", f"2*alpha^-{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError) as err:
            parse_cochain(text)
        assert err.value.position == text.index("^")


@pytest.mark.parametrize(
    "within, beyond, at",
    [
        # a run of atoms, odd factors counted too: reported at the '*' before the factor past the bound
        ("delta[0]^200*delta[1]^56", "delta[0]^200*delta[1]^57", "*"),
        ("delta[0]^255*bdelta[1]", "delta[0]^255*bdelta[1]*bdelta[2]", "*"),
        ("(delta[0]^200)*delta[1]^56", "(delta[0]^200)*delta[1]^57", "*"),
        # a product with a parenthesized factor, the run before it included
        ("(delta[0]^200 + 1)*(delta[1]^56 + hbar)", "(delta[0]^200 + 1)*(delta[1]^57 + hbar)", "*"),
        ("delta[0]^100*delta[2]^100*(delta[1]^56 + 1)", "delta[0]^100*delta[2]^100*(delta[1]^57 + 1)", "*"),
        # a power, at its '^': 257 is prime, so the first degree past the bound a power reaches is 258
        ("(delta[0]^2)^128", "(delta[0]^2)^129", "^"),
        ("(delta[0]^128 + delta[1])^2", "(delta[0]^129 + delta[1])^2", "^"),
    ],
    ids=["run", "run-odd", "run-after-factor", "product", "run-then-product", "power", "power-of-sum"],
)
def test_degree_limit(within, beyond, at):
    assert parse_cochain(within).max_polynomial_degree() == MAX_DEGREE
    with pytest.raises(ParseError, match=f"exceed degree {MAX_DEGREE}") as err:
        parse_cochain(beyond)
    assert err.value.position == beyond.rindex(at)


def test_degree_limit_counts_the_factors_written():
    # the bound counts the factors written, even where the value is zero
    with pytest.raises(ParseError, match="exceed degree"):
        parse_cochain("0*delta[0]^200*delta[1]^57")


@pytest.mark.parametrize(
    "text",
    ["(delta[0]^256+delta[1])^256", "*".join(["(delta[0]^255+delta[1]^255)"] * 13)],
    ids=["power", "product"],
)
def test_cli_rejects_terms_past_the_degree_limit(text, capsys):
    assert main(["parse", text]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_still_reduces_a_high_degree_term(capsys):
    assert main(["nf", "delta[0]^200*delta[2]"]) == 0
    assert '"normal_form": "(alpha^-1 + alpha)*delta[0]^200*delta[1] - delta[0]^201"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, terms",
    [
        # three fields to the fourth: one term per multiset, comb(3 + 4 - 1, 4)
        ("(delta[0] + delta[1] + delta[2])^4", 15),
        # a scalar coefficient counts each of its terms
        ("((1 + hbar)*delta[0])^3", 4),
        ("(alpha + alpha^-1 + 2)^5", 21),
    ],
)
def test_power_term_limit_is_the_multiset_count(text, terms, monkeypatch):
    value = parse_cochain(text)
    assert sum(len(coeff.terms()) for _, coeff in value.terms()) <= terms
    monkeypatch.setattr(parser, "MAX_POWER_TERMS", terms)
    assert parse_cochain(text) == value
    monkeypatch.setattr(parser, "MAX_POWER_TERMS", terms - 1)
    with pytest.raises(ParseError) as err:
        parse_cochain(text)
    assert err.value.position == text.rindex("^")


@pytest.mark.parametrize(
    "text",
    [
        "delta[0]^100000000",
        "(1+hbar)^100000",
        "((1+hbar)^200)^200",
        "(delta[0]+delta[1]+delta[2]+delta[3]+delta[4])^200",
    ],
)
def test_cli_rejects_huge_powers(text, capsys):
    assert main(["parse", text]) == 2
    assert "exceed" in capsys.readouterr().err


def _sum_of_fields(n):
    return "(" + " + ".join(f"delta[{i}]" for i in range(n)) + ")"


def test_product_term_limit_is_checked_before_multiplying(monkeypatch):
    text = _sum_of_fields(2) + "*" + "(delta[5] + delta[6] + hbar*(1 + alpha))"
    value = parse_cochain(text)
    monkeypatch.setattr(parser, "MAX_POWER_TERMS", 2 * 4)
    assert parse_cochain(text) == value
    monkeypatch.setattr(parser, "MAX_POWER_TERMS", 2 * 4 - 1)
    with pytest.raises(ParseError) as err:
        parse_cochain(text)
    assert err.value.position == text.index("*")


def test_cli_rejects_long_products_of_sums(capsys):
    # 16^2 = 256 terms merge to 136, then 816, and 816 * 16 passes the bound
    text = "*".join([_sum_of_fields(16)] * 6)
    assert main(["parse", text]) == 2
    assert "product may exceed" in capsys.readouterr().err
    with pytest.raises(ParseError) as err:
        parse_cochain(text)
    assert err.value.position == len(_sum_of_fields(16)) * 3 + 2


@pytest.mark.parametrize(
    "text, position",
    [("1" + "0" * 5000, 0), ("delta[" + "7" * 5000 + "]", 6), ("2/" + "3" * 5000, 2), ("alpha^-" + "9" * 5000, 7)],
    ids=["numerator", "site", "denominator", "exponent"],
)
def test_numbers_past_the_int_conversion_limit_are_parse_errors(text, position, capsys):
    with pytest.raises(ParseError) as err:
        parse_cochain(text)
    assert err.value.position == position
    assert main(["parse", text]) == 2
    assert f"(at position {position})" in capsys.readouterr().err


def test_a_sum_of_atom_products_makes_no_cochain_product(monkeypatch):
    calls = []
    for name in ("__mul__", "__pow__"):
        original = getattr(Cochain, name)
        monkeypatch.setattr(
            Cochain, name, lambda self, other, _f=original, _n=name: calls.append(_n) or _f(self, other)
        )
    got = parse_cochain("3*hbar*alpha^-2*bdelta[1]*delta[0]^2 - 4/5*delta[-1] + -bdelta[2]*2^-1*bdelta[0]")
    assert calls == []
    want = {
        "bdelta[1]*delta[0]^2": Scalar({(1, -2): 3}),
        "delta[-1]": Scalar.rational(Fraction(-4, 5)),
        "bdelta[0]*bdelta[2]": Scalar.rational(Fraction(1, 2)),
    }
    assert {str(m): c for m, c in got.terms()} == want
    # the counters see the fallback of a parenthesized factor
    parse_cochain("(delta[0] + delta[1])^2*(delta[2] - hbar)")
    assert calls.count("__pow__") == 1 and "__mul__" in calls


def test_a_long_coefficient_times_its_run_is_summed_on_numerators(monkeypatch):
    rng = random.Random(24)
    sums: dict = {}
    pieces = []
    for _ in range(2000):
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))
        key = (rng.randint(0, 3), rng.randint(-3, 3))
        sums[key] = sums.get(key, 0) + value
        text = f"{abs(value.numerator)}/{value.denominator}*hbar^{key[0]}*alpha^{key[1]}"
        pieces.append(("- " if value < 0 else "+ ") + text)
    text = "(" + " ".join(pieces).removeprefix("+ ") + ")*bdelta[1]*delta[0]"
    coefficient = Scalar(sums)
    assert len(coefficient) == 4 * 7  # every hbar and alpha power survives the sum
    want = Cochain.monomial({0: 1}, [1], coefficient)

    def forbidden(*args):
        raise AssertionError("the parser added Scalars or multiplied Cochains")

    for cls, name in ((Scalar, "__add__"), (Scalar, "__radd__"), (Cochain, "__mul__")):
        monkeypatch.setattr(cls, name, forbidden)
    got = parse_cochain(text)
    monkeypatch.undo()
    assert got == want


def test_the_run_after_a_parenthesized_factor_carries_its_koszul_sign():
    got = parse_cochain("bdelta[2]*(1/2 + hbar)*bdelta[1]")
    assert got == parse_cochain("-(1/2 + hbar)*bdelta[1]*bdelta[2]")
    assert got == bd(1) * bd(2) * -(HBAR + Fraction(1, 2))


def test_a_parenthesized_sum_that_cancels_drops_its_term():
    assert parse_cochain("(1/2*hbar + 1/3*hbar - 5/6*hbar)*delta[0] + delta[1]") == d(1)


def test_a_sum_of_rationals_is_reduced_once():
    got = parse_scalar("(1/6 + 1/3)")
    assert got == Scalar.rational(Fraction(1, 2))
    assert hash(got) == hash(Scalar.rational(Fraction(1, 2)))
