"""Pinned normal-form certificates beyond the ``check --all`` report.

``data/normal_form_digests.json`` holds forty seeded even cochains of degree
at most 4 on (-6,6), as parseable text, and for each one SHA-256 digest over
its rendered certificates at symbolic, massless and (hbar, alpha) = (1, 2)
parameters, for both strategies and the windows 0, 2 and -3.  A change that
alters a normal form or a homotopy fails here; one that does so on purpose
regenerates the file and says so:

    PYTHONPATH=src python tests/test_normal_form_digests.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latticebv.complexes import ModelParams
from latticebv.operad import Interval
from latticebv.parser import parse_cochain
from latticebv.reduction import STRATEGIES, Window, normal_form
from latticebv.scalars import Scalar

from strategies import seeded_cochain

DATA = Path(__file__).parent / "data" / "normal_form_digests.json"
AMBIENT = Interval(-6, 6)
PARAMS = (ModelParams.symbolic(), ModelParams.massless(), ModelParams.at(1, 2))
WINDOWS = (Window(0), Window(2), Window(-3))
LINEARITY_POINTS = (ModelParams.symbolic(), ModelParams.at(alpha=2), ModelParams.at(Fraction(1, 2), Fraction(3, 2)))


def certificate_digest(text: str) -> str:
    c = parse_cochain(text)
    rendered = [
        json.dumps(normal_form(c, AMBIENT, window, params, strategy).as_dict(), sort_keys=True)
        for params in PARAMS
        for strategy in STRATEGIES
        for window in WINDOWS
    ]
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()


def _record() -> None:
    rng = random.Random(8)
    inputs = [
        str(seeded_cochain(rng, min_site=-5, max_site=5, max_poly_degree=4, even_only=True))
        for _ in range(40)
    ]
    digests = [{"input": text, "sha256": certificate_digest(text)} for text in inputs]
    DATA.write_text(json.dumps(digests, indent=1) + "\n")


@pytest.mark.parametrize("params", LINEARITY_POINTS, ids=["symbolic", "alpha-2", "hbar-0.5-alpha-1.5"])
def test_the_engine_is_linear_on_normal_forms_and_homotopies(params):
    # StarAlgebra.star sums the certificates of monomial pairs; this is what it rests on
    inputs = [parse_cochain(entry["input"]) for entry in json.loads(DATA.read_text())]
    factors = (Scalar.rational(Fraction(-3, 2)), Scalar.hbar() * Scalar.alpha() - Fraction(2, 3), Scalar.alpha(-1))
    for strategy in STRATEGIES:
        certs = [normal_form(c, AMBIENT, Window(0), params, strategy) for c in inputs]
        for i in range(len(inputs) - 1):
            k = factors[i % len(factors)]
            whole = normal_form(inputs[i] + inputs[i + 1] * k, AMBIENT, Window(0), params, strategy)
            a, b = certs[i], certs[i + 1]
            assert whole.normal_form == a.normal_form + b.normal_form * k, inputs[i]
            assert whole.homotopy == a.homotopy + b.homotopy * k, inputs[i]
        # exact cancellation: b = -a/k, so a + k*b is zero and so are both sums
        k = factors[0]
        for c, a in zip(inputs, certs):
            b = normal_form(c * (-k.inverse()), AMBIENT, Window(0), params, strategy)
            assert (a.normal_form + b.normal_form * k).is_zero and (a.homotopy + b.homotopy * k).is_zero
            zero = normal_form(c + c * (-k.inverse()) * k, AMBIENT, Window(0), params, strategy)
            assert zero.normal_form.is_zero and zero.homotopy.is_zero


def test_normal_form_certificates_match_recorded_digests():
    recorded = json.loads(DATA.read_text())
    assert len(recorded) == 40
    for entry in recorded:
        assert str(parse_cochain(entry["input"])) == entry["input"]
        assert certificate_digest(entry["input"]) == entry["sha256"], entry["input"]


if __name__ == "__main__":
    _record()
