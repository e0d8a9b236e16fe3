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
from pathlib import Path

from latticebv.complexes import ModelParams
from latticebv.operad import Interval
from latticebv.parser import parse_cochain
from latticebv.reduction import STRATEGIES, Window, normal_form

from strategies import seeded_cochain

DATA = Path(__file__).parent / "data" / "normal_form_digests.json"
AMBIENT = Interval(-6, 6)
PARAMS = (ModelParams.symbolic(), ModelParams.massless(), ModelParams.at(1, 2))
WINDOWS = (Window(0), Window(2), Window(-3))


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


def test_normal_form_certificates_match_recorded_digests():
    recorded = json.loads(DATA.read_text())
    assert len(recorded) == 40
    for entry in recorded:
        assert str(parse_cochain(entry["input"])) == entry["input"]
        assert certificate_digest(entry["input"]) == entry["sha256"], entry["input"]


if __name__ == "__main__":
    _record()
