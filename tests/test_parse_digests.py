"""Pinned parser results over seeded strings of the grammar.

``data/parse_digests.json`` holds 744 strings: hand-picked edge cases
(parenthesized sums between odd generators, leading minus chains, powers 0,
1 and 2, negative powers and their errors, powers and products at the
``MAX_POWER_TERMS`` boundary), rendered seeded cochains, and seeded random
strings of the grammar, some of them corrupted.  For each it pins the
SHA-256 digest of the rendered result, or the ``ParseError`` message and
position.  A change that alters what the parser accepts, returns or reports
fails here; one that does so on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_parse_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

from latticebv.parser import ParseError, parse_cochain

from strategies import seeded_cochain

DATA = Path(__file__).parent / "data" / "parse_digests.json"


def _sum(name: str, sites: range) -> str:
    return "(" + " + ".join(f"{name}[{s}]" for s in sites) + ")"


_FIELDS_20, _FIELDS_100, _FIELDS_101 = (_sum("delta", range(n)) for n in (20, 100, 101))
# ten distinct scalar terms
_SCALARS_10 = "(" + " + ".join(f"hbar^{i % 2}*alpha^{i // 2 - 2}" for i in range(10)) + ")"
# 101 terms, of which bdelta[0] dies against a second bdelta[0]
_WITH_ODD_101 = "(bdelta[0] + " + _FIELDS_100[1:]
# 10,001 terms
_BIG = f"({_FIELDS_100}*{_sum('delta', range(100, 200))} + hbar)"

CASES = [
    # parenthesized sums between odd generators
    "bdelta[2]*(bdelta[1] + delta[0])*bdelta[0]",
    "bdelta[0]*(bdelta[1] + bdelta[2])*(bdelta[3] - delta[1])*bdelta[4]",
    "(bdelta[1] + hbar)*bdelta[1]",
    "bdelta[1]*(2 + bdelta[0])^2*bdelta[3]",
    "bdelta[3]*(alpha^-1 - 2 + alpha)*bdelta[1]*delta[0]^2",
    "bdelta[1]*(bdelta[0]*bdelta[2] + delta[1])*bdelta[0]",
    # leading minus chains
    "-delta[0]",
    "---delta[0]",
    "- -(1 + hbar)*delta[1]",
    "delta[0] - --bdelta[1]*-3",
    "-bdelta[1]*-bdelta[0]",
    "--2^-2",
    "-alpha^-1",
    "-(alpha)^-3",
    "---(bdelta[0] - bdelta[1])^2",
    "- - - -",
    # powers 0, 1 and 2
    "0^0",
    "hbar^0",
    "alpha^0*3",
    "delta[3]^0",
    "bdelta[2]^0",
    "(delta[0] + 1)^0",
    "(bdelta[0])^0",
    "bdelta[1]^1*bdelta[0]",
    "bdelta[1]^2",
    "bdelta[0]^2*delta[1] + delta[2]",
    "3*bdelta[1]^2 + delta[0]",
    "(bdelta[1] + bdelta[2])^2",
    "delta[-2]^1*delta[-2]^2",
    # negative powers and their errors
    "2^-3",
    "2/3^-2",
    "-2^-1",
    "0/5^-1",
    "0^-1",
    "(0)^-1",
    "hbar^-1",
    "(hbar)^-1",
    "delta[0]^-1",
    "bdelta[0]^-1",
    "(alpha + 1)^-1",
    "(2*alpha^3)^-2",
    "(-3/4*alpha^-1)^-3",
    "alpha^-256",
    "alpha^-257",
    "delta[0]^256",
    "delta[0]^257",
    "2^--2",
    "alpha^---1",
    # powers and products at the MAX_POWER_TERMS boundary
    f"{_FIELDS_20}^4",
    f"{_FIELDS_20}^5",
    f"{_SCALARS_10}^6",
    f"{_SCALARS_10}^7",
    f"{_FIELDS_100}*{_FIELDS_100}",
    f"{_FIELDS_100}*{_FIELDS_101}",
    f"{_FIELDS_100}*delta[0]*{_FIELDS_100}",
    f"{_FIELDS_100}*bdelta[0]*{_FIELDS_101}",
    f"{_WITH_ODD_101}*{_FIELDS_100}",
    f"{_WITH_ODD_101}*bdelta[0]*{_FIELDS_100}",
    f"{_WITH_ODD_101}*bdelta[0]*3*{_FIELDS_100}",
    f"0*{_FIELDS_101}*{_FIELDS_101}",
    f"{_FIELDS_101}*0*{_FIELDS_101}",
    f"{_FIELDS_101}*{_FIELDS_100}*0",
    f"{_BIG}*delta[0]",
    f"{_BIG}*0",
    f"{_BIG}*bdelta[0]^2",
    f"delta[0]*{_BIG}",
    f"hbar*{_BIG}",
    # syntax errors
    "",
    "delta[0] + ",
    "delta[]",
    "gamma[0]",
    "delta[0] delta[1]",
    "1/0",
    "1/",
    "2/-3",
    "delta[0] @ delta[1]",
    "(delta[0]",
    "delta[0])",
    "bdelta[1",
    "hbar^",
    "hbar^x",
    "*delta[0]",
    "delta[0]**2",
    "alpha^-1^2",
]

_SITES = range(-3, 4)


def _atom(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randint(0, 12))
    if kind == 1:
        return f"{rng.randint(0, 12)}/{0 if rng.random() < 0.03 else rng.randint(1, 5)}"
    if kind == 2:
        return rng.choice(("hbar", "alpha"))
    return f"{rng.choice(('delta', 'bdelta'))}[{rng.choice(_SITES)}]"


def _factor(rng: random.Random, depth: int) -> str:
    minus = "-" * rng.choice((0, 0, 0, 0, 1, 2, 3))
    if depth < 2 and rng.random() < 0.2:
        primary = "(" + _expr(rng, depth + 1) + ")"
    else:
        primary = _atom(rng)
    # a negative power needs a unit base, so mostly only a rational or alpha gets one
    invertible = primary[0].isdigit() or primary == "alpha"
    exponents = (-2, -1, 0, 1, 2, 3) if invertible or rng.random() < 0.05 else (0, 1, 2, 3)
    power = f"^{rng.choice(exponents)}" if rng.random() < 0.25 else ""
    return minus + primary + power


def _term(rng: random.Random, depth: int) -> str:
    return "*".join(_factor(rng, depth) for _ in range(rng.randint(1, 4)))


def _expr(rng: random.Random, depth: int = 0) -> str:
    out = _term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        out += rng.choice((" + ", " - ")) + _term(rng, depth)
    return out


def _corrupt(rng: random.Random, text: str) -> str:
    i = rng.randint(0, len(text))
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + text[i + 1 :]
    if edit == 1:
        return text[:i] + rng.choice("()[]^*+-/ 0a") + text[i:]
    return text[:i]


def _inputs() -> list[str]:
    rng = random.Random(11)
    rendered = [str(seeded_cochain(rng, min_site=-5, max_site=5, max_poly_degree=4)) for _ in range(60)]
    grammar = []
    for _ in range(600):
        text = _expr(rng)
        grammar.append(_corrupt(rng, text) if rng.random() < 0.2 else text)
    return CASES + rendered + grammar


def outcome(text: str) -> dict:
    """The digest of the rendered parse of ``text``, or its error and position."""
    try:
        rendered = str(parse_cochain(text))
    except ParseError as exc:
        return {"error": str(exc), "position": exc.position}
    return {"sha256": hashlib.sha256(rendered.encode()).hexdigest()}


def _record() -> None:
    entries = [{"text": text, **outcome(text)} for text in _inputs()]
    DATA.write_text(json.dumps(entries, indent=1) + "\n")


def test_parser_matches_recorded_outcomes():
    recorded = json.loads(DATA.read_text())
    assert len(recorded) >= 500
    assert sum("error" in entry for entry in recorded) >= 50
    for entry in recorded:
        text = entry.pop("text")
        assert outcome(text) == entry, text


if __name__ == "__main__":
    _record()
