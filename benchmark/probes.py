"""Fixed-input microbenchmarks, one or two per layer.

Each probe prepares its inputs untimed, then times ``calls`` calls of one
entry point; the reported figure is the median over ``repeats`` such
timings, per call.  The inputs do not depend on the seed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from latticebv.complexes import ModelParams, d_quantum
from latticebv.operad import Interval
from latticebv.oracle import TruncationSpec, cohomology_oracle, d_quantum_reference
from latticebv.parser import parse_cochain
from latticebv.reduction import Window, normal_form
from latticebv.scalars import Scalar
from latticebv.weyl import StarAlgebra

__all__ = ["PROBES", "measure"]

_SYMBOLIC = ModelParams.symbolic()
_AMBIENT = Interval(Fraction(-6), Fraction(6))

# symbolic scalars of 5 and 3 terms
_X = Scalar({(0, -2): Fraction(3, 2), (0, -1): -2, (1, 0): Fraction(5, 3), (1, 1): 7, (2, 2): Fraction(-1, 4)})
_Y = Scalar({(0, 0): 2, (1, -1): Fraction(-3, 5), (0, 2): 4})

_COCHAIN_A = "(alpha + 2*hbar)*delta[1]*delta[2] - 3*delta[-1]^2 + hbar*bdelta[0]*delta[3]"
_COCHAIN_B = "(1/2 - alpha^-1)*delta[0] + delta[2]*delta[4] - bdelta[1]"
_DEG4 = "(alpha + hbar)*delta[-3]*delta[2]*delta[4]^2 - 2/3*delta[5]*delta[-2]^3"
_DEG6 = "delta[-3]^2*delta[2]*delta[4]^3 + (1/2*alpha^-1 - hbar)*delta[-4]*delta[3]^5"


@dataclass(frozen=True)
class Probe:
    name: str
    unit: str
    calls: int
    repeats: int
    prepare: Callable[[], object]
    run: Callable[[object], object]


def _homotopy():
    return normal_form(parse_cochain(_DEG4), _AMBIENT, Window(0), _SYMBOLIC).homotopy


def _psi33():
    algebra = StarAlgebra(ModelParams.massless(), "default")
    return algebra, algebra.psi(3, 3)


def _star_psi33(state):
    algebra, x = state
    return algebra.star(x, x).canonical_form


PROBES = (
    Probe("probe.scalar_mul_us", "us", 2000, 7, lambda: (_X, _Y), lambda s: s[0] * s[1]),
    Probe("probe.scalar_add_us", "us", 2000, 7, lambda: (_X, _Y), lambda s: s[0] + s[1]),
    Probe(
        "probe.cochain_mul_us", "us", 500, 7,
        lambda: (parse_cochain(_COCHAIN_A), parse_cochain(_COCHAIN_B)),
        lambda s: s[0] * s[1],
    ),
    Probe("probe.d_quantum_us", "us", 5, 7, _homotopy, lambda h: d_quantum(h, _SYMBOLIC)),
    Probe(
        "probe.d_quantum_reference_us", "us", 3, 7, _homotopy,
        lambda h: d_quantum_reference(h, _SYMBOLIC),
    ),
    Probe(
        "probe.normal_form_deg4_ms", "ms", 1, 7, lambda: parse_cochain(_DEG4),
        lambda c: normal_form(c, _AMBIENT, Window(0), _SYMBOLIC),
    ),
    Probe(
        "probe.normal_form_deg6_ms", "ms", 1, 5, lambda: parse_cochain(_DEG6),
        lambda c: normal_form(c, _AMBIENT, Window(0), _SYMBOLIC),
    ),
    # a fresh algebra each time: the product class and its relocations are cached
    Probe("probe.star_psi33_ms", "ms", 1, 5, _psi33, _star_psi33),
    Probe(
        "probe.oracle_rank_ms", "ms", 1, 3,
        lambda: TruncationSpec(Interval(Fraction(-3), Fraction(4)), 3, Fraction(1), Fraction(2)),
        lambda spec: cohomology_oracle(spec),
    ),
)

_SCALE = {"us": 1e6, "ms": 1e3}


def measure(probe: Probe) -> float:
    """Median time per call over the probe's repeats, in the probe's unit."""
    samples = []
    for _ in range(probe.repeats):
        state = probe.prepare()
        start = time.perf_counter()
        for _ in range(probe.calls):
            probe.run(state)
        samples.append((time.perf_counter() - start) / probe.calls)
    return statistics.median(samples) * _SCALE[probe.unit]

