import random
from collections import Counter
from fractions import Fraction

import pytest

from latticebv import oracle
from latticebv.complexes import ModelParams, d_quantum
from latticebv.operad import Interval
from latticebv.oracle import (
    BASIS_GUARD,
    BasisTooLargeError,
    TruncationSpec,
    cohomology_oracle,
    d_quantum_reference,
    h0_inclusion_is_iso,
    matrix_rank,
    truncated_basis,
)

from strategies import seeded_cochain

F = Fraction


def test_v_level_dimensions():
    spec = TruncationSpec(Interval(0, 5), 1, F(1), F(1))
    assert cohomology_oracle(spec, include_unit=False) == {-1: 0, 0: 2}


def test_full_truncation_dimensions():
    spec = TruncationSpec(Interval(0, 5), 2, F(1), F(1))
    assert cohomology_oracle(spec) == {-2: 0, -1: 0, 0: 6}


def test_constants_only():
    spec = TruncationSpec(Interval(0, 5), 0, F(1), F(1))
    assert cohomology_oracle(spec) == {0: 1}


def test_h0_matches_window_count():
    # dim H^0 must equal the number of window normal forms of degree <= N
    for maxdeg in (1, 2, 3):
        expected = (maxdeg + 1) * (maxdeg + 2) // 2
        for aval in (F(1), F(2)):
            spec = TruncationSpec(Interval(-4, 4), maxdeg, F(1), aval)
            assert cohomology_oracle(spec)[0] == expected


def test_inclusion_isomorphisms():
    assert h0_inclusion_is_iso(Interval(0, 3), Interval(-1, 4), 2, 1, 1)
    assert h0_inclusion_is_iso(Interval(1, 4), Interval(0, 5), 3, 1, 2)
    assert h0_inclusion_is_iso(Interval(0, F(5, 2)), Interval(0, 25), 1, 1, 1)


def test_inclusion_reuses_the_outer_complex(monkeypatch):
    # the outer degree -1 differential is built and ranked once, by the oracle
    calls = Counter()
    for name in ("truncated_basis", "d_quantum_reference", "matrix_rank"):
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    assert h0_inclusion_is_iso(Interval(0, 4), Interval(-1, 4), 3, 1, 2)
    assert calls == {"truncated_basis": 2, "d_quantum_reference": 45, "matrix_rank": 4}


def test_basis_guard():
    with pytest.raises(BasisTooLargeError):
        truncated_basis(Interval(0, 200), 3)
    with pytest.raises(ValueError):
        truncated_basis(Interval(0, 5), 2, include_unit=False)


def test_truncation_degrees():
    basis = truncated_basis(Interval(0, 5), 2)
    assert set(basis) == {0, -1, -2}
    assert len(basis[0]) == 15  # monomials of degree <= 2 in four field sites
    assert len(basis[-1]) == 10  # bdelta at 2 or 3 times fields of degree <= 1
    assert len(basis[-2]) == 1
    with pytest.raises(ValueError):
        TruncationSpec(Interval(0, 5), 2, F(1), F(0))


def test_matrix_rank_small_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)]]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]]) == 2


def test_reference_differential_agrees_with_main():
    rng = random.Random(17)
    for params in (ModelParams.symbolic(), ModelParams.massless(), ModelParams.numeric(1, 2)):
        for _ in range(60):
            c = seeded_cochain(rng)
            assert d_quantum_reference(c, params) == d_quantum(c, params)


def test_reference_differential_squares_to_zero():
    rng = random.Random(18)
    params = ModelParams.symbolic()
    for _ in range(40):
        c = seeded_cochain(rng)
        assert d_quantum_reference(d_quantum_reference(c, params), params).is_zero
