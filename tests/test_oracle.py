import random
from collections import Counter
from fractions import Fraction

import pytest

from latticebv import oracle
from latticebv.cochains import Cochain, Monomial
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
from latticebv.scalars import Scalar

from strategies import peak_allocation, seeded_cochain

F = Fraction


def test_v_level_dimensions():
    # the linear truncation: the two-term complex plus the constants
    spec = TruncationSpec(Interval(0, 5), 1, F(1), F(1))
    assert cohomology_oracle(spec) == {-1: 0, 0: 3}


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
    # the outer degree -1 rows are built once and ranked once, by the oracle
    calls = Counter()
    for name in ("truncated_basis", "_differential_columns", "matrix_rank"):
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    assert h0_inclusion_is_iso(Interval(0, 4), Interval(-1, 4), 3, 1, 2)
    assert calls == {"truncated_basis": 2, "_differential_columns": 3, "matrix_rank": 4}


def test_basis_guard():
    with pytest.raises(BasisTooLargeError):
        truncated_basis(Interval(0, 200), 3)


# half-width 10^5: a tuple of the sites alone would take several MB
WIDE = Interval(-100000, 100000)


def test_basis_guard_rejects_a_wide_interval_without_listing_sites():
    def rejected():
        with pytest.raises(BasisTooLargeError):
            truncated_basis(WIDE, 1)

    assert peak_allocation(rejected) < 2**20
    with pytest.raises(BasisTooLargeError):  # more sites than sys.maxsize
        truncated_basis(Interval(-(10**30), 10**30), 1)


def test_maxdeg_zero_on_a_wide_interval_lists_no_sites():
    spec = TruncationSpec(WIDE, 0, F(1), F(2))
    assert peak_allocation(lambda: truncated_basis(WIDE, 0)) < 2**20
    assert peak_allocation(lambda: cohomology_oracle(spec)) < 2**20
    assert truncated_basis(WIDE, 0) == {0: [Monomial.UNIT]}
    assert cohomology_oracle(spec) == {0: 1}


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
    assert matrix_rank([{}]) == 0
    assert matrix_rank([{0: F(0)}, {1: F(0)}]) == 0  # explicit zero entries
    assert matrix_rank([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1
    assert matrix_rank([{0: F(1)}, {0: F(1), 1: F(1)}, {1: F(1)}]) == 2
    assert matrix_rank([{0: F(1), 1: F(0)}, {1: F(3, 2)}]) == 2


def _dense_rank(rows, ncols):
    """Textbook Gauss elimination over Fraction, for comparison only."""
    matrix = [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / matrix[rank][col]
            matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def _random_rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12, 35)))


def _random_sparse_matrix(rng):
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1 or not rows:
            rows.append({c: _random_rational(rng) for c in range(ncols) if rng.random() < 0.5})
        elif kind < 0.2:
            rows.append({})
        elif kind < 0.3:
            rows.append(dict(rng.choice(rows)))
        else:
            # a rational combination of earlier rows, so the matrix is rank-deficient
            combo: dict[int, F] = {}
            for row in rng.sample(rows, rng.randint(1, len(rows))):
                factor = _random_rational(rng)
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + factor * v
            rows.append(combo)
    if rows and rng.random() < 0.5:
        rows.append({c: _random_rational(rng) for c in range(ncols)})
    rng.shuffle(rows)
    return rows, ncols


def test_matrix_rank_matches_dense_elimination():
    rng = random.Random(23)
    seen = Counter()
    for _ in range(400):
        rows, ncols = _random_sparse_matrix(rng)
        expected = _dense_rank(rows, ncols)
        assert matrix_rank(rows) == expected
        seen["deficient" if expected < len(rows) else "full"] += 1
    assert seen["deficient"] > 100 and seen["full"] > 50


def test_maxdeg_four_dimensions():
    dims = cohomology_oracle(TruncationSpec(Interval(-3, 4), 4, F(1), F(2)))
    assert dims[0] == 15
    assert all(dim == 0 for g, dim in dims.items() if g < 0)
    assert min(dims) == -4


def test_maxdeg_five_dimensions():
    dims = cohomology_oracle(TruncationSpec(Interval(-4, 4), 5, F(1), F(2)))
    assert dims[0] == 21
    assert all(dim == 0 for g, dim in dims.items() if g < 0)
    assert min(dims) == -5


def test_maxdeg_four_inclusion():
    assert h0_inclusion_is_iso(Interval(-2, 3), Interval(-3, 4), 4, 1, 2)


def test_reference_differential_agrees_with_main():
    rng = random.Random(17)
    for params in (ModelParams.symbolic(), ModelParams.massless(), ModelParams.at(1, 2)):
        for _ in range(60):
            c = seeded_cochain(rng)
            assert d_quantum_reference(c, params) == d_quantum(c, params)


@pytest.mark.parametrize("interval, maxdeg", [((0, 5), 3), ((-3, 4), 4), ((0, F(9, 2)), 2)])
def test_rows_match_the_reference_differential(interval, maxdeg):
    # h = 0 drops the D term; negative and fractional alpha exercise the signs
    interval = Interval(*interval)
    basis = truncated_basis(interval, maxdeg)
    for hval, aval in ((F(1), F(1)), (F(1), F(2)), (F(3, 2), F(-1, 3)), (F(0), F(2)), (F(-7, 2), F(5))):
        spec = TruncationSpec(interval, maxdeg, hval, aval)
        params = ModelParams.at(hval, aval)
        for g, monomials in basis.items():
            index = {m: i for i, m in enumerate(basis.get(g + 1, []))}
            rows = oracle._differential_columns(monomials, index, spec)
            for m, row in zip(monomials, rows):
                image = d_quantum_reference(Cochain({m: 1}), params)
                expected = {index[mono]: coeff.specialize(hval, aval) for mono, coeff in image.terms()}
                assert row == expected, (m, hval, aval)
                assert all(type(v) is F for v in row.values())


def test_the_rank_path_uses_no_ring_code(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the oracle reached the Scalar, Cochain or d_h code it checks")

    for cls, name in (
        (Scalar, "__init__"), (Scalar, "__mul__"), (Scalar, "__add__"), (Scalar, "specialize"),
        (Cochain, "__init__"), (ModelParams, "__post_init__"),
    ):
        monkeypatch.setattr(cls, name, forbidden)
    monkeypatch.setattr(oracle, "d_quantum_reference", forbidden)
    dims = cohomology_oracle(TruncationSpec(Interval(-3, 4), 4, F(1), F(2)))
    assert dims[0] == 15
    assert all(dim == 0 for g, dim in dims.items() if g < 0)
    assert h0_inclusion_is_iso(Interval(-2, 3), Interval(-3, 4), 4, 1, 2)


def test_reference_differential_squares_to_zero():
    rng = random.Random(18)
    params = ModelParams.symbolic()
    for _ in range(40):
        c = seeded_cochain(rng)
        assert d_quantum_reference(d_quantum_reference(c, params), params).is_zero


def test_basis_guard_counts_before_building(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("the basis was built before the size guard")

    monkeypatch.setattr(oracle, "combinations_with_replacement", forbidden)
    with pytest.raises(BasisTooLargeError):
        truncated_basis(Interval(0, 200), 3)


def test_basis_size_formula_matches_the_built_basis(monkeypatch):
    # a guard one below the true size must reject, the true size must pass
    for interval in (Interval(0, 3), Interval(0, 5), Interval(-3, 4), Interval(0, F(9, 2))):
        for maxdeg in range(0, 5):
            size = sum(map(len, truncated_basis(interval, maxdeg).values()))
            monkeypatch.setattr(oracle, "BASIS_GUARD", size - 1)
            with pytest.raises(BasisTooLargeError):
                truncated_basis(interval, maxdeg)
            monkeypatch.setattr(oracle, "BASIS_GUARD", size)
            truncated_basis(interval, maxdeg)
            monkeypatch.undo()
