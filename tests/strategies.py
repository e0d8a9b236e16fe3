"""Shared hypothesis strategies for algebra elements, and a memory probe."""

import tracemalloc
from fractions import Fraction

from hypothesis import strategies as st

from latticebv.cochains import Cochain, LatticeFunction
from latticebv.scalars import Scalar


def peak_allocation(fn) -> int:
    """The traced peak of Python allocations, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def scalars(draw, allow_alpha: bool = True) -> Scalar:
    out = Scalar.zero()
    for _ in range(draw(st.integers(1, 3))):
        hp = draw(st.integers(0, 2))
        ap = draw(st.integers(-2, 2)) if allow_alpha else 0
        out = out + Scalar({(hp, ap): 1}) * draw(fractions)
    return out


@st.composite
def cochains(
    draw,
    min_site: int = -4,
    max_site: int = 4,
    max_poly_degree: int = 3,
    even_only: bool = False,
) -> Cochain:
    sites = st.integers(min_site, max_site)
    out = Cochain.zero()
    for _ in range(draw(st.integers(1, 3))):
        n_anti = 0 if even_only else draw(st.integers(0, 2))
        anti = draw(st.lists(sites, min_size=n_anti, max_size=n_anti, unique=True))
        fields: dict[int, int] = {}
        for _ in range(draw(st.integers(0, max(0, max_poly_degree - n_anti)))):
            s = draw(sites)
            fields[s] = fields.get(s, 0) + 1
        out = out + Cochain.monomial(fields, tuple(anti), draw(scalars()))
    return out


@st.composite
def lattice_functions(draw, min_site: int = -5, max_site: int = 5) -> LatticeFunction:
    values = {}
    for s in draw(
        st.lists(st.integers(min_site, max_site), min_size=1, max_size=4, unique=True)
    ):
        values[s] = draw(scalars())
    return LatticeFunction(values)


def seeded_scalar(rng) -> Scalar:
    out = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 2), rng.randint(-2, 2))
        out = out + Scalar({key: 1}) * Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return out


def seeded_cochain(
    rng,
    min_site: int = -4,
    max_site: int = 4,
    max_poly_degree: int = 3,
    max_terms: int = 3,
    even_only: bool = False,
) -> Cochain:
    sites = list(range(min_site, max_site + 1))
    out = Cochain.zero()
    for _ in range(rng.randint(1, max_terms)):
        n_anti = 0 if even_only else rng.randint(0, 2)
        anti = tuple(rng.sample(sites, n_anti))
        fields: dict[int, int] = {}
        for _ in range(rng.randint(0, max(0, max_poly_degree - n_anti))):
            s = rng.choice(sites)
            fields[s] = fields.get(s, 0) + 1
        out = out + Cochain.monomial(fields, anti, seeded_scalar(rng))
    return out
