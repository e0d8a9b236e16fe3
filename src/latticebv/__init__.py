"""Exact BV quantization of the free scalar field on the integer lattice.

The package computes, over the exact ring Q[hbar][alpha, alpha^-1]:

- the graded-commutative algebra of field/antifield observables and its
  quantum differential d_h = d + hbar * (odd Laplacian);
- window normal forms with machine-checkable homotopy certificates;
- the interval-operad structure maps and their symmetries;
- the star product on degree-0 cohomology and its identification with the
  Weyl algebra, time evolution, time reversal and the Fock module;
- a brute-force cohomology oracle and a named verification suite.
"""

from .cochains import Cochain, LatticeFunction, Monomial, pairing, support_within
from .complexes import (
    ModelParams,
    d_quantum,
    differential,
    kernel_function,
    laplace,
    odd_laplacian,
    phi,
    phi_section,
    poisson_bracket,
)
from .operad import (
    Interval,
    IntervalOperation,
    factorization_product,
    gamma_permutation,
    local_constancy_check,
    sum_operation,
    time_reversal,
    translate,
)
from .oracle import TruncationSpec, cohomology_oracle, d_quantum_reference
from .parser import ParseError, parse_cochain, parse_scalar
from .reduction import (
    HomotopyCertificate,
    Window,
    normal_form,
    relocate,
    rewrite_step,
    verify_certificate,
)
from .scalars import Scalar, mass_squared
from .weyl import (
    GEOMETRIES,
    H0Class,
    StarAlgebra,
    WeylElement,
    fock_action,
    fock_projection,
    time_evolution,
    time_reversal_weyl,
)

__version__ = "0.1.0"
