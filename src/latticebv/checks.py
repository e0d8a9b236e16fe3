"""Named verification suite with structured, re-checkable results.

Every check states an exact algebraic identity and verifies it from scratch
at desk scale; reduction-based checks carry a homotopy certificate in their
witness, re-verified through the independent differential implementation in
:mod:`latticebv.oracle` (a pass is never reported on the strength of the
rewriting engine alone).  Runs are deterministic for a fixed seed.

To add a check, define one function ``fn(cfg) -> (ok, witness)`` under
``@_check(id, statement)``; nothing else registers it.  ``CHECK_IDS``, the
``--list`` output and the report order follow the order of definition.  The
statement is a decorator argument, not a docstring, so ``python -OO`` keeps it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

from .cochains import Cochain, LatticeFunction, Monomial, pairing
from .complexes import (
    KERNEL_KINDS,
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
    perm_substitute,
    substitute,
)
from .oracle import TruncationSpec, d_quantum_reference, h0_dimension, h0_inclusion_is_iso
from .parser import parse_cochain
from .reduction import (
    CertificateError,
    HomotopyCertificate,
    Window,
    normal_form,
    relocate,
    verify_certificate,
)
from .scalars import Scalar
from .weyl import (
    StarAlgebra,
    WeylElement,
    fock_action,
    fock_projection,
    time_evolution,
    time_reversal_weyl,
)

__all__ = ["CheckConfig", "CheckResult", "CHECK_IDS", "run_check", "run_suite", "emit_report"]


@dataclass(frozen=True)
class CheckConfig:
    """Seed and model parameters for parameterizable checks.

    Lemma-style checks pin their own parameters (their statements say
    which); the generic property checks use ``params``.  The caller builds
    ``params`` with ``ModelParams.at`` before any check runs, so a non-unit
    alpha fails there.  ``latticebv check`` defaults to seed 0 with symbolic
    hbar and alpha.
    """

    seed: int
    params: ModelParams


@dataclass
class CheckResult:
    id: str
    status: str  # pass | fail | error
    statement: str
    witness: object
    elapsed_ms: int

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "statement": self.statement,
            "witness": self.witness,
            "elapsed": self.elapsed_ms,
        }


# -- shared helpers -----------------------------------------------------------

_SYMBOLIC = ModelParams.symbolic()
_MASSLESS = ModelParams.massless()


def _qp_basis(n: int) -> list[tuple[int, int]]:
    """The exponents (a, b) of q^a p^b with a + b < n, by total degree, p-powers ascending."""
    return [(total - b, b) for total in range(n) for b in range(total + 1)]


def _random_triples(rng: Random, pool: list, max_total: int, count: int):
    """``count`` triples drawn from ``pool`` whose exponents sum to at most ``max_total``."""
    drawn = 0
    while drawn < count:
        triple = tuple(rng.choice(pool) for _ in range(3))
        if sum(map(sum, triple)) <= max_total:
            drawn += 1
            yield triple


def _random_scalar(rng: Random) -> Scalar:
    out = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        hp = rng.randint(0, 2)
        ap = rng.randint(-2, 2)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Scalar({(hp, ap): 1}) * c
    return out


def _random_cochain(
    rng: Random,
    site_lo: int = -6,
    site_hi: int = 6,
    max_poly_degree: int = 4,
    max_terms: int = 4,
    even_only: bool = False,
) -> Cochain:
    sites = list(range(site_lo, site_hi + 1))
    out = Cochain.zero()
    for _ in range(rng.randint(1, max_terms)):
        n_anti = 0 if even_only else rng.randint(0, min(2, max_poly_degree))
        antifields = tuple(rng.sample(sites, n_anti))
        field_budget = rng.randint(0, max_poly_degree - n_anti)
        fields: dict[int, int] = {}
        for _ in range(field_budget):
            s = rng.choice(sites)
            fields[s] = fields.get(s, 0) + 1
        out = out + Cochain.monomial(fields, antifields, _random_scalar(rng))
    return out


def _random_lattice_function(rng: Random, max_terms: int = 4) -> LatticeFunction:
    values: dict[int, Scalar] = {}
    for s in rng.sample(range(-6, 7), rng.randint(1, max_terms)):
        values[s] = _random_scalar(rng)
    return LatticeFunction(values)


def _certificate_witness(cert: HomotopyCertificate, params: ModelParams) -> dict:
    """Serialize a certificate after re-verifying it through both paths."""
    main_ok = verify_certificate(cert, params)
    residue = cert.input - cert.normal_form - d_quantum_reference(cert.homotopy, params)
    if not (main_ok and residue.is_zero):
        raise CertificateError("certificate failed independent re-verification")
    out = cert.as_dict()
    out["verified"] = True
    out["alpha"] = str(params.alpha)
    out["hbar"] = str(params.hbar)
    return out


# -- individual checks --------------------------------------------------------

_BY_ID: dict[str, tuple[str, object]] = {}


def _check(check_id: str, statement: str):
    """Register the decorated ``fn(cfg)`` under ``check_id``, after those defined above it."""

    def register(fn):
        _BY_ID[check_id] = (statement, fn)
        return fn

    return register


@_check("dsq-zero",
        "the classical differential, the odd Laplacian and their sum with weight hbar all square to zero")
def _check_dsq_zero(cfg: CheckConfig):
    params = cfg.params
    rng = Random(cfg.seed)
    for i in range(1000):
        c = _random_cochain(rng)
        dd = differential(differential(c, params), params)
        if not dd.is_zero:
            return False, {"counterexample": str(c), "identity": "d^2"}
        ll = odd_laplacian(odd_laplacian(c))
        if not ll.is_zero:
            return False, {"counterexample": str(c), "identity": "D^2"}
        mixed = differential(odd_laplacian(c), params) + odd_laplacian(differential(c, params))
        if not mixed.is_zero:
            return False, {"counterexample": str(c), "identity": "dD + Dd"}
        if not d_quantum(d_quantum(c, params), params).is_zero:
            return False, {"counterexample": str(c), "identity": "d_h^2"}
    return True, {"rounds": 1000}


def _bracket_reference(x: Cochain, y: Cochain) -> Cochain:
    """Contraction formula for the bracket, independent of the BV defect."""
    out = Cochain.zero()
    for deg in x.degrees():
        xk = x.homogeneous_part(deg)
        for s in sorted(xk.support() | y.support()):
            t1 = xk.partial_antifield(s) * y.partial_field(s)
            t2 = xk.partial_field(s) * y.partial_antifield(s)
            out = out + t1 + (t2 if deg % 2 == 0 else -t2)
    return out


@_check("bv-identity",
        "the failure of the odd Laplacian to be a derivation is exactly the shifted Poisson bracket")
def _check_bv_identity(cfg: CheckConfig):
    rng = Random(cfg.seed)
    for a in range(-2, 3):
        for b in range(-2, 3):
            got = poisson_bracket(Cochain.antifield(a), Cochain.field(b))
            want = Cochain.one() if a == b else Cochain.zero()
            if got != want:
                return False, {"generators": f"a={a}, b={b}", "got": str(got)}
    for i in range(500):
        x = _random_cochain(rng, max_poly_degree=3, max_terms=3)
        y = _random_cochain(rng, max_poly_degree=3, max_terms=3)
        if poisson_bracket(x, y) != _bracket_reference(x, y):
            return False, {"x": str(x), "y": str(y)}
    return True, {"rounds": 500, "generator_pairs": 25}


@_check("pairing-compat", "the lattice Laplacian is self-adjoint for the degree-1 pairing")
def _check_pairing_compat(cfg: CheckConfig):
    params = cfg.params
    rng = Random(cfg.seed)
    for i in range(500):
        f = _random_lattice_function(rng)
        g = _random_lattice_function(rng)
        if pairing(laplace(f, params), g) != pairing(f, laplace(g, params)):
            return False, {"f": str(f), "g": str(g)}
        if pairing(f, g) != pairing(g, f):
            return False, {"f": str(f), "g": str(g), "identity": "symmetry"}
    return True, {"rounds": 500}


@_check("q-injective", "the lattice Laplacian is injective on finitely supported functions")
def _check_q_injective(cfg: CheckConfig):
    params = cfg.params
    rng = Random(cfg.seed)
    for i in range(500):
        f = _random_lattice_function(rng)
        if f.is_zero:
            continue
        qf = laplace(f, params)
        if qf.is_zero:
            return False, {"kernel_element": str(f)}
        m, n = min(f.support()), max(f.support())
        if qf.get(m - 1) != f.get(m) or qf.get(n + 1) != f.get(n):
            return False, {"f": str(f), "identity": "boundary propagation"}
    return True, {"rounds": 500}


@_check("kernel-functions",
        "the four harmonic kernels u, v, A, B are annihilated by the lattice Laplacian")
def _check_kernel_functions(cfg: CheckConfig):
    params = _SYMBOLIC
    ap1 = params.alpha_plus_inverse()
    for kind in KERNEL_KINDS:
        for x in range(-8, 9):
            lhs = (
                kernel_function(kind, x - 1, params)
                - ap1 * kernel_function(kind, x, params)
                + kernel_function(kind, x + 1, params)
            )
            if not lhs.is_zero:
                return False, {"kind": kind, "site": x}
    # closed form: (alpha - alpha^-1) B(x) telescopes to u(x) - v(x)
    gap = Scalar.alpha() - Scalar.alpha(-1)
    for x in range(-8, 9):
        if gap * kernel_function("B", x, params) != kernel_function(
            "u", x, params
        ) - kernel_function("v", x, params):
            return False, {"identity": "telescoping", "site": x}
        if kernel_function("B", x, _MASSLESS) != Scalar.rational(x):
            return False, {"identity": "B at alpha=1", "site": x}
    if kernel_function("B", 2, params) != Scalar.alpha() + Scalar.alpha(-1):
        return False, {"identity": "B(2)"}
    return True, {"sites": "[-8, 8]", "kinds": list(KERNEL_KINDS)}


@_check("phi-welldefined", "the cohomology classifier vanishes on Laplacian images")
def _check_phi_welldefined(cfg: CheckConfig):
    rng = Random(cfg.seed)
    for i in range(200):
        g = _random_lattice_function(rng)
        if phi(laplace(g, _SYMBOLIC), _SYMBOLIC) != WeylElement.zero():
            return False, {"g": str(g)}
    return True, {"rounds": 200}


@_check("eq1-massless", "at alpha = 1 the classifier computes the total mass and the first moment")
def _check_eq1_massless(cfg: CheckConfig):
    rng = Random(cfg.seed)
    for i in range(200):
        f = _random_lattice_function(rng)
        total = Scalar.zero()
        moment = Scalar.zero()
        for s, v in f.terms():
            total = total + v
            moment = moment + v * s
        if phi(f, _MASSLESS) != WeylElement({(1, 0): total, (0, 1): moment}):
            return False, {"f": str(f)}
    for y in range(-3, 4):
        q_rep, p_rep = phi_section(y)
        if phi(q_rep, _MASSLESS) != WeylElement.q():
            return False, {"anchor": y, "identity": "q section"}
        if phi(p_rep, _MASSLESS) != WeylElement.p():
            return False, {"anchor": y, "identity": "p section"}
    return True, {"rounds": 200, "anchors": "[-3, 3]"}


_FOUR_TERM = "3*delta[0]*delta[1] - 2*delta[-1]*delta[1] - 2*delta[0]*delta[2] + delta[-1]*delta[2]"
_FOUR_TERM_HOMOTOPY = "bdelta[1]*delta[-1] - bdelta[0]*delta[0] - 2*bdelta[1]*delta[0]"


@_check("homotopy-certificate-3.5",
        "the four-term product cochain equals hbar plus an exact term, with explicit homotopy")
def _check_homotopy_certificate(cfg: CheckConfig):
    params = _MASSLESS
    c = parse_cochain(_FOUR_TERM)
    h = parse_cochain(_FOUR_TERM_HOMOTOPY)
    hbar = Cochain.scalar(Scalar.hbar())
    if c - hbar != d_quantum(h, params):
        return False, {"residue": str(c - hbar - d_quantum(h, params))}
    if c - hbar != d_quantum_reference(h, params):
        return False, {"residue": "independent path disagrees"}
    cert = normal_form(c, Interval(-3, 3), Window(0), params)
    if cert.normal_form != hbar:
        return False, {"normal_form": str(cert.normal_form)}
    return True, {
        "stated": _certificate_witness(HomotopyCertificate(c, hbar, h), params),
        "engine": _certificate_witness(cert, params),
    }


@_check("massless-commutator",
        "[delta2 - delta1] star [delta0] minus the reverse order reduces to hbar at alpha = 1")
def _check_massless_commutator(cfg: CheckConfig):
    algebra = StarAlgebra(_MASSLESS, "massless35")
    x = algebra.class_of(parse_cochain("delta[2] - delta[1]"))
    y = algebra.class_of(parse_cochain("delta[0]"))
    comm = algebra.commutator(x, y)
    if comm.canonical_form != Cochain.scalar(Scalar.hbar()):
        return False, {"commutator": str(comm.canonical_form)}
    return True, {"certificate": _certificate_witness(comm.certificate, _MASSLESS)}


@_check("massive-commutator",
        "p star q - q star p = hbar for p = (1/2)[delta1 - delta-1], q = [delta0], symbolic alpha")
def _check_massive_commutator(cfg: CheckConfig):
    algebra = StarAlgebra(_SYMBOLIC, "default")
    two_p = algebra.class_of(parse_cochain("delta[1] - delta[-1]"))
    q = algebra.q_class
    raw = algebra.commutator(two_p, q)
    if raw.canonical_form != Cochain.scalar(Scalar.hbar() * 2):
        return False, {"unnormalized_commutator": str(raw.canonical_form)}
    normalized = algebra.commutator(algebra.p_class, q)
    if normalized.canonical_form != Cochain.scalar(Scalar.hbar()):
        return False, {"commutator": str(normalized.canonical_form)}
    return True, {
        "unnormalized": str(raw.canonical_form),
        "normalized": str(normalized.canonical_form),
        "certificate": _certificate_witness(normalized.certificate, _SYMBOLIC),
    }


@_check("chain-level-product",
        "the factorization product of disjoint well-ordered factors is the plain product at the cochain level")
def _check_chain_level_product(cfg: CheckConfig):
    left = (parse_cochain("delta[0]"), Interval(-2, Fraction(1, 2)))
    right = (parse_cochain("delta[2] - delta[1]"), Interval(Fraction(1, 2), 3))
    ambient = Interval(-3, 3)
    product = factorization_product([left, right], ambient)
    if product != parse_cochain("delta[0]*delta[2] - delta[0]*delta[1]"):
        return False, {"product": str(product)}
    if factorization_product([(Cochain.one(), left[1]), (Cochain.one(), right[1])], ambient) != Cochain.one():
        return False, {"identity": "unitality"}
    if factorization_product([left], ambient) != left[0]:
        return False, {"identity": "unary inclusion"}
    return True, {"product": str(product)}


@_check("general-fact-4.3",
        "d_h(fbar * g) = d_h(fbar) * g + hbar <<f, g>> for finitely supported f, g")
def _check_general_fact(cfg: CheckConfig):
    rng = Random(cfg.seed)
    hbar = _SYMBOLIC.hbar
    for i in range(300):
        f = _random_lattice_function(rng, max_terms=3)
        g = _random_lattice_function(rng, max_terms=3)
        lhs = d_quantum(f.as_antifield_cochain() * g.as_field_cochain(), _SYMBOLIC)
        rhs = d_quantum(f.as_antifield_cochain(), _SYMBOLIC) * g.as_field_cochain() + Cochain.scalar(
            hbar * pairing(f, g)
        )
        if lhs != rhs:
            return False, {"f": str(f), "g": str(g)}
    return True, {"rounds": 300}


@_check("relocation-4.3",
        "delta0 relocates onto {2,3} as ((alpha+alpha^-1)^2 - 1) delta2 - (alpha+alpha^-1) delta3")
def _check_relocation(cfg: CheckConfig):
    params = _SYMBOLIC
    ambient = Interval(-4, 4)
    ap1 = params.alpha_plus_inverse()
    expected_right = (
        Cochain.field(2) * (ap1 * ap1 - Scalar.one()) - Cochain.field(3) * ap1
    )
    expected_homotopy = Cochain.antifield(1) + Cochain.antifield(2) * ap1
    cert = relocate(parse_cochain("delta[0]"), ambient, Window(2), params)
    if cert.normal_form != expected_right:
        return False, {"normal_form": str(cert.normal_form)}
    if cert.homotopy != expected_homotopy:
        return False, {"homotopy": str(cert.homotopy)}
    mirror = relocate(parse_cochain("delta[0]"), ambient, Window(-3), params)
    expected_left = (
        Cochain.field(-2) * (ap1 * ap1 - Scalar.one()) - Cochain.field(-3) * ap1
    )
    if mirror.normal_form != expected_left:
        return False, {"mirror_normal_form": str(mirror.normal_form)}
    fixed = relocate(parse_cochain("delta[2]"), ambient, Window(2), params)
    if fixed.normal_form != parse_cochain("delta[2]") or not fixed.homotopy.is_zero:
        return False, {"identity": "already in target"}
    return True, {
        "certificate": _certificate_witness(cert, params),
        "mirror": _certificate_witness(mirror, params),
    }


@_check("time-evolution-massless",
        "translation by one site induces q -> q + p and p -> p at alpha = 1")
def _check_time_evolution_massless(cfg: CheckConfig):
    algebra = StarAlgebra(_MASSLESS, "default")
    moved_q = algebra.to_weyl(algebra.translate_class(algebra.q_class, 1))
    if moved_q != WeylElement.q() + WeylElement.p():
        return False, {"q_image": str(moved_q)}
    moved_p = algebra.to_weyl(algebra.translate_class(algebra.p_class, 1))
    if moved_p != WeylElement.p():
        return False, {"p_image": str(moved_p)}
    if time_evolution(WeylElement.q(), _MASSLESS) != WeylElement.q() + WeylElement.p():
        return False, {"identity": "automorphism on q"}
    if time_evolution(WeylElement.p(), _MASSLESS) != WeylElement.p():
        return False, {"identity": "automorphism on p"}
    return True, {"q": str(moved_q), "p": str(moved_p)}


@_check("time-evolution-matrix",
        "translation by one site induces the mass-dependent matrix on q, p (symbolic alpha)")
def _check_time_evolution_matrix(cfg: CheckConfig):
    params = _SYMBOLIC
    algebra = StarAlgebra(params, "default")
    half_sum = params.alpha_plus_inverse() * Fraction(1, 2)
    quarter_square = (
        params.alpha_power(2) - Scalar.rational(2) + params.alpha_power(-2)
    ) * Fraction(1, 4)
    expected_q = WeylElement({(1, 0): half_sum, (0, 1): Scalar.one()})
    expected_p = WeylElement({(1, 0): quarter_square, (0, 1): half_sum})
    moved_q = algebra.to_weyl(algebra.translate_class(algebra.q_class, 1))
    moved_p = algebra.to_weyl(algebra.translate_class(algebra.p_class, 1))
    if moved_q != expected_q:
        return False, {"q_image": str(moved_q), "expected": str(expected_q)}
    if moved_p != expected_p:
        return False, {"p_image": str(moved_p), "expected": str(expected_p)}
    if time_evolution(WeylElement.q(), params) != expected_q:
        return False, {"identity": "automorphism on q"}
    if time_evolution(WeylElement.p(), params) != expected_p:
        return False, {"identity": "automorphism on p"}
    # the matrix has determinant 1, so the commutator is preserved
    comm = expected_p * expected_q - expected_q * expected_p
    if comm != WeylElement({(0, 0): Scalar.hbar()}):
        return False, {"identity": "commutator preservation", "got": str(comm)}
    for a, b in _qp_basis(5):
        lhs = algebra.to_weyl(algebra.translate_class(algebra.psi(a, b), 1))
        rhs = time_evolution(WeylElement({(a, b): 1}), params)
        if lhs != rhs:
            return False, {"basis": f"q^{a} p^{b}", "lhs": str(lhs), "rhs": str(rhs)}
    return True, {
        "q": str(moved_q),
        "p": str(moved_p),
        "agreement_degree": 4,
    }


@_check("anti-involution", "site negation induces the anti-involution fixing q and negating p")
def _check_anti_involution(cfg: CheckConfig):
    rng = Random(cfg.seed)
    # Weyl level: reverses products, squares to the identity
    for i in range(100):
        x = WeylElement({(rng.randint(0, 3), rng.randint(0, 3)): _random_scalar(rng)})
        y = WeylElement({(rng.randint(0, 3), rng.randint(0, 3)): _random_scalar(rng)})
        if time_reversal_weyl(x * y) != time_reversal_weyl(y) * time_reversal_weyl(x):
            return False, {"x": str(x), "y": str(y)}
        if time_reversal_weyl(time_reversal_weyl(x)) != x:
            return False, {"x": str(x), "identity": "involution"}
    if time_reversal_weyl(WeylElement.q()) != WeylElement.q():
        return False, {"identity": "fixes q"}
    if time_reversal_weyl(WeylElement.p()) != -WeylElement.p():
        return False, {"identity": "negates p"}
    # class level, massless: tau(x * y) = tau(y) * tau(x) on basis pairs
    algebra = StarAlgebra(_MASSLESS, "default")
    basis = _qp_basis(4)
    for (a, b), (c, d) in product(basis, repeat=2):
        x, y = algebra.psi(a, b), algebra.psi(c, d)
        lhs = algebra.reverse_class(algebra.star(x, y))
        rhs = algebra.star(algebra.reverse_class(y), algebra.reverse_class(x))
        if lhs != rhs:
            return False, {"pair": f"q^{a}p^{b}, q^{c}p^{d}"}
    # generators agree with the Weyl-level anti-involution, symbolically
    sym = StarAlgebra(_SYMBOLIC, "default")
    if sym.to_weyl(sym.reverse_class(sym.q_class)) != WeylElement.q():
        return False, {"identity": "class-level fixes q"}
    if sym.to_weyl(sym.reverse_class(sym.p_class)) != -WeylElement.p():
        return False, {"identity": "class-level negates p"}
    return True, {"basis_pairs": len(basis) ** 2, "weyl_rounds": 100}


@_check("fock-action",
        "the coinvariant module is K[q] with q q^n = q^(n+1) and p q^n = n hbar q^(n-1)")
def _check_fock_action(cfg: CheckConfig):
    rng = Random(cfg.seed)
    hbar = Scalar.hbar()
    for n in range(11):
        if fock_action(WeylElement.q(), WeylElement.q(n)) != WeylElement.q(n + 1):
            return False, {"identity": f"q on q^{n}"}
        want = WeylElement({(n - 1, 0): hbar * n}) if n else WeylElement.zero()
        got = fock_action(WeylElement.p(), WeylElement.q(n))
        if got != want:
            return False, {"identity": f"p on q^{n}", "got": str(got)}
        if n and got.coefficient(n - 1, 0).specialize(1, 1) != Fraction(n):
            return False, {"identity": f"p on q^{n} at hbar=1"}
    for i in range(100):
        w1 = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): _random_scalar(rng)})
        w2 = WeylElement({(rng.randint(0, 2), rng.randint(0, 2)): _random_scalar(rng)})
        v = WeylElement({(rng.randint(0, 4), 0): _random_scalar(rng)})
        if fock_action(w1 * w2, v) != fock_action(w1, fock_action(w2, v)):
            return False, {"w1": str(w1), "w2": str(w2), "v": str(v)}
    for n in range(5):
        v = WeylElement.q(n)
        pq = fock_action(WeylElement.p(), fock_action(WeylElement.q(), v))
        qp = fock_action(WeylElement.q(), fock_action(WeylElement.p(), v))
        if pq - qp != v * hbar:
            return False, {"identity": "[p,q] = hbar on the module", "n": n}
    # the coinvariant ideal: generator differences a - tau(a) reduce into (p)
    for w in (WeylElement.q(), WeylElement.p()):
        diff = w - time_reversal_weyl(w)
        if not fock_projection(diff).is_zero:
            return False, {"identity": "generator difference lies in (p)"}
    if WeylElement.p() - time_reversal_weyl(WeylElement.p()) != WeylElement.p() * 2:
        return False, {"identity": "p - tau(p) = 2p"}
    return True, {"powers": 10, "module_rounds": 100}


def _random_operation(
    rng: Random,
    n: int,
    lo: Fraction,
    hi: Fraction,
    min_len: Fraction,
    max_len: Fraction,
):
    """n disjoint subintervals (shuffled) of (lo, hi), lengths in [min_len, max_len]."""
    slack = (hi - lo) - n * max_len
    if slack <= 0:
        raise ValueError("intervals do not fit")
    gap_cap = max(1, int(2 * slack / (n + 1)) - 1)
    pos = Fraction(lo) + Fraction(rng.randint(0, gap_cap), 2)
    intervals = []
    for _ in range(n):
        length = min_len + Fraction(rng.randint(0, int(2 * (max_len - min_len))), 2)
        intervals.append(Interval(pos, pos + length))
        pos = pos + length + Fraction(rng.randint(0, gap_cap), 2)
    if intervals[-1].b > hi:
        raise ValueError("intervals do not fit")
    rng.shuffle(intervals)
    return IntervalOperation(tuple(intervals), Interval(Fraction(lo), Fraction(hi)))


@_check("gamma-equivariance",
        "the ordering morphism to permutations is translation invariant, reversal equivariant and functorial")
def _check_gamma_equivariance(cfg: CheckConfig):
    rng = Random(cfg.seed)
    for i in range(100):
        op = _random_operation(
            rng, rng.randint(1, 4), Fraction(-50), Fraction(50), Fraction(5, 2), Fraction(4)
        )
        sigma = gamma_permutation(op)
        if gamma_permutation(op.shift(rng.randint(-10, 10))) != sigma:
            return False, {"identity": "translation invariance", "round": i}
        n = len(sigma)
        reversed_sigma = tuple(n - 1 - r for r in sigma)
        if gamma_permutation(op.reflect()) != reversed_sigma:
            return False, {"identity": "reversal conjugation", "round": i}
    for i in range(100):
        outer = _random_operation(
            rng, rng.randint(1, 3), Fraction(-60), Fraction(60), Fraction(10), Fraction(14)
        )
        j = rng.randrange(len(outer.inputs))
        host = outer.inputs[j]
        inner = _random_operation(
            rng, rng.randint(1, 2), host.a, host.b, Fraction(5, 2), Fraction(3)
        )
        composite = substitute(outer, j, inner)
        lhs = gamma_permutation(composite)
        rhs = perm_substitute(gamma_permutation(outer), j, gamma_permutation(inner))
        if lhs != rhs:
            return False, {"identity": "functoriality", "round": i}
    if gamma_permutation(IntervalOperation((Interval(0, 3),), Interval(0, 8))) != (0,):
        return False, {"identity": "unary to identity"}
    return True, {"rounds": 200}


_LC_PAIRS = [
    ("0,3", "-1,4", 2),
    ("0,3", "0,5", 1),
    ("-2,1/2", "-3,3", 2),
    ("1/2,3", "-3,3", 2),
    ("-4,-3/2", "-4,4", 1),
    ("-3/2,4", "-4,4", 1),
    ("-5/2,5/2", "-7/2,7/2", 2),
    ("0,13/4", "-1,9/2", 3),
    ("1,4", "0,5", 3),
    ("0,5/2", "0,25", 1),
]


@_check("local-constancy",
        "inclusions induce isomorphisms on truncated degree-0 cohomology of the expected dimension")
def _check_local_constancy(cfg: CheckConfig):
    entries = []
    for inner_text, outer_text, maxdeg in _LC_PAIRS:
        inner, outer = Interval.parse(inner_text), Interval.parse(outer_text)
        for hval, aval in ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))):
            expected_dim = (maxdeg + 1) * (maxdeg + 2) // 2
            for interval in (inner, outer):
                dim = h0_dimension(TruncationSpec(interval, maxdeg, hval, aval))
                if dim != expected_dim:
                    return False, {
                        "interval": str(interval),
                        "maxdeg": maxdeg,
                        "alpha": str(aval),
                        "dim": dim,
                        "expected": expected_dim,
                    }
            if not h0_inclusion_is_iso(inner, outer, maxdeg, hval, aval):
                return False, {
                    "inclusion": f"{inner} into {outer}",
                    "maxdeg": maxdeg,
                    "alpha": str(aval),
                }
            entries.append(
                {
                    "inclusion": f"{inner} into {outer}",
                    "maxdeg": maxdeg,
                    "alpha": str(aval),
                    "h0_dim": expected_dim,
                }
            )
    return True, {"pairs": entries}


@_check("weyl-iso",
        "the correspondence q^a p^b <-> star powers is bijective and multiplicative up to total degree 6")
def _check_weyl_iso(cfg: CheckConfig):
    algebra = StarAlgebra(_SYMBOLIC, "default")
    basis = _qp_basis(7)
    for a, b in basis:
        if algebra.to_weyl(algebra.psi(a, b)) != WeylElement({(a, b): 1}):
            return False, {"identity": "round trip", "basis": f"q^{a}p^{b}"}
    # triangular change of basis with unit diagonal at each total degree
    for a, b in basis:
        cf = algebra.psi(a, b).canonical_form
        n = a + b
        for c, d in basis:
            if c + d != n:
                continue
            coeff = cf.coefficient(Monomial.make({0: c, 1: d}))
            if (c, d) == (a, b):
                if coeff != Scalar.one():
                    return False, {"identity": "unit diagonal", "basis": f"q^{a}p^{b}"}
            elif d > b and not coeff.is_zero:
                return False, {"identity": "triangularity", "basis": f"q^{a}p^{b}"}
    # multiplicativity: star structure constants match the Weyl relations
    pairs = 0
    for (a, b), (c, d) in product(basis, repeat=2):
        if a + b + c + d > 6:
            continue
        pairs += 1
        lhs = algebra.to_weyl(algebra.star(algebra.psi(a, b), algebra.psi(c, d)))
        rhs = WeylElement({(a, b): 1}) * WeylElement({(c, d): 1})
        if lhs != rhs:
            return False, {
                "pair": f"q^{a}p^{b} * q^{c}p^{d}",
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
    return True, {"basis_size": len(basis), "structure_pairs": pairs}


@_check("mass-independence",
        "star structure constants in the q, p basis contain no alpha and agree at alpha = 1, 2, 3")
def _check_mass_independence(cfg: CheckConfig):
    symbolic = StarAlgebra(_SYMBOLIC, "default")
    specialized = [StarAlgebra(ModelParams.at(alpha=a), "default") for a in (1, 2, 3)]
    basis = _qp_basis(5)
    pairs = 0
    for x, y in product(basis, repeat=2):
        if sum(x) + sum(y) > 4:
            continue
        pairs += 1
        reference = symbolic.to_weyl(symbolic.star(symbolic.psi(*x), symbolic.psi(*y)))
        for _, coeff in reference.terms():
            if not coeff.is_alpha_free:
                return False, {
                    "pair": f"{x} * {y}",
                    "alpha_dependent": str(reference),
                }
        for algebra in specialized:
            got = algebra.to_weyl(algebra.star(algebra.psi(*x), algebra.psi(*y)))
            if got != reference:
                return False, {
                    "pair": f"{x} * {y}",
                    "alpha": str(algebra.params.alpha),
                    "got": str(got),
                    "expected": str(reference),
                }
    return True, {"pairs": pairs, "alphas": ["symbolic", "1", "2", "3"]}


@_check("confluence",
        "both rewriting strategies produce identical normal forms, with verified certificates")
def _check_confluence(cfg: CheckConfig):
    params = cfg.params
    rng = Random(cfg.seed)
    ambient = Interval(-6, 6)
    for i in range(500):
        c = _random_cochain(rng, site_lo=-5, site_hi=5, even_only=True)
        right = normal_form(c, ambient, Window(0), params, strategy="right")
        left = normal_form(c, ambient, Window(0), params, strategy="left")
        if right.normal_form != left.normal_form:
            return False, {"cochain": str(c), "right": str(right.normal_form), "left": str(left.normal_form)}
        if not verify_certificate(right, params) or not verify_certificate(left, params):
            return False, {"cochain": str(c), "identity": "certificate"}
        if i % 5 == 0:
            # window-change consistency and the independent differential path
            via = normal_form(
                normal_form(c, ambient, Window(2), params).normal_form,
                ambient,
                Window(0),
                params,
            )
            if via.normal_form != right.normal_form:
                return False, {"cochain": str(c), "identity": "window change"}
            residue = c - right.normal_form - d_quantum_reference(right.homotopy, params)
            if not residue.is_zero:
                return False, {"cochain": str(c), "identity": "independent re-verification"}
    return True, {"rounds": 500}


@_check("star-associativity", "the star product is unital and associative on basis classes")
def _check_star_associativity(cfg: CheckConfig):
    rng = Random(cfg.seed)
    algebra = StarAlgebra(_MASSLESS, "default")
    basis = _qp_basis(4)
    classes = [algebra.psi(a, b) for a, b in basis]
    unit = algebra.one
    for x in classes:
        if algebra.star(unit, x) != x or algebra.star(x, unit) != x:
            return False, {"identity": "unitality"}
    for x, y, z in product(classes, repeat=3):
        lhs = algebra.star(algebra.star(x, y), z)
        rhs = algebra.star(x, algebra.star(y, z))
        if lhs != rhs:
            return False, {
                "x": str(x),
                "y": str(y),
                "z": str(z),
            }
    for x, y, z in _random_triples(rng, _qp_basis(6), 8, 200):
        cx, cy, cz = (algebra.psi(*t) for t in (x, y, z))
        if algebra.star(algebra.star(cx, cy), cz) != algebra.star(cx, algebra.star(cy, cz)):
            return False, {"triple": f"{x}, {y}, {z}"}
    sym = StarAlgebra(_SYMBOLIC, "default")
    for x, y, z in _random_triples(rng, basis, 4, 20):
        cx, cy, cz = (sym.psi(*t) for t in (x, y, z))
        if sym.star(sym.star(cx, cy), cz) != sym.star(cx, sym.star(cy, cz)):
            return False, {"triple": f"{x}, {y}, {z}", "alpha": "symbolic"}
    return True, {"exhaustive_triples": len(classes) ** 3, "random_triples": 200, "symbolic_triples": 20}


# -- registry -----------------------------------------------------------------

CHECK_IDS = tuple(_BY_ID)


def run_check(check_id: str, config: CheckConfig) -> CheckResult:
    """Run one named check; unknown ids are an error.

    A check that raises gets status ``error``, with the exception's type and
    message as its witness, so the rest of a suite still runs and reports.
    """
    if check_id not in _BY_ID:
        raise ValueError(f"unknown check id {check_id!r}")
    statement, fn = _BY_ID[check_id]
    start = time.perf_counter()
    try:
        ok, witness = fn(config)
        status = "pass" if ok else "fail"
    except Exception as exc:
        status, witness = "error", {"error": type(exc).__name__, "message": str(exc)}
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckResult(
        id=check_id,
        status=status,
        statement=statement,
        witness=witness,
        elapsed_ms=elapsed,
    )


def run_suite(check_ids: list[str] | None, config: CheckConfig) -> list[CheckResult]:
    """Run the named checks in order; ``None`` runs the whole registry."""
    ids = list(check_ids) if check_ids is not None else list(CHECK_IDS)
    return [run_check(check_id, config) for check_id in ids]


def emit_report(results: list[CheckResult], format: str) -> str:
    """Serialize results; json is an array of objects, text a readable table."""
    if format == "json":
        return json.dumps([r.as_dict() for r in results], indent=2)
    if format == "text":
        if not results:
            return "no checks selected\n"
        width = max(len(r.id) for r in results)
        lines = []
        for r in results:
            lines.append(f"{r.status.upper():4}  {r.id:<{width}}  {r.statement}  [{r.elapsed_ms} ms]")
        passed = sum(1 for r in results if r.status == "pass")
        lines.append("")
        lines.append(f"{passed}/{len(results)} checks passed")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def suite_exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.status == "pass" for r in results) else 1
