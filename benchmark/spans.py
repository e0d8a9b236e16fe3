"""Span tracing of the package's public entry points, from outside the package.

:class:`Tracer` replaces each entry point listed in :data:`ENTRY_POINTS`
(module functions, methods and properties) by a wrapper that records a
span: name, start, end and the span that was open when it began.  Every
binding of a wrapped function in the package and in the calling modules
is replaced too, so calls through ``from .complexes import d_quantum``
are seen.  Self time is a span's
duration minus the time its child spans cover; a layer's self time is the
sum over the spans of its module.  Counts and self times are aggregated as
spans close; every span is kept in memory, in flat arrays (40 bytes a span),
and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from latticebv import cochains, complexes, operad, oracle, parser, reduction, scalars, weyl

__all__ = ["Tracer", "ENTRY_POINTS"]

# module -> entry points.  "Class.attr" wraps a method or property; a bare
# name wraps a module function.  "=name" after an entry sets the span name
# (so Scalar.__add__ and Scalar.__radd__ both count as scalars.add).
ENTRY_POINTS = {
    scalars: (
        "Scalar.__add__=add", "Scalar.__radd__=add", "Scalar.__sub__=sub", "Scalar.__rsub__=sub",
        "Scalar.__neg__=neg", "Scalar.__mul__=mul", "Scalar.__rmul__=mul", "Scalar.__truediv__=div",
        "Scalar.__pow__=pow", "Scalar.__eq__=eq", "Scalar.specialize", "Scalar.specialize_alpha",
        "Scalar.__str__=render", "mass_squared",
    ),
    cochains: (
        "Cochain.__add__=add", "Cochain.__sub__=sub", "Cochain.__neg__=neg", "Cochain.__mul__=mul",
        "Cochain.__rmul__=mul", "Cochain.__pow__=pow", "Cochain.__eq__=eq", "Cochain.partial_field",
        "Cochain.partial_antifield", "Cochain.map_sites", "Cochain.key", "Cochain.__str__=render",
        "LatticeFunction.__add__=lf_add", "sort_antifields", "pairing", "support_within",
    ),
    complexes: (
        "ModelParams.alpha_power", "ModelParams.alpha_plus_inverse", "laplace", "differential",
        "odd_laplacian", "d_quantum", "poisson_bracket", "kernel_function", "phi", "phi_section",
    ),
    reduction: (
        "rewrite_step", "normal_form", "relocate", "verify_certificate", "HomotopyCertificate.as_dict",
    ),
    operad: (
        "factorization_product", "translate", "time_reversal", "gamma_permutation", "sum_operation",
        "local_constancy_check", "Interval.parse", "Interval.field_sites", "Interval.antifield_sites",
        "Interval.contains",
    ),
    weyl: (
        "StarAlgebra.star", "StarAlgebra.psi", "StarAlgebra.to_weyl", "StarAlgebra.from_weyl",
        "StarAlgebra.class_of", "H0Class.canonical_form", "H0Class.__eq__=eq",
        "WeylElement.__mul__=weyl_mul", "WeylElement.__add__=weyl_add", "time_evolution",
        "time_reversal_weyl", "fock_action",
    ),
    oracle: (
        "cohomology_oracle", "h0_inclusion_is_iso", "h0_dimension", "matrix_rank",
        "d_quantum_reference", "truncated_basis",
    ),
    parser: ("parse_cochain", "parse_scalar"),
}


class Tracer:
    """Records spans around the package's entry points while installed."""

    def __init__(self, callers=()):
        # modules outside the package whose imported names are patched too
        self.callers = tuple(callers)
        # one entry per closed span, in closing order; names index span_names
        self.span_names: list[str] = []
        self.ids, self.parents, self.names = array("q"), array("q"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.rewrite_keys: set = set()
        self.basis_monomials = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter
        name_index = len(self.span_names)
        self.span_names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                self.ids.append(span_id)
                self.parents.append(parent)
                self.names.append(name_index)
                self.starts.append(start - self._t0)
                self.ends.append(end - self._t0)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _rewrite_hook(self, args, _result):
        # distinct (monomial, site, interval, window, params) keys
        self.rewrite_keys.add(tuple(args[:5]))

    def _basis_hook(self, _args, result):
        self.basis_monomials += sum(len(monomials) for monomials in result.values())

    # -- installing --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "latticebv" or n.startswith("latticebv.")]
        modules += self.callers
        hooks = {"reduction.rewrite_step": self._rewrite_hook, "oracle.truncated_basis": self._basis_hook}
        for module, entries in ENTRY_POINTS.items():
            for entry in entries:
                target, _, alias = entry.partition("=")
                owner_name, _, attr = target.rpartition(".")
                span = f"{module.__name__.rsplit('.', 1)[-1]}.{alias or attr.strip('_')}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(span, original.fget))
                    elif isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(span, original.__func__))
                    else:
                        wrapped = self._wrap(span, original)
                    self._set(owner, attr, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(span, original, hooks.get(span))
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, name, wrapped)
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return dict(out)

    def write(self, path) -> None:
        """Write every span as JSON: [id, parent, name, start_s, end_s], one a line."""
        quoted = [json.dumps(name) for name in self.span_names]
        columns = zip(self.ids, self.parents, self.names, self.starts, self.ends)
        with open(path, "w") as fh:
            fh.write('{"spans": [')
            separator = "\n"
            for i, parent, n, start, end in columns:
                fh.write(f"{separator}[{i}, {parent}, {quoted[n]}, {start!r}, {end!r}]")
                separator = ",\n"
            fh.write("\n]}\n")

