"""The benchmark's span tracer must still find every entry point it wraps.

``benchmark/spans.py`` names the public functions, methods and properties
it times; deleting or moving one of them breaks the traced benchmark run.
Installing the tracer resolves every name, so this fails on the first
missing one (AttributeError or KeyError), and uninstalling restores the
package.
"""

import inspect
import sys
from pathlib import Path

from latticebv import scalars
from latticebv._sparse import TermMap
from latticebv.cochains import LatticeFunction
from latticebv.reduction import rewrite_step

BENCHMARK = str(Path(__file__).resolve().parents[1] / "benchmark")


def test_benchmark_entry_points_are_defined():
    sys.path.insert(0, BENCHMARK)
    try:
        import spans
    finally:
        sys.path.remove(BENCHMARK)
    add = scalars.Scalar.__dict__["__add__"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert scalars.Scalar.__dict__["__add__"] is not add
    finally:
        tracer.uninstall()
    assert scalars.Scalar.__dict__["__add__"] is add
    assert len(tracer.span_names) == sum(map(len, spans.ENTRY_POINTS.values()))


def test_rewrite_step_keeps_its_positional_signature():
    # the tracer counts distinct rewrite_step inputs keyed on its first five positional arguments
    parameters = inspect.signature(rewrite_step).parameters.values()
    assert [(p.name, p.kind) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("m", "site", "interval", "window", "params")
    ]


def test_tracer_restores_every_method_and_counts_inherited_ones_per_class():
    sys.path.insert(0, BENCHMARK)
    try:
        import spans
    finally:
        sys.path.remove(BENCHMARK)
    methods = {}
    for module, entries in spans.ENTRY_POINTS.items():
        for entry in entries:
            owner_name, _, attr = entry.partition("=")[0].rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                methods[owner, attr] = owner.__dict__[attr]
    base_add = TermMap.__dict__["__add__"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        LatticeFunction({0: 1}) + LatticeFunction({1: 2})
        assert TermMap.__dict__["__add__"] is base_add
    finally:
        tracer.uninstall()
    assert tracer.calls["cochains.lf_add"] == 1
    assert tracer.calls["cochains.add"] == 0 and tracer.calls["weyl.weyl_add"] == 0
    for (owner, attr), method in methods.items():
        assert owner.__dict__[attr] is method, f"{owner.__name__}.{attr}"
