"""Show that each independent check accepts real outputs and rejects corrupted ones.

    python3 benchmark/selftest.py

Runs a few operations of each workload, checks their outputs, then checks
copies with one normal-form coefficient perturbed, one Weyl coefficient
changed, one dimension off by one (and a few more corruptions).  Also
checks that the tracer of the per-layer run records spans in every layer.
Exits 0 when every real output passes, every corrupted one is rejected and
every layer is traced.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import verify  # noqa: E402
import workloads  # noqa: E402
from spans import ENTRY_POINTS, Tracer  # noqa: E402


def _monomial_text(fields) -> str:
    return "*".join(f"delta[{s}]^{e}" for s, e in fields) or "1"


def _cases():
    """(description, workload, input, output, should_pass) for each case."""
    reduce = workloads.WORKLOADS["reduce"]
    objs = reduce.build()
    outputs = [(inp, reduce.op(objs, inp)) for inp in reduce.inputs(1)[:8]]
    # inputs already inside the window have a zero homotopy; skip those
    for inp, out in [(i, o) for i, o in outputs if o["homotopy"] != "0"][:3]:
        yield "reduce: real certificate", reduce, inp, out, True
        nf = verify.evaluate(out["normal_form"], *inp["points"][0])
        fields, _ = next(iter(nf), (((0, 1),), ()))
        yield (
            "reduce: one normal-form coefficient perturbed by 1/7",
            reduce, inp, {**out, "normal_form": f"{out['normal_form']} + 1/7*{_monomial_text(fields)}"}, False,
        )
        yield "reduce: homotopy set to zero", reduce, inp, {**out, "homotopy": "0"}, False
        yield (
            "reduce: normal form with a term outside the window",
            reduce, inp, {**out, "normal_form": f"{out['normal_form']} + delta[2]"}, False,
        )

    for name in ("star-massless", "weyl-symbolic"):
        workload = workloads.WORKLOADS[name]
        objs = workload.build()
        for inp in workload.inputs(1)[:3]:
            out = workload.op(objs, inp)
            yield f"{name}: real Weyl form", workload, inp, out, True
            key = next(iter(out))
            terms, alpha_free = out[key]
            changed = dict(terms)
            first = next(iter(changed))
            changed[first] += 1
            yield f"{name}: one Weyl coefficient changed by 1", workload, inp, {**out, key: (changed, alpha_free)}, False
            yield f"{name}: a coefficient depends on alpha", workload, inp, {**out, key: (terms, False)}, False

    cohomology = workloads.WORKLOADS["cohomology"]
    oracle_inp = {"kind": "oracle", "interval": "-1,3", "maxdeg": 2, "alpha": 2}
    out = cohomology.op({}, oracle_inp)
    yield "cohomology: real dimensions", cohomology, oracle_inp, out, True
    dims = out["dims"]
    yield "cohomology: dim H^0 off by one", cohomology, oracle_inp, {"dims": {**dims, 0: dims[0] + 1}}, False
    yield "cohomology: dim H^-1 off by one", cohomology, oracle_inp, {"dims": {**dims, -1: dims.get(-1, 0) + 1}}, False
    inclusion = {"kind": "inclusion", "inner": "0,3", "outer": "-1,4", "maxdeg": 2, "alpha": 1}
    out = cohomology.op({}, inclusion)
    yield "cohomology: real inclusion", cohomology, inclusion, out, True
    yield "cohomology: inclusion reported as no iso", cohomology, inclusion, {"iso": False}, False


def _traced_layers() -> set[str]:
    """Layers with at least one span after a few small calls into each.

    The imports are local so that they pick up the wrapped entry points.
    """
    with Tracer() as tracer:
        from latticebv.complexes import ModelParams, d_quantum
        from latticebv.operad import Interval
        from latticebv.oracle import TruncationSpec, cohomology_oracle
        from latticebv.parser import parse_cochain
        from latticebv.reduction import Window, normal_form
        from latticebv.weyl import StarAlgebra

        params = ModelParams.massless()
        cert = normal_form(parse_cochain("delta[2] - delta[-1]"), Interval(-3, 3), Window(0), params)
        str(d_quantum(cert.homotopy, params))
        algebra = StarAlgebra(params, "massless35")
        algebra.to_weyl(algebra.star(algebra.p_class, algebra.q_class))
        cohomology_oracle(TruncationSpec(Interval(0, 4), 1, Fraction(1), Fraction(1)))
    return set(tracer.layer_self_s())


def main() -> int:
    ok = True
    for description, workload, inp, out, should_pass in _cases():
        try:
            workload.check(inp, out)
            passed = True
        except verify.CheckFailed:
            passed = False
        good = passed == should_pass
        ok = ok and good
        verdict = "accepted" if passed else "rejected"
        print(f"{'ok ' if good else 'BAD'} {verdict:8s} {description}")
    # the evaluator itself: d_h squares to zero on a mixed cochain
    point = (Fraction(3, 7), Fraction(-5, 2))
    c = verify.evaluate("3*bdelta[0]*bdelta[2]*delta[1]^2 - alpha*bdelta[1]*delta[1]*delta[4]", *point)
    squared = verify.d_h_at(verify.d_h_at(c, *point), *point)
    print(f"{'ok ' if not squared else 'BAD'} d_h(d_h(c)) = 0 in the independent evaluator")
    ok = ok and not squared
    missing = {m.__name__.rsplit(".", 1)[-1] for m in ENTRY_POINTS} - _traced_layers()
    print(f"{'ok ' if not missing else 'BAD'} the tracer records spans in every layer {sorted(missing) or ''}")
    ok = ok and not missing
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
