"""Benchmark of latticebv through its public functions.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all  [--seed N --seconds S --trace 0|1]

Run from the repository root.  One workload runs in this interpreter; ``all``
runs each workload in a fresh interpreter, one after the other.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics: the same untraced rounds, then
the layer probes, then one round with the package's entry points wrapped in
spans (see spans.py); the spans are written to ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("reduce", "star-massless", "weyl-symbolic", "cohomology")

# setup is timed in this many fresh interpreters; the median is reported
SETUP_SAMPLES = 21
# percentiles need samples: keep adding whole rounds until this many
# operations ran, unless the run already took four times its length
MIN_OPS = 100

_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import latticebv
imported = time.perf_counter()
import workloads
begin = time.perf_counter()
workloads.WORKLOADS[{name!r}].build()
print(imported - start + time.perf_counter() - begin)
"""


# stands for the output of an operation that raised
FAILED = object()


def setup_seconds(name: str) -> float:
    """Median time to import latticebv and build the workload's objects."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_round(workload, inputs, errors: Counter):
    """One round on fresh objects: wall time, latencies and outputs."""
    start = time.perf_counter()
    objs = workload.build()
    latencies, outputs = [], []
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            out = workload.op(objs, inp)
        except Exception as exc:  # an operation that raises counts as failed
            errors[f"{type(exc).__name__}: {exc}"] += 1
            outputs.append(FAILED)
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs


def check_outputs(workload, inputs, outputs) -> bool:
    """Independent checks of every output of one round."""
    import verify

    correct = True
    for inp, out in zip(inputs, outputs):
        if out is FAILED:
            continue
        try:
            workload.check(inp, out)
        except verify.CheckFailed as exc:
            print(f"check failed on {inp}: {exc}", file=sys.stderr)
            correct = False
    return correct


class Measurement:
    """Whole rounds of one workload for at least the given number of seconds."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.errors: Counter = Counter()
        self.attempted = 0
        self.reference = None
        self.correct = True

    def add_round(self):
        wall, latencies, outputs = run_round(self.workload, self.inputs, self.errors)
        self.attempted += len(self.inputs)
        if self.reference is None:
            self.correct = check_outputs(self.workload, self.inputs, outputs)
            self.reference = outputs
        elif outputs != self.reference:
            print("a round gave other outputs than the first", file=sys.stderr)
            self.correct = False
        return wall, latencies

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            wall, latencies = self.add_round()
            self.walls.append(wall)
            self.latencies.extend(latencies)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (self.attempted >= MIN_OPS or elapsed >= 4 * seconds):
                break

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def report_errors(self) -> None:
        for message, count in self.errors.most_common():
            print(f"failed x{count}: {message}", file=sys.stderr)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(name)
    import workloads

    workload = workloads.WORKLOADS[name]
    measurement = Measurement(workload, workload.inputs(seed))
    measurement.run(seconds)
    measurement.report_errors()
    latencies = measurement.latencies or [0.0]
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            "setup_s": _metric(setup, "s"),
            "wall_s": _metric(statistics.median(measurement.walls), "s"),
            "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": _metric(deciles[8] * 1e3, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


# spans whose calls are counted, layers and spans whose self time is reported
_CALLS = (
    "scalars.mul", "scalars.add", "cochains.mul", "complexes.d_quantum",
    "reduction.normal_form", "reduction.rewrite_step", "operad.factorization_product",
    "weyl.star", "weyl.canonical_form", "weyl.to_weyl", "oracle.cohomology_oracle",
    "oracle.matrix_rank", "oracle.d_quantum_reference", "parser.parse_cochain",
)
_LAYER_SELF = ("scalars", "cochains", "complexes", "reduction", "operad", "weyl", "parser")
_SPAN_SELF = ("cochains.render", "oracle.matrix_rank", "oracle.d_quantum_reference")


def per_layer(name: str, seed: int, seconds: float) -> dict:
    import probes
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    measurement = Measurement(workload, workload.inputs(seed))
    measurement.run(seconds)
    untraced_wall = statistics.median(measurement.walls)
    metrics = {p.name: _metric(probes.measure(p), p.unit) for p in probes.PROBES}

    tracer = Tracer(callers=(workloads, probes))
    with tracer:
        traced_wall, _ = measurement.add_round()
    measurement.report_errors()
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{name}-seed{seed}.json")

    layer_self = tracer.layer_self_s()
    for span in _CALLS:
        metrics[f"{span}.calls"] = _metric(tracer.calls[span], "count")
    rewrites = tracer.calls["reduction.rewrite_step"]
    metrics["reduction.rewrite_step.distinct"] = _metric(len(tracer.rewrite_keys), "count")
    metrics["reduction.rewrite_step.distinct_ratio"] = _metric(
        len(tracer.rewrite_keys) / rewrites if rewrites else 0.0, "ratio"
    )
    metrics["oracle.basis_monomials"] = _metric(tracer.basis_monomials, "count")
    for layer in _LAYER_SELF:
        metrics[f"{layer}.self_s"] = _metric(layer_self.get(layer, 0.0), "s")
    for span in _SPAN_SELF:
        metrics[f"{span}.self_s"] = _metric(tracer.self_s[span], "s")
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one summary line at the end.

    A workload whose interpreter fails or runs past its time limit is
    reported as failed, the others still run, and the exit code is 1.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    # a run measures at most 4 x seconds (see Measurement.run), a traced run
    # as much again in its probes and traced round, plus setup and checks
    timeout = 10 * args.seconds + 120
    broken = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"workload {name} ran past {timeout:g} s", file=sys.stderr)
            broken.append(name)
            continue
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            broken.append(name)
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
            summary["metrics"][f"{name}.{metric}"] = entry
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    if broken:
        print(f"failed workloads: {', '.join(broken)}")
        summary["correct"] = False
    print(json.dumps(summary))
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticebv" / "__init__.py").is_file():
        print(f"error: no latticebv sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    measure = per_layer if args.trace else end_to_end
    print(json.dumps(measure(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
