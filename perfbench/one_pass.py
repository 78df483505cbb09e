"""One pass of a workload in a fresh interpreter.

Usage (from the root of a realforms checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/one_pass.py --workload W --seed N --trace 0|1 --expected FILE

Runs the workload's jobs once, in the order the seed gives, as one client
that starts each job when the previous one has returned.  Prints one JSON
object: wall and CPU seconds of the jobs, peak resident memory, the outcome
of every job, the environment fingerprint and, when traced, the layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import realforms.cli  # imports every layer, so that tracing can wrap them

from speed import SpeedProbe
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, jobs_for, ordered

# (qualified name, has .calls, has .s); qualified names are layer.attribute
SPANS = [
    ("lie.certify_jacobi", True, True),
    ("lie.killing_form", True, True),
    ("lie.sub_lie_algebra", False, True),
    ("triality.triality", True, True),
    ("constructions.magic_square", True, True),
    ("constructions.derivation_model", False, True),
    ("constructions.rho_images", False, True),
    ("constructions.check_rho_homomorphism", False, True),
    ("linalg.Echelon.add", True, True),
    ("linalg.nullspace", False, True),
    ("linalg.mat_mul", True, True),
    ("linalg.sylvester_signature", False, True),
    ("rootspace.root_decomposition", True, True),
    ("rootspace.eigen_split", True, False),
    ("rootspace.minimal_polynomial", False, True),
    ("rootspace.exact_eigenvalues", False, True),
    ("rootspace.poly_eval", True, False),
    ("rootspace.adapted_simple_system", False, True),
    ("rootspace.verify_cartan_decomposition", False, True),
    ("satake.build_satake", False, True),
    ("satake.build_restricted_table", False, True),
    ("algebras.symmetric_composition", False, True),
    ("algebras.albert", False, True),
    ("pipeline.build_model", True, True),
    ("pipeline.run_satake", False, True),
    ("pipeline.cartan_decomposition_report", False, True),
    ("cli.main", False, True),
]

MICROBENCH_OPERANDS = 2000
MICROBENCH_REPEATS = 5


def fingerprint() -> Dict[str, object]:
    import numpy
    from realforms.scalars import Rat

    return {
        "python": sys.version.split()[0],
        "rat_backend": f"{Rat.__module__}.{Rat.__name__}",
        "numpy": numpy.__version__,
    }


class Counters:
    """Sizes read off results at layer boundaries, for the traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tri_algebras: set = set()
        self.nnz = 0
        self.eigenvalues = 0
        self.algebras: List[object] = []  # LieAlgebras built, for operands
        tracer.on_return("triality.triality", self._triality)
        tracer.on_return("constructions.magic_square", self._square)
        tracer.on_return("constructions.derivation_model", self._model)
        tracer.on_return("rootspace.exact_eigenvalues", self._eigen)

    def _triality(self, args, kwargs, result) -> None:
        comp = args[0] if args else kwargs.get("s")
        self.tri_algebras.add(getattr(comp, "name", id(comp)))

    def _square(self, args, kwargs, result) -> None:
        self.nnz += sum(len(v) for v in result.lie.brk.values())
        self.algebras.append(result.lie)

    def _model(self, args, kwargs, result) -> None:
        self.algebras.append(result.lie)

    def _eigen(self, args, kwargs, result) -> None:
        self.eigenvalues += len(result)


def layer_metrics(tracer: Tracer, counters: Counters) -> Dict[str, Optional[float]]:
    """Every per-layer metric; ``None`` marks a function absent here."""
    out: Dict[str, Optional[float]] = {}
    present = tracer.wrapped
    for qname, calls, secs in SPANS:
        if calls:
            out[f"{qname}.calls"] = tracer.calls[qname] if qname in present else None
        if secs:
            out[f"{qname}.s"] = tracer.inclusive[qname] if qname in present else None
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer]
        out[f"{layer}.errors"] = tracer.errors[layer]
    tri = "triality.triality"
    out["triality.recomputed"] = (
        tracer.calls[tri] - len(counters.tri_algebras) if tri in present else None
    )
    out["constructions.magic_square.nnz"] = (
        counters.nnz if "constructions.magic_square" in present else None
    )
    if "rootspace.exact_eigenvalues" in present and "rootspace.poly_eval" in present:
        tried = tracer.calls["rootspace.poly_eval"]
        out["rootspace.eigen_hit_ratio"] = counters.eigenvalues / tried if tried else 0.0
    else:
        out["rootspace.eigen_hit_ratio"] = None
    return out


def scalar_bench(algebras: List[object], seed: int) -> Dict[str, Optional[float]]:
    """Nanoseconds per Scalar operation on structure constants of the pass."""
    from realforms.scalars import ONE, Scalar

    values = [x for lie in algebras for v in lie.brk.values() for x in v.values()]
    rng = random.Random(seed)
    xs = [rng.choice(values or [ONE]) for _ in range(MICROBENCH_OPERANDS)]
    ys = [rng.choice(values or [ONE]) for _ in range(MICROBENCH_OPERANDS)]
    pairs = list(zip(xs, ys))

    def per_op(loop) -> float:
        times = []
        for _ in range(MICROBENCH_REPEATS):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / MICROBENCH_OPERANDS * 1e9

    def mul():
        for x, y in pairs:
            x * y

    def add():
        for x, y in pairs:
            x + y

    def truth():
        for x in xs:
            if x:
                pass

    def inverse():
        for x in xs:
            x.inverse()

    return {
        "scalars.mul_ns": per_op(mul),
        "scalars.add_ns": per_op(add),
        "scalars.bool_ns": per_op(truth),
        "scalars.inverse_ns": per_op(inverse) if hasattr(Scalar, "inverse") else None,
    }


def run_pass(workload: str, seed: int, trace: bool, oracle: dict) -> Dict[str, object]:
    jobs = ordered(jobs_for(workload, oracle), seed)
    tracer = counters = probe = None
    if trace:
        tracer = Tracer()
        counters = Counters(tracer)
        tracer.install()
    else:
        probe = SpeedProbe()
        probe.start()
    outcomes = []
    state: Dict[str, object] = {}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for job in jobs:
        job_start = time.perf_counter()
        outcome: Dict[str, object] = {"job": job.name, "ok": True}
        try:
            job.run(state)
        except Exception as exc:  # a failed job is counted, the pass goes on
            traceback.print_exc(file=sys.stderr)
            outcome.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        outcome["s"] = time.perf_counter() - job_start
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    speed = 1.0
    if probe is not None:
        probe.stop()
        wall -= probe.spent
        cpu -= probe.spent
        speed = probe.factor()
    result: Dict[str, object] = {
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": speed,
        "samples": len(probe.durations) if probe else 0,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "jobs": outcomes,
        "fingerprint": fingerprint(),
    }
    if tracer is not None:
        tracer.stop()
        # an untraced pass would differ by the wrappers' cost; estimate that
        # cost instead of timing a second pass, whose noise would swamp it
        overhead = tracer.call_cost() * sum(tracer.calls.values())
        result["layers"] = {
            **layer_metrics(tracer, counters),
            **scalar_bench(counters.algebras, seed),
            "trace_overhead_frac": overhead / (wall - overhead),
        }
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", required=True)
    args = ap.parse_args()
    src = os.path.abspath("src")
    if not os.path.abspath(realforms.cli.__file__).startswith(src + os.sep):
        print(f"realforms imported from {realforms.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.expected) as fh:
        oracle = json.load(fh)
    result = run_pass(args.workload, args.seed, bool(args.trace), oracle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
