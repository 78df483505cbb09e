"""realforms benchmark: one run of one workload.

Run from the root of a realforms checkout:

    python3 perfbench/run.py --workload signatures|satake|okubo \
        --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter with ``src`` on
PYTHONPATH and ``REALFORMS_THREADS`` unset, one pass at a time.  Untraced
runs repeat passes while the next one is expected to end within ``--seconds``
(at least one pass) and report the end-to-end metrics of BENCHMARK.json.
Traced runs make one traced pass and report the per-layer metrics.  Every
job is checked against ``perfbench/expected.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run's full
record, with the environment fingerprint, is also written under
``.perfbench/results/<workload>/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # a run must end well within three minutes
SETUP_PROBE = "import realforms.cli, time; print(time.monotonic())"


class RunError(Exception):
    """The run cannot produce a result."""


class Runner:
    def __init__(self, root: str, expected: str) -> None:
        self.root = root
        self.expected = expected
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.threads_setting = self.env.pop("REALFORMS_THREADS", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def _run(self, argv: List[str]) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError("out of time before the run could finish")
        with subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        ) as proc:
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RunError(f"timed out: {' '.join(argv)}") from None
        if proc.returncode != 0:
            raise RunError(f"exit code {proc.returncode}: {' '.join(argv)}")
        return out

    def setup_sample(self) -> float:
        """Seconds from spawning a fresh interpreter to realforms.cli imported."""
        start = time.monotonic()
        out = self._run([sys.executable, "-c", SETUP_PROBE])
        return float(out.strip().splitlines()[-1]) - start

    def one_pass(self, workload: str, seed: int, trace: bool) -> Dict[str, object]:
        out = self._run([
            sys.executable, os.path.join(HERE, "one_pass.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--expected", self.expected,
        ])
        return json.loads(out.strip().splitlines()[-1])


def measure(runner: Runner, workload: str, seed: int, seconds: int, trace: bool):
    """(passes, setup samples, metric values) of one run."""
    passes = []
    if trace:
        passes.append(runner.one_pass(workload, seed, trace=True))
        return passes, [], dict(passes[0]["layers"])
    setup = [runner.setup_sample() for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    while True:
        passes.append(runner.one_pass(workload, seed, trace=False))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1]["wall_s"] > seconds:
            break
    values = {
        "wall_at_ref_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "cpu_at_ref_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    return passes, setup, values


def main() -> int:
    ap = argparse.ArgumentParser(description="realforms benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                    help="oracle file (the self-test passes a corrupted copy)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "realforms", "cli.py")):
        print("no realforms source under ./src: run from a checkout root", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src", "realforms"), quiet=1)
    runner = Runner(root, os.path.abspath(args.expected))
    try:
        passes, setup, values = measure(
            runner, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    fingerprint = dict(passes[0]["fingerprint"])
    fingerprint["nproc"] = len(os.sched_getaffinity(0))
    fingerprint["REALFORMS_THREADS"] = runner.threads_setting or "unset"

    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for j in failed:
        print(f"FAILED {j['job']}: {j['error']}")
    print(f"fail_frac {len(failed) / len(jobs):.4f} ({len(failed)} of {len(jobs)} jobs)")
    absent = [name for name, m in metrics.items() if m["value"] is None]
    if absent:
        print("absent " + " ".join(absent))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        for p in passes:
            print(f"pass wall_s {p['wall_s']:.4f} cpu_s {p['cpu_s']:.4f} "
                  f"speed {p['speed']:.4f} ({p['samples']} samples)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint, "setup_samples": setup,
        "passes": passes, "metrics": metrics,
    }
    out_dir = os.path.join(root, ".perfbench", "results", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    name = f"{time.time_ns()}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
