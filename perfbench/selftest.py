"""Self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py      # from the root of a realforms checkout

Runs the ``quick`` workload (one ``realforms lie f4m20`` job) through
``run.py`` and checks that

1. untraced and traced runs print every metric of BENCHMARK.json, by name
   and with its unit, in a last line with exactly the agreed keys;
2. a corrupted oracle makes the job fail (fail_frac > 0, correct false);
3. in a directory holding only BENCHMARK.json and perfbench/, ``run.py``
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
RUN = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "quick",
       "--seed", "1", "--seconds", "1"]


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def run(extra, cwd=ROOT):
    proc = subprocess.run(RUN + extra, cwd=cwd, capture_output=True, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines) -> dict:
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = run(["--trace", str(trace)])
        check(code == 0, f"trace {trace} run exits 0 ({err.strip()[-300:]})")
        res = result_of(lines)
        want = {m["name"]: m["unit"] for m in bench[kind]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        check(got == want, f"trace {trace} emits every {kind} metric with its unit")
        check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
              f"trace {trace} metric values are numbers")
        check(all(f"{name} " in "\n".join(lines[:-1]) for name in want),
              f"trace {trace} prints every metric by name")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"trace {trace} outputs match the oracle")

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "expected.json")) as fh:
        oracle = json.load(fh)
    cell = next(c for c in oracle["signature_cells"] if c["form"] == "f4(-20)")
    cell["negative"] += 1
    corrupt = os.path.join(SCRATCH, "corrupt.json")
    with open(corrupt, "w") as fh:
        json.dump(oracle, fh)
    code, lines, _ = run(["--trace", "0", "--expected", corrupt])
    res = result_of(lines)
    check(code == 0 and res["failed"] > 0 and not res["correct"],
          "a corrupted expected value gives fail_frac > 0")
    check(any(line.startswith("fail_frac ") and not line.startswith("fail_frac 0.0000")
              for line in lines), "fail_frac line reports the failure")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(["--trace", "0"], cwd=bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the realforms source run.py fails and prints no result")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
