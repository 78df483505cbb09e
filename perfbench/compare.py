"""Compare two sets of benchmark results, e.g. a parent and a change.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory is a ``.perfbench/results`` tree written by ``run.py``.  For
every workload and end-to-end metric it prints the median and the quartile
spread (as a share of the median) of both sides, and the change of the
median against the bound in BENCHMARK.json.  It refuses to compare result
sets whose environment fingerprints differ: the Python version, the
rational backend (gmpy2 changes every arithmetic cost), numpy, the core
count and REALFORMS_THREADS.  Exit code 0: no regression beyond a bound;
1: some metric regressed; 2: the sets cannot be compared.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(root: str):
    """(fingerprints, {(workload, metric): [values]}) of untraced runs."""
    prints, values = set(), defaultdict(list)
    for path in sorted(glob.glob(os.path.join(root, "*", "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        prints.add(json.dumps(rec["fingerprint"], sort_keys=True))
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    return prints, values


def spread(vals) -> float:
    if len(vals) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base_prints, base = load(argv[1])
    new_prints, new = load(argv[2])
    if len(base_prints) != 1 or base_prints != new_prints:
        print("refusing to compare: environment fingerprints differ", file=sys.stderr)
        for p in sorted(base_prints | new_prints):
            print(f"  {'base' if p in base_prints else ''} {'new' if p in new_prints else ''} {p}",
                  file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':<11} {'metric':<12} {'base':>10} {'spread':>7} "
          f"{'new':>10} {'spread':>7} {'change':>7} {'bound':>6}")
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        for m in bench["end_to_end"]:
            key = (workload, m["name"])
            if not base[key] or not new[key]:
                continue
            b, n = statistics.median(base[key]), statistics.median(new[key])
            change = (n - b) / b if m["better"] == "lower" else (b - n) / b
            flag = "WORSE" if change > m["bound"] else ""
            worse |= bool(flag)
            print(f"{workload:<11} {m['name']:<12} {b:>10.4f} {spread(base[key]):>7.3f} "
                  f"{n:>10.4f} {spread(new[key]):>7.3f} {change:>+7.3f} {m['bound']:>6} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
