#!/usr/bin/env python3
"""Recompute the twelve magic-square Killing signatures.

Each cell builds g_eps(S, S') from scratch, certifies Jacobi, and
diagonalizes the Killing form exactly, so this takes about a minute.
"""

import argparse
import json

from realforms.pipeline import signature_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    args = ap.parse_args()
    rows = signature_table()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    sp = "S'"
    print(f"{'S':<5} {sp:<5} {'eps':<10} {'form':<9} signature")
    for r in rows:
        eps = ",".join(f"{e:+d}" for e in r["eps"])
        print(
            f"{r['s']:<5} {r['sp']:<5} {eps:<10} {r['form']:<9} "
            f"{r['signature']:+d}  ({r['positive']}+, {r['negative']}-)"
        )


if __name__ == "__main__":
    main()
