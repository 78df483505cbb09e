"""Batch front-end: build models, run verifications, emit diagrams and tables.

Every command is deterministic: identical inputs produce byte-identical
output (the one sampled check, the Jordan identity spot check, runs on a
fixed seed that is recorded in the emitted metadata).  Exit codes: 0
success, 2 verification failure, 3 construction error, 4 I/O problem.
Failures print a one-line JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from .algebras import (
    HURWITZ_NAMES,
    SYMMETRIC_NAMES,
    albert,
    check_composition,
    check_jordan_sampled,
    check_symmetric,
    hurwitz,
    symmetric_composition,
)
from .errors import ConstructionError, IOFormatError, RealformsError
from .lie import LieAlgebra
from .pipeline import (
    MODELS,
    Cell,
    build_cell,
    build_model,
    cartan_decomposition_report,
    model_key,
    run_satake,
    signature_table,
    table_rows,
)
from .rootspace import cov_sort_key, restricted_multiplicities
from .scalars import Scalar

_CONFIG_KEYS = ("model", "s", "sp", "eps", "format", "out", "only")


def read_config(path: str) -> Dict[str, object]:
    """The options of a job file, keyed by their argparse names: key = value
    lines and '#' comments; eps is checked and written as 1,-1,1, and only
    is split at commas."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFormatError(f"cannot read config {path}: {exc}") from exc
    cfg: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IOFormatError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise IOFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "eps":
            cfg[key] = ",".join(map(str, _parse_eps(val)))
        elif key == "only":
            cfg[key] = [v.strip() for v in val.split(",") if v.strip()]
        else:
            cfg[key] = val
    return cfg


def _parse_eps(text: str) -> Tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or any(p not in ("1", "-1", "+1") for p in parts):
        raise ConstructionError(f"eps must be a triple of +-1, got {text!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _emit(text: str, out: Optional[str], filename: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = os.path.join(out, filename)
    try:
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFormatError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def _dump(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sparse_str(entries: Dict[int, Scalar]) -> Dict[str, str]:
    return {str(k): v.to_str() for k, v in sorted(entries.items())}


def _lie_json(L: LieAlgebra, extra: Dict[str, object]) -> Dict[str, object]:
    brackets = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = L.bracket_basis(i, j)
            if v:
                brackets[f"{i},{j}"] = _sparse_str(v)
    out: Dict[str, object] = {
        "name": L.name,
        "dim": L.dim,
        "labels": list(L.labels),
        "brackets": brackets,
    }
    out.update(extra)
    return out


def _certificates(sig: Tuple[int, int, int], jacobi: Dict[str, object]) -> Dict[str, object]:
    """The signature, Killing and Jacobi entries of a built Lie algebra."""
    return {
        "signature": sig[0] - sig[1],
        "killing": {"positive": sig[0], "negative": sig[1], "zero": sig[2]},
        "jacobi": jacobi,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args: argparse.Namespace) -> int:
    build = build_model(args.model)
    data = _lie_json(
        build.lie,
        {"model": args.model, **_certificates(build.signature, build.jacobi)},
    )
    _emit(_dump(data), args.out, f"{args.model}.lie.json")
    return 0


def cmd_algebra(args: argparse.Namespace) -> int:
    name = args.name
    checks: Dict[str, object] = {}
    if name in HURWITZ_NAMES:
        alg = hurwitz(name)
        checks["composition"] = check_composition(alg)
    elif name in SYMMETRIC_NAMES:
        alg = symmetric_composition(name)
        # check_symmetric runs the composition check; report its count once
        checks["symmetric"] = check_symmetric(alg)
        checks["composition"] = {"tuples": checks["symmetric"]["tuples"]}
    elif name.startswith("albert"):
        # albert, albert:pO, or albert:pO:1,-1,1
        parts = name.split(":")
        s = symmetric_composition(parts[1] if len(parts) > 1 else "pO")
        eps = _parse_eps(parts[2]) if len(parts) > 2 else (1, 1, 1)
        alb = albert(s, eps)
        alg = alb.table
        checks["jordan_sampled"] = check_jordan_sampled(alb)
    else:
        raise ConstructionError(
            f"unknown algebra {name!r}; known: "
            + ", ".join(HURWITZ_NAMES + SYMMETRIC_NAMES)
            + ", albert[:S[:eps]]"
        )
    table = {
        "name": alg.name,
        "dim": alg.dim,
        "labels": list(alg.labels),
        "products": {
            f"{i},{j}": _sparse_str(alg.sc[i][j])
            for i in range(alg.dim)
            for j in range(alg.dim)
            if alg.sc[i][j]
        },
        "checks": checks,
    }
    _emit(_dump(table), args.out, f"{name}.algebra.json")
    return 0


def cmd_lie(args: argparse.Namespace) -> int:
    build = build_model(args.model)
    data = {
        "model": args.model,
        "name": build.lie.name,
        "dim": build.lie.dim,
        "description": build.spec.description,
        **_certificates(build.signature, build.jacobi),
    }
    _emit(_dump(data), args.out, f"{args.model}.summary.json")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    eps = _parse_eps(args.eps)
    if args.tits:
        if args.sp != "R" or eps != (1, 1, 1):
            raise ConstructionError(
                "construct --tits takes only sp = R and eps = 1,1,1 "
                f"(got sp = {args.sp}, eps = {args.eps})"
            )
        cell, kind = Cell(args.s), f"tits({args.s})"
    else:
        cell, kind = Cell(args.s, args.sp, eps), f"magic({args.s},{args.sp},{args.eps})"
    obj, jacobi, _, sig = build_cell(cell, kind)
    L = obj.lie  # type: ignore[attr-defined]
    data = {
        "construction": kind,
        "name": L.name,
        "dim": L.dim,
        **_certificates(sig, jacobi),
    }
    _emit(_dump(data), args.out, "construct.json")
    return 0


def _model_key(name: Optional[str]) -> str:
    if name is None:
        raise ConstructionError("no model named (pass one or set it in --config)")
    return model_key(name)


def cmd_roots(args: argparse.Namespace) -> int:
    key = _model_key(args.model)
    if args.action == "verify-cartan-decomp":
        rep = cartan_decomposition_report(key)
        rep2 = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in rep.items()
        }
        _emit(_dump(rep2), args.out, f"{key}.cartan-decomp.json")
        return 0
    res = run_satake(key)
    datum, a_idx = res.datum, res.a_idx
    if args.action == "restricted":
        rmult = restricted_multiplicities(datum, a_idx)
        key_of = cov_sort_key(rmult)
        data = {
            "model": key,
            "a_indices": list(a_idx),
            "multiplicities": [
                {"restriction": [x.to_str() for x in r], "m": m}
                for r, m in sorted(rmult.items(), key=lambda kv: key_of(kv[0]))
            ],
            "mult_sum": sum(rmult.values()),
        }
        _emit(_dump(data), args.out, f"{key}.restricted.json")
        return 0
    # decompose
    spaces = []
    for s in datum.spaces:
        spaces.append(
            {
                "covector": [x.to_str() for x in s.covector],
                "dim": s.dim,
                "vectors": [_sparse_str(v) for v in s.basis],
            }
        )
    data = {
        "model": key,
        "cartan": res.preset_key,
        "a_indices": list(a_idx),
        "roots": len(datum.spaces),
        "zero_dim": datum.zero.dim,
        "spaces": spaces,
        "zero_vectors": [_sparse_str(v) for v in datum.zero.basis],
    }
    _emit(_dump(data), args.out, f"{key}.roots.json")
    return 0


def cmd_satake(args: argparse.Namespace) -> int:
    key = _model_key(args.model)
    res = run_satake(key)
    diagram, table = res.diagram, res.table
    if args.out is None:
        if args.format == "json":
            doc = {"diagram": diagram.to_json_dict(), "restricted": table.to_json_dict(),
                   "checks": res.checks}
            _emit(_dump(doc), None, "")
            return 0
        _emit(diagram.render(args.format), None, "")
        if args.format == "ascii":
            _emit(table.render_ascii(), None, "")
        return 0
    label = res.preset_key or key
    _emit(diagram.to_json(), args.out, f"{label}.satake.json")
    _emit(diagram.render_dot(), args.out, f"{label}.satake.dot")
    _emit(diagram.render_ascii(), args.out, f"{label}.satake.txt")
    _emit(_dump(table.to_json_dict()), args.out, f"{label}.restricted.json")
    _emit(table.render_ascii(), args.out, f"{label}.restricted.txt")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    only = args.only or None
    rows = table_rows(only=only)
    if args.json:
        _emit(_dump({"rows": rows}), args.out, "table.json")
        return 0
    lines = []
    for r in rows:
        head = f"{r['satake']:<5} {r['key']:<6}"
        arrows = ", ".join(f"{a}~{b}" for a, b in r["arrows"]) or "none"
        lines.append(
            f"{head} sigma={r['sigma_type']:<4} black={r['black_nodes']} "
            f"arrows=[{arrows}] mult_sum={r['mult_sum']}"
        )
        for row in r["rows"]:
            mem = "~".join(row["members"])
            lines.append(f"    {row['label']:<3} ({mem}): m={row['m']} m2={row['m2']}")
    _emit("\n".join(lines) + "\n", args.out, "table.txt")
    return 0


def cmd_signatures(args: argparse.Namespace) -> int:
    rows = signature_table()
    if args.json:
        _emit(_dump({"cells": rows}), args.out, "signatures.json")
        return 0
    lines = ["S     S'    eps        signature  form"]
    for r in rows:
        eps = ",".join(f"{e:+d}" for e in r["eps"])
        lines.append(
            f"{r['s']:<5} {r['sp']:<5} ({eps})  {r['signature']:>9}  {r['form']}"
        )
    _emit("\n".join(lines) + "\n", args.out, "signatures.txt")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, as README documents
    (argparse's own 2 is VerificationError's code here)."""

    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="realforms",
        description="exact structure constants and Satake data for the "
        "e6/f4 real forms",
    )
    top.add_argument("--config", help="key = value job file", default=None)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named model, emit full JSON")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("algebra", help="build a composition or Jordan algebra")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("lie", help="summary of a named model with certificates")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("construct", help="inline magic-square or Jordan model")
    p.add_argument("--s", default=None, help="first symmetric composition")
    p.add_argument(
        "--sp", default=None, help="second symmetric composition (default R)"
    )
    p.add_argument(
        "--eps", default=None, help="sign triple, e.g. 1,-1,1 (default 1,1,1)"
    )
    p.add_argument("--tits", action="store_true", help="derivation-extension model")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("roots", help="root decompositions and restrictions")
    p.add_argument(
        "action", choices=("decompose", "restricted", "verify-cartan-decomp")
    )
    p.add_argument("--model", default=None, help="model key (or set in --config)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("satake", help="Satake diagram and restricted table")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument(
        "--format", choices=("ascii", "dot", "json"), default=None,
        help="ascii (default), dot or json",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_satake)

    p = sub.add_parser("table", help="combined diagram/multiplicity table")
    p.add_argument("--json", action="store_true")
    p.add_argument("--only", action="append", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("signatures", help="the twelve Killing signatures")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_signatures)

    return top


_DEFAULTS = {"format": "ascii", "sp": "R", "eps": "1,1,1"}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill options the command line left unset from --config, then from
    _DEFAULTS: command line arguments win over config values."""
    cfg = read_config(args.config) if args.config else {}
    for source in (cfg, _DEFAULTS):
        for attr, val in source.items():
            if hasattr(args, attr) and getattr(args, attr) is None:
                setattr(args, attr, val)
    return args


def _jsonable(witness: object) -> object:
    """A failure witness as JSON: tuples become lists, Scalars strings."""
    if isinstance(witness, (list, tuple)):
        return [_jsonable(x) for x in witness]
    if isinstance(witness, Scalar):
        return witness.to_str()
    return witness


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        if args.command == "construct" and args.s is None:
            parser.error("construct needs --s (or s = ... in --config)")
        return args.func(args)
    except RealformsError as exc:
        sys.stderr.write(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": exc.exit_code,
                    "witness": _jsonable(getattr(exc, "witness", None)),
                },
                sort_keys=True,
            )
            + "\n"
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
