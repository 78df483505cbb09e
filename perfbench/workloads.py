"""The jobs of each workload and the checks of their outputs.

A job is one batch request a user of realforms waits for.  Each check
compares the job's output with the hand-written oracle in ``expected.json``
and raises ``Mismatch`` on any difference.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

DIM = {"f4": 52, "e6": 78}


class Mismatch(Exception):
    """A job returned output that differs from the oracle."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Job:
    name: str
    run: Callable[[Dict[str, object]], None]  # takes the pass's shared state
    needs: Optional[str] = None


def _cli(argv: List[str]) -> dict:
    """Run one CLI command in-process and return its parsed JSON output."""
    from realforms import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise Mismatch(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _check_killing(data: dict, dim: int, positive: int, negative: int) -> None:
    _expect("dim", data["dim"], dim)
    _expect("killing", data["killing"], {"positive": positive, "negative": negative, "zero": 0})
    _expect("signature", data["signature"], positive - negative)
    if not data["jacobi"]:
        raise Mismatch("no Jacobi certificate")


def lie_job(oracle: dict, model: str) -> Job:
    """``realforms lie MODEL``: one signature-table cell through the pipeline."""
    where = oracle["model_cells"][model]
    cell = next(
        c for c in oracle["signature_cells"]
        if (c["s"], c["sp"], c["eps"]) == (where["s"], where["sp"], where["eps"])
    )

    def run(state):
        data = _cli(["lie", model])
        _check_killing(data, DIM[cell["form"][:2]], cell["positive"], cell["negative"])

    return Job(f"lie {model}", run)


def construct_job(oracle: dict, s_name: str) -> Job:
    """``realforms construct --s S --sp R``: an inline magic-square cell."""
    want = oracle["okubo_cells"][s_name]

    def run(state):
        data = _cli(["construct", "--s", s_name, "--sp", "R"])
        _check_killing(data, want["dim"], want["positive"], want["negative"])

    return Job(f"construct {s_name}", run)


def algebra_job(name: str, dim: int) -> Job:
    """``realforms algebra NAME`` for a symmetric composition algebra."""

    def run(state):
        data = _cli(["algebra", name])
        _expect("dim", data["dim"], dim)
        _expect("composition tuples", data["checks"]["composition"]["tuples"], dim**4)
        _expect("assoc triples", data["checks"]["symmetric"]["assoc_triples"], dim**3)

    return Job(f"algebra {name}", run)


def satake_jobs(oracle: dict, key: str) -> List[Job]:
    """The README library session for one model: build once, then the
    Satake pipeline and the Cartan decomposition report on that build."""
    want = oracle["satake"][key]

    def build(state):
        from realforms import pipeline

        b = pipeline.build_model(key)
        state[key] = b
        _expect("signature", b.signature[0] - b.signature[1], want["signature"])

    def satake(state):
        from realforms import pipeline

        res = pipeline.run_satake(key, build=state[key])
        _expect("preset", res.preset_key, want["label"])
        for name in ("sigma_type", "black_nodes", "mult_sum"):
            _expect(name, res.checks[name], want[name])
        _expect("arrows", [list(a) for a in res.checks["arrows"]], want["arrows"])
        rows = sorted((sorted(r.members), r.m, r.m2) for r in res.table.rows)
        _expect("restricted rows", rows,
                sorted((sorted(r["members"]), r["m"], r["m2"]) for r in want["rows"]))

    def cartan(state):
        from realforms import pipeline

        rep = pipeline.cartan_decomposition_report(key, build=state[key])
        dim_t, dim_p = want["dim_t"], want["dim_p"]
        _expect("dim_t", rep["dim_t"], dim_t)
        _expect("dim_p", rep["dim_p"], dim_p)
        _expect("killing on t", tuple(rep["killing_on_t"]), (0, dim_t, 0))
        _expect("killing on p", tuple(rep["killing_on_p"]), (dim_p, 0, 0))

    build_name = f"build_model {key}"
    return [
        Job(build_name, build),
        Job(f"run_satake {key}", satake, needs=build_name),
        Job(f"cartan_decomposition_report {key}", cartan, needs=build_name),
    ]


def jobs_for(workload: str, oracle: dict) -> List[Job]:
    """The fixed job list of one pass of ``workload``."""
    if workload == "signatures":
        return [lie_job(oracle, m) for m in ("f4m20", "f4p4", "e6m14", "e6p6")]
    if workload == "satake":
        # EIII session plus the EIV build (derivation model, which rebuilds
        # tri(pO)); the EIV session would take the pass past the time budget
        return satake_jobs(oracle, "e6m14") + satake_jobs(oracle, "e6m26")[:1]
    if workload == "okubo":
        return [construct_job(oracle, "Ok"), algebra_job("Oks", 8)]
    if workload == "quick":  # harness self-test only
        return [lie_job(oracle, "f4m20")]
    raise KeyError(workload)


WORKLOADS = ("signatures", "satake", "okubo", "quick")


def ordered(jobs: List[Job], seed: int) -> List[Job]:
    """Jobs shuffled by ``seed``, each kept after the job it needs."""
    pending = list(jobs)
    random.Random(seed).shuffle(pending)
    done: set = set()
    out: List[Job] = []
    while pending:
        job = next(j for j in pending if j.needs is None or j.needs in done)
        pending.remove(job)
        done.add(job.name)
        out.append(job)
    return out
