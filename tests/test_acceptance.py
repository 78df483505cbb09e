"""The acceptance gate.

One test per headline claim about the construction.  Every comparison is
exact; each test appends a pass/fail line that conftest echoes after the
pytest summary.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List

from conftest import ACCEPTANCE_LINES
from oracles import (
    albert_matrix_isomorphism,
    canonical_key,
    check_killing_invariance,
    cov_neg,
    derivations,
)
from test_pipeline import published_pair

from realforms.algebras import (
    albert,
    check_composition,
    check_jordan_sampled,
    check_symmetric,
    hurwitz,
    symmetric_composition,
)
from realforms.constructions import check_rho_homomorphism, rho_images
from realforms.lie import killing_form
from realforms.linalg import sylvester_signature
from realforms.pipeline import MODELS, signature_table
from realforms.rootspace import (
    cartan_integer,
    cov_sort_key,
    restricted_multiplicities,
)
from realforms.scalars import Scalar, sc
from realforms.triality import triality_cached

HURWITZ_NAMES = ("R", "RR", "C", "Mat2", "H", "O", "Os")
SYMMETRIC_NAMES = ("pR", "pRR", "pC", "pMat2", "pH", "pO", "pOs", "Ok", "Oks")
DIM8_SYMMETRIC = ("pO", "pOs", "Ok", "Oks")


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num}: FAIL - {text}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num}: PASS - {text}")


def cov(*xs):
    return tuple(sc(x) for x in xs)


def test_criterion_1_signatures():
    with criterion(1, "twelve magic-square Killing signatures"):
        rows = signature_table()
        got = {(r["s"], r["sp"], tuple(r["eps"])): r["signature"] for r in rows}
        assert got == {
            ("pO", "R", (1, 1, 1)): -52,
            ("pO", "pC", (1, 1, 1)): -78,
            ("pO", "pRR", (1, 1, 1)): -26,
            ("pOs", "R", (1, 1, 1)): 4,
            ("pOs", "pC", (1, 1, 1)): 2,
            ("pOs", "pRR", (1, 1, 1)): 6,
            ("pO", "R", (1, -1, 1)): -20,
            ("pO", "pC", (1, -1, 1)): -14,
            ("pO", "pRR", (1, -1, 1)): -26,
            ("pOs", "R", (1, -1, 1)): 4,
            ("pOs", "pC", (1, -1, 1)): 2,
            ("pOs", "pRR", (1, -1, 1)): 6,
        }
        assert all(r["positive"] + r["negative"] in (52, 78) for r in rows)


def test_criterion_2_eiv(get_satake):
    with criterion(2, "EIV: 72 roots, D4 compact part, A2 restricted, m=8"):
        res = get_satake("EIV")
        c = res.checks
        assert c["roots"] == 72
        assert (c["delta0_type"], c["delta0_roots"]) == ("D4", 24)
        assert c["black_nodes"] == 4
        assert c["arrows"] == []
        assert c["sigma_type"] == "A2"
        assert {r.label: r.m for r in res.table.rows} == {"a1": 8, "a6": 8}
        assert c["mult_sum"] == 48


def test_criterion_3_eiii(get_satake):
    with criterion(3, "EIII: A3 compact part, one arrow, BC2 with m=(8,1,6)"):
        res = get_satake("EIII")
        c = res.checks
        assert c["delta0_type"] == "A3"
        assert c["black_nodes"] == 3
        assert c["arrows"] == [("a1", "a6")]
        assert c["sigma_type"] == "BC2"
        rmult = restricted_multiplicities(res.datum, res.a_idx)
        assert rmult[cov(1, 1)] == 8
        assert rmult[cov(2, 2)] == 1
        assert rmult[cov(-2, 0)] == 6
        assert c["mult_sum"] == 60
        assert c["highest_root_coords"] == [1, 2, 2, 3, 2, 1]
        assert c["highest_root_restricted_mult"] == 1


def test_criterion_4_eii(get_satake, get_cartan_report):
    with criterion(4, "EII: no black nodes, two arrows, F4 with m=(2,1,2,1)"):
        res = get_satake("EII")
        c = res.checks
        assert c["black_nodes"] == 0
        assert len(c["arrows"]) == 2
        assert c["sigma_type"] == "F4"
        assert [r.m for r in res.table.rows] == [2, 1, 2, 1]
        assert c["mult_sum"] == 72
        report = get_cartan_report("e6p2")
        assert report["killing_on_t"] == (0, report["dim_t"], 0)
        assert report["killing_on_p"] == (report["dim_p"], 0, 0)
        assert (report["dim_t"], report["dim_p_outside_cartan"]) == (38, 36)


def test_criterion_5_rank_identities(get_satake):
    with criterion(5, "rank identity 6 = real rank + arrows + black"):
        seen = {}
        for name in ("EIV", "EIII", "EII"):
            c = get_satake(name).checks
            assert c["rank_identity"] is True
            seen[name] = (
                c["real_rank"],
                len(c["arrows"]),
                c["black_nodes"],
            )
        assert seen == {
            "EIV": (2, 0, 4),
            "EIII": (2, 1, 3),
            "EII": (4, 2, 0),
        }


def test_criterion_6_structural_certificates(get_build):
    with criterion(6, "Jacobi, composition, symmetric, Jordan, h3 isomorphism"):
        # Jacobi for every registry model (certified at build time)
        for key in MODELS:
            build = get_build(key)
            report = build.jacobi
            assert report.get("pairs") or report.get("triples")
        # composition law for the seven Hurwitz algebras
        for name in HURWITZ_NAMES:
            report = check_composition(hurwitz(name))
            assert report["tuples"] > 0
        # composition + symmetric law for the symmetric algebras
        for name in SYMMETRIC_NAMES:
            alg = symmetric_composition(name)
            check_composition(alg)
            check_symmetric(alg)
        assert all(symmetric_composition(n).dim == 8 for n in DIM8_SYMMETRIC)
        # Jordan identity, sampled, for each Albert table in use
        for s_name, eps in (("pO", (1, 1, 1)), ("pO", (1, -1, 1)), ("pOs", (1, 1, 1))):
            alb = albert(symmetric_composition(s_name), eps)
            report = check_jordan_sampled(alb)
            assert report["jordan_samples"] == 40
        # the hermitian 3x3 model matches the structure-constant table
        assert albert_matrix_isomorphism()["pairs"] == 27 * 28 // 2


def test_criterion_7_dimension_oracles(get_build):
    with criterion(7, "dim tri(pO)=28, tri(pC)=2 abelian, Der=52, rho bijective"):
        tri_po = triality_cached(symmetric_composition("pO"))
        assert tri_po.dim == 28
        tri_pc = triality_cached(symmetric_composition("pC"))
        assert tri_pc.dim == 2
        assert not tri_pc.lie.brk  # abelian
        alb = albert(symmetric_composition("pO"), (1, 1, 1))
        assert len(derivations(alb.table)) == 52
        square = get_build("f4m52").obj
        rho = rho_images(square, alb)
        assert len(rho) == 52
        # rho is injective and kills the unit; the Jacobi certificate of the
        # model it builds (6 generators, C(78, 3) - C(72, 3) triples) makes
        # it a homomorphism
        assert check_rho_homomorphism(rho, alb.table.unit).rank == 52
        model = get_build("e6m26")
        assert model.obj.rho == rho
        assert model.jacobi == {"generators": [0, 49, 20, 69, 40, 11], "triples": 16436}


def _unimodular(rng: random.Random, n: int) -> List[List[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(40):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
    if rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        u[a], u[b] = u[b], u[a]
    return u


def _congruence(
    u: List[List[int]], k_rows: List[Dict[int, Fraction]]
) -> List[Dict[int, Fraction]]:
    """u^T K u as sparse rows: row i sums the rows of K u weighted by column i of u."""
    n = len(u)
    ku = [[sum(x * u[q][j] for q, x in row.items()) for j in range(n)] for row in k_rows]
    out = []
    for i in range(n):
        acc = [Fraction(0)] * n
        for p in range(n):
            c = u[p][i]
            if c:
                acc = [x + c * y for x, y in zip(acc, ku[p])]
        out.append({j: x for j, x in enumerate(acc) if x})
    return out


def test_criterion_8_property_suites(get_build, get_satake):
    with criterion(8, "invariance, congruence, root strings, adapted basis"):
        # Killing invariance on all basis triples, every registry model
        for key in MODELS:
            report = check_killing_invariance(get_build(key).lie)
            assert report["triples"] == get_build(key).lie.dim ** 3
        # signature invariance under 20 random unimodular congruences
        build = get_build("f4m52")
        n = build.lie.dim
        k_rows = [{j: x.a for j, x in row.items() if x.a} for row in killing_form(build.lie)]
        rng = random.Random(20260814)
        for _ in range(20):
            k2 = _congruence(_unimodular(rng, n), k_rows)
            gram = [{j: Scalar(x) for j, x in row.items()} for row in k2]
            assert sylvester_signature(gram) == build.signature
        # root-string Cartan integers stay integral and small
        for name in ("EIV", "EIII", "EII"):
            res = get_satake(name)
            roots = res.datum.root_set()
            root_list = sorted(roots, key=cov_sort_key(roots))
            for alpha in res.simple:
                neg = cov_neg(alpha)
                for beta in root_list:
                    if beta in (alpha, neg):
                        continue
                    c = cartan_integer(beta, alpha, roots)
                    assert c in (-3, -2, -1, 0, 1, 2, 3)
            # the derived adapted basis reproduced the published diagram
            diagram, _ = published_pair(res.build, name)
            assert canonical_key(res.diagram) == canonical_key(diagram)
