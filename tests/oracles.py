"""Test oracles that no package code calls: the Killing signature of a
table, Killing invariance over the ad table, derivation algebras of
structure-constant tables, and the node orders matching two Cartan
matrices by a scan of every permutation.  They stay outside the package so that each
oracle is independent of the certificate it checks."""

from itertools import permutations
from typing import Dict, List, Tuple

from realforms.errors import VerificationError
from realforms.lie import LieAlgebra, _independent_solver, killing_form, lie_from_fn
from realforms.linalg import (
    SparseMatrix,
    SparseVec,
    add_product,
    commutator,
    flatten,
    matrix_rows,
    nullspace,
    sylvester_signature,
)
from realforms.scalars import ZERO


def killing_signature(L: LieAlgebra) -> Tuple[int, int, int]:
    return sylvester_signature(killing_form(L))


def check_killing_invariance(L: LieAlgebra) -> Dict[str, object]:
    """k([x,y], z) + k(y, [x,z]) = 0 on all basis triples.

    Equivalent to K ad(b_i) being antisymmetric for every i; row j of
    m = ad(b_i)^T K holds k([b_i, b_j], b_k).
    """
    n = L.dim
    k_rows = killing_form(L)
    ad = L.ad
    for i in range(n):
        m: List[SparseVec] = [{} for _ in range(n)]
        add_product(m, [ad[i].get(j, {}) for j in range(n)], k_rows)
        for j, row in enumerate(m):
            for k, x in row.items():
                if x + m[k].get(j, ZERO):
                    j0, k0 = min(j, k), max(j, k)
                    raise VerificationError(
                        f"{L.name}: Killing invariance fails on "
                        f"({L.labels[i]}, {L.labels[j0]}, {L.labels[k0]})",
                        witness=(i, j0, k0),
                    )
    return {"method": "sparse", "triples": n * n * n}


# ---------------------------------------------------------------------------
# derivation algebras of structure-constant tables


def derivation_rows(table) -> List[SparseVec]:
    """Linear conditions on D (row-major n x n unknowns) for
    D(b_i b_j) = D(b_i) b_j + b_i D(b_j)."""
    n = table.dim
    sc_ = table.sc
    commutative = all(
        sc_[i][j] == sc_[j][i] for i in range(n) for j in range(i + 1, n)
    )
    pairs = (
        [(i, j) for i in range(n) for j in range(i, n)]
        if commutative
        else [(i, j) for i in range(n) for j in range(n)]
    )
    rows: List[SparseVec] = []
    for i, j in pairs:
        prod = sc_[i][j]
        for p in range(n):
            row: SparseVec = {p * n + q: v for q, v in prod.items()}
            for r in range(n):
                for k, v in ((r * n + i, sc_[r][j].get(p)), (r * n + j, sc_[i][r].get(p))):
                    if v:
                        row[k] = row.get(k, ZERO) - v
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def derivations(table) -> List[SparseMatrix]:
    """Basis of the derivation algebra, as sparse-row matrices acting on
    coordinates."""
    n = table.dim
    return [matrix_rows(vec, n) for vec in nullspace(derivation_rows(table), n * n)]


def derivation_lie_algebra(name: str, mats: List[SparseMatrix]) -> LieAlgebra:
    """Close a list of matrices under commutator brackets (must span one)."""
    solver = _independent_solver(name, "derivation basis", (flatten(m) for m in mats))

    def comm(i: int, j: int) -> SparseVec:
        coords = solver.coords_sparse(flatten(commutator(mats[i], mats[j])))
        if coords is None:
            raise VerificationError(
                f"{name}: commutator escapes the span", witness={"pair": [i, j]}
            )
        return coords

    labels = [f"D{k}" for k in range(len(mats))]
    return lie_from_fn(name, labels, comm)


# ---------------------------------------------------------------------------
# Cartan matrices


def matrices_match_by_permutations(
    a: List[List[int]], b: List[List[int]]
) -> List[Tuple[int, ...]]:
    """Every permutation `order` with a[order[i]][order[j]] == b[i][j], in
    lexicographic order: all k! orders of the nodes are tried."""
    idx = range(len(a))
    return [
        order
        for order in permutations(idx)
        if all(a[order[i]][order[j]] == b[i][j] for i in idx for j in idx)
    ]
