"""Lie algebras as exact structure-constant tables, with certificates.

Brackets are stored sparsely for i < j only.  Every certificate (Jacobi,
Killing form, Killing invariance) runs over these sparse tables in exact
Scalar arithmetic, so the same code serves rational constants and the
sqrt3 constants of the Okubo-built algebras, and nothing can overflow.
Each check is exhaustive over basis tuples and raises VerificationError
with the failing tuple as witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .errors import VerificationError
from .linalg import (
    SparseMatrix,
    SparseVec,
    SpanSolver,
    add_product,
    commutator,
    flatten,
    matrix_rows,
    nullspace,
    sylvester_signature,
    to_sparse,
)
from .scalars import ONE, ZERO, Scalar


@dataclass(eq=False)
class LieAlgebra:
    name: str
    labels: List[str]
    brk: Dict[Tuple[int, int], SparseVec]  # keys (i, j) with i < j

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        if i == j:
            return {}
        if i < j:
            return self.brk.get((i, j), {})
        v = self.brk.get((j, i), {})
        return {p: -x for p, x in v.items()}

    @cached_property
    def ad(self) -> List[Dict[int, SparseVec]]:
        """ad[i][p] = [b_i, b_p] for every nonzero bracket; ad[i] is ad(b_i)
        stored column by column.  Built once and shared: callers only read it."""
        ad: List[Dict[int, SparseVec]] = [{} for _ in range(self.dim)]
        for (i, j), v in self.brk.items():
            ad[i][j] = v
            ad[j][i] = {p: -x for p, x in v.items()}
        return ad

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        """[x, y] of sparse elements, as a zero-free sparse vector."""
        acc: Dict[int, Scalar] = {}
        ad = self.ad
        for i, xi in x.items():
            if ad[i]:
                _add_bracket(acc, {p: xi * c for p, c in y.items()}, ad[i])
        return {q: v for q, v in acc.items() if v}

    def basis_vec(self, i: int) -> SparseVec:
        return {i: ONE}


def lie_from_fn(
    name: str, labels: List[str], pair_fn: Callable[[int, int], SparseVec]
) -> LieAlgebra:
    """Assemble a table from a function giving [b_i, b_j] for i < j as a
    sparse vector; the table keeps a zero-free copy of each."""
    n = len(labels)
    brk: Dict[Tuple[int, int], SparseVec] = {}
    for i in range(n):
        for j in range(i + 1, n):
            s = {p: x for p, x in pair_fn(i, j).items() if x}
            if s:
                brk[(i, j)] = s
    return LieAlgebra(name, labels, brk)


# ---------------------------------------------------------------------------
# certificates


def _add_bracket(
    acc: Dict[int, Scalar], v: Optional[SparseVec], ad_x: Dict[int, SparseVec]
) -> None:
    """acc += [x, v] where ad_x is the ad table row of x."""
    if not v:
        return
    for p, c in v.items():
        col = ad_x.get(p)
        if col:
            for q, w in col.items():
                acc[q] = acc.get(q, ZERO) + c * w


def certify_jacobi(L: LieAlgebra) -> Dict[str, object]:
    """[b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]] = 0 on every
    basis triple i < j < k, exactly.  Raises with the triple as witness."""
    n = L.dim
    ad = L.ad
    for i in range(n):
        ad_i = ad[i]
        for j in range(i + 1, n):
            ad_j = ad[j]
            v_ij = ad_i.get(j)
            for k in range(j + 1, n):
                ad_k = ad[k]
                v_jk = ad_j.get(k)
                v_ki = ad_k.get(i)
                if not (v_ij or v_jk or v_ki):
                    continue
                acc: Dict[int, Scalar] = {}
                _add_bracket(acc, v_jk, ad_i)
                _add_bracket(acc, v_ki, ad_j)
                _add_bracket(acc, v_ij, ad_k)
                if any(acc.values()):
                    raise VerificationError(
                        f"{L.name}: Jacobi fails on "
                        f"({L.labels[i]}, {L.labels[j]}, {L.labels[k]})",
                        witness=(i, j, k),
                    )
    return {"method": "sparse", "triples": n * (n - 1) * (n - 2) // 6}


def killing_form(L: LieAlgebra) -> List[List[Scalar]]:
    """K[i][j] = trace(ad b_i ad b_j) = sum_{p,q} ad_i[p][q] ad_j[q][p], exact."""
    n = L.dim
    ad = L.ad
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ad_j = ad[j]
            acc = ZERO
            for q, col_i in ad[i].items():
                for p, val_i in col_i.items():
                    col_j = ad_j.get(p)
                    if col_j:
                        v = col_j.get(q)
                        if v:
                            acc = acc + val_i * v
            out[i][j] = acc
            out[j][i] = acc
    return out


def killing_signature(L: LieAlgebra) -> Tuple[int, int, int]:
    return sylvester_signature(killing_form(L))


def check_killing_invariance(L: LieAlgebra) -> Dict[str, object]:
    """k([x,y], z) + k(y, [x,z]) = 0 on all basis triples.

    Equivalent to K ad(b_i) being antisymmetric for every i; row j of
    m = ad(b_i)^T K holds k([b_i, b_j], b_k).
    """
    n = L.dim
    k_rows = [to_sparse(row) for row in killing_form(L)]
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
            row: SparseVec = {}
            for q, v in enumerate(prod):
                if v:
                    row[p * n + q] = v
            for r in range(n):
                for k, v in ((r * n + i, sc_[r][j][p]), (r * n + j, sc_[i][r][p])):
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
    solver = SpanSolver(flatten(m) for m in mats)
    if solver.rank != len(mats):
        raise VerificationError(f"{name}: derivation basis is dependent")

    def comm(i: int, j: int) -> SparseVec:
        coords = solver.coords_sparse(flatten(commutator(mats[i], mats[j])))
        if coords is None:
            raise VerificationError(f"{name}: commutator escapes the span")
        return coords

    labels = [f"D{k}" for k in range(len(mats))]
    return lie_from_fn(name, labels, comm)


def sub_lie_algebra(
    L: LieAlgebra, vectors: List[SparseVec], name: str, labels: Optional[List[str]] = None
) -> LieAlgebra:
    """The Lie algebra on a bracket-closed independent spanning list."""
    solver = SpanSolver(vectors)
    if solver.rank != len(vectors):
        raise VerificationError(f"{name}: spanning list is dependent")

    def fn(i: int, j: int) -> SparseVec:
        coords = solver.coords_sparse(L.bracket(vectors[i], vectors[j]))
        if coords is None:
            raise VerificationError(
                f"{name}: bracket of elements {i}, {j} leaves the span"
            )
        return coords

    if labels is None:
        labels = [f"x{k}" for k in range(len(vectors))]
    return lie_from_fn(name, labels, fn)
