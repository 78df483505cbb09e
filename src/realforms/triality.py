"""Orthogonal and triality Lie algebras of a symmetric composition algebra.

tri(S) consists of triples (d0, d1, d2) of skew transformations with
d0(x*y) = d1(x)*y + x*d2(y); it carries the order-3 rotation
theta(d0, d1, d2) = (d2, d0, d1) and is spanned by the maps

    t_{x,y} = (s_{x,y}, q(x,y)/2 - r_x l_y, q(x,y)/2 - l_x r_y),

with s_{x,y}(z) = q(x,z) y - q(y,z) x.  For an 8-dimensional S this is a
form of so(8); for the 2-dimensional paras it is a 2-dimensional abelian
algebra; for S = R it vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .algebras import AlgebraTable
from .errors import ConstructionError, VerificationError
from .linalg import (
    DenseVec,
    Matrix,
    SparseMatrix,
    SparseVec,
    SpanSolver,
    add_product,
    commutator,
    flatten,
    mat_mul,
    matrix_rows,
    nullspace,
    to_dense,
    to_sparse,
    vadd,
    vscale,
)
from .lie import LieAlgebra, lie_from_fn
from .scalars import HALF, ONE, ZERO, Scalar


def orthogonal_lie(s: AlgebraTable) -> List[SparseMatrix]:
    """Basis of {D : D^t Q + Q D = 0} for the polar form Q of s, as sparse rows."""
    n = s.dim
    q = s.form
    rows: List[SparseVec] = []
    for i in range(n):
        for j in range(i, n):
            row: SparseVec = {}
            for p in range(n):
                if q[p][j]:
                    k = p * n + i
                    row[k] = row.get(k, ZERO) + q[p][j]
                if q[i][p]:
                    k = p * n + j
                    row[k] = row.get(k, ZERO) + q[i][p]
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return [matrix_rows(vec, n) for vec in nullspace(rows, n * n)]


@dataclass(eq=False)
class TrialityAlgebra:
    comp: AlgebraTable
    basis: List[Tuple[SparseMatrix, SparseMatrix, SparseMatrix]]
    lie: LieAlgebra
    solver: SpanSolver
    theta_rows: SparseMatrix  # row k: coordinates of theta(b_k)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of_triple(self, t: Tuple[Matrix, Matrix, Matrix]) -> DenseVec:
        c = self.solver.coords_sparse(flatten(*([to_sparse(row) for row in m] for m in t)))
        if c is None:
            raise VerificationError(
                f"tri({self.comp.name}): triple is not a triality element"
            )
        return to_dense(c, self.dim)

    def component_maps(self, coords: SparseVec) -> Tuple[Matrix, Matrix, Matrix]:
        n = self.comp.dim
        out = [[[ZERO] * n for _ in range(n)] for _ in range(3)]
        for k, c in coords.items():
            for slot in range(3):
                for row, orow in zip(self.basis[k][slot], out[slot]):
                    for q, x in row.items():
                        orow[q] = orow[q] + c * x
        return tuple(out)  # type: ignore[return-value]

    def sigma_map(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Matrix:
        """s_{x,y}: z -> q(x,z) y - q(y,z) x."""
        n = self.comp.dim
        cols = []
        for j in range(n):
            ej = self.comp.basis_vec(j)
            cols.append(
                vadd(
                    vscale(self.comp.polar(x, ej), y),
                    vscale(-self.comp.polar(y, ej), x),
                )
            )
        return [[cols[j][p] for j in range(n)] for p in range(n)]

    def t_element(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> DenseVec:
        """Coordinates of t_{x,y} in the solved tri basis."""
        n = self.comp.dim
        half_q = self.comp.polar(x, y) * HALF
        lx = self.comp.lmul_matrix(x)
        ly = self.comp.lmul_matrix(y)
        rx = self.comp.rmul_matrix(x)
        d1 = [[-row[q] for q in range(n)] for row in mat_mul(rx, ly)]
        d2 = [[-row[q] for q in range(n)] for row in mat_mul(lx, self.comp.rmul_matrix(y))]
        if half_q:
            for p in range(n):
                d1[p][p] = d1[p][p] + half_q
                d2[p][p] = d2[p][p] + half_q
        return self.coords_of_triple((self.sigma_map(x, y), d1, d2))

    def theta(self, coords: SparseVec, power: int = 1) -> SparseVec:
        out = coords
        for _ in range(power % 3):
            acc: SparseMatrix = [{}]
            add_product(acc, [out], self.theta_rows)
            out = {q: x for q, x in acc[0].items() if x}
        return out


def triality(s: AlgebraTable) -> TrialityAlgebra:
    n = s.dim
    orth = orthogonal_lie(s)
    no = len(orth)
    # columns of each orthogonal basis matrix, as vectors
    bcols = [[[row.get(i, ZERO) for row in m] for i in range(n)] for m in orth]
    rows: List[SparseVec] = []
    for i in range(n):
        ei = s.basis_vec(i)
        for j in range(n):
            ej = s.basis_vec(j)
            prod = s.sc[i][j]
            terms = []  # unknown index -> contribution vector
            for k in range(no):
                # d0 term: B_k applied to (e_i * e_j)
                d0 = [sum((x * prod[q] for q, x in row.items()), ZERO) for row in orth[k]]
                terms.append((k, d0))
                # d1 term: -(B_k e_i) * e_j
                terms.append((no + k, vscale(-ONE, s.mul(bcols[k][i], ej))))
                # d2 term: -e_i * (B_k e_j)
                terms.append((2 * no + k, vscale(-ONE, s.mul(ei, bcols[k][j]))))
            for p in range(n):
                row = {idx: vec[p] for idx, vec in terms if vec[p]}
                if row:
                    rows.append(row)
    sols = nullspace(rows, 3 * no)

    def unflatten(coefs: DenseVec) -> Tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
        mats = []
        for slot in range(3):
            m: SparseMatrix = [{} for _ in range(n)]
            for k in range(no):
                c = coefs[slot * no + k]
                if not c:
                    continue
                for row_m, row in zip(m, orth[k]):
                    for q, x in row.items():
                        row_m[q] = row_m.get(q, ZERO) + c * x
            mats.append([{q: x for q, x in row.items() if x} for row in m])
        return tuple(mats)  # type: ignore[return-value]

    basis = [unflatten(c) for c in sols]
    solver = SpanSolver(flatten(*t) for t in basis)
    if solver.rank != len(basis):
        raise ConstructionError(f"tri({s.name}): dependent solution basis")

    def brk(i: int, j: int) -> SparseVec:
        c = solver.coords_sparse(flatten(*map(commutator, basis[i], basis[j])))
        if c is None:
            raise VerificationError(f"tri({s.name}): bracket escapes the span")
        return c

    lie = lie_from_fn(
        f"tri({s.name})", [f"t{k}" for k in range(len(basis))], brk
    )
    theta_rows = []
    for t in basis:
        c = solver.coords_sparse(flatten(t[2], t[0], t[1]))
        if c is None:
            raise VerificationError(f"tri({s.name}): theta leaves the span")
        theta_rows.append(c)
    return TrialityAlgebra(s, basis, lie, solver, theta_rows)


_TRI_CACHE: Dict[str, TrialityAlgebra] = {}


def triality_cached(comp: AlgebraTable) -> TrialityAlgebra:
    """tri(comp), computed once per algebra name for the process."""
    if comp.name not in _TRI_CACHE:
        _TRI_CACHE[comp.name] = triality(comp)
    return _TRI_CACHE[comp.name]
