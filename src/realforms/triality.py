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
from typing import Dict, List, Tuple

from .algebras import AlgebraTable
from .errors import ConstructionError, VerificationError
from .linalg import (
    SparseMatrix,
    SparseVec,
    SpanSolver,
    add_product,
    apply,
    combine,
    commutator,
    flatten,
    matrix_rows,
    nullspace,
    transpose,
)
from .lie import LieAlgebra, lie_from_fn
from .scalars import HALF, ONE, ZERO

Triple = Tuple[SparseMatrix, SparseMatrix, SparseMatrix]


def orthogonal_lie(s: AlgebraTable) -> List[SparseMatrix]:
    """Basis of {D : D^t Q + Q D = 0} for the polar form Q of s, as sparse rows."""
    n = s.dim
    q = s.form
    rows: List[SparseVec] = []
    for i in range(n):
        for j in range(i, n):
            # entry (i, j) of D^t Q + Q D: sum_p D[p][i] Q[p][j] + Q[i][p] D[p][j],
            # with D[p][c] the unknown p n + c and Q[p][j] = Q[j][p]
            row: SparseVec = {p * n + i: x for p, x in q[j].items()}
            for p, x in q[i].items():
                k = p * n + j
                row[k] = row.get(k, ZERO) + x
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return [matrix_rows(vec, n) for vec in nullspace(rows, n * n)]


@dataclass(eq=False)
class TrialityAlgebra:
    comp: AlgebraTable
    basis: List[Triple]
    lie: LieAlgebra
    solver: SpanSolver
    theta_rows: SparseMatrix  # row k: coordinates of theta(b_k)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of_triple(self, t: Triple) -> SparseVec:
        c = self.solver.coords_sparse(flatten(*t))
        if c is None:
            raise VerificationError(
                f"tri({self.comp.name}): triple is not a triality element"
            )
        return c

    def component_maps(self, coords: SparseVec) -> Triple:
        n = self.comp.dim
        return tuple(  # type: ignore[return-value]
            [combine((c, self.basis[k][slot][p]) for k, c in coords.items()) for p in range(n)]
            for slot in range(3)
        )

    def sigma_map(self, x: SparseVec, y: SparseVec) -> SparseMatrix:
        """s_{x,y}: z -> q(x,z) y - q(y,z) x."""
        polar = self.comp.polar
        return transpose(
            [
                combine([(polar(x, {j: ONE}), y), (-polar(y, {j: ONE}), x)])
                for j in range(self.comp.dim)
            ]
        )

    def t_element(self, x: SparseVec, y: SparseVec) -> SparseVec:
        """Coordinates of t_{x,y} in the solved tri basis."""
        comp = self.comp
        half_q = comp.polar(x, y) * HALF

        def shifted(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
            # half_q I - a b
            acc: SparseMatrix = [{p: half_q} if half_q else {} for p in range(comp.dim)]
            add_product(acc, a, b, -ONE)
            return acc

        d1 = shifted(comp.rmul_matrix(x), comp.lmul_matrix(y))
        d2 = shifted(comp.lmul_matrix(x), comp.rmul_matrix(y))
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
    bcols = [transpose(m) for m in orth]  # bcols[k][i] = B_k e_i
    rows: List[SparseVec] = []
    for i in range(n):
        for j in range(n):
            prod = s.sc[i][j]
            # row p: the coefficient of e_p in each unknown's contribution
            by_p: List[SparseVec] = [{} for _ in range(n)]
            for k in range(no):
                cols = bcols[k]
                # d0 term: B_k applied to (e_i * e_j)
                for p, x in apply(orth[k], prod).items():
                    by_p[p][k] = x
                # d1 term: -(B_k e_i) * e_j
                for p, x in s.mul(cols[i], {j: ONE}).items():
                    by_p[p][no + k] = -x
                # d2 term: -e_i * (B_k e_j)
                for p, x in s.mul({i: ONE}, cols[j]).items():
                    by_p[p][2 * no + k] = -x
            rows.extend(row for row in by_p if row)
    sols = nullspace(rows, 3 * no)

    def unflatten(coefs: SparseVec) -> Triple:
        return tuple(  # type: ignore[return-value]
            [
                combine((c, orth[k - slot * no][p]) for k, c in coefs.items() if k // no == slot)
                for p in range(n)
            ]
            for slot in range(3)
        )

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
