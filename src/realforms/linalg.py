"""Exact linear algebra over Q(sqrt3, i).

Vectors are sparse dicts {index: Scalar} with zero entries absent:
composition and Jordan algebra elements and structure constants, Lie
algebra elements and nullspace vectors alike (`combine` forms their linear
combinations).  Every matrix that goes into a product, a commutator or a
span lookup is stored as a list of sparse rows from the point where it is
built; `flatten` is the one map from such matrices to span vectors.  Dense
lists remain only for Gram matrices, covectors (`to_sparse`,
`SpanSolver.coords`) and a few small dense helpers (`mat_mul`, `mat_vec`,
`rank_of`, `to_dense`) that no stage of the pipeline calls.  Two kernels
carry the package.
`add_product` is the only matrix product: it multiplies matrices stored
as sparse rows, row by row (Gustavson's algorithm), and `mat_mul` and
`commutator` wrap it.  An incremental reduced row echelon
form serves everything else (membership, coordinates, nullspaces, ranks).
No pivoting heuristics are needed for correctness since the arithmetic is
exact, but rows are kept fully reduced so nullspace extraction is direct.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar

SparseVec = Dict[int, Scalar]
DenseVec = List[Scalar]
Matrix = List[DenseVec]
SparseMatrix = List[SparseVec]


def to_sparse(v: Sequence[Scalar]) -> SparseVec:
    return {i: x for i, x in enumerate(v) if x}


def to_dense(v: SparseVec, n: int) -> DenseVec:
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return out


def combine(terms: Iterable[Tuple[Scalar, SparseVec]]) -> SparseVec:
    """The sum of c v over the (c, v) pairs, as a zero-free sparse vector."""
    acc: SparseVec = {}
    for c, v in terms:
        if c:
            for q, x in v.items():
                acc[q] = acc.get(q, ZERO) + c * x
    return {q: x for q, x in acc.items() if x}


def vzero(n: int) -> DenseVec:
    return [ZERO] * n


def is_zero_vec(v: Sequence[Scalar]) -> bool:
    return not any(v)


class Echelon:
    """Incremental RREF over sparse rows.

    `add` feeds one vector; the stored rows stay fully reduced (each pivot
    column is zero in every other row).  With `track=True` each row also
    carries its expression as a combination of the inserted vectors, which
    is what SpanSolver uses to produce coordinates.
    """

    def __init__(self, track: bool = False):
        self.rows: List[SparseVec] = []
        self.pivcol: List[int] = []
        self.piv: Dict[int, int] = {}
        self.track = track
        self.combos: List[SparseVec] = []
        self.ninserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: SparseVec, combo: Optional[SparseVec]) -> None:
        # Process columns in increasing order; eliminating a pivot only
        # touches columns >= it, so each column is handled at most once.
        heap = list(v.keys())
        heapq.heapify(heap)
        seen = set()
        while heap:
            c = heapq.heappop(heap)
            if c in seen:
                continue
            seen.add(c)
            coef = v.get(c)
            if not coef:
                v.pop(c, None)
                continue
            r = self.piv.get(c)
            if r is None:
                continue
            for col, val in self.rows[r].items():
                nv = v.get(col, ZERO) - coef * val
                if nv:
                    v[col] = nv
                    if col not in seen:
                        heapq.heappush(heap, col)
                else:
                    v.pop(col, None)
            if combo is not None:
                for k, val in self.combos[r].items():
                    nv = combo.get(k, ZERO) - coef * val
                    if nv:
                        combo[k] = nv
                    else:
                        combo.pop(k, None)

    def residual(self, v: SparseVec):
        """Reduced copy of v, plus the tracking combo (None if untracked)."""
        w = dict(v)
        combo: Optional[SparseVec] = {} if self.track else None
        self._reduce(w, combo)
        return w, combo

    def contains(self, v: SparseVec) -> bool:
        w, _ = self.residual(v)
        return not w

    def add(self, v: SparseVec) -> bool:
        """Insert a vector; returns True if it increased the rank."""
        idx = self.ninserted
        self.ninserted += 1
        w = dict(v)
        combo: Optional[SparseVec] = {idx: ONE} if self.track else None
        self._reduce(w, combo)
        if not w:
            return False
        p = min(w)
        lead = w[p]
        if lead != ONE:
            inv = lead.inverse()
            w = {c: inv * x for c, x in w.items()}
            if combo is not None:
                combo = {k: inv * x for k, x in combo.items()}
        # knock the new pivot column out of every older row
        for r, row in enumerate(self.rows):
            coef = row.get(p)
            if not coef:
                continue
            for col, val in w.items():
                nv = row.get(col, ZERO) - coef * val
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
            if self.track:
                rc = self.combos[r]
                for k, val in combo.items():  # type: ignore[union-attr]
                    nv = rc.get(k, ZERO) - coef * val
                    if nv:
                        rc[k] = nv
                    else:
                        rc.pop(k, None)
        self.rows.append(w)
        self.pivcol.append(p)
        self.piv[p] = len(self.rows) - 1
        if combo is not None:
            self.combos.append(combo)
        return True

    def free_columns(self, ncols: int) -> List[int]:
        return [c for c in range(ncols) if c not in self.piv]


class SpanSolver:
    """Coordinates of vectors relative to a fixed spanning list.

    Feed sparse basis vectors with `add`; then `coords_sparse(v)` returns
    c with v = sum c[k] * basis[k], or None if v is outside the span, and
    `coords` does the same for dense v and c.  Dependent basis vectors are
    tolerated (their coordinate just stays unused).
    """

    def __init__(self, basis: Iterable[SparseVec] = ()):
        self.ech = Echelon(track=True)
        for b in basis:
            self.add(b)

    def add(self, v: SparseVec) -> bool:
        return self.ech.add(v)

    @property
    def rank(self) -> int:
        return self.ech.rank

    def coords_sparse(self, v: SparseVec) -> Optional[SparseVec]:
        w, combo = self.ech.residual(v)
        if w:
            return None
        return {k: -val for k, val in combo.items()}  # type: ignore[union-attr]

    def coords(self, v: Sequence[Scalar]) -> Optional[List[Scalar]]:
        c = self.coords_sparse(to_sparse(v))
        return None if c is None else to_dense(c, self.ech.ninserted)


def rank_of(vectors: Iterable[Sequence[Scalar]]) -> int:
    ech = Echelon()
    for v in vectors:
        ech.add(to_sparse(v))
    return ech.rank


def nullspace(rows: Iterable[SparseVec], ncols: int) -> List[SparseVec]:
    """Basis of {x : R x = 0} for the matrix with the given sparse rows,
    as sparse vectors: one per free column f, with x[f] = 1.

    Rows are inserted smallest-support first, which keeps the intermediate
    fill-in low for the big derivation systems.
    """
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.add(row)
    basis: List[SparseVec] = []
    for f in ech.free_columns(ncols):
        x = {f: ONE}
        for r, p in enumerate(ech.pivcol):
            val = ech.rows[r].get(f)
            if val:
                x[p] = -val
        basis.append(x)
    return basis


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> DenseVec:
    out = []
    for row in m:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def apply(m: SparseMatrix, v: SparseVec) -> SparseVec:
    """m v for a matrix stored as sparse rows and a sparse vector, zero-free."""
    out: SparseVec = {}
    for p, row in enumerate(m):
        x = sum((row[q] * c for q, c in v.items() if q in row), ZERO)
        if x:
            out[p] = x
    return out


def add_product(
    acc: List[SparseVec],
    a: Sequence[SparseVec],
    b: Sequence[SparseVec],
    coef: Scalar = ONE,
) -> None:
    """acc += coef * (a b), all three matrices stored as lists of sparse rows.

    Row p of the product is the combination of the rows of b weighted by
    row p of a.  Entries that cancel stay in acc as explicit zeros.
    """
    for row_a, row_acc in zip(a, acc):
        for r, x in row_a.items():
            row_b = b[r]
            if row_b:
                cx = coef * x
                for q, y in row_b.items():
                    row_acc[q] = row_acc.get(q, ZERO) + cx * y


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    """The dense product a b; a is m x k and b is k x n, any of them 0.

    An empty b is read as having no columns, so a b has empty rows: that
    is what transposing an empty list of vectors gives."""
    ncols = len(b[0]) if b else 0
    acc: List[SparseVec] = [{} for _ in a]
    if ncols:
        add_product(acc, [to_sparse(row) for row in a], [to_sparse(row) for row in b])
    return [to_dense(row, ncols) for row in acc]


def commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a b - b a for square matrices of the same size, as zero-free sparse rows."""
    acc: SparseMatrix = [{} for _ in a]
    add_product(acc, a, b)
    add_product(acc, b, a, -ONE)
    return [{q: x for q, x in row.items() if x} for row in acc]


def flatten(*mats: SparseMatrix) -> SparseVec:
    """Square matrices of one size n, stored as sparse rows, as one span
    vector: entry (p, q) of the k-th matrix sits at index k n^2 + p n + q."""
    n = len(mats[0])
    return {
        (k * n + p) * n + q: x
        for k, m in enumerate(mats)
        for p, row in enumerate(m)
        for q, x in row.items()
    }


def matrix_rows(flat: SparseVec, n: int) -> SparseMatrix:
    """The n x n matrix whose entries are `flat` in row-major order, as
    sparse rows: the inverse of `flatten` for one matrix."""
    rows: SparseMatrix = [{} for _ in range(n)]
    for k, x in flat.items():
        p, q = divmod(k, n)
        rows[p][q] = x
    return rows


def transpose(m: SparseMatrix) -> SparseMatrix:
    """The transpose of a square matrix stored as sparse rows; also turns
    a list of n sparse columns into the rows of their matrix."""
    out: SparseMatrix = [{} for _ in m]
    for p, row in enumerate(m):
        for q, x in row.items():
            out[q][p] = x
    return out


def sylvester_signature(gram) -> tuple:
    """(n_plus, n_minus, n_zero) of a symmetric real matrix, by congruence.

    Symmetric pivoting with exact signs; when every remaining diagonal
    entry vanishes, a row+column addition manufactures a nonzero one
    (always possible in characteristic 0).
    """
    g = [list(row) for row in gram]
    n = len(g)
    active = list(range(n))
    plus = minus = 0
    while active:
        pivot = None
        nice = None
        for k in active:
            x = g[k][k]
            if x:
                if pivot is None:
                    pivot = k
                if x.is_rational() and abs(x.a) in (1, 2) or x == ONE or x == -ONE:
                    nice = k
                    break
        if nice is not None:
            pivot = nice
        if pivot is None:
            hit = None
            for i in active:
                for j in active:
                    if i != j and g[i][j]:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                break  # remaining block is zero
            i, j = hit
            for s in (ONE, -ONE):
                if g[i][i] + s * (g[i][j] + g[j][i]) + s * s * g[j][j]:
                    break
            for c in range(n):
                g[i][c] = g[i][c] + s * g[j][c]
            for r in range(n):
                g[r][i] = g[r][i] + s * g[r][j]
            continue
        d = g[pivot][pivot]
        if d.sign() > 0:
            plus += 1
        else:
            minus += 1
        active.remove(pivot)
        for m in active:
            coef = g[m][pivot]
            if not coef:
                continue
            f = coef / d
            for c in range(n):
                g[m][c] = g[m][c] - f * g[pivot][c]
            for r in range(n):
                g[r][m] = g[r][m] - f * g[r][pivot]
    return plus, minus, n - plus - minus
