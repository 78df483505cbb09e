"""Exact linear algebra over Q(sqrt3, i).

Vectors are sparse dicts {index: Scalar} with zero entries absent:
composition and Jordan algebra elements and structure constants, Lie
algebra elements and nullspace vectors alike (`combine` forms their linear
combinations).  Every matrix is stored as a list of zero-free sparse rows
from the point where it is built, Gram matrices (polar forms, Killing
forms) included; `flatten` is the one map from such matrices to span
vectors.  Root covectors stay tuples, since they key root sets, and
`to_sparse` reads them.  The one dense helper left is `mat_mul`, which no
stage of the pipeline calls.  Two kernels carry the package.
`add_product` is the only matrix product: it multiplies matrices stored
as sparse rows, row by row (Gustavson's algorithm), and `mat_mul` and
`commutator` wrap it.  An incremental reduced row echelon
form gives nullspaces and ranks, and `SpanSolver` gives membership and
coordinates over a list that is not a nullspace basis.  A `nullspace`
basis needs no solver: each vector is 1 at its own free column and 0 at
the others, so coordinates are the entries at the free columns (read off
this way by the triality layer).  No pivoting heuristics are needed for
correctness since the arithmetic is exact, but rows are kept fully
reduced so nullspace extraction is direct.
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
    c with v = sum c[k] * basis[k], or None if v is outside the span.
    Dependent basis vectors are tolerated (their coordinate just stays
    unused).
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


def nullspace(rows: Iterable[SparseVec], ncols: int) -> List[SparseVec]:
    """Basis of {x : R x = 0} for the matrix with the given sparse rows,
    as sparse vectors: one per free column f, with x[f] = 1 and no entry
    at any other free column.  Every other entry sits at a pivot column
    left of f, so f is the largest index of x.

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


def apply(m: SparseMatrix, v: SparseVec) -> SparseVec:
    """m v for a matrix stored as sparse rows and a sparse vector, zero-free.

    Each nonempty row meets v by walking the shorter of the two.
    """
    out: SparseVec = {}
    for p, row in enumerate(m):
        if not row:
            continue
        short, other = (row, v) if len(row) <= len(v) else (v, row)
        x = sum((c * other[q] for q, c in short.items() if q in other), ZERO)
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


def sylvester_signature(gram: SparseMatrix) -> Tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric real matrix stored as
    zero-free sparse rows, by congruence.

    Symmetric pivoting with exact signs: a nonzero diagonal entry d =
    g[p][p], taken from a shortest row, counts by its sign, and the
    remaining block becomes its Schur complement g[m][c] - g[m][p] g[p][c]
    / d, which changes only the rows in the support of row p.  When every
    remaining diagonal entry vanishes, a row+column addition manufactures a
    nonzero one (always possible in characteristic 0).
    """
    g = [dict(row) for row in gram]
    active = list(range(len(g)))
    plus = minus = 0
    while active:
        # the nonzero diagonal entry with the shortest row: the least fill-in
        pivot = None
        for k in active:
            if k in g[k] and (pivot is None or len(g[k]) < len(g[pivot])):
                pivot = k
                if len(g[k]) == 1:
                    break
        if pivot is None:
            i = next((k for k in active if g[k]), None)
            if i is None:
                break  # remaining block is zero
            # congruence by I + E_ij: row i += row j, then column i +=
            # column j; the new diagonal entry is 2 g[i][j] != 0
            j = min(g[i])
            touched = g[i].keys() | g[j].keys()
            r = dict(g[i])
            for c, x in g[j].items():
                r[c] = r.get(c, ZERO) + x
            r[i] = r.get(i, ZERO) + r[j]
            g[i] = {c: x for c, x in r.items() if x}
            for c in touched - {i}:
                x = g[i].get(c)
                if x:
                    g[c][i] = x
                else:
                    g[c].pop(i, None)
            continue
        row_p = g[pivot]
        d = row_p[pivot]
        if d.sign() > 0:
            plus += 1
        else:
            minus += 1
        active.remove(pivot)
        for m, coef in row_p.items():
            if m == pivot:
                continue
            f = coef / d
            row_m = g[m]
            del row_m[pivot]
            for c, x in row_p.items():
                if c != pivot:
                    nv = row_m.get(c, ZERO) - f * x
                    if nv:
                        row_m[c] = nv
                    else:
                        row_m.pop(c, None)
    return plus, minus, len(g) - plus - minus
