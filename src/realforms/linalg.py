"""Exact linear algebra over Q(sqrt3, i).

Vectors are sparse dicts {index: Scalar} with zero entries absent:
composition and Jordan algebra elements and structure constants, Lie
algebra elements and nullspace vectors alike (`combine` forms their linear
combinations).  Every matrix is stored as a list of zero-free sparse rows
from the point where it is built, Gram matrices (polar forms, Killing
forms) included; `flatten` is the one map from such matrices to span
vectors.  Root covectors stay tuples, since they key root sets, and
`to_sparse` reads them.  The one dense helper left is `mat_mul`, which no
stage of the pipeline calls.  Every sparse sum here ends in one step,
acc += x v, and `scalars.add_scaled` is that step: `combine`, the
eliminations of `Echelon` and `sylvester_signature`, and `add_product`
call it, so their results are zero-free with no filtering pass; `apply`
sums each row with `scalars.dot`, normalising once.
`add_product` is the only matrix product: it multiplies matrices stored
as sparse rows, row by row (Gustavson's algorithm), and `mat_mul` and
`commutator` wrap it.  The one coordinate reader is a fully reduced basis
(`Echelon`): the coordinates of v over its rows are v's entries at the
pivot columns, certified by subtracting those multiples and finding
nothing left.  `add` grows such a basis, `nullspace` reads kernels off it
and returns one, `Echelon.reduced` takes a `nullspace` basis as it is,
and `SpanSolver` maps the coordinates through what each row is as a
combination of a spanning list.  The arithmetic is exact, so no pivoting
heuristics are needed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar, add_scaled, dot

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
        add_scaled(acc, c, v)
    return acc


class Echelon:
    """A fully reduced basis over sparse rows: row r is 1 at its pivot
    column, and every other row is 0 there; `piv` maps each pivot column
    to its row, in row order.

    `add` feeds one vector and keeps the rows fully reduced.  With
    `track=True` each row also carries its expression as a combination of
    the inserted vectors, which is what SpanSolver uses to produce
    coordinates.
    """

    def __init__(self, track: bool = False):
        self.rows: List[SparseVec] = []
        self.piv: Dict[int, int] = {}
        self.track = track
        self.combos: List[SparseVec] = []
        self.ninserted = 0

    @classmethod
    def reduced(cls, vecs: Sequence[SparseVec]) -> Optional["Echelon"]:
        """The basis vecs as it is, pivoted at the largest index of each
        vector; None unless that makes it fully reduced, which certifies
        that vecs is independent.  A `nullspace` basis passes: its pivots
        are its free columns."""
        ech = cls()
        for v in vecs:
            p = max(v, default=None)
            if p is None or v[p] != ONE or p in ech.piv:
                return None
            ech.piv[p] = len(ech.rows)
            ech.rows.append(dict(v))
        if any(len(ech.piv.keys() & v.keys()) != 1 for v in ech.rows):
            return None
        return ech

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, w: SparseVec) -> List[Tuple[int, Scalar]]:
        """Reduce the zero-free w in place to its remainder; returns the
        (row, multiple) pairs subtracted.  The rows are fully reduced, so
        eliminating one pivot leaves w unchanged at every other pivot
        column: the multiples are w's own entries there, and one pass
        subtracts them all."""
        piv = self.piv
        mults = [(piv[c], x) for c, x in w.items() if c in piv]
        for r, x in mults:
            add_scaled(w, -x, self.rows[r])
        return mults

    def coords(self, v: SparseVec) -> Optional[SparseVec]:
        """c with v = sum c[r] rows[r], or None if v is outside the span."""
        w = {c: x for c, x in v.items() if x}
        mults = self._reduce(w)
        return None if w else dict(sorted(mults))

    def contains(self, v: SparseVec) -> bool:
        return self.coords(v) is not None

    def add(self, v: SparseVec) -> bool:
        """Insert a vector; returns True if it increased the rank."""
        idx = self.ninserted
        self.ninserted += 1
        w = {c: x for c, x in v.items() if x}
        mults = self._reduce(w)
        if not w:
            return False
        p = min(w)
        lead = w[p]
        if self.track:
            combo = {idx: ONE}
            for r, x in mults:
                add_scaled(combo, -x, self.combos[r])
        if lead != ONE:
            inv = lead.inverse()
            w = {c: inv * x for c, x in w.items()}
            if self.track:
                combo = {k: inv * x for k, x in combo.items()}
        # knock the new pivot column out of every older row
        for r, row in enumerate(self.rows):
            coef = row.get(p)
            if coef:
                add_scaled(row, -coef, w)
                if self.track:
                    add_scaled(self.combos[r], -coef, combo)
        self.piv[p] = len(self.rows)
        self.rows.append(w)
        if self.track:
            self.combos.append(combo)
        return True


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
        """The row coordinates of v mapped through the rows' combinations."""
        c = self.ech.coords(v)
        if c is None:
            return None
        return combine((x, self.ech.combos[r]) for r, x in c.items())


def nullspace(rows: Iterable[SparseVec], ncols: int) -> List[SparseVec]:
    """Basis of {x : R x = 0} for the matrix with the given sparse rows,
    as sparse vectors: one per free column f, with x[f] = 1 and no entry
    at any other free column.  Every other entry sits at a pivot column
    left of f, so f is the largest index of x, and the basis is fully
    reduced there (`Echelon.reduced`).

    Rows are inserted smallest-support first, which keeps the intermediate
    fill-in low for the big derivation systems.
    """
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.add(row)
    basis: List[SparseVec] = []
    for f in range(ncols):
        if f in ech.piv:
            continue
        x = {f: ONE}
        for p, r in ech.piv.items():
            val = ech.rows[r].get(f)
            if val:
                x[p] = -val
        basis.append(x)
    return basis


def apply(m: SparseMatrix, v: SparseVec) -> SparseVec:
    """m v for a matrix stored as sparse rows and a sparse vector, zero-free.

    Each nonempty row meets v by walking the shorter of the two, and
    `scalars.dot` sums the products it meets, normalising once per row.
    """
    out: SparseVec = {}
    for p, row in enumerate(m):
        short, other = (row, v) if len(row) <= len(v) else (v, row)
        pairs = [(c, other[q]) for q, c in short.items() if q in other]
        if pairs:
            x = dot(pairs)
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
    row p of a, accumulated with `add_scaled`: entries that cancel are
    deleted, so acc stays zero-free if it starts so.
    """
    for row_a, row_acc in zip(a, acc):
        for r, x in row_a.items():
            row_b = b[r]
            if row_b:
                add_scaled(row_acc, coef * x, row_b)


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
    return acc


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
            if m != pivot:
                # row m -= (coef / d) row p, which clears row m's pivot entry
                add_scaled(g[m], -(coef / d), row_p)
    return plus, minus, len(g) - plus - minus
