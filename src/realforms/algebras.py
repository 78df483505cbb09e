"""Composition algebras and the 27-dimensional exceptional Jordan algebra.

Everything is a structure-constant table over Q(sqrt3, i), and every
element, product, unit and conjugate is a zero-free sparse vector
{index: Scalar}, the format of the rest of the package.  The unital
algebras (R, R+R, C, split quaternions, H, octonions, split octonions)
come from Cayley-Dickson doubling or an explicit split basis; their para
twists x*y = conj(x) conj(y) and the Okubo algebras on traceless 3x3
matrices give the symmetric composition algebras that feed the Lie
constructions.  Checks are exhaustive on basis tuples, which decides the
polynomial identities completely in characteristic 0: the polarised
composition law on all n^4 tuples, and n(xy, z) = n(x, yz) on all n^3
triples for the symmetric algebras.  They run on integer parts: the
products b_i b_j and F b_i b_j are cleared of denominators once, and each
side of an identity is an integer 4-tuple over 1, sqrt3, i, i sqrt3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Tuple

from .errors import ConstructionError, IOFormatError, VerificationError
from .linalg import (
    SparseMatrix,
    SparseVec,
    SpanSolver,
    add_product,
    combine,
    flatten,
    to_sparse,
    transpose,
)
from .scalars import HALF, IUNIT, OMEGA, ONE, TWO, ZERO, Scalar, add_product_ints, sc


@dataclass(eq=False)
class AlgebraTable:
    """A finite-dimensional algebra with a bilinear form, as exact tables.

    Elements are zero-free sparse vectors {index: Scalar}.  `sc[i][j]` is
    b_i b_j; `form` is the polar form n(b_i, b_j) (so n(x, x) = 2 n(x)) as
    zero-free symmetric sparse rows.  `unit` and `invol` are present only
    when the algebra has them; `invol[j]` is conj(b_j), and the unit need
    not be a basis element (split octonions: 1 = e1 + e2).
    """

    name: str
    labels: List[str]
    sc: List[List[SparseVec]]
    form: SparseMatrix
    unit: Optional[SparseVec] = None
    invol: Optional[List[SparseVec]] = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vec(self, i: int) -> SparseVec:
        return {i: ONE}

    def mul(self, x: SparseVec, y: SparseVec) -> SparseVec:
        tab = self.sc
        return combine(
            (xi * yj, tab[i][j]) for i, xi in x.items() for j, yj in y.items()
        )

    def polar(self, x: SparseVec, y: SparseVec) -> Scalar:
        acc = ZERO
        for i, xi in x.items():
            row = self.form[i]
            for j, yj in y.items():
                f = row.get(j)
                if f:
                    acc = acc + xi * f * yj
        return acc

    def norm(self, x: SparseVec) -> Scalar:
        return self.polar(x, x) * HALF

    def lmul_matrix(self, x: SparseVec) -> SparseMatrix:
        """Matrix of y -> x y (columns indexed by basis), as sparse rows."""
        return transpose([self.mul(x, {j: ONE}) for j in range(self.dim)])


def _shift(v: SparseVec, off: int) -> SparseVec:
    return {off + p: x for p, x in v.items()}


# ---------------------------------------------------------------------------
# unital composition algebras


def _table_R() -> AlgebraTable:
    return AlgebraTable(
        "R", ["1"], [[{0: ONE}]], [{0: sc(2)}], unit={0: ONE}, invol=[{0: ONE}]
    )


def cayley_dickson(t: AlgebraTable, alpha, letter: str) -> AlgebraTable:
    """Double a unital algebra with involution; the new unit is `letter`.

    (a, b)(c, d) = (ac + alpha conj(d) b, da + b conj(c)), with norm
    n(a, b) = n(a) - alpha n(b).
    """
    if t.unit is None or t.invol is None:
        raise ConstructionError("Cayley-Dickson needs a unit and an involution")
    al = sc(alpha)
    n = t.dim
    m = 2 * n
    labels = list(t.labels) + [
        letter if lab == "1" else lab + letter for lab in t.labels
    ]
    tab: List[List[SparseVec]] = [[{} for _ in range(m)] for _ in range(m)]
    ebar = t.invol
    for i in range(n):
        for j in range(n):
            tab[i][j] = t.sc[i][j]
            tab[i][n + j] = _shift(t.sc[j][i], n)
            tab[n + i][j] = _shift(t.mul({i: ONE}, ebar[j]), n)
            tab[n + i][n + j] = combine([(al, t.mul(ebar[j], {i: ONE}))])
    form = [dict(row) for row in t.form] + [
        _shift(combine([(-al, row)]), n) for row in t.form
    ]
    invol = list(ebar) + [{n + i: -ONE} for i in range(n)]
    return AlgebraTable(f"CD({t.name},{al})", labels, tab, form, t.unit, invol)


def _split_octonions() -> AlgebraTable:
    """Split octonions on the basis e1, e2, u1..u3, v1..v3.

    e1, e2 are orthogonal idempotents with e1 + e2 = 1; the u_i pair with
    the v_i under the norm and multiply crosswise:
    u_i v_i = -e1, v_i u_i = -e2, u_i u_{i+1} = v_{i+2} = -u_{i+1} u_i,
    v_i v_{i+1} = u_{i+2} = -v_{i+1} v_i.
    """
    labels = ["e1", "e2", "u1", "u2", "u3", "v1", "v2", "v3"]
    idx = {lab: k for k, lab in enumerate(labels)}
    n = 8
    tab: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]

    def put(a: str, b: str, target: str, coef: int) -> None:
        tab[idx[a]][idx[b]] = {idx[target]: sc(coef)}

    put("e1", "e1", "e1", 1)
    put("e2", "e2", "e2", 1)
    for i in range(3):
        u, v = f"u{i + 1}", f"v{i + 1}"
        put("e1", u, u, 1)
        put(u, "e2", u, 1)
        put("e2", v, v, 1)
        put(v, "e1", v, 1)
        put(u, v, "e1", -1)
        put(v, u, "e2", -1)
        j = (i + 1) % 3
        k = (i + 2) % 3
        put(u, f"u{j + 1}", f"v{k + 1}", 1)
        put(f"u{j + 1}", u, f"v{k + 1}", -1)
        put(v, f"v{j + 1}", f"u{k + 1}", 1)
        put(f"v{j + 1}", v, f"u{k + 1}", -1)
    form: SparseMatrix = [{} for _ in range(n)]
    form[idx["e1"]][idx["e2"]] = form[idx["e2"]][idx["e1"]] = ONE
    for i in range(3):
        a, b = idx[f"u{i + 1}"], idx[f"v{i + 1}"]
        form[a][b] = form[b][a] = ONE
    unit = {idx["e1"]: ONE, idx["e2"]: ONE}
    t = AlgebraTable("Os", labels, tab, form, unit=unit)
    # conj(x) = n(x, 1) 1 - x
    t.invol = [
        combine([(t.polar({j: ONE}, unit), unit), (-ONE, {j: ONE})]) for j in range(n)
    ]
    return t


HURWITZ_NAMES = ("R", "RR", "C", "Mat2", "H", "O", "Os")
_HURWITZ_CACHE: Dict[str, AlgebraTable] = {}


def hurwitz(name: str) -> AlgebraTable:
    """The seven unital composition algebras used here, by short name."""
    if name in _HURWITZ_CACHE:
        return _HURWITZ_CACHE[name]
    if name == "R":
        t = _table_R()
    elif name == "RR":
        t = cayley_dickson(_table_R(), 1, "u")
        t.name = "RR"
    elif name == "C":
        t = cayley_dickson(_table_R(), -1, "i")
        t.name = "C"
    elif name == "Mat2":
        t = cayley_dickson(hurwitz("C"), 1, "u")
        t.name = "Mat2"
    elif name == "H":
        t = cayley_dickson(hurwitz("C"), -1, "j")
        t.labels = ["1", "i", "j", "k"]
        t.name = "H"
    elif name == "O":
        t = cayley_dickson(hurwitz("H"), -1, "l")
        t.name = "O"
    elif name == "Os":
        t = _split_octonions()
    else:
        raise IOFormatError(f"unknown composition algebra {name!r}")
    _HURWITZ_CACHE[name] = t
    return t


# ---------------------------------------------------------------------------
# symmetric composition algebras


def para(t: AlgebraTable) -> AlgebraTable:
    """Para twist x*y = conj(x) conj(y); same norm, no unit."""
    if t.invol is None:
        raise ConstructionError("para twist needs the involution")
    e = t.invol
    tab = [[t.mul(x, y) for y in e] for x in e]
    return AlgebraTable(
        "p" + t.name, list(t.labels), tab, [dict(r) for r in t.form]
    )


def _matrix(*entries) -> SparseMatrix:
    """The 3x3 matrix with the given (value, row, column) entries."""
    m: SparseMatrix = [{}, {}, {}]
    for x, r, c in entries:
        m[r][c] = x
    return m


def _okubo_from_matrices(name: str, mats: List[SparseMatrix], labels) -> AlgebraTable:
    """Okubo product on a real span of traceless 3x3 matrices.

    x*y = w x y - w^2 y x - ((w - w^2)/3) tr(xy) I with w a primitive cube
    root of unity; the span must be closed with real coefficients.
    """
    w = OMEGA
    w2 = OMEGA * OMEGA
    third = (w - w2) / sc(3)

    def tr_prod(x: SparseMatrix, y: SparseMatrix) -> Scalar:
        return sum((v * y[q].get(p, ZERO) for p, row in enumerate(x) for q, v in row.items()), ZERO)

    def star(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
        t = -third * tr_prod(x, y)
        out: SparseMatrix = [{p: t} for p in range(3)]
        add_product(out, x, y, w)
        add_product(out, y, x, -w2)
        return out

    solver = SpanSolver(flatten(m) for m in mats)
    if solver.rank != 8:
        raise ConstructionError(f"{name}: matrix basis is dependent")
    n = 8
    tab = []
    for i in range(n):
        row = []
        for j in range(n):
            coords = solver.coords_sparse(flatten(star(mats[i], mats[j])))
            if coords is None:
                raise ConstructionError(f"{name}: product escapes the span")
            if not all(c.is_real() for c in coords.values()):
                raise ConstructionError(f"{name}: non-real structure constant")
            row.append(coords)
        tab.append(row)
    form = [
        {j: x for j, m in enumerate(mats) if (x := -tr_prod(mi, m))} for mi in mats
    ]
    for r in form:
        for x in r.values():
            if not x.is_real():
                raise ConstructionError(f"{name}: non-real form entry")
    return AlgebraTable(name, labels, tab, form)


def okubo_compact() -> AlgebraTable:
    i = IUNIT
    basis = [
        _matrix((i, 0, 0), (-i, 1, 1)),
        _matrix((i, 1, 1), (-i, 2, 2)),
        _matrix((ONE, 0, 1), (-ONE, 1, 0)),
        _matrix((ONE, 0, 2), (-ONE, 2, 0)),
        _matrix((ONE, 1, 2), (-ONE, 2, 1)),
        _matrix((i, 0, 1), (i, 1, 0)),
        _matrix((i, 0, 2), (i, 2, 0)),
        _matrix((i, 1, 2), (i, 2, 1)),
    ]
    labels = ["ih1", "ih2", "x12", "x13", "x23", "y12", "y13", "y23"]
    return _okubo_from_matrices("Ok", basis, labels)


def okubo_split() -> AlgebraTable:
    i = IUNIT
    basis = [
        _matrix((i * TWO, 0, 0), (-i, 1, 1), (-i, 2, 2)),
        _matrix((ONE, 1, 1), (-ONE, 2, 2)),
        _matrix((ONE, 1, 0), (-ONE, 0, 2)),
        _matrix((i, 1, 0), (i, 0, 2)),
        _matrix((ONE, 2, 0), (-ONE, 0, 1)),
        _matrix((i, 2, 0), (i, 0, 1)),
        _matrix((i, 2, 1)),
        _matrix((i, 1, 2)),
    ]
    labels = ["b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8"]
    return _okubo_from_matrices("Oks", basis, labels)


_SYMMETRIC: Dict[str, str] = {
    "pR": "R",
    "pRR": "RR",
    "pC": "C",
    "pMat2": "Mat2",
    "pH": "H",
    "pO": "O",
    "pOs": "Os",
}
SYMMETRIC_NAMES = tuple(_SYMMETRIC) + ("Ok", "Oks")


def symmetric_composition(name: str) -> AlgebraTable:
    """Symmetric composition algebras by name (R itself counts: conj = id)."""
    if name == "R":
        return hurwitz("R")
    if name in _SYMMETRIC:
        return para(hurwitz(_SYMMETRIC[name]))
    if name == "Ok":
        return okubo_compact()
    if name == "Oks":
        return okubo_split()
    raise IOFormatError(f"unknown symmetric composition algebra {name!r}")


# ---------------------------------------------------------------------------
# identity checks

# a sparse vector of integer parts [a, b, c, d], and the tables of
# `_integer_tables`: (D, P, Fi, FP)
IntVec = Dict[int, List[int]]
_IntTables = Tuple[int, List[List[IntVec]], List[IntVec], List[List[IntVec]]]


def _integer_tables(t: AlgebraTable) -> _IntTables:
    """The structure constants and the form of t on integer parts.

    With D the lcm of the denominators of the products b_i b_j and of the
    form F, returns (D, P, Fi, FP): P[i][j] and Fi[i] hold the integer
    parts [a, b, c, d] of D b_i b_j and of D F[i], and FP[i][j] those of
    D^2 F (b_i b_j).  A value of n(x, y) = x^t F y on these vectors is a
    power of D times its value on t's own tables, and F -> Q^4 is a
    Q-linear isomorphism, so an identity of t holds exactly when the
    integer 4-tuples of its sides agree."""
    den = lcm(
        *(x.as_ints()[4] for row in t.sc for v in row for x in v.values()),
        *(x.as_ints()[4] for row in t.form for x in row.values()),
    )

    def parts(x: Scalar) -> List[int]:
        a, b, c, d, m = x.as_ints()
        f = den // m
        return [a * f, b * f, c * f, d * f]

    prods = [[{q: parts(x) for q, x in v.items()} for v in row] for row in t.sc]
    form = [{j: parts(x) for j, x in row.items()} for row in t.form]
    fprods: List[List[IntVec]] = []
    for row in prods:
        frow = []
        for p in row:
            # (F p)[q] = sum_r F[q][r] p[r]
            fp: IntVec = {}
            for q, f_q in enumerate(form):
                for r, f in f_q.items():
                    x = p.get(r)
                    if x:
                        add_product_ints(fp.setdefault(q, [0, 0, 0, 0]), f, x, 1)
            frow.append(fp)
        fprods.append(frow)
    return den, prods, form, fprods


def check_composition(t: AlgebraTable, tables: Optional[_IntTables] = None) -> Dict[str, int]:
    """Unit axioms plus the fully polarized n(xy) = n(x) n(y):

        n(b_i b_j, b_k b_l) + n(b_i b_l, b_k b_j) = n(b_i, b_k) n(b_j, b_l)

    on all n^4 basis tuples, which decides the identity in characteristic
    0.  The law is decided on the integer tables of `_integer_tables`
    (`tables`, when the caller has built them): for each leading index i
    the rows n(b_i b_j, .) are formed once, as D^3 n(b_i b_j, b_k b_l) =
    sum_q P[i][j][q] FP[k][l][q] over the support of b_i b_j, and a tuple
    (i, j, k, l) reads rows ij and il.  The tuples are scanned in
    lexicographic order, so the first failure is the witness."""
    n = t.dim
    checked = 0
    if t.unit is not None:
        for j in range(n):
            b = t.basis_vec(j)
            if t.mul(t.unit, b) != b or t.mul(b, t.unit) != b:
                raise VerificationError(
                    f"{t.name}: unit fails on {t.labels[j]}", witness={"index": j}
                )
            checked += 1
        norm_unit = t.norm(t.unit)
        if norm_unit != ONE:
            raise VerificationError(f"{t.name}: n(1) != 1", witness=norm_unit.to_str())
    den, prods, form, fprods = tables or _integer_tables(t)
    # by_q[q]: the (k n + l, FP[k][l][q]) with that entry nonzero
    by_q: List[List[Tuple[int, List[int]]]] = [[] for _ in range(n)]
    for k, frow in enumerate(fprods):
        for l, fp in enumerate(frow):
            for q, w in fp.items():
                by_q[q].append((k * n + l, w))
    zero = [0, 0, 0, 0]
    for i in range(n):
        # rows[j][k n + l]: the integer parts of D^3 n(b_i b_j, b_k b_l)
        rows: List[IntVec] = []
        for p in prods[i]:
            row: IntVec = {}
            for q, x in p.items():
                for kl, w in by_q[q]:
                    add_product_ints(row.setdefault(kl, [0, 0, 0, 0]), x, w, 1)
            rows.append(row)
        f_i = form[i]
        for j in range(n):
            row_j, f_j = rows[j], form[j]
            for k in range(n):
                f_ik = f_i.get(k)
                kn = k * n
                for l in range(n):
                    a = row_j.get(kn + l)
                    b = rows[l].get(kn + j)
                    f_jl = f_j.get(l) if f_ik else None
                    if a is None and b is None and f_jl is None:
                        continue  # 0 = 0
                    a, b = a or zero, b or zero
                    lhs = [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
                    rhs = [0, 0, 0, 0]
                    if f_jl:
                        add_product_ints(rhs, f_ik, f_jl, den)
                    if lhs != rhs:
                        raise VerificationError(
                            f"{t.name}: composition law fails at "
                            f"({t.labels[i]},{t.labels[j]},{t.labels[k]},{t.labels[l]})",
                            witness=[i, j, k, l],
                        )
    checked += n**4
    return {"tuples": checked}


def check_symmetric(t: AlgebraTable) -> Dict[str, int]:
    """Composition law plus associativity of the form: n(x*y, z) = n(x, y*z),
    as n(b_i b_j, b_k) = n(b_i, b_j b_k) on all n^3 basis triples.  Both
    checks read one set of integer tables (`_integer_tables`): D^2 times
    the left side is sum_a P[i][j][a] Fi[a][k], the right side is read
    off FP[j][k] at i, and the triples are scanned in lexicographic
    order."""
    n = t.dim
    tables = _integer_tables(t)
    counts = check_composition(t, tables)
    _, prods, form, fprods = tables
    zero = [0, 0, 0, 0]
    for i in range(n):
        for j in range(n):
            # lhs[k]: the integer parts of D^2 n(b_i b_j, b_k)
            lhs: IntVec = {}
            for a, x in prods[i][j].items():
                for k, f in form[a].items():
                    add_product_ints(lhs.setdefault(k, [0, 0, 0, 0]), x, f, 1)
            fp_j = fprods[j]
            for k in range(n):
                if lhs.get(k, zero) != fp_j[k].get(i, zero):
                    raise VerificationError(
                        f"{t.name}: form associativity fails at "
                        f"({t.labels[i]},{t.labels[j]},{t.labels[k]})",
                        witness=[i, j, k],
                    )
    counts["assoc_triples"] = n**3
    return counts


# ---------------------------------------------------------------------------
# the Albert algebra of a symmetric composition algebra


@dataclass(eq=False)
class AlbertAlgebra:
    """J = F^3 + three copies of a symmetric composition algebra S.

    Basis order: E0, E1, E2, then iota_0(S), iota_1(S), iota_2(S).  The
    eps signs twist the cross products; (1,1,1) over the para-octonions
    is the usual hermitian 3x3 model, (1,-1,1) its indefinite cousin.
    """

    table: AlgebraTable
    comp: AlgebraTable
    eps: Tuple[int, int, int]

    @property
    def dim(self) -> int:
        return self.table.dim

    def iota_index(self, i: int, b: int) -> int:
        return 3 + i * self.comp.dim + b

    def iota_vec(self, i: int, x: SparseVec) -> SparseVec:
        return _shift(x, self.iota_index(i, 0))

    def zero_trace_basis(self) -> List[SparseVec]:
        return [{0: ONE, 1: -ONE}, {0: -ONE, 2: ONE}] + [
            {k: ONE} for k in range(3, self.dim)
        ]


def _diagonal_trace(v: SparseVec) -> Scalar:
    """The sum of the coordinates 0, 1, 2: the trace of a Jordan element
    whose first three basis vectors are the diagonal idempotents."""
    return sum((x for p, x in v.items() if p < 3), ZERO)


def _trace_form(tab: List[List[SparseVec]]) -> SparseMatrix:
    return [{j: x for j, v in enumerate(row) if (x := _diagonal_trace(v))} for row in tab]


def albert(s: AlgebraTable, eps: Tuple[int, int, int]) -> AlbertAlgebra:
    if any(e * e != 1 for e in eps):
        raise ConstructionError("eps entries must be +-1")
    d = s.dim
    n = 3 + 3 * d
    tab: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]
    eps_s = [sc(e) for e in eps]

    def iota(i: int, b: int) -> int:
        return 3 + i * d + b

    for a in range(3):
        tab[a][a] = {a: ONE}
    for a in range(3):
        for i in range(3):
            if a == i:
                continue
            for b in range(d):
                tab[a][iota(i, b)] = {iota(i, b): HALF}
                tab[iota(i, b)][a] = {iota(i, b): HALF}
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for b in range(d):
            for c in range(d):
                # cross products land in the third slot
                v = {iota(i2, p): eps_s[i2] * x for p, x in s.sc[b][c].items()}
                tab[iota(i, b)][iota(i1, c)] = v
                tab[iota(i1, c)][iota(i, b)] = dict(v)
                # same slot: lands on the complementary idempotents
                q = s.form[b].get(c)
                if q:
                    coef = sc(2) * eps_s[i1] * eps_s[i2] * q
                    tab[iota(i, b)][iota(i, c)] = {i1: coef, i2: coef}
    tbl = AlgebraTable(f"A({s.name},{''.join('+' if e > 0 else '-' for e in eps)})",
                       [f"E{a}" for a in range(3)]
                       + [f"i{i}({s.labels[b]})" for i in range(3) for b in range(d)],
                       tab, _trace_form(tab), unit={0: ONE, 1: ONE, 2: ONE})
    return AlbertAlgebra(tbl, s, tuple(eps))


def check_jordan_sampled(alg: AlbertAlgebra, trials: int = 40, seed: int = 20260814):
    """Commutativity exactly on basis pairs; Jordan identity on seeded
    random integer vectors ((x.x).(y.x) = ((x.x).y).x).  A failure's
    witness is the pair (x, y) as coordinate lists."""
    t = alg.table
    n = t.dim
    for i in range(n):
        for j in range(i, n):
            if t.sc[i][j] != t.sc[j][i]:
                raise VerificationError(f"{t.name}: not commutative at ({i},{j})")
    rng = random.Random(seed)
    for _ in range(trials):
        xs = [sc(rng.randint(-2, 2)) for _ in range(n)]
        ys = [sc(rng.randint(-2, 2)) for _ in range(n)]
        x, y = to_sparse(xs), to_sparse(ys)
        xx = t.mul(x, x)
        lhs = t.mul(xx, t.mul(y, x))
        rhs = t.mul(t.mul(xx, y), x)
        if lhs != rhs:
            raise VerificationError(f"{t.name}: Jordan identity fails", witness=(xs, ys))
    return {"pairs": n * (n + 1) // 2, "jordan_samples": trials, "seed": seed}
