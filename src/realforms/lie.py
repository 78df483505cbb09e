"""Lie algebras as exact structure-constant tables, with certificates.

Brackets are stored sparsely for i < j only.  Every certificate is exact
and runs over these sparse tables, so the same code serves rational
constants and the sqrt3 constants of the Okubo-built algebras, and nothing
can overflow.  The Killing form is one scatter pass over the bracket table
that touches only nonzero products, summed on Python ints over the
cleared denominator and made one Scalar per entry at the end.  The Jacobi
certificate is a proof in two parts.  `generating_set` picks basis indices
S whose span, closed under the ad(b_s) for s in S, is all of L; this step
only evaluates brackets.  The Jacobi sum is then evaluated on the triples
that contain an index of S, which shows that each ad(b_s) is a
derivation; the x with ad(x) a derivation form a subalgebra, so every
basis triple satisfies the identity.  The sums run on Python ints: the
table's denominators are cleared and each constant is written in integer
coordinates over the Q-basis 1, sqrt3, i, i sqrt3 of Q(sqrt3, i)
(`int_coords`).

The generating-set argument serves `certify_jacobi`, whose S the theta
certificate of `rootspace` reuses, and whose run on the derivation model
of `constructions` also proves rho a homomorphism (with rho(b) 1 = 0 and
rho(b) A0 inside A0, which `constructions` checks); and
`closed_subalgebra`, which proves a subspace T of a Lie algebra closed
under the bracket: the x in T with [x, T] inside T form a subalgebra, by
the Jacobi identity of the ambient algebra, so certifying the brackets
of the generators certifies every bracket.  `triality` builds so(q) and
tri(S) with it.  Every check raises VerificationError with a witness:
the failing basis tuple, or the index or pair at which a span
certificate fails.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import (
    Callable, DefaultDict, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .errors import VerificationError
from .linalg import Echelon, SparseMatrix, SparseVec, SpanSolver
from .scalars import ONE, Scalar, add_product_ints, add_scaled


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
        """[x, y] of sparse elements, as a zero-free sparse vector: the sum
        of the columns [b_i, b_p] with coefficients x_i y_p."""
        acc: Dict[int, Scalar] = {}
        ad = self.ad
        for i, xi in x.items():
            ad_i = ad[i]
            if ad_i:
                for p, yp in y.items():
                    col = ad_i.get(p)
                    if col:
                        add_scaled(acc, xi * yp, col)
        return acc

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


# an entry (sign, column of (key, int) pairs) and a row of the integer ad table
IntEntry = Tuple[int, Tuple[Tuple[int, int], ...]]
IntRow = Dict[int, IntEntry]

# multiplication by e_s on the integer parts (a, b, c, d) of a + b sqrt3 +
# (c + d sqrt3) i, for the Q-basis e_0..e_3 = 1, sqrt3, i, i sqrt3 of F
_TIMES_BASIS = (
    lambda a, b, c, d: (a, b, c, d),
    lambda a, b, c, d: (3 * b, a, 3 * d, c),
    lambda a, b, c, d: (-c, -d, a, b),
    lambda a, b, c, d: (-3 * d, -c, 3 * b, a),
)


def int_coords(v: SparseVec, s: int, den: int, n: int) -> List[Tuple[int, int]]:
    """The nonzero integer coordinates of den * e_s * v for v in F^n, each
    keyed q + n*u for coordinate u of entry q; den must clear v's
    denominators.  Multiplying by e_s permutes and scales the integer parts
    of each entry, so no Scalar product is formed."""
    times = _TIMES_BASIS[s]
    n2, n3 = 2 * n, 3 * n
    out: List[Tuple[int, int]] = []
    for q, x in v.items():
        a, b, c, d, m = x.as_ints()
        f = den // m
        a, b, c, d = times(a, b, c, d)
        if a:
            out.append((q, a * f))
        if b:
            out.append((q + n, b * f))
        if c:
            out.append((q + n2, c * f))
        if d:
            out.append((q + n3, d * f))
    return out


def _denominator_and_lanes(L: LieAlgebra) -> Tuple[int, Set[int]]:
    """The lcm of the denominators of L's constants, and the s in 0..3 for
    which e_s occurs in one of them (always 0)."""
    den, lanes = 1, {0}
    for v in L.brk.values():
        for x in v.values():
            _, b, c, d, m = x.as_ints()
            if den % m:
                den = lcm(den, m)
            if b:
                lanes.add(1)
            if c:
                lanes.add(2)
            if d:
                lanes.add(3)
    return den, lanes


def _integer_ad(L: LieAlgebra) -> List[IntRow]:
    """The ad table of D*L over Q, where D is the lcm of L's denominators.

    Over the Q-basis e_0..e_3 = 1, sqrt3, i, i sqrt3 of F = Q(sqrt3, i), an
    element of F^n has 4n rational coordinates; coordinate u of entry r
    gets the key r + n*u.  iad[x][p + n*s] = (sign, col), where sign * col
    lists the nonzero integer coordinates of D*[b_x, b_p e_s].  Each column
    is built once, for x < p, and shared with [b_p, b_x] by sign -1.
    Columns exist for s = 0 and for each e_s that occurs in an entry of L:
    only those occur in the coordinates of D*[b_j, b_k], which are the
    column iad[j][k] itself (s = 0).
    """
    n = L.dim
    den, lanes = _denominator_and_lanes(L)
    iad: List[IntRow] = [{} for _ in range(n)]
    for (i, j), v in L.brk.items():
        for s in lanes:
            shared = tuple(int_coords(v, s, den, n))
            iad[i][j + n * s] = (1, shared)
            iad[j][i + n * s] = (-1, shared)
    return iad


def _add_int_bracket(
    acc: Dict[int, int], v: Optional[IntEntry], iad_x: IntRow
) -> None:
    """acc += [x, v] in integer coordinates, where v = (sign, col) is an
    entry of _integer_ad and iad_x is the row of x."""
    if v is None:
        return
    sign, vec = v
    for key, m in vec:
        e = iad_x.get(key)
        if e:
            if e[0] != sign:
                m = -m
            for q, w in e[1]:
                acc[q] = acc.get(q, 0) + m * w


def _stride_order(n: int) -> List[int]:
    """0, p, 2p, ... mod n for the least p >= 0.618 n coprime to n: a
    golden-ratio stride, which visits every index once and spreads the
    early ones over the blocks of a constructed basis."""
    p = -(-618 * n // 1000)
    while gcd(p, n) != 1:
        p += 1
    return [k * p % n for k in range(n)]


def _ad_apply(ad_x: Dict[int, SparseVec], v: SparseVec) -> SparseVec:
    """[x, v] from the ad row of x, as a zero-free sparse vector."""
    acc: Dict[int, Scalar] = {}
    for p, c in v.items():
        col = ad_x.get(p)
        if col:
            add_scaled(acc, c, col)
    return acc


def generating_set(L: LieAlgebra) -> List[int]:
    """Basis indices S such that span{b_s : s in S}, closed under ad(b_s)
    for s in S, is all of L.

    Indices are tried in `_stride_order`; an index joins S when b_s lies
    outside the closure of the earlier ones, and the closure is then
    extended with `Echelon` over F.  Only brackets of the table are
    evaluated; the Jacobi identity is never used.  The greedy choice
    always ends with the closure equal to L, at worst with S the whole
    basis.  ad rows are built for the indices of S alone, so `L.ad` is
    neither read nor built.
    """
    n = L.dim
    ech = Echelon()
    gens: List[int] = []
    ads: List[Dict[int, SparseVec]] = []
    spanning: List[SparseVec] = []  # the vectors that raised the rank
    for g in _stride_order(n):
        if ech.rank == n:
            break
        if ech.contains({g: ONE}):
            continue
        gens.append(g)
        ad_g = {p: L.bracket_basis(g, p) for p in range(n)}
        ads.append(ad_g)
        queue = [{g: ONE}] + [_ad_apply(ad_g, w) for w in spanning]
        while queue and ech.rank < n:
            w = queue.pop()
            if ech.add(w):
                spanning.append(w)
                queue.extend(_ad_apply(ad_s, w) for ad_s in ads)
    return gens


def closed_subalgebra(
    name: str,
    labels: List[str],
    read: Callable[[int, int], SparseVec],
    coords: Callable[[int, int], Optional[SparseVec]],
    what: str,
) -> LieAlgebra:
    """The table of the span T of basis elements b_k of a Lie algebra,
    certified closed under the bracket.

    read(i, j) gives the coordinates of [b_i, b_j] as they are when the
    bracket lies in T: for a fully reduced basis of T, its entries at the
    pivot columns.  coords(i, j) gives them certified, or None when
    [b_i, b_j] leaves T.  The table is built from `read`, and `coords` is
    called only on the rows g of S = `generating_set(table)`, once for
    each p != g, and must agree there.

    That proves every entry.  N = {x in T : [x, T] lies in T} is a
    subalgebra, by the Jacobi identity of the ambient algebra: for x, y in
    N and z in T, [[x, y], z] = [x, [y, z]] - [y, [x, z]] lies in T.  N
    contains S, and the rows of S are certified, so the closure of
    span(S) under the ad(b_s) that `generating_set` found to be all of T
    is the true one.  Hence N = T: every bracket lies in T, and every
    entry read is exact.  On a failure the pairs i < j are scanned in
    lexicographic order, and the first on which `coords` fails or
    disagrees with `read` is the witness.
    """
    n = len(labels)
    table = lie_from_fn(name, labels, read)
    bad = next(
        (
            (g, p)
            for g in generating_set(table)
            for p in range(n)
            if p != g and coords(g, p) != table.bracket_basis(g, p)
        ),
        None,
    )
    if bad is not None:
        i, j = next(
            (
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if coords(i, j) != table.bracket_basis(i, j)
            ),
            tuple(sorted(bad)),
        )
        raise VerificationError(f"{what} escapes the span", witness={"pair": [i, j]})
    return table


def _failing_pairs(
    iad: List[IntRow], s: int, others: Sequence[int]
) -> Iterator[Tuple[int, int]]:
    """The pairs j < k of `others`, in lexicographic order, on which the
    Jacobi sum [b_s,[b_j,b_k]] + [b_j,[b_k,b_s]] + [b_k,[b_s,b_j]] of the
    table `iad` is nonzero."""
    iad_s = iad[s]
    for a, j in enumerate(others):
        iad_j = iad[j]
        v_sj = iad_s.get(j)
        for k in others[a + 1 :]:
            iad_k = iad[k]
            v_jk = iad_j.get(k)
            v_ks = iad_k.get(s)
            if not (v_sj or v_jk or v_ks):
                continue
            acc: Dict[int, int] = {}
            _add_int_bracket(acc, v_jk, iad_s)
            _add_int_bracket(acc, v_ks, iad_j)
            _add_int_bracket(acc, v_sj, iad_k)
            if any(acc.values()):
                yield j, k


def certify_jacobi(L: LieAlgebra) -> Dict[str, object]:
    """[b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]] = 0 on every
    basis triple i < j < k, exactly.  Raises with the first failing triple,
    in lexicographic order, as witness, else returns {"generators": S,
    "triples": N}.

    The sum is evaluated only on the N = C(n, 3) - C(n - |S|, 3) triples
    that contain an index of S = `generating_set(L)`: these vanish exactly
    when ad(b_s) is a derivation for each s in S.  That proves every
    triple.  The x with ad(x) a derivation form a subspace T, and T is
    closed under brackets: if ad(x) is a derivation then ad([x, y]) =
    [ad(x), ad(y)], and the commutator of two derivations is one.  So T
    contains the closure of span(S) under the ad(b_s), which
    `generating_set` showed to be L.  Antisymmetry holds by construction
    of the i < j table.  When a sum is nonzero, the full lexicographic
    scan finds the witness.

    The sums run on Python ints over the table of _integer_ad.  A Jacobi
    sum of D*L is D^2 times that of L, and F -> Q^4 is a Q-linear
    isomorphism, so its integer coordinates all vanish exactly when the
    Jacobi sum of L does.
    """
    n = L.dim
    gens = generating_set(L)
    iad = _integer_ad(L)
    done, triples = set(), 0
    for s in gens:
        done.add(s)
        others = [x for x in range(n) if x not in done]
        triples += len(others) * (len(others) - 1) // 2
        if next(_failing_pairs(iad, s, others), None) is not None:
            i, (j, k) = next(
                (i, pair)
                for i in range(n)
                for pair in _failing_pairs(iad, i, range(i + 1, n))
            )
            raise VerificationError(
                f"{L.name}: Jacobi fails on "
                f"({L.labels[i]}, {L.labels[j]}, {L.labels[k]})",
                witness=(i, j, k),
            )
    return {"generators": gens, "triples": triples}


def killing_form(L: LieAlgebra) -> SparseMatrix:
    """K[i][j] = trace(ad b_i ad b_j) = sum_{q,p} A_i[q][p] A_j[p][q], exact,
    where A_i[q][p] is coordinate q of [b_i, b_p], as zero-free symmetric
    sparse rows with increasing keys.

    One scatter pass over the bracket table: an index keyed by position
    q*n + p lists the (i, A_i[q][p]) read straight from `brk` and its
    antisymmetry, and each pair of transposed positions (q, p), (p, q)
    adds its products into K[i][j] for j >= i.  Only nonzero products are
    formed, and the ad table is neither read nor built.  The sums run on
    Python ints: with D the lcm of the table's denominators, the index
    holds each constant of `brk` once, as the integer parts of D times it,
    and A_i[q][p] is that or its negative as i < p or i > p.  Each entry
    of D^2 K becomes one Scalar at the end.
    """
    n = L.dim
    den, _ = _denominator_and_lanes(L)
    # index[q * n + p]: the (i, t) with D A_i[q][p] = +-t, the sign + exactly
    # when i < p; [b_i, b_j] and [b_j, b_i] share one t
    # (t is a list: a 4-tuple per constant would stay in CPython's tuple
    # free list after the call)
    index: Dict[int, List[Tuple[int, List[int]]]] = {}
    for (i, j), v in L.brk.items():
        for q, x in v.items():
            a, b, c, d, m = x.as_ints()
            f = den // m
            t = [a * f, b * f, c * f, d * f]
            index.setdefault(q * n + j, []).append((i, t))
            index.setdefault(q * n + i, []).append((j, t))
    # upper[i][j] = [a, b, c, d]: the integer parts of D^2 K[i][j], for j >= i
    upper: List[DefaultDict[int, List[int]]] = [
        defaultdict(lambda: [0, 0, 0, 0]) for _ in range(n)
    ]
    for pos, col in index.items():
        q, p = divmod(pos, n)
        if q == p:
            # A_i[q][q] A_j[q][q]: each unordered pair once
            for a, x in col:
                row = upper[a]
                for b, w in col:
                    if b >= a:
                        add_product_ints(row[b], x, w, 1 if (a < q) == (b < q) else -1)
        elif q < p:
            # A_i[q][p] A_j[p][q] and A_i[p][q] A_j[q][p] give the same
            # products; they land in K[i][j] and K[j][i], one of them stored
            for a, x in index.get(p * n + q, ()):
                for b, w in col:
                    sign = 1 if (a < q) == (b < p) else -1
                    if a < b:
                        add_product_ints(upper[a][b], x, w, sign)
                    elif a > b:
                        add_product_ints(upper[b][a], x, w, sign)
                    else:
                        # both products land in K[a][a]
                        add_product_ints(upper[a][a], x, w, 2 * sign)
    d2 = den * den
    out: SparseMatrix = [{} for _ in range(n)]
    for i, row in enumerate(upper):
        for j in sorted(row):
            parts = row[j]
            if any(parts):
                out[i][j] = out[j][i] = Scalar.from_ints(*parts, d2)
    return out


def _independent_solver(name: str, what: str, vectors: Iterable[SparseVec]) -> SpanSolver:
    """A SpanSolver over `vectors`; raises, with the index of the first
    vector in the span of the earlier ones as witness, if they are
    dependent."""
    solver = SpanSolver()
    for k, v in enumerate(vectors):
        if not solver.add(v):
            raise VerificationError(f"{name}: {what} is dependent", witness={"index": k})
    return solver


def sub_lie_algebra(
    L: LieAlgebra, vectors: List[SparseVec], name: str, labels: Optional[List[str]] = None
) -> LieAlgebra:
    """The Lie algebra on a bracket-closed independent spanning list."""
    solver = _independent_solver(name, "spanning list", vectors)

    def fn(i: int, j: int) -> SparseVec:
        coords = solver.coords_sparse(L.bracket(vectors[i], vectors[j]))
        if coords is None:
            raise VerificationError(
                f"{name}: bracket of elements {i}, {j} leaves the span",
                witness={"pair": [i, j]},
            )
        return coords

    if labels is None:
        labels = [f"x{k}" for k in range(len(vectors))]
    return lie_from_fn(name, labels, fn)
