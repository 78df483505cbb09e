"""Orthogonal and triality Lie algebras of a symmetric composition algebra.

tri(S) consists of triples (d0, d1, d2) of skew transformations with
d0(x*y) = d1(x)*y + x*d2(y); it carries the order-3 rotation
theta(d0, d1, d2) = (d2, d0, d1) and is spanned by the maps

    t_{x,y} = (s_{x,y}, q(x,y)/2 - r_x l_y, q(x,y)/2 - l_x r_y),

with s_{x,y}(z) = q(x,z) y - q(y,z) x.  For an 8-dimensional S this is a
form of so(8); for the 2-dimensional paras it is a 2-dimensional abelian
algebra; for S = R it vanishes.

Everything is computed in coordinates over the basis B_k of so(q).  That
basis and the basis b_k of tri(S) (coefficient vectors over so(q)^3) are
both `nullspace` bases, hence fully reduced at their free columns:
`Echelon.reduced` certifies them independent as they are.  The
coordinates of a vector in their span are its entries at those pivot
columns, and `coords` certifies membership by recombining exactly.

The equations of tri(S) are read off tables formed once: the columns
B_k e_q of each B_k and the products e_p e_q of S.  The cell (i, j, k)
sums the columns B_k e_q over the entries of e_i e_j for the d0 term,
and the products e_q e_j and e_i e_q over the entries of B_k e_i and
B_k e_j for the d1 and d2 terms; no matrix is applied to a vector.

Both bracket tables are read off the pivot columns alone and certified
by `lie.closed_subalgebra`: so(q) inside gl(n), then tri(S) inside
so(q)^3, whose brackets come slot by slot from the structure constants
of so(q).  Only the rows of a generating set are recombined (7 of 28 for
pO and Ok, 9 for pOs); the subspace of elements whose brackets stay in
the span is a subalgebra, by the Jacobi identity of the ambient algebra,
and contains that generating set, so every pair is certified.  The
table and the certificate form their brackets with one routine and ask
for them one row i at a time; the ad over so(q) of each slot of b_i is
built column by column as the b_j need it and held only while the row
lasts.  The table reads only the slots that hold pivots: for dim S = 8
every pivot of the b_k lies in the third slot, where b_k is a unit
vector, so each entry read is one column of the so(q) table.  theta
rotates the three coefficient slots, and no elimination is run.

The so(q) table and its closure certificate share the commutators: each
[B_k, B_l] with k < l is formed once, read at the pivot columns for the
table, and recombined from the same vector (negated for k > l) where the
certificate asks for it.

The magic square reads theta^k(t_{e_a, e_b}) for k = 0, 1, 2 and every
pair of basis vectors of S.  tri(S) holds that table
(`theta_t_table`, built on first use); it forms the 2n multiplication
matrices l_{e_a} and r_{e_a} once per table and solves each t element
from them (`t_coords`).  theta^k(t) is not multiplied out: its
coefficient vector over so(q)^3 is t's with the slots rotated, so its
coordinates are read at the pivot columns, exactly, as t is certified in
tri and tri is certified theta-stable.  `triality_cached` keeps one
tri(S) per algebra, so a process solves the t elements of S once however
many squares it builds over S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .algebras import AlgebraTable
from .errors import ConstructionError, VerificationError
from .linalg import (
    Echelon,
    SparseMatrix,
    SparseVec,
    add_product,
    combine,
    commutator,
    flatten,
    matrix_rows,
    nullspace,
    transpose,
)
from .lie import LieAlgebra, closed_subalgebra
from .scalars import HALF, ONE, ZERO, Scalar, add_scaled

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


def _reduced(vecs: List[SparseVec], name: str) -> Echelon:
    """The `nullspace` basis vecs as a reduced basis; raises unless it
    is independent."""
    ech = Echelon.reduced(vecs)
    if ech is None:
        raise ConstructionError(f"tri({name}): dependent solution basis")
    return ech


@dataclass(eq=False)
class TrialityAlgebra:
    comp: AlgebraTable
    orth: Echelon  # row k: B_k of so(q), a flattened n x n matrix
    coefs: Echelon  # row k: b_k over so(q)^3, index slot * orth.rank + j
    basis: List[Triple]  # b_k as triples of matrices
    lie: LieAlgebra
    theta_rows: SparseMatrix  # row k: coordinates of theta(b_k)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of_triple(self, t: Triple) -> SparseVec:
        """Coordinates of a triple of skew maps in the tri basis: each
        component is read off over so(q), then the triple over the b_k."""
        name = self.comp.name
        no = self.orth.rank
        coefs: SparseVec = {}
        for slot, m in enumerate(t):
            c = self.orth.coords(flatten(m))
            if c is None:
                raise VerificationError(
                    f"tri({name}): triple is not a triality element", witness={"slot": slot}
                )
            coefs.update((slot * no + j, x) for j, x in c.items())
        c = self.coefs.coords(coefs)
        if c is None:
            raise VerificationError(
                f"tri({name}): triple is not a triality element",
                witness={"coefs": {str(j): x.to_str() for j, x in coefs.items()}},
            )
        return c

    def conjugate(self, k: int, phi: List[Tuple[int, Scalar]]) -> SparseVec:
        """Coordinates of (phi d0 phi^-1, phi d1 phi^-1, phi d2 phi^-1) for
        the basis triple b_k, where phi(e_a) = s e_b for (b, s) = phi[a].
        Raises, through `coords_of_triple`, when the conjugate leaves tri."""

        def conj(m: SparseMatrix) -> SparseMatrix:
            out: SparseMatrix = [{} for _ in m]
            for p, row in enumerate(m):
                pp, sp = phi[p]
                out[pp] = {phi[q][0]: sp * phi[q][1] * x for q, x in row.items()}
            return out

        return self.coords_of_triple(tuple(map(conj, self.basis[k])))  # type: ignore[arg-type]

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
        return self.t_coords(
            x, y, (comp.lmul_matrix(x), comp.rmul_matrix(x)),
            (comp.lmul_matrix(y), comp.rmul_matrix(y)),
        )[0]

    def t_coords(
        self, x: SparseVec, y: SparseVec,
        mx: Tuple[SparseMatrix, SparseMatrix], my: Tuple[SparseMatrix, SparseMatrix],
    ) -> List[SparseVec]:
        """Coordinates of theta^k(t_{x,y}) for k = 0, 1, 2, given
        mx = (l_x, r_x) and my = (l_y, r_y).

        `coords_of_triple` certifies t_{x,y} in tri, and `triality`
        certified theta(tri) in tri, so theta^k(t) lies in tri too.  Its
        coefficient vector over so(q)^3 is t's with the slots rotated k
        places, and its coordinates are that vector's entries at the pivot
        columns of the b_k: no product is formed."""
        n = self.comp.dim
        half_q = self.comp.polar(x, y) * HALF

        def shifted(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
            # half_q I - a b
            acc: SparseMatrix = [{p: half_q} if half_q else {} for p in range(n)]
            add_product(acc, a, b, -ONE)
            return acc

        t = (self.sigma_map(x, y), shifted(mx[1], my[0]), shifted(mx[0], my[1]))
        out = [self.coords_of_triple(t)]
        # slot s of t over so(q): its entries at the pivot columns of the B_k
        no = self.orth.rank
        slots = [_at_pivots(self.orth, flatten(m)) for m in t]
        for k in (1, 2):
            rotated = {
                (slot + k) % 3 * no + j: z for slot, c in enumerate(slots) for j, z in c.items()
            }
            out.append(_at_pivots(self.coefs, rotated))
        return out

    @cached_property
    def theta_t_table(self) -> List[List[SparseVec]]:
        """table[k][a * n + b] = theta^k(t_{e_a, e_b}) for k = 0, 1, 2, with
        n = dim comp, as zero-free coordinates; built on first use.  The
        multiplication matrices l_{e_a} and r_{e_a} are formed once each,
        and `t_coords` solves each t_{e_a, e_b} with a < b once, with its
        theta powers."""
        comp = self.comp
        n = comp.dim
        e = [{a: ONE} for a in range(n)]
        # (l_{e_a}, r_{e_a}): their columns are the products e_a e_c and e_c e_a
        sc = comp.sc
        mults = [(transpose(sc[a]), transpose([row[a] for row in sc])) for a in range(n)]
        out: List[List[SparseVec]] = [[], [], []]
        for a in range(n):
            for b in range(n):
                if a == b:
                    powers = [{}, {}, {}]
                elif b > a:
                    powers = self.t_coords(e[a], e[b], mults[a], mults[b])
                else:
                    powers = [{p: -x for p, x in v[b * n + a].items()} for v in out]
                for v, w in zip(out, powers):
                    v.append(w)
        return out


def _at_pivots(ech: Echelon, v: SparseVec) -> SparseVec:
    """v's entries at the pivot columns of ech, keyed by row: the
    coordinates of v whenever v lies in the span."""
    piv = ech.piv
    return {piv[c]: x for c, x in v.items() if c in piv}


def _slot_brackets(
    slots: List[List[SparseVec]], so_ad: List[Dict[int, SparseVec]]
) -> Callable[[int, int, int], SparseVec]:
    """bracket(i, j, slot): the so(q) coordinates of component `slot` of
    [b_i, b_j], where slots[k] holds the so(q) coordinates of the three
    components of b_k and so_ad is the ad table of so(q).

    Both the table and its closure certificate ask for the pairs (i, j)
    row by row, so the ad over so(q) of each slot of b_i is held while the
    row lasts: its column l, sum_k x_k [B_k, B_l], is built the first time
    a b_j needs it and dropped when the row changes."""
    current = -1
    ads: List[Dict[int, SparseVec]] = []

    def bracket(i: int, j: int, slot: int) -> SparseVec:
        nonlocal current, ads
        if i != current:
            current, ads = i, [{}, {}, {}]
        a, ad = slots[i][slot], ads[slot]
        part: SparseVec = {}
        for l, y in slots[j][slot].items():
            col = ad.get(l)
            if col is None:
                col = ad[l] = {}
                for k, x in a.items():
                    c = so_ad[k].get(l)
                    if c:
                        add_scaled(col, x, c)
            if col:
                add_scaled(part, y, col)
        return part

    return bracket


def triality(s: AlgebraTable) -> TrialityAlgebra:
    n = s.dim
    name = f"tri({s.name})"
    orth = orthogonal_lie(s)
    no = len(orth)
    oech = _reduced([flatten(m) for m in orth], s.name)
    bcols = [transpose(m) for m in orth]  # bcols[k][i] = B_k e_i

    # [B_k, B_l] for k < l, each formed once: the table reads it at the
    # pivot columns and the certificate recombines the same vector
    so_brks: Dict[Tuple[int, int], SparseVec] = {}

    def so_brk(k: int, l: int) -> SparseVec:
        if k > l:
            return {q: -x for q, x in so_brk(l, k).items()}
        v = so_brks.get((k, l))
        if v is None:
            v = so_brks[k, l] = flatten(commutator(orth[k], orth[l]))
        return v

    # the structure constants of so(q): so_ad[k][l] = coordinates of [B_k, B_l]
    so_ad = closed_subalgebra(
        f"so(q) of {s.name}", [f"B{k}" for k in range(no)],
        lambda k, l: _at_pivots(oech, so_brk(k, l)),
        lambda k, l: oech.coords(so_brk(k, l)),
        f"{name}: so(q) commutator",
    ).ad
    so_brks.clear()
    sc = s.sc
    # the equations d1(e_i) e_j + e_i d2(e_j) - d0(e_i e_j) = 0
    rows: List[SparseVec] = []
    for i in range(n):
        for j in range(n):
            neg_prod = {q: -x for q, x in sc[i][j].items()}
            # row p: the coefficient of e_p in each unknown's contribution
            by_p: List[SparseVec] = [{} for _ in range(n)]
            for k in range(no):
                cols = bcols[k]
                for col, term in (
                    # d0 term: -B_k (e_i e_j), the columns B_k e_q over -e_i e_j
                    (k, combine((x, cols[q]) for q, x in neg_prod.items())),
                    # d1 term: (B_k e_i) e_j, the products e_q e_j over B_k e_i
                    (no + k, combine((x, sc[q][j]) for q, x in cols[i].items())),
                    # d2 term: e_i (B_k e_j), the products e_i e_q over B_k e_j
                    (2 * no + k, combine((x, sc[i][q]) for q, x in cols[j].items())),
                ):
                    for p, x in term.items():
                        by_p[p][col] = x
            rows.extend(row for row in by_p if row)
    sols = nullspace(rows, 3 * no)
    ech = _reduced(sols, s.name)
    # slots[k][slot]: the so(q) coordinates of component `slot` of b_k
    slots: List[List[SparseVec]] = [[{}, {}, {}] for _ in sols]
    for c, sl in zip(sols, slots):
        for q, x in c.items():
            sl[q // no][q % no] = x

    # pivots[slot]: {m: row} for the pivot columns slot * no + m of the b_k
    pivots: List[Dict[int, int]] = [{}, {}, {}]
    for q, r in ech.piv.items():
        pivots[q // no][q % no] = r

    bracket = _slot_brackets(slots, so_ad)

    def read(i: int, j: int) -> SparseVec:
        # entry slot * no + m lands at key pivots[slot][m], others are dropped
        # (the keys of distinct slots are distinct, so nothing is summed twice)
        acc: SparseVec = {}
        for slot, keys in enumerate(pivots):
            if keys:
                for m, z in bracket(i, j, slot).items():
                    q = keys.get(m)
                    if q is not None:
                        acc[q] = z
        return acc

    def coords(i: int, j: int) -> Optional[SparseVec]:
        # the bracket in full over so(q)^3, certified by recombination
        acc: SparseVec = {}
        for slot in range(3):
            acc.update((slot * no + m, z) for m, z in bracket(i, j, slot).items())
        return ech.coords(acc)

    lie = closed_subalgebra(
        name, [f"t{k}" for k in range(len(sols))], read, coords, f"{name}: bracket"
    )
    theta_rows = []
    for k, c in enumerate(sols):
        # theta(d0, d1, d2) = (d2, d0, d1): slot s of b_k moves to slot s + 1
        row = ech.coords({(q // no + 1) % 3 * no + q % no: x for q, x in c.items()})
        if row is None:
            raise VerificationError(f"{name}: theta leaves the span", witness={"index": k})
        theta_rows.append(row)
    basis = [
        tuple(  # type: ignore[misc]
            [combine((x, orth[j][p]) for j, x in sl.items()) for p in range(n)] for sl in slot3
        )
        for slot3 in slots
    ]
    return TrialityAlgebra(s, oech, ech, basis, lie, theta_rows)


_TRI_CACHE: Dict[str, TrialityAlgebra] = {}


def triality_cached(comp: AlgebraTable) -> TrialityAlgebra:
    """tri(comp), computed once per algebra name for the process."""
    if comp.name not in _TRI_CACHE:
        _TRI_CACHE[comp.name] = triality(comp)
    return _TRI_CACHE[comp.name]
