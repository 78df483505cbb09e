"""Test oracles that no package code calls: the Killing signature of a
table, Killing invariance over the ad table, the first failing Jacobi
triple by a plain loop, the composition law and form associativity by
Scalar polar forms, derivation algebras of structure-constant tables,
theta on tri(S) through its rows, the negative of a covector, the node
orders matching two Cartan matrices by a scan of every permutation, the
hermitian 3x3 octonion matrices with their explicit isomorphism to
A(pO, +++), and the product of two polynomials.  They stay outside the
package so that each oracle is independent of the certificate it checks."""

from itertools import combinations, permutations
from typing import Dict, List, Tuple

from realforms.algebras import (
    AlgebraTable,
    _shift,
    _trace_form,
    albert,
    hurwitz,
    symmetric_composition,
)
from realforms.errors import ConstructionError, VerificationError
from realforms.lie import LieAlgebra, _independent_solver, killing_form, lie_from_fn
from realforms.linalg import (
    Echelon,
    SparseMatrix,
    SparseVec,
    add_product,
    combine,
    commutator,
    flatten,
    matrix_rows,
    nullspace,
    sylvester_signature,
)
from realforms.rootspace import Covector, Poly, poly_normalize
from realforms.scalars import HALF, ONE, TWO, ZERO
from realforms.triality import TrialityAlgebra


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


def naive_jacobi_witness(L: LieAlgebra):
    """The first basis triple i < j < k on which the Jacobi sum is nonzero,
    computed from bracket_basis in Scalar arithmetic; None if there is none."""
    for i, j, k in combinations(range(L.dim), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for p, x in L.bracket_basis(b, c).items():
                for q, y in L.bracket_basis(a, p).items():
                    total[q] = total.get(q, ZERO) + x * y
        if any(total.values()):
            return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# composition algebras, by Scalar polar forms


def composition_oracle(t: AlgebraTable) -> Dict[str, int]:
    """`algebras.check_composition` by a plain loop: the unit axioms, then
    n(b_i b_j, b_k b_l) + n(b_i b_l, b_k b_j) = n(b_i, b_k) n(b_j, b_l) on
    every tuple in lexicographic order, each side a Scalar from `polar`."""
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
    prods = t.sc
    F = t.form
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = t.polar(prods[i][j], prods[k][l]) + t.polar(
                        prods[i][l], prods[k][j]
                    )
                    if lhs != F[i].get(k, ZERO) * F[j].get(l, ZERO):
                        raise VerificationError(
                            f"{t.name}: composition law fails at "
                            f"({t.labels[i]},{t.labels[j]},{t.labels[k]},{t.labels[l]})",
                            witness=[i, j, k, l],
                        )
                    checked += 1
    return {"tuples": checked}


def symmetric_oracle(t: AlgebraTable) -> Dict[str, int]:
    """`algebras.check_symmetric` by a plain loop: the composition oracle,
    then n(b_i b_j, b_k) = n(b_i, b_j b_k) on every triple in
    lexicographic order."""
    n = t.dim
    prods = t.sc
    counts = composition_oracle(t)
    assoc = 0
    for i in range(n):
        for j in range(n):
            pij = prods[i][j]
            bi = t.basis_vec(i)
            for k in range(n):
                if t.polar(pij, t.basis_vec(k)) != t.polar(bi, prods[j][k]):
                    raise VerificationError(
                        f"{t.name}: form associativity fails at "
                        f"({t.labels[i]},{t.labels[j]},{t.labels[k]})",
                        witness=[i, j, k],
                    )
                assoc += 1
    counts["assoc_triples"] = assoc
    return counts


# ---------------------------------------------------------------------------
# theta on tri(S), and covectors


def theta(tri: TrialityAlgebra, coords: SparseVec, power: int = 1) -> SparseVec:
    """theta^power of an element of tri(S) given by its coordinates, as
    products with the certified rows theta(b_k)."""
    out = coords
    for _ in range(power % 3):
        acc: SparseMatrix = [{}]
        add_product(acc, [out], tri.theta_rows)
        out = acc[0]
    return out


def cov_neg(a: Covector) -> Covector:
    return tuple(-x for x in a)


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


# ---------------------------------------------------------------------------
# hermitian 3x3 octonion matrices, for the explicit isomorphism


def h3_octonions() -> Tuple[AlgebraTable, AlgebraTable]:
    """The Jordan algebra of hermitian 3x3 octonion matrices.

    Basis: F11, F22, F33, then for each off-diagonal pair (2,3), (1,3),
    (1,2) the eight elements x E_jk + conj(x) E_kj, x running over the
    octonion basis.  Returns (table, octonions).
    """
    o = hurwitz("O")
    d = o.dim
    n = 3 + 3 * d
    pairs = [(1, 2), (0, 2), (0, 1)]  # (2,3), (1,3), (1,2) zero-indexed

    def basis_matrix(k: int):
        m: List[List[SparseVec]] = [[{} for _ in range(3)] for _ in range(3)]
        if k < 3:
            m[k][k] = o.unit
            return m
        slot, b = divmod(k - 3, d)
        r, c = pairs[slot]
        m[r][c] = {b: ONE}
        m[c][r] = o.invol[b]
        return m

    def jordan(a, b):
        return [
            [
                combine(
                    (HALF, p)
                    for k in range(3)
                    for p in (o.mul(a[r][k], b[k][c]), o.mul(b[r][k], a[k][c]))
                )
                for c in range(3)
            ]
            for r in range(3)
        ]

    def coords(m) -> SparseVec:
        v: SparseVec = {}
        for a in range(3):
            entry = m[a][a]
            if entry.keys() - {0}:
                raise ConstructionError("H3(O): non-real diagonal entry")
            if entry:
                v[a] = entry[0]
        for slot, (r, c) in enumerate(pairs):
            upper = m[r][c]
            if m[c][r] != o.conj_vec(upper):
                raise ConstructionError("H3(O): result is not hermitian")
            v.update(_shift(upper, 3 + slot * d))
        return v

    mats = [basis_matrix(k) for k in range(n)]
    tab = [[coords(jordan(mats[i], mats[j])) for j in range(n)] for i in range(n)]
    labels = ["F11", "F22", "F33"] + [
        f"s{slot}({o.labels[b]})" for slot in range(3) for b in range(d)
    ]
    unit = {0: ONE, 1: ONE, 2: ONE}
    return AlgebraTable("H3(O)", labels, tab, _trace_form(tab), unit=unit), o


def albert_matrix_isomorphism() -> Dict[str, int]:
    """Explicit isomorphism A(pO, +++) -> H3(O), checked on all pairs.

    E_a -> F_aa and iota_i(x) -> 2 * (x placed in the i-th off-diagonal
    slot), with x conjugated in slots 0 and 2.
    """
    alg = albert(symmetric_composition("pO"), (1, 1, 1))
    h3, o = h3_octonions()
    n = alg.dim
    images: List[SparseVec] = [{a: ONE} for a in range(3)]  # image of b_k
    for i in range(3):
        for b in range(o.dim):
            img = {b: ONE} if i == 1 else o.invol[b]
            images.append({alg.iota_index(i, p): TWO * x for p, x in img.items()})
    ech = Echelon()
    for v in images:
        ech.add(v)
    if ech.rank != n:
        raise VerificationError("Albert matrix map is not bijective")
    checked = 0
    for i in range(n):
        for j in range(i, n):
            lhs = combine((c, images[k]) for k, c in alg.table.sc[i][j].items())
            rhs = h3.mul(images[i], images[j])
            if lhs != rhs:
                raise VerificationError(
                    f"Albert matrix map fails at ({alg.table.labels[i]}, "
                    f"{alg.table.labels[j]})"
                )
            checked += 1
    return {"pairs": checked}


def poly_mul(a: Poly, b: Poly) -> Poly:
    """The product of two polynomials, low degree first, normalised."""
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return poly_normalize(out)
