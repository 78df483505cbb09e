"""The twisted magic square and the derivation model of its (8,1) row.

g_eps(S, S') = tri(S) + tri(S') + iota_0(S x S') + iota_1 + iota_2, with
the cross brackets twisted by signs eps = (e0, e1, e2).  Block order is
tri(S), tri(S'), iota_0, iota_1, iota_2; inside an iota block the S index
is major.  For S' = R the square collapses to tri(S) + S^3 (dimension 52
when dim S = 8), and that algebra acts on the 27-dimensional Jordan
algebra by derivations; extending by the traceless part of the Jordan
algebra yields the 78-dimensional model used for the rank-2 real form.

The table of theta^k(t_{e_a, e_b}) that the iota-iota brackets read is
held by tri(S) (`TrialityAlgebra.theta_t_table`), so squares over one S
share it; tri(S) solves each t element once and reads its theta powers at
pivot columns.  In the derivation model, rho(b_i) z is the combination of the columns of
rho(b_i) at the support of z, and the commutators of Jordan
multiplications are read over the images that the injectivity check of
`check_rho_homomorphism` has already eliminated.  That rho is a
homomorphism has no certificate of its own: it is the Jacobi identity of
the model on the triples (b_i, b_j, z), together with rho(b) 1 = 0.
`pipeline.certify`, not a constructor, certifies each table's Jacobi
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .algebras import AlbertAlgebra, AlgebraTable, albert, symmetric_composition
from .errors import ConstructionError, VerificationError
from .lie import LieAlgebra, lie_from_fn
from .linalg import (
    SparseMatrix,
    SparseVec,
    SpanSolver,
    apply,
    combine,
    commutator,
    flatten,
    transpose,
)
from .scalars import ONE, TWO, ZERO, Scalar, add_scaled, sc
from .triality import TrialityAlgebra, triality_cached


@dataclass(eq=False)
class MagicSquareAlgebra:
    lie: LieAlgebra
    s: AlgebraTable
    sp: AlgebraTable
    tri_s: TrialityAlgebra
    tri_sp: TrialityAlgebra
    eps: Tuple[int, int, int]

    @property
    def dim(self) -> int:
        return self.lie.dim

    @property
    def iota_offset(self) -> int:
        return self.tri_s.dim + self.tri_sp.dim

    def iota_block(self, blk: int) -> range:
        """The basis indices of iota_blk(S x S')."""
        d = self.s.dim * self.sp.dim
        return range(self.iota_offset + blk * d, self.iota_offset + (blk + 1) * d)

    def iota_index(self, blk: int, a: int, b: int) -> int:
        return self.iota_block(blk)[a * self.sp.dim + b]

    def tri_sp_vec(self, coords: SparseVec) -> SparseVec:
        off = self.tri_s.dim
        return {off + k: c for k, c in coords.items()}

    def iota_vec(self, blk: int, x: SparseVec, xp: SparseVec) -> SparseVec:
        return {
            self.iota_index(blk, a, b): xa * xb
            for a, xa in x.items()
            for b, xb in xp.items()
        }

    def t_s(self, a: int, b: int) -> SparseVec:
        """t_{e_a, e_b} of the first factor, embedded (tri(S) comes first)."""
        return self.tri_s.t_element({a: ONE}, {b: ONE})


def magic_square(
    s: AlgebraTable, sp: AlgebraTable, eps: Tuple[int, int, int]
) -> MagicSquareAlgebra:
    if any(e * e != 1 for e in eps):
        raise ConstructionError("eps entries must be +-1")
    tri_s = triality_cached(s)
    tri_sp = triality_cached(sp)
    ns, nsp = s.dim, sp.dim
    nts, ntsp = tri_s.dim, tri_sp.dim
    off_iota = nts + ntsp
    eps_s = [sc(e) for e in eps]

    ts_pow = tri_s.theta_t_table
    tsp_pow = tri_sp.theta_t_table

    def decode(idx: int):
        if idx < nts:
            return ("ts", idx)
        if idx < off_iota:
            return ("tsp", idx - nts)
        r = idx - off_iota
        blk, r = divmod(r, ns * nsp)
        a, b = divmod(r, nsp)
        return ("iota", blk, a, b)

    def iota_index(blk: int, a: int, b: int) -> int:
        return off_iota + blk * ns * nsp + a * nsp + b

    def place_tensor(out: SparseVec, blk: int, xs: SparseVec, xps: SparseVec, coef: Scalar):
        for p, u in xs.items():
            cu = coef * u
            for q, w in xps.items():
                k = iota_index(blk, p, q)
                out[k] = out.get(k, ZERO) + cu * w

    def fn(i: int, j: int) -> SparseVec:
        bi, bj = decode(i), decode(j)
        if bi[0] == "ts" and bj[0] == "ts":
            return tri_s.lie.bracket_basis(bi[1], bj[1])
        if bi[0] == "tsp" and bj[0] == "tsp":
            return {nts + p: v for p, v in tri_sp.lie.bracket_basis(bi[1], bj[1]).items()}
        if bi[0] == "ts" and bj[0] == "tsp":
            return {}
        if bi[0] == "ts":
            _, blk, a, b = bj
            d = tri_s.basis[bi[1]][blk]
            return {iota_index(blk, p, b): row[a] for p, row in enumerate(d) if a in row}
        if bi[0] == "tsp":
            _, blk, a, b = bj
            d = tri_sp.basis[bi[1]][blk]
            return {iota_index(blk, a, p): row[b] for p, row in enumerate(d) if b in row}
        # both iota
        _, blki, a, b = bi
        _, blkj, c, d = bj
        out: SparseVec = {}
        if blki == blkj:
            i1, i2 = (blki + 1) % 3, (blki + 2) % 3
            coef = eps_s[i1] * eps_s[i2]
            qp = sp.form[b].get(d)
            if qp:
                add_scaled(out, coef * qp, ts_pow[blki][a * ns + c])
            q = s.form[a].get(c)
            if q:
                cc = coef * q
                for p, v in tsp_pow[blki][b * nsp + d].items():
                    out[nts + p] = out.get(nts + p, ZERO) + cc * v
            return out
        if blkj == (blki + 1) % 3:
            i2 = (blki + 2) % 3
            place_tensor(out, i2, s.sc[a][c], sp.sc[b][d], eps_s[i2])
            return out
        # stored pair (blk, blk+2): reverse the rule for (blk+2, blk)
        i1 = (blki + 1) % 3
        place_tensor(out, i1, s.sc[c][a], sp.sc[d][b], -eps_s[i1])
        return out

    labels = [f"dS{k}" for k in range(nts)] + [f"dS'{k}" for k in range(ntsp)]
    for blk in range(3):
        for a in range(ns):
            for b in range(nsp):
                if nsp == 1:
                    labels.append(f"i{blk}({s.labels[a]})")
                else:
                    labels.append(f"i{blk}({s.labels[a]}|{sp.labels[b]})")
    name = (
        f"g[{''.join('+' if e > 0 else '-' for e in eps)}]"
        f"({s.name},{sp.name})"
    )
    lie = lie_from_fn(name, labels, fn)
    return MagicSquareAlgebra(lie, s, sp, tri_s, tri_sp, tuple(eps))


# ---------------------------------------------------------------------------
# the 52-dimensional algebra as Jordan derivations, and its extension


@dataclass(eq=False)
class DerivationModel:
    """g = rho(g(S, R)) + A0 on the Jordan algebra A = A(S, +++).

    Basis: the 52 derivation images rho(b_k) in the magic-square order,
    then the traceless basis E0 - E1, E2 - E0, iota_i(e_b) of A.
    """

    lie: LieAlgebra
    alg: AlbertAlgebra
    square: MagicSquareAlgebra
    rho: List[SparseMatrix]  # a homomorphism once the model passes Jacobi

    @property
    def der_dim(self) -> int:
        return len(self.rho)


def rho_images(square: MagicSquareAlgebra, alg: AlbertAlgebra) -> List[SparseMatrix]:
    """The action of g(S, R) on the Jordan algebra, basis by basis, as
    sparse rows."""
    s = square.s
    if square.sp.dim != 1:
        raise ConstructionError("derivation model needs the S' = R square")
    n = alg.dim
    tab = alg.table
    out: List[SparseMatrix] = []
    for d in square.tri_s.basis:
        m: SparseMatrix = [{} for _ in range(n)]
        for i, di in enumerate(d):
            off = alg.iota_index(i, 0)
            for p, row in enumerate(di):
                m[off + p] = {off + q: x for q, x in row.items()}
        out.append(m)
    lE = [tab.lmul_matrix({a: ONE}) for a in range(3)]
    for i in range(3):
        for a in range(s.dim):
            lv = tab.lmul_matrix(alg.iota_vec(i, {a: ONE}))
            comm = commutator(lv, lE[(i + 1) % 3])
            out.append([{q: TWO * x for q, x in row.items()} for row in comm])
    return out


def check_rho_homomorphism(R: List[SparseMatrix], unit: SparseVec) -> SpanSolver:
    """The part of "rho: g(S, R) -> gl(A) is an injective homomorphism"
    that the Jacobi certificate of the derivation model leaves: the
    images R (sparse rows) are independent, and each kills the unit of A.
    Returns the SpanSolver over the flattened images.

    The model's Jacobi sum on (b_i, b_j, z), z in A0, is ([rho b_i,
    rho b_j] - rho [b_i, b_j]) z, and `derivation_model` raises unless
    rho(b_i) A0 lies in A0.  So once `certify_jacobi` passes on the model,
    rho is a homomorphism on A0, and with rho(b) 1 = 0 on A = A0 + F 1.

    Witness: {"index": k} for the first image that lies in the span of
    the earlier ones or does not kill the unit.
    """
    images = SpanSolver()
    for k, m in enumerate(R):
        if not images.add(flatten(m)):
            raise VerificationError("derivation images are dependent", witness={"index": k})
        if apply(m, unit):
            raise VerificationError(
                "derivation image does not kill the unit", witness={"index": k}
            )
    return images


def derivation_model(s: AlgebraTable) -> DerivationModel:
    """The 78-dimensional extension Der(A) + A0 for A = A(S, +++).  Its
    Jacobi certificate, which every reader of the model issues first,
    completes the proof that rho is a homomorphism."""
    r = symmetric_composition("R")
    square = magic_square(s, r, (1, 1, 1))
    alg = albert(s, (1, 1, 1))
    R = rho_images(square, alg)
    images = check_rho_homomorphism(R, alg.table.unit)
    cols = [transpose(m) for m in R]  # cols[i][q] = rho(b_i) e_q
    nd = len(R)
    n27 = alg.dim
    zs = alg.zero_trace_basis()
    traceless = SpanSolver(zs)
    lmuls = [alg.table.lmul_matrix(z) for z in zs]

    def fn(i: int, j: int) -> SparseVec:
        if j < nd:
            return square.lie.bracket_basis(i, j)
        if i < nd:
            # rho(b_i) z: the columns of rho(b_i) at the support of z, combined
            image = combine((x, cols[i][q]) for q, x in zs[j - nd].items())
            coords = traceless.coords_sparse(image)
            if coords is None:
                raise VerificationError(
                    "bracket left the traceless subspace", witness={"pair": [i, j]}
                )
            return {nd + k: x for k, x in coords.items()}
        coords = images.coords_sparse(flatten(commutator(lmuls[i - nd], lmuls[j - nd])))
        if coords is None:
            raise VerificationError(
                "commutator of multiplications is not in the image", witness={"pair": [i, j]}
            )
        return coords

    labels = list(square.lie.labels) + ["E0-E1", "E2-E0"] + [
        alg.table.labels[k] for k in range(3, n27)
    ]
    lie = lie_from_fn(f"Der({alg.table.name})+A0", labels, fn)
    return DerivationModel(lie, alg, square, R)


def _by_label(alg: AlgebraTable, images: Dict[str, str]) -> List[Tuple[int, Scalar]]:
    """A signed permutation of the basis of alg given by label, as
    (image index, sign) per basis index: images[a] = "b" or "-b" sends e_a
    to e_b or -e_b, and unlisted labels are fixed."""
    idx = {lab: k for k, lab in enumerate(alg.labels)}
    phi = [(k, ONE) for k in range(alg.dim)]
    for a, b in images.items():
        phi[idx[a]] = (idx[b.lstrip("-")], -ONE if b.startswith("-") else ONE)
    return phi


def induced_automorphism(
    square: MagicSquareAlgebra,
    phi: Dict[str, str],
    phi_p: Dict[str, str],
    signs: Tuple[int, int, int],
) -> SparseMatrix:
    """Row k: the image of basis vector k under the map of g(S, S')
    induced by signed permutations phi of S and phi' of S' (by label, as
    in `_by_label`) and a sign c_i on each iota block (Elduque, The magic
    square and symmetric compositions, Rev. Mat. Iberoam. 20 (2004)):
    d -> phi d phi^-1 slot by slot on tri(S), likewise on tri(S'), and
    iota_i(x (x) x') -> c_i iota_i(phi x (x) phi' x').  It is an
    automorphism when phi and phi' are isometric automorphisms and
    c_0 c_1 c_2 = 1; a phi that does not preserve tri raises while its
    rows are read."""
    f, fp = _by_label(square.s, phi), _by_label(square.sp, phi_p)
    rows = [square.tri_s.conjugate(k, f) for k in range(square.tri_s.dim)]
    rows += [square.tri_sp_vec(square.tri_sp.conjugate(k, fp)) for k in range(square.tri_sp.dim)]
    for blk, c in enumerate(signs):
        for a, sa in f:
            for b, sb in fp:
                rows.append({square.iota_index(blk, a, b): sc(c) * sa * sb})
    return rows
