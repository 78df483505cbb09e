"""Exact root space decompositions and root system combinatorics.

Commuting ad-semisimple elements h_1..h_r are diagonalized sequentially:
each current invariant subspace is split into eigenspaces of the next
operator.  Every such basis is fully reduced, so ad(h) is restricted to
it by reading coordinates off its pivot columns (`Echelon.reduced`), with
no elimination.  Lie algebra elements, root vectors and restricted
matrices are zero-free sparse vectors and rows throughout.  Eigenvalues are found
exactly, one Krylov chain at a time: the minimal polynomial of the vector
sum_k e_k, then of e_j times prod (m - lam) over the eigenvalues lam found
so far, until the eigenspaces cover the layer.  No minimal polynomial of
the whole matrix is formed; the coverage is the certificate, since
eigenvectors of distinct eigenvalues are independent, and an eigenvalue
found twice proves the layer not semisimple.  If D clears the
denominators of a chain's monic squarefree polynomial, every root in the
field has coordinates over 1, sqrt3, i, i sqrt3 in Z/(2D), since D times
a root is an integer of Q(zeta12).  Float roots of both embeddings
propose grid points; each is accepted only when the polynomial vanishes
on it exactly, and deg p accepted roots certify that none is missing.

Root systems are then classified intrinsically through root strings;
coordinate geometry is never trusted (the restriction of the invariant
form to a subsystem need not be the abstract one).  Positivity adapted to
the split part is Araki's sigma-order: a root is positive when the first
nonzero entry of (its restriction to a, then its torus part divided by i)
is positive, a lexicographic order decided exactly by `Scalar.sign`.

A Cartan involution is certified from its rows theta(b_k): its +1 and -1
eigenspaces t, p fill g, are real, with Killing form negative on t and
positive on p, and theta respects the brackets of a generating set with g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import ConstructionError, VerificationError
from .lie import LieAlgebra
from .linalg import (
    Echelon,
    SparseMatrix,
    SparseVec,
    SpanSolver,
    add_product,
    apply,
    combine,
    nullspace,
    sylvester_signature,
    to_sparse,
    transpose,
)
from .scalars import HALF, ONE, ZERO, Scalar, add_scaled, sort_key

Covector = Tuple[Scalar, ...]
Poly = List[Scalar]  # coefficients, low degree first


# ---------------------------------------------------------------------------
# polynomial helpers (monic arithmetic over the scalar field)


def poly_normalize(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = b[-1].inverse()
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and poly_normalize(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = a[k + i] - c * y
        poly_normalize(a)
    return poly_normalize(q), a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [x * inv for x in a]
    return a


def poly_eval(p: Poly, x: Scalar) -> Scalar:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return [Scalar(k) * p[k] for k in range(1, len(p))]


def poly_squarefree(p: Poly) -> Poly:
    """Monic squarefree part p / gcd(p, p')."""
    if len(p) <= 2:
        return list(p)
    g = poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        return list(p)
    q, r = poly_divmod(p, g)
    if r:
        raise VerificationError(
            "gcd(p, p') does not divide p in poly_squarefree", witness=[c.to_str() for c in r]
        )
    return poly_normalize(q)


# ---------------------------------------------------------------------------
# exact eigenvalues of a matrix over Q(sqrt3, i)


def _times(cols: SparseMatrix, v: SparseVec) -> SparseVec:
    """m v for the matrix m with columns `cols`: one `combine`."""
    return combine((c, cols[j]) for j, c in v.items())


def minimal_polynomial(cols: SparseMatrix, v: SparseVec) -> Poly:
    """The minimal polynomial of the vector v under the matrix m with
    columns `cols`: the monic annihilator of the Krylov sequence v, m v,
    m^2 v, ..., read off the first power in the span of the ones before.
    Each m w sums the columns, one normalisation per entry."""
    krylov = SpanSolver([v])
    last = v
    while True:
        last = _times(cols, last)
        coords = krylov.coords_sparse(last)
        if coords is not None:
            # monic annihilator: x^k - sum coords[j] x^j
            ann = [ZERO] * krylov.rank + [ONE]
            for j, c in coords.items():
                ann[j] = -c
            return ann
        krylov.add(last)


_SQRT3 = math.sqrt(3.0)
_ROOT_SWEEPS = 200  # Durand-Kerner sweeps; simple roots settle in far fewer


def _embedded(p: Poly, sqrt3: float) -> List[complex]:
    """p as complex floats under the embedding r3 -> sqrt3, i -> 1j."""
    out = []
    for x in p:
        a, b, c, d, n = x.as_ints()
        out.append(complex((a + b * sqrt3) / n, (c + d * sqrt3) / n))
    return out


def _float_roots(p: List[complex]) -> List[complex]:
    """Approximate roots of a monic polynomial (low degree first) by
    Durand-Kerner iteration from fixed points on its Cauchy circle."""
    deg = len(p) - 1
    if deg < 1:
        return []
    radius = 1.0 + max(abs(c) for c in p[:-1])
    angles = [2 * math.pi * k / deg + 0.4 for k in range(deg)]
    zs = [complex(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    for _ in range(_ROOT_SWEEPS):
        moved = 0.0
        for k in range(deg):
            z = zs[k]
            val = complex(1)
            for c in reversed(p[:-1]):
                val = val * z + c
            den = complex(1)
            for j in range(deg):
                if j != k:
                    den *= z - zs[j]
            if not den:
                continue
            step = val / den
            zs[k] = z - step
            moved = max(moved, abs(step) / max(1.0, abs(z)))
        if moved < 1e-14:
            break
    return zs


def exact_eigenvalues(p: Poly, context: str = "") -> List[Scalar]:
    """The distinct roots in Q(sqrt3, i) of the monic p, each certified
    exactly, sorted by `key()`.

    Let p now be its squarefree part and D the lcm of its coefficient
    denominators.  D*lam is then an algebraic integer of Q(sqrt3, i) =
    Q(zeta12), whose ring of integers is Z[zeta12], so every root lam in
    the field has coordinates over 1, sqrt3, i, i*sqrt3 in Z/(2D).  Floats
    only propose: the roots z+ of p and z- of its image under sqrt3 ->
    -sqrt3 pair into u = (z+ + z-)/2 and w = (z+ - z-)/(2 sqrt3), whose
    real and imaginary parts are snapped to that grid (pairs more than a
    quarter step off are dropped), closest first.  A candidate is accepted
    only when poly_eval(p, lam) == 0 exactly, and deg p distinct accepted
    roots are all of them.  Otherwise p has a root outside the field (or
    one that double precision cannot resolve on the grid) and
    VerificationError carries p's coefficients as witness.
    """
    poly = poly_squarefree(p)
    deg = len(poly) - 1
    grid = 2 * math.lcm(*(c.as_ints()[4] for c in poly))
    emb_plus, emb_minus = _embedded(poly, _SQRT3), _embedded(poly, -_SQRT3)
    plus = _float_roots(emb_plus)
    # with no sqrt3 in p both embeddings agree, and so do their roots
    minus = plus if emb_minus == emb_plus else _float_roots(emb_minus)
    proposals = []
    for zp in plus:
        for zm in minus:
            u = (zp + zm) / 2
            w = (zp - zm) / (2 * _SQRT3)
            scaled = [x * grid for x in (u.real, w.real, u.imag, w.imag)]
            if not all(map(math.isfinite, scaled)):
                continue
            ints = [round(x) for x in scaled]
            off = max(abs(x - k) for x, k in zip(scaled, ints))
            if off <= 0.25:
                proposals.append((off, ints))
    proposals.sort()
    found: List[Scalar] = []
    for _, ints in proposals:
        if len(found) == deg:
            break
        lam = Scalar.from_ints(*ints, grid)
        if lam not in found and not poly_eval(poly, lam):
            found.append(lam)
    if len(found) < deg:
        raise VerificationError(
            f"eigenvalues outside Q(sqrt3, i) {context}: certified {len(found)} "
            f"of {deg} roots of the squarefree polynomial",
            witness=poly,
        )
    found.sort(key=sort_key(found))
    return found


def eigen_split(
    m: SparseMatrix, context: str = ""
) -> List[Tuple[Scalar, List[SparseVec]]]:
    """(eigenvalue, kernel basis) pairs sorted by `key()`, the kernel
    vectors sparse; dimensions must sum to dim.  A 1 x 1 matrix is its own
    eigenvalue, a Scalar and so in the field, with the whole line as
    eigenspace.

    The eigenvalues come one Krylov chain at a time, from the starts
    sum_k e_k, e_0, ..., e_{n-1}: a start v becomes w = prod (m - lam) v
    over the eigenvalues lam found so far, and unless w = 0 the roots of
    its minimal polynomial are new eigenvalues, each with the kernel of
    m - lam.  Eigenvectors of distinct eigenvalues are independent, so
    kernels that cover n prove m diagonalisable with exactly these
    eigenvalues.  If m is, w lies in the eigenspaces not yet found, so a
    root found a second time proves m not semisimple; and while the
    kernels fall short of n, prod (m - lam) != 0 sends some e_j to w != 0,
    whose roots are eigenvalues not yet found."""
    n = len(m)
    if n == 0:
        return []
    if n == 1:
        return [(m[0].get(0, ZERO), [{0: ONE}])]
    cols = transpose(m)
    out: List[Tuple[Scalar, List[SparseVec]]] = []
    covered = 0
    for w in [dict.fromkeys(range(n), ONE)] + [{k: ONE} for k in range(n)]:
        if covered == n:
            break
        for lam, _ in out:
            mw = _times(cols, w)
            add_scaled(mw, -lam, w)
            w = mw
        if not w:
            continue
        for lam in exact_eigenvalues(minimal_polynomial(cols, w), context):
            if any(lam == mu for mu, _ in out):
                raise VerificationError(
                    f"operator is not semisimple over the field {context}: eigenvalue "
                    f"{lam} found again, with eigenspaces covering {covered} of {n}",
                    witness={"eigenvalue": lam.to_str(), "covered": covered, "dim": n},
                )
            shifted = []
            for p, row in enumerate(m):
                r = dict(row)
                x = r.get(p, ZERO) - lam
                if x:
                    r[p] = x
                else:
                    r.pop(p, None)
                shifted.append(r)
            ker = nullspace(shifted, n)
            if not ker:
                raise VerificationError(
                    f"spurious eigenvalue {lam} {context}", witness={"eigenvalue": lam.to_str()}
                )
            out.append((lam, ker))
            covered += len(ker)
    if covered != n:
        raise VerificationError(
            f"operator is not semisimple over the field {context}: "
            f"eigenspaces cover {covered} of {n}",
            witness={"covered": covered, "dim": n},
        )
    key = sort_key([lam for lam, _ in out])
    out.sort(key=lambda pair: key(pair[0]))
    return out


# ---------------------------------------------------------------------------
# simultaneous decomposition


@dataclass(eq=False)
class RootSpace:
    covector: Covector
    basis: List[SparseVec]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(eq=False)
class RootDatum:
    lie: LieAlgebra
    hs: List[SparseVec]
    spaces: List[RootSpace]  # nonzero covectors, sorted
    zero: RootSpace

    def root_set(self) -> set:
        return {s.covector for s in self.spaces}


def _restricted_matrix(
    L: LieAlgebra, hs: List[SparseVec], hi: int, basis: List[SparseVec], context: str
) -> SparseMatrix:
    """ad(hs[hi]) on the span of a fully reduced basis, as sparse rows in
    basis coordinates."""
    ech = Echelon.reduced(basis)
    if ech is None:
        raise ConstructionError(f"dependent subspace basis {context}")
    rows: SparseMatrix = [{} for _ in basis]
    for j, b in enumerate(basis):
        c = ech.coords(L.bracket(hs[hi], b))
        if c is None:
            raise VerificationError(
                f"subspace is not ad-invariant {context}", witness={"h": hi, "index": j}
            )
        for p, x in c.items():
            rows[p][j] = x
    return rows


def root_decomposition(L: LieAlgebra, hs: List[SparseVec], name: str = "") -> RootDatum:
    """The simultaneous eigenspaces of the ad(h), h in hs, on L.  Each
    layer, from the unit vectors on, is fully reduced at the largest index
    of each vector: an eigenvector is a `nullspace` vector in layer coordinates,
    so it is 1 at the pivot of the layer vector it extends and 0 at the
    pivots of the others.  `eigen_split` certifies that the eigenspaces of
    each layer cover it, with distinct eigenvalues, so the spaces have
    distinct covectors and their dimensions sum to the dimension."""
    start = [L.basis_vec(k) for k in range(L.dim)]
    layers: List[Tuple[List[Scalar], List[SparseVec]]] = [([], start)]
    for hi in range(len(hs)):
        nxt: List[Tuple[List[Scalar], List[SparseVec]]] = []
        for prefix, basis in layers:
            ctx = f"(h{hi + 1} of {name or L.name})"
            m = _restricted_matrix(L, hs, hi, basis, ctx)
            for lam, ker in eigen_split(m, ctx):
                vecs = [combine((c, basis[k]) for k, c in coords.items()) for coords in ker]
                nxt.append((prefix + [lam], vecs))
        layers = nxt
    spaces = []
    zero = None
    for prefix, basis in layers:
        cov = tuple(prefix)
        if any(prefix):
            spaces.append(RootSpace(cov, basis))
        else:
            zero = RootSpace(cov, basis)
    if zero is None:
        zero = RootSpace(tuple([ZERO] * len(hs)), [])
    key = cov_sort_key([s.covector for s in spaces])
    spaces.sort(key=lambda s: key(s.covector))
    return RootDatum(L, hs, spaces, zero)


# ---------------------------------------------------------------------------
# covector arithmetic


def cov_add(a: Covector, b: Covector) -> Covector:
    return tuple(x + y for x, y in zip(a, b))


def cov_sub(a: Covector, b: Covector) -> Covector:
    return tuple(x - y for x, y in zip(a, b))


def cov_scale(c: Scalar, a: Covector) -> Covector:
    return tuple(c * x for x in a)


def cov_is_zero(a: Covector) -> bool:
    return not any(a)


def cov_sort_key(covs: Iterable[Covector]) -> Callable[[Covector], tuple]:
    """A sort key for the given covectors that orders them as the tuples
    of `Scalar.key` of their entries do: each entry as its integer parts
    over the lcm of all their denominators (`scalars.sort_key`)."""
    key = sort_key([x for c in covs for x in c])
    return lambda c: tuple(map(key, c))


# ---------------------------------------------------------------------------
# root strings, Cartan matrices, classification


def cartan_integer(beta: Covector, alpha: Covector, roots: set) -> int:
    """<beta, alpha^vee> = p - q from the alpha-string through beta."""
    q = 0
    cur = cov_add(beta, alpha)
    while cur in roots:
        q += 1
        cur = cov_add(cur, alpha)
    p = 0
    cur = cov_sub(beta, alpha)
    while cur in roots:
        p += 1
        cur = cov_sub(cur, alpha)
    return p - q


def cartan_matrix(simple: List[Covector], roots: set) -> List[List[int]]:
    k = len(simple)
    c = [[2] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                c[i][j] = cartan_integer(simple[j], simple[i], roots)
    return c


def _chain_matrix(k: int) -> List[List[int]]:
    c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _catalog(k: int) -> List[Tuple[str, List[List[int]]]]:
    """The Cartan matrices of rank k, each in Bourbaki order (Bourbaki, Lie
    Groups and Lie Algebras, ch. VI, Plates): row i, column j holds
    <a_j, a_i^vee>, so a matching permutation labels a simple system."""
    out: List[Tuple[str, List[List[int]]]] = [(f"A{k}", _chain_matrix(k))]
    if k >= 2:
        b = _chain_matrix(k)
        b[k - 1][k - 2] = -2  # last root short
        out.append((f"B{k}", b))
    if k >= 3:
        c = _chain_matrix(k)
        c[k - 2][k - 1] = -2  # last root long
        out.append((f"C{k}", c))
    if k >= 4:
        # chain 1-2-...-(k-1), node k on node k-2
        d = _chain_matrix(k)
        d[k - 2][k - 1] = d[k - 1][k - 2] = 0
        d[k - 3][k - 1] = d[k - 1][k - 3] = -1
        out.append((f"D{k}", d))
    if k == 2:
        g = [[2, -3], [-1, 2]]  # alpha1 short
        out.append(("G2", g))
    if k == 4:
        f = _chain_matrix(4)
        f[2][1] = -2  # alpha2 long, alpha3 short
        out.append(("F4", f))
    if k in (6, 7, 8):
        # chain 1-3-4-...-k, node 2 on node 4
        e = _chain_matrix(k)
        e[0][1] = e[1][0] = 0
        e[1][2] = e[2][1] = 0
        e[0][2] = e[2][0] = -1
        e[1][3] = e[3][1] = -1
        out.append((f"E{k}", e))
    return out


def _matrices_match(a: List[List[int]], b: List[List[int]]) -> Iterator[Tuple[int, ...]]:
    """Every permutation `order` with a[order[i]][order[j]] == b[i][j]:
    node i of b is node order[i] of a.  When a is b up to the order of its
    nodes, there is one per automorphism of b's Dynkin diagram.

    A backtracking search: node i of b is matched to each free node v of a
    in increasing order, and v is kept only if its entries against itself
    and the nodes already placed agree with b.  Every full order reached
    matches, and the orders come in lexicographic order."""
    k = len(a)
    order: List[int] = []
    free = [True] * k

    def extend(i: int) -> Iterator[Tuple[int, ...]]:
        if i == k:
            yield tuple(order)
            return
        row = b[i]
        for v in range(k):
            if free[v] and a[v][v] == row[i] and all(
                a[u][v] == b[h][i] and a[v][u] == row[h] for h, u in enumerate(order)
            ):
                free[v] = False
                order.append(v)
                yield from extend(i + 1)
                order.pop()
                free[v] = True

    return extend(0)


def _components(c: List[List[int]]) -> List[List[int]]:
    k = len(c)
    seen = [False] * k
    comps = []
    for s in range(k):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(k):
                if not seen[w] and (c[v][w] or c[w][v]):
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def classify_cartan_matrix(c: List[List[int]]) -> str:
    """The type of c, its components joined by "+"; "empty" when c has no
    node."""
    names = []
    for comp in _components(c):
        sub = [[c[i][j] for j in comp] for i in comp]
        k = len(comp)
        name = None
        for cand_name, cand in _catalog(k):
            if next(_matrices_match(sub, cand), None) is not None:
                name = cand_name
                break
        if name is None:
            raise VerificationError(
                f"unrecognized Cartan matrix component (rank {k})", witness=sub
            )
        names.append(name)
    names.sort(key=lambda s: (-int(s[1:]), s[0]))
    return "+".join(names) or "empty"


def bourbaki_orders(c: List[List[int]]) -> Tuple[str, List[Tuple[int, ...]]]:
    """The type of the Cartan matrix c and, when c is irreducible, every
    order of its nodes that carries it onto the catalog matrix of that
    type: node order[i] of c is the Bourbaki node a_{i+1}.  There is one
    order per automorphism of the Dynkin diagram (two for E6); a reducible
    c has none."""
    if len(_components(c)) == 1:
        for name, cand in _catalog(len(c)):
            orders = list(_matrices_match(c, cand))
            if orders:
                return name, orders
    return classify_cartan_matrix(c), []


def _simple_witness(root: Covector, simple: List[Covector]) -> Dict[str, object]:
    """A root and the simple system it failed against, as strings."""
    return {
        "covector": [x.to_str() for x in root],
        "simple": [[x.to_str() for x in s] for s in simple],
    }


def verify_simple_basis(roots: set, simple: List[Covector]) -> Dict[str, int]:
    """Certify the claimed simple roots a base of the root system: they are
    roots, they are linearly independent, and each root is an integer
    combination of them with coefficients all of one sign.  The empty
    system is the base of the empty root system.  A failure carries the
    simple system, and the root where there is one, as witness."""
    dim = len(simple[0]) if simple else 0
    solver = SpanSolver()
    for s in simple:
        if s not in roots:
            raise VerificationError(
                f"simple root {s} is not a root", witness=_simple_witness(s, simple)
            )
        if not solver.add(to_sparse(s)):
            raise VerificationError(
                "simple roots are dependent", witness=_simple_witness(s, simple)
            )
    positives = 0
    for cov in roots:
        signs = {1 if c > 0 else -1 for c in _integer_coords(solver, simple, cov) if c}
        if len(signs) != 1:
            raise VerificationError(
                f"mixed-sign simple coordinates for {cov}",
                witness=_simple_witness(cov, simple),
            )
        if signs == {1}:
            positives += 1
    if 2 * positives != len(roots):
        raise VerificationError(
            "positive roots are not half of all roots",
            witness={"positive": positives, "roots": len(roots),
                     "simple": [[x.to_str() for x in s] for s in simple]},
        )
    return {"roots": len(roots), "positive": positives, "rank_used": dim}


def _integer_coords(solver: SpanSolver, simple: List[Covector], root: Covector) -> List[int]:
    """Coordinates of root over the simple roots, which the solver spans;
    all integers."""
    coords = solver.coords_sparse(to_sparse(root))
    if coords is None:
        raise VerificationError(
            f"root {root} outside the simple span", witness=_simple_witness(root, simple)
        )
    out = []
    for k in range(len(simple)):
        c = coords.get(k, ZERO)
        if not c.is_rational() or c.a.denominator != 1:
            raise VerificationError(
                f"non-integer simple coordinates for {root}",
                witness=_simple_witness(root, simple),
            )
        out.append(c.a.numerator)
    return out


def simple_coords(root: Covector, simple: List[Covector]) -> List[int]:
    return _integer_coords(SpanSolver(map(to_sparse, simple)), simple, root)


def highest_root(roots: set, simple: List[Covector]) -> Covector:
    solver = SpanSolver(map(to_sparse, simple))
    best = None
    best_height = None
    for cov in roots:
        h = sum(_integer_coords(solver, simple, cov))
        if best is None or h > best_height:
            best, best_height = cov, h
    for k, s in enumerate(simple):
        if cov_add(best, s) in roots:
            raise VerificationError(
                "highest root is not maximal",
                witness={**_simple_witness(best, simple), "index": k},
            )
    return best


# ---------------------------------------------------------------------------
# restriction to the split part


def restrict_covector(cov: Covector, a_idx: Sequence[int]) -> Covector:
    out = []
    for k in a_idx:
        x = cov[k]
        if not x.is_real():
            raise VerificationError(
                "restriction to the split part is not real",
                witness={"covector": [y.to_str() for y in cov], "h": k},
            )
        out.append(x)
    return tuple(out)


def split_indices(datum: RootDatum) -> Tuple[int, ...]:
    """The k whose h_k takes a real value on every root: the split part a.
    Every other h_k must take only imaginary values (the compact torus)."""
    split = []
    for k in range(len(datum.hs)):
        values = [s.covector[k] for s in datum.spaces]
        if all(x.is_real() for x in values):
            split.append(k)
        elif any(x.real() for x in values):
            raise VerificationError(
                f"h{k + 1} is neither split nor compact", witness={"h": k}
            )
    return tuple(split)


def strip_torus_part(cov: Covector, a_idx: Sequence[int]) -> Covector:
    """The non-split components, divided by i (they must be imaginary)."""
    out = []
    for k in range(len(cov)):
        if k in a_idx:
            continue
        x = cov[k]
        if x.real():
            raise VerificationError(
                "compact-part component is not imaginary",
                witness={"covector": [y.to_str() for y in cov], "h": k},
            )
        out.append(x.imag())
    return tuple(out)


def restricted_multiplicities(
    datum: RootDatum, a_idx: Sequence[int]
) -> Dict[Covector, int]:
    out: Dict[Covector, int] = {}
    for s in datum.spaces:
        r = restrict_covector(s.covector, a_idx)
        if cov_is_zero(r):
            continue
        out[r] = out.get(r, 0) + s.dim
    return out


def is_nonreduced(sigma: set) -> bool:
    return any(cov_scale(Scalar(2), lam) in sigma for lam in sigma)


def indivisible_roots(sigma: set) -> set:
    return {lam for lam in sigma if cov_scale(HALF, lam) not in sigma}


def classify_restricted(sigma: set, simple: List[Covector]) -> str:
    ind = indivisible_roots(sigma)
    name = classify_cartan_matrix(cartan_matrix(simple, ind))
    if is_nonreduced(sigma):
        # indivisible part of BC_n is B_n (A_1 when n = 1)
        if name == "A1":
            name = "BC1"
        elif name.startswith("B"):
            name = "BC" + name[1:]
        else:
            raise VerificationError(
                f"nonreduced system with indivisible type {name}",
                witness={"type": name, "simple": [[x.to_str() for x in c] for c in simple]},
            )
    return name


# ---------------------------------------------------------------------------
# automatic adapted positivity


def lex_sign(cov: Covector, a_idx: Sequence[int]) -> int:
    """Sign of a root in the sigma-order: that of the first nonzero entry
    of (restriction to the split part, torus part divided by i)."""
    for x in restrict_covector(cov, a_idx) + strip_torus_part(cov, a_idx):
        s = x.sign()
        if s:
            return s
    return 0


def simple_from_positive(positive: Sequence[Covector]) -> List[Covector]:
    """The positive roots that are not the sum of two positive roots."""
    pos_set = set(positive)
    return [a for a in positive if not any(cov_sub(a, b) in pos_set for b in positive)]


def adapted_simple_system(
    datum: RootDatum, a_idx: Sequence[int]
) -> List[Covector]:
    """The simple system of the sigma-order (Satake 1960; Araki 1962).

    The lexicographic order on (restriction to a, torus part / i), with
    the split coordinates first, is a total order compatible with addition
    in which every root is positive or negative, so no search is needed;
    a root with a positive restriction is positive whatever its torus part.
    """
    positive = [c for c in datum.root_set() if lex_sign(c, a_idx) > 0]
    simple = simple_from_positive(positive)
    return sorted(simple, key=cov_sort_key(simple))


# ---------------------------------------------------------------------------
# Cartan decompositions


def verify_cartan_decomposition(
    L: LieAlgebra, theta: SparseMatrix, generators: List[int], killing: SparseMatrix
) -> Tuple[List[SparseVec], List[SparseVec], Dict[str, object]]:
    """Certify theta, given as rows theta(b_k), as a Cartan involution of
    L; return t = ker(theta - 1), p = ker(theta + 1) and the report.

    Eigenvectors of distinct eigenvalues are independent, so dim t + dim p
    = dim L makes g = t + p direct and theta an involution.  t and p must
    be real.  theta[b_g, b_q] = [theta b_g, theta b_q] is checked on the
    |S| dim L pairs with g in S = `generators`, a set that `certify_jacobi`
    certified to generate L under its own ad: by the Jacobi identity of L,
    the x with theta[x, y] = [theta x, theta y] for all y form a subalgebra
    that contains S, so it is L: theta is an automorphism, which puts
    [t, t] and [p, p] in t and [t, p] in p.  Last, `killing`, the Killing
    form of L, must be negative definite on t and positive definite on p
    (Knapp, Lie Groups Beyond an Introduction, VI.2).  The first failed
    condition raises, with the index in t followed by p of a non-real
    vector, the dimensions, the pair (g, q) or the signature."""
    cols = transpose(theta)  # row i: entry i of every theta(b_k)
    t_basis, p_basis = (
        nullspace([combine([(ONE, row), (-lam, {i: ONE})]) for i, row in enumerate(cols)], L.dim)
        for lam in (ONE, -ONE)
    )
    if len(t_basis) + len(p_basis) != L.dim:
        raise VerificationError(
            f"theta is not an involution: dim t + dim p = {len(t_basis) + len(p_basis)} < {L.dim}",
            witness={"dim_t": len(t_basis), "dim_p": len(p_basis), "dim": L.dim},
        )
    for k, v in enumerate(t_basis + p_basis):
        if not all(x.is_real() for x in v.values()):
            part = "t" if k < len(t_basis) else "p"
            raise VerificationError(
                f"basis vector {k} ({part}) has a non-real coordinate", witness=k
            )
    for g in generators:
        for q in range(L.dim):
            image = combine((x, theta[k]) for k, x in L.bracket_basis(g, q).items())
            if image != L.bracket(theta[g], theta[q]):
                raise VerificationError(
                    "theta is not an automorphism: theta[b_g, b_q] != [theta b_g, theta b_q]",
                    witness={"pair": [g, q]},
                )

    def gram(vs: List[SparseVec]) -> SparseMatrix:
        kv: SparseMatrix = [{} for _ in vs]
        add_product(kv, vs, killing)  # row i: v_i^T K
        return [apply(kv, w) for w in vs]  # column j, which is row j

    sig_t = sylvester_signature(gram(t_basis))
    sig_p = sylvester_signature(gram(p_basis))
    if sig_t != (0, len(t_basis), 0):
        raise VerificationError(
            f"Killing form not negative definite on t: {sig_t}", witness={"signature": list(sig_t)}
        )
    if sig_p != (len(p_basis), 0, 0):
        raise VerificationError(
            f"Killing form not positive definite on p: {sig_p}", witness={"signature": list(sig_p)}
        )
    return t_basis, p_basis, {
        "dim_t": len(t_basis),
        "dim_p": len(p_basis),
        "signature": len(p_basis) - len(t_basis),
        "killing_on_t": sig_t,
        "killing_on_p": sig_p,
        "generators": list(generators),
        "pairs": len(generators) * L.dim,
    }
