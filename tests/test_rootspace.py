import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realforms.rootspace as rootspace_mod
from realforms import pipeline
from realforms.cli import _jsonable
from realforms.constructions import induced_automorphism
from realforms.errors import ConstructionError, VerificationError
from realforms.lie import LieAlgebra, generating_set, killing_form, lie_from_fn
from realforms.linalg import to_sparse, transpose
from realforms.rootspace import (
    RootDatum,
    RootSpace,
    adapted_simple_system,
    bourbaki_orders,
    cartan_integer,
    cartan_matrix,
    classify_cartan_matrix,
    classify_restricted,
    cov_add,
    cov_sort_key,
    eigen_split,
    exact_eigenvalues,
    highest_root,
    indivisible_roots,
    is_nonreduced,
    minimal_polynomial,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_normalize,
    poly_squarefree,
    restrict_covector,
    restricted_multiplicities,
    root_decomposition,
    simple_coords,
    strip_torus_part,
    verify_cartan_decomposition,
    verify_simple_basis,
)
from realforms.satake import _bonds
from realforms.scalars import IUNIT, ONE, SQRT3, ZERO, Rat, Scalar, sc

from oracles import compact_satake, cov_neg, matrices_match_by_permutations, poly_mul


def cov(*xs):
    return tuple(sc(x) for x in xs)


def rows(m):
    """A dense test matrix as the sparse rows the eigen code takes."""
    return [to_sparse(r) for r in m]


def pm(*covs):
    out = set()
    for c in covs:
        out.add(c)
        out.add(cov_neg(c))
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_divmod_oracle():
    # (x^2 - 1) = (x + 1)(x - 1) + 0
    q, r = poly_divmod([sc(-1), ZERO, ONE], [ONE, ONE])
    assert q == [sc(-1), ONE]
    assert r == []


def test_poly_gcd_is_monic_common_factor():
    a = poly_mul([sc(-1), ONE], [sc(2), ONE])  # (x-1)(x+2)
    b = poly_mul([sc(-1), ONE], [sc(5), ONE])  # (x-1)(x+5)
    assert poly_gcd(a, b) == [sc(-1), ONE]


def test_poly_squarefree_strips_multiplicity():
    p = poly_mul([ZERO, ONE], [ZERO, ONE])  # x^2
    assert poly_squarefree(p) == [ZERO, ONE]
    q = poly_mul(poly_mul([sc(-1), ONE], [sc(-1), ONE]), [sc(1), ONE])
    assert poly_squarefree(q) == poly_normalize(poly_mul([sc(-1), ONE], [sc(1), ONE]))


# a gcd that does not divide the polynomial reaches the exact-division
# check of the squarefree part, with the remainder as witness


def test_poly_squarefree_rejects_a_gcd_that_does_not_divide(monkeypatch):
    monkeypatch.setattr(rootspace_mod, "poly_gcd", lambda a, b: [ONE, ONE])  # x + 1
    with pytest.raises(VerificationError, match="poly_squarefree") as info:
        poly_squarefree([ZERO, ZERO, ONE])  # x^2
    assert info.value.witness == ["1"]  # x^2 = (x + 1)(x - 1) + 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
)
def test_poly_divmod_reconstructs(acoeffs, bcoeffs):
    a = poly_normalize([Scalar(x) for x in acoeffs])
    b = poly_normalize([Scalar(x) for x in bcoeffs])
    if not b:
        return
    q, r = poly_divmod(a, b)
    recon = list(poly_mul(q, b))
    n = max(len(recon), len(r), len(a), 1)
    recon += [ZERO] * (n - len(recon))
    rpad = list(r) + [ZERO] * (n - len(r))
    apad = list(a) + [ZERO] * (n - len(a))
    assert [x + y for x, y in zip(recon, rpad)] == apad
    assert len(r) < len(b)


# ---------------------------------------------------------------------------
# exact eigenvalues


def by_key(values):
    return sorted(values, key=lambda s: s.key())


def ones_annihilator(m):
    """The minimal polynomial of the all-ones vector, `eigen_split`'s first
    Krylov start, under the dense test matrix m."""
    return minimal_polynomial(transpose(rows(m)), dict.fromkeys(range(len(m)), ONE))


def test_minimal_polynomial_diagonal():
    m = [[sc(1), ZERO, ZERO], [ZERO, sc(1), ZERO], [ZERO, ZERO, sc(-2)]]
    # (x - 1)(x + 2) = x^2 + x - 2 at (1, 1, 1)
    assert ones_annihilator(m) == [sc(-2), ONE, ONE]


def test_minimal_polynomial_nilpotent():
    m = [[ZERO, ONE], [ZERO, ZERO]]
    assert ones_annihilator(m) == [ZERO, ZERO, ONE]


def test_exact_eigenvalues_rotation_gives_i():
    m = [[ZERO, sc(-1)], [ONE, ZERO]]
    assert exact_eigenvalues(ones_annihilator(m)) == by_key([IUNIT, -IUNIT])


def test_exact_eigenvalues_sqrt3_lattice_stage():
    m = [[ZERO, sc("3/4")], [ONE, ZERO]]
    vals = exact_eigenvalues(ones_annihilator(m))
    half_r3 = sc("1/2") * SQRT3
    assert set(vals) == {half_r3, -half_r3}


def test_exact_eigenvalues_denominators():
    m = [[sc("1/4"), ZERO], [ZERO, sc("-3/4")]]
    assert exact_eigenvalues(ones_annihilator(m)) == sorted(
        [sc("1/4"), sc("-3/4")], key=lambda s: s.key()
    )


def test_exact_eigenvalues_fifths_and_sevenths():
    lam = sc("-3/7 + 1/5*r3*i")
    m = [
        [sc("2/5"), ONE, sc(3)],
        [ZERO, lam, sc("1/2")],
        [ZERO, ZERO, lam.conj()],
    ]
    assert exact_eigenvalues(ones_annihilator(m)) == by_key([sc("2/5"), lam, lam.conj()])


@pytest.mark.parametrize(
    "trace,roots",
    [
        # x^2 - x + 1: the primitive sixth roots of unity (1 +- r3 i)/2
        ("1", ["1/2 + 1/2*r3*i", "1/2 - 1/2*r3*i"]),
        # x^2 - r3 x + 1: primitive twelfth roots of unity (r3 +- i)/2
        ("r3", ["1/2*r3 + 1/2*i", "1/2*r3 - 1/2*i"]),
    ],
)
def test_exact_eigenvalues_half_integral_coordinates(trace, roots):
    # p = x^2 - trace x + 1 has integral coefficients (D = 1), yet its roots
    # have coordinates in Z/2: the grid is Z/(2D), not Z/D
    m = [[ZERO, -ONE], [ONE, sc(trace)]]
    assert exact_eigenvalues(ones_annihilator(m)) == by_key(sc(r) for r in roots)


def test_exact_eigenvalues_outside_the_field():
    m = [[ZERO, sc(2)], [ONE, ZERO]]  # eigenvalues +-sqrt2
    # x^2 - 2 annihilates (1, 1), the first start of eigen_split
    with pytest.raises(VerificationError, match=r"outside Q\(sqrt3, i\)") as err:
        eigen_split(rows(m))
    assert _jsonable(err.value.witness) == ["-2", "0", "1"]
    with pytest.raises(VerificationError, match=r"outside Q\(sqrt3, i\)") as err:
        exact_eigenvalues(ones_annihilator(m))
    assert _jsonable(err.value.witness) == ["-2", "0", "1"]


field_elements = st.builds(
    lambda den, parts: Scalar(*(Rat(k, den) for k in parts)),
    st.integers(1, 12),
    st.lists(st.integers(-12, 12), min_size=4, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(field_elements, min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
)
def test_exact_eigenvalues_of_triangular(diagonal, upper):
    n = len(diagonal)
    fill = iter(upper)
    m = [
        [diagonal[i] if i == j else sc(next(fill)) if i < j else ZERO for j in range(n)]
        for i in range(n)
    ]
    # the characteristic polynomial prod (x - d_i) of the triangular m
    char = [ONE]
    for d in diagonal:
        char = poly_mul(char, [-d, ONE])
    assert exact_eigenvalues(char) == by_key(set(diagonal))
    # which the minimal polynomial of every vector divides (Cayley-Hamilton)
    cols = transpose(rows(m))
    for j in range(n):
        assert poly_divmod(char, minimal_polynomial(cols, {j: ONE}))[1] == []


def test_eigen_split_rejects_nilpotent():
    # x^2 annihilates (1, 1); the start e_1 is sent to e_0 by m, and x, the
    # minimal polynomial of e_0, has the root 0 again
    m = [[ZERO, ONE], [ZERO, ZERO]]
    with pytest.raises(VerificationError, match="not semisimple") as exc:
        eigen_split(rows(m))
    assert exc.value.witness == {"eigenvalue": "0", "covered": 1, "dim": 2}


def test_eigen_split_dimensions():
    m = [[sc(2), ZERO, ZERO], [ZERO, sc(2), ZERO], [ZERO, ZERO, sc(-1)]]
    split = eigen_split(rows(m))
    dims = {lam.to_str(): len(ker) for lam, ker in split}
    assert dims == {"2": 2, "-1": 1}


def test_eigen_split_goes_on_from_an_eigenvector_start():
    # (1, 1) is an eigenvector for 2, so the first chain finds only 2; the
    # start e_0 becomes (m - 2) e_0 = -e_0, whose chain finds 1
    m = [[ONE, ONE], [ZERO, sc(2)]]
    assert ones_annihilator(m) == [sc(-2), ONE]
    assert eigen_split(rows(m)) == [(ONE, [{0: ONE}]), (sc(2), [{0: ONE, 1: ONE}])]


def test_eigen_split_rejects_a_root_found_twice():
    # the first chain finds 1 and 2, covering 2 of 3; e_0 is then sent to
    # 0, and e_1 to -e_0, whose minimal polynomial x - 1 has the root 1 again
    m = [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, sc(2)]]
    with pytest.raises(VerificationError, match="not semisimple.*eigenvalue 1 found again") as exc:
        eigen_split(rows(m))
    assert exc.value.witness == {"eigenvalue": "1", "covered": 2, "dim": 3}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(field_elements, min_size=1, max_size=4, unique=True),
    st.lists(st.integers(0, 3), min_size=2, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), field_elements), max_size=12),
)
def test_eigen_split_of_a_conjugated_diagonal(values, picks, moves):
    """m = P D P^-1 with P a product of elementary matrices I + c E_ij:
    the eigenvalues are the entries of D, with their multiplicities as
    kernel dimensions, and every kernel vector is an eigenvector."""
    n = len(picks)
    diagonal = [values[k % len(values)] for k in picks]
    m = [[diagonal[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    for i, j, c in moves:
        i, j = i % n, j % n
        if i == j:
            continue
        # m <- E m E^-1 with E = I + c E_ij and E^-1 = I - c E_ij
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] = row[j] - c * row[i]
    split = eigen_split(rows(m))
    assert [lam for lam, _ in split] == by_key(set(diagonal))
    assert {lam: len(ker) for lam, ker in split} == {
        lam: diagonal.count(lam) for lam in diagonal
    }
    for lam, ker in split:
        for v in ker:
            mv = [sum((row[q] * x for q, x in v.items()), ZERO) for row in m]
            assert mv == [lam * v.get(p, ZERO) for p in range(n)]


@pytest.mark.parametrize("lam", [ZERO, sc("1/2") - SQRT3 * IUNIT], ids=["0", "1/2-r3*i"])
def test_eigen_split_of_a_1x1_matrix_is_its_entry(monkeypatch, lam):
    def no_krylov(p, context=""):
        raise AssertionError("a 1 x 1 matrix needs no eigenvalue search")

    monkeypatch.setattr(rootspace_mod, "exact_eigenvalues", no_krylov)
    split = eigen_split(rows([[lam]]))
    assert split == [(lam, [{0: ONE}])]
    assert isinstance(split[0][0], Scalar)


def test_lost_eigenvector_fails_the_coverage_check_first(monkeypatch):
    """A kernel that loses a vector is caught inside eigen_split, so the
    root decomposition needs no dimension check of its own."""
    real = rootspace_mod.nullspace

    def dropping(rows, n):
        ker = real(rows, n)
        return ker[:-1] if len(ker) > 1 else ker

    monkeypatch.setattr(rootspace_mod, "nullspace", dropping)
    L = sl2()
    with pytest.raises(VerificationError, match="not semisimple") as exc:
        root_decomposition(L, [{}], name="sl2")
    assert exc.value.witness == {"covered": 2, "dim": 3}


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(-3, 3), min_size=1, max_size=3))
def test_exact_eigenvalues_of_diagonal(values):
    vals = sorted(values)
    n = len(vals)
    m = [[Scalar(vals[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    got = exact_eigenvalues(ones_annihilator(m))
    assert sorted(int(v.a) for v in got) == vals


# ---------------------------------------------------------------------------
# root decomposition on small algebras


def sl2() -> LieAlgebra:
    # basis h, e, f
    def fn(i, j):
        if (i, j) == (0, 1):
            return {1: sc(2)}
        if (i, j) == (0, 2):
            return {2: sc(-2)}
        return {0: ONE}

    return lie_from_fn("sl2", ["h", "e", "f"], fn)


def so3() -> LieAlgebra:
    def fn(i, j):
        k = 3 - i - j
        sign = sc(1) if (i, j) in ((0, 1), (1, 2)) else sc(-1)
        return {k: sign}

    return lie_from_fn("so3", ["x", "y", "z"], fn)


def test_root_decomposition_sl2():
    L = sl2()
    datum = root_decomposition(L, [L.basis_vec(0)], name="sl2")
    assert datum.zero.dim == 1
    assert datum.root_set() == pm(cov(2))
    assert datum.zero.dim + sum(s.dim for s in datum.spaces) == 3


@pytest.mark.parametrize(
    "factor,root", [("2/5", "4/5"), ("1/7*r3", "2/7*r3")]
)
def test_root_decomposition_sl2_scaled(factor, root):
    L = sl2()
    datum = root_decomposition(L, [{0: sc(factor)}], name="sl2")
    assert datum.zero.dim == 1
    assert datum.root_set() == pm(cov(root))


def test_root_decomposition_so3_imaginary_roots():
    L = so3()
    datum = root_decomposition(L, [L.basis_vec(0)], name="so3")
    assert datum.root_set() == pm(cov("i"))
    assert all(s.dim == 1 for s in datum.spaces)


def test_root_decomposition_rejects_noncartan():
    L = sl2()
    # e is nilpotent, not semisimple: ad(e) has the one eigenvalue 0 and
    # a 1-dimensional kernel
    with pytest.raises(VerificationError, match="not semisimple") as exc:
        root_decomposition(L, [L.basis_vec(1)], name="bad")
    assert exc.value.witness == {"eigenvalue": "0", "covered": 1, "dim": 3}


def test_root_decomposition_rejects_non_invariant_layer():
    # e has weight 2 under h, so ad(e) moves each h-eigenspace to another
    L = sl2()
    with pytest.raises(VerificationError, match="not ad-invariant") as exc:
        root_decomposition(L, [L.basis_vec(0), L.basis_vec(1)], name="bad")
    assert exc.value.witness == {"h": 1, "index": 0}


def test_eigen_split_rejects_spurious_eigenvalue(monkeypatch):
    real = rootspace_mod.exact_eigenvalues
    monkeypatch.setattr(
        rootspace_mod, "exact_eigenvalues", lambda p, context="": real(p, context) + [sc(5)]
    )
    with pytest.raises(VerificationError, match="spurious eigenvalue 5") as exc:
        eigen_split(rows([[ONE, ZERO], [ZERO, sc(2)]]))
    assert exc.value.witness == {"eigenvalue": "5"}


def test_root_decomposition_of_e6m14_runs_about_one_krylov_chain_per_layer(
    monkeypatch, get_build
):
    """Each layer's eigenvalues come from the minimal polynomials of a few
    vectors, not of the whole layer: the chains number at most the
    non-trivial layers plus a few."""
    build = get_build("e6m14")
    chains, layers = [], []
    real_chain, real_split = rootspace_mod.minimal_polynomial, rootspace_mod.eigen_split

    def chain(cols, v):
        chains.append(len(cols))
        return real_chain(cols, v)

    def split(m, context=""):
        layers.append(len(m))
        return real_split(m, context)

    monkeypatch.setattr(rootspace_mod, "minimal_polynomial", chain)
    monkeypatch.setattr(rootspace_mod, "eigen_split", split)
    datum = root_decomposition(build.lie, build.cartan.hs, name="e6m14")
    assert len(datum.spaces) == 72
    nontrivial = sum(1 for n in layers if n > 1)
    assert nontrivial == 76
    assert nontrivial <= len(chains) <= nontrivial + 4


def test_root_decomposition_rejects_a_dependent_layer(monkeypatch):
    """A layer whose kernel basis repeats a vector is refused by the next
    generator's restricted matrix, before any eigenvalue of it is read."""
    real = rootspace_mod.eigen_split

    def repeating(m, context=""):
        return [(lam, ker + ker[:1]) for lam, ker in real(m, context)]

    monkeypatch.setattr(rootspace_mod, "eigen_split", repeating)
    L = sl2()
    with pytest.raises(ConstructionError, match=r"dependent subspace basis \(h2 of sl2\)"):
        root_decomposition(L, [L.basis_vec(0), L.basis_vec(0)], name="sl2")


# ---------------------------------------------------------------------------
# Cartan matrices and classification


A2 = pm(cov(1, 0), cov(0, 1), cov(1, 1))
B2 = pm(cov(1, -1), cov(0, 1), cov(1, 0), cov(1, 1))
G2 = pm(cov(1, 0), cov(0, 1), cov(1, 1), cov(1, 2), cov(1, 3), cov(2, 3))


def test_cartan_integer_string_walk():
    assert cartan_integer(cov(0, 1), cov(1, 0), A2) == -1
    assert cartan_integer(cov(1, 1), cov(1, 0), A2) == 1
    assert cartan_integer(cov(1, 0), cov(0, 1), G2) == -3
    assert cartan_integer(cov(0, 1), cov(1, 0), G2) == -1


def test_classify_rank2():
    assert classify_cartan_matrix(cartan_matrix([cov(1, 0), cov(0, 1)], A2)) == "A2"
    assert classify_cartan_matrix(cartan_matrix([cov(1, -1), cov(0, 1)], B2)) == "B2"
    assert classify_cartan_matrix(cartan_matrix([cov(1, 0), cov(0, 1)], G2)) == "G2"


def test_classify_direct_sum():
    roots = pm(cov(1, 0), cov(0, 1))
    cm = cartan_matrix([cov(1, 0), cov(0, 1)], roots)
    assert classify_cartan_matrix(cm) == "A1+A1"


def _e_branch_node_last(k: int):
    """E_k with its nodes listed along the chain of length k - 1, then the
    branch node, joined to the third chain node."""
    cm = [[2 if i == j else 0 for j in range(k)] for i in range(k)]

    def join(i, j):
        cm[i][j] = cm[j][i] = -1

    for a, b in zip(range(k - 2), range(1, k - 1)):
        join(a, b)
    join(2, k - 1)
    return cm


def _bourbaki_e(k: int):
    """E_k in Bourbaki order: the chain a1 a3 a4 ... ak, with a2 on a4."""
    cm = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for a, b in [(1, 3), (2, 4)] + [(j, j + 1) for j in range(3, k)]:
        cm[a - 1][b - 1] = cm[b - 1][a - 1] = -1
    return cm


def test_classify_e_series():
    for k in (6, 7, 8):
        assert classify_cartan_matrix(_e_branch_node_last(k)) == f"E{k}"
        assert classify_cartan_matrix(_bourbaki_e(k)) == f"E{k}"


def test_bourbaki_orders_of_bourbaki_e_series():
    # the identity labels a Bourbaki matrix; E6 also has the arm swap
    # a1 <-> a6, a3 <-> a5
    identity = tuple(range(6))
    assert bourbaki_orders(_bourbaki_e(6)) == ("E6", [identity, (5, 1, 4, 3, 2, 0)])
    for k in (7, 8):
        assert bourbaki_orders(_bourbaki_e(k)) == (f"E{k}", [tuple(range(k))])
    # chain 0-1-2-3-4 with 5 on 2: a2 is node 5, a4 node 2, a1 a chain end
    name, orders = bourbaki_orders(_e_branch_node_last(6))
    assert name == "E6"
    assert sorted(orders) == [(0, 5, 1, 2, 3, 4), (4, 5, 3, 2, 1, 0)]


def test_bourbaki_orders_put_the_short_root_where_bourbaki_does():
    # G2: a1 short; B2: a2 short; read off root strings
    assert bourbaki_orders(cartan_matrix([cov(0, 1), cov(1, 0)], G2)) == ("G2", [(0, 1)])
    assert bourbaki_orders(cartan_matrix([cov(1, 0), cov(0, 1)], G2)) == ("G2", [(1, 0)])
    assert bourbaki_orders(cartan_matrix([cov(1, -1), cov(0, 1)], B2)) == ("B2", [(0, 1)])
    # F4: a3 and a4 short; C3: a3 long
    f4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    assert bourbaki_orders(f4) == ("F4", [(0, 1, 2, 3)])
    assert bourbaki_orders([[2, -1, 0], [-1, 2, -2], [0, -1, 2]]) == ("C3", [(0, 1, 2)])


# |Aut| of each connected Dynkin diagram of rank <= 6: 2 for A_n, n > 1,
# and 1 for the types not listed
_AUTOMORPHISMS = {"A1": 1, "D4": 6, "D5": 2, "D6": 2, "E6": 2}
_CATALOG_TO_RANK_6 = [entry for k in range(1, 7) for entry in rootspace_mod._catalog(k)]


@pytest.mark.parametrize(
    "name,cm", _CATALOG_TO_RANK_6, ids=[name for name, _ in _CATALOG_TO_RANK_6]
)
def test_bourbaki_orders_one_per_diagram_automorphism(name, cm):
    k = len(cm)
    # the odd nodes first, then the even ones
    shuffle = list(range(1, k, 2)) + list(range(0, k, 2))
    scrambled = [[cm[i][j] for j in shuffle] for i in shuffle]
    typ, orders = bourbaki_orders(scrambled)
    assert typ == name
    automorphisms = _AUTOMORPHISMS.get(name, 2 if name[0] == "A" else 1)
    assert len(orders) == len(set(orders)) == automorphisms
    for order in orders:
        assert sorted(order) == list(range(k))
        assert all(
            scrambled[order[i]][order[j]] == cm[i][j] for i in range(k) for j in range(k)
        )


@pytest.mark.parametrize(
    "name,cm", _CATALOG_TO_RANK_6, ids=[name for name, _ in _CATALOG_TO_RANK_6]
)
def test_matrices_match_equals_the_permutation_scan(name, cm):
    """The backtracking match yields the orders of the scan over all k!
    permutations, in the same sequence, against every catalog matrix of
    the rank: the matching type and each type that does not match."""
    k = len(cm)
    shuffle = list(range(1, k, 2)) + list(range(0, k, 2))
    scrambled = [[cm[i][j] for j in shuffle] for i in shuffle]
    for _, cand in rootspace_mod._catalog(k):
        for a in (scrambled, cm):
            assert list(rootspace_mod._matrices_match(a, cand)) == (
                matrices_match_by_permutations(a, cand)
            )


@pytest.mark.parametrize("name", ["E6", "F4"])
def test_compact_templates_are_the_bourbaki_catalog_diagrams(name):
    # same edges, bonds and arrows; the template keeps its own edge order
    template = compact_satake(name)
    cm = dict(rootspace_mod._catalog(len(template.nodes)))[name]

    def edge_set(edges):
        return {(e.a, e.b, e.bond, e.arrow_to) for e in edges}

    assert edge_set(template.edges) == edge_set(_bonds(cm))


def test_bourbaki_orders_of_reducible_and_unknown_matrices():
    cm = cartan_matrix([cov(1, 0), cov(0, 1)], pm(cov(1, 0), cov(0, 1)))
    assert bourbaki_orders(cm) == ("A1+A1", [])
    with pytest.raises(VerificationError, match="unrecognized") as exc:
        bourbaki_orders([[2, -4], [-4, 2]])
    assert exc.value.witness == [[2, -4], [-4, 2]]


def test_classify_f4_c3():
    f4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    assert classify_cartan_matrix(f4) == "F4"
    c3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert classify_cartan_matrix(c3) == "C3"


def test_classify_rejects_garbage():
    # A1 + a rank-2 component with product 16: the witness is the component
    with pytest.raises(VerificationError, match="unrecognized") as exc:
        classify_cartan_matrix([[2, 0, 0], [0, 2, -4], [0, -4, 2]])
    assert exc.value.witness == [[2, -4], [-4, 2]]


# ---------------------------------------------------------------------------
# simple systems


def test_verify_simple_basis_counts():
    report = verify_simple_basis(A2, [cov(1, 0), cov(0, 1)])
    assert report == {"roots": 6, "positive": 3, "rank_used": 2}


def test_verify_simple_basis_of_the_empty_system():
    # real rank 0: the restricted root system and its base are both empty
    assert verify_simple_basis(set(), []) == {"roots": 0, "positive": 0, "rank_used": 0}
    # roots with no simple roots lie outside their span
    with pytest.raises(VerificationError, match="outside the simple span") as exc:
        verify_simple_basis(pm(cov(1, 0)), [])
    assert exc.value.witness["simple"] == []
    assert exc.value.witness["covector"] in (["1", "0"], ["-1", "0"])


def test_verify_simple_basis_rejects_mixed_signs():
    # (0,1) = (1,1) - (1,0): mixed signs against this claimed basis
    with pytest.raises(VerificationError, match="mixed-sign"):
        verify_simple_basis(A2, [cov(1, 0), cov(1, 1)])


def test_highest_root_a2():
    simple = [cov(1, 0), cov(0, 1)]
    top = highest_root(A2, simple)
    assert top == cov(1, 1)
    assert simple_coords(top, simple) == [1, 1]


def test_highest_root_g2():
    top = highest_root(G2, [cov(1, 0), cov(0, 1)])
    assert top == cov(2, 3)


def test_highest_root_not_maximal_is_witnessed():
    # with -alpha listed as a third simple root, alpha + beta has the
    # largest height, and alpha + beta - alpha = beta is a root
    simple = [cov(1, 0), cov(0, 1), cov(-1, 0)]
    with pytest.raises(VerificationError, match="highest root is not maximal") as exc:
        highest_root(A2, simple)
    assert exc.value.witness == {
        "covector": ["1", "1"],
        "simple": [["1", "0"], ["0", "1"], ["-1", "0"]],
        "index": 2,
    }


def test_simple_coords_rejects_fractions():
    simple = [cov(1, 0), cov(0, 1)]
    assert simple_coords(cov(2, -3), simple) == [2, -3]
    with pytest.raises(VerificationError, match="non-integer"):
        simple_coords(cov("1/2", 1), simple)
    with pytest.raises(VerificationError, match="non-integer"):
        highest_root(pm(cov(1, 0), cov("1/2", 1)), simple)


# ---------------------------------------------------------------------------
# restriction and nonreduced systems


def _dummy_datum(roots, dims=None):
    spaces = [
        RootSpace(c, [{} for _ in range((dims or {}).get(c, 1))])
        for c in sorted(roots, key=cov_sort_key(roots))
    ]
    return RootDatum(None, [], spaces, RootSpace(None, []))


def test_restrict_and_strip():
    c = cov(1, "i", "2*i")
    assert restrict_covector(c, (0,)) == cov(1)
    assert strip_torus_part(c, (0,)) == cov(1, 2)
    with pytest.raises(VerificationError, match="split part is not real") as exc:
        restrict_covector(c, (1,))
    assert exc.value.witness == {"covector": ["1", "1*i", "2*i"], "h": 1}
    with pytest.raises(VerificationError, match="not imaginary") as exc:
        strip_torus_part(cov(1, 1), (0,))
    assert exc.value.witness == {"covector": ["1", "1"], "h": 1}


def test_restricted_multiplicities_fold():
    # two roots restricting to the same functional, one to zero
    roots = pm(cov(1, "i"), cov(1, "-i"), cov(0, "i"))
    datum = _dummy_datum(roots)
    rmult = restricted_multiplicities(datum, (0,))
    assert rmult == {cov(1): 2, cov(-1): 2}


def test_nonreduced_detection():
    bc1 = pm(cov(1), cov(2))
    assert is_nonreduced(bc1)
    assert indivisible_roots(bc1) == pm(cov(1))
    assert classify_restricted(bc1, [cov(1)]) == "BC1"
    assert not is_nonreduced(A2)
    assert classify_restricted(A2, [cov(1, 0), cov(0, 1)]) == "A2"


def test_classify_restricted_bc2():
    bc2 = pm(
        cov(1, 0), cov(0, 1), cov(1, 1), cov(1, -1), cov(2, 0), cov(0, 2)
    )
    assert classify_restricted(bc2, [cov(1, -1), cov(0, 1)]) == "BC2"


def test_nonreduced_system_of_type_a2_is_witnessed():
    # A2 with one root doubled is nonreduced, but BC_n has a B_n indivisible part
    sigma = A2 | pm(cov(2, 0))
    assert is_nonreduced(sigma)
    with pytest.raises(VerificationError, match="indivisible type A2") as exc:
        classify_restricted(sigma, [cov(1, 0), cov(0, 1)])
    assert exc.value.witness == {"type": "A2", "simple": [["1", "0"], ["0", "1"]]}


def test_adapted_simple_system_mixed():
    # rank-2 system with one compact direction: a_idx = (0,)
    roots = pm(cov(1, 0), cov(0, "i"), cov(1, "i"))
    datum = _dummy_datum(roots)
    simple = adapted_simple_system(datum, (0,))
    assert set(simple) == {cov(1, 0), cov(0, "i")}
    verify_simple_basis(roots, simple)


def test_adapted_simple_system_split_dominates():
    # the split part must outweigh any compact contribution, so the
    # negative-compact root (1, -i) is still positive
    roots = pm(cov(1, "-i"), cov(0, "i"), cov(1, 0))
    datum = _dummy_datum(roots)
    simple = adapted_simple_system(datum, (0,))
    for s in simple:
        r = restrict_covector(s, (0,))
        if any(r):
            assert r[0].sign() > 0


def test_adapted_simple_system_g2_without_split_part():
    # a_idx = (): the sigma-order is the lexicographic order of the torus
    # parts / i.  Each of the weightings (1, 4), (1, 5), (1, 7) of those
    # parts puts a root on 0, and the sigma-order needs no weighting.
    positive = [
        cov("i", 0),
        cov("4*i", "-i"),
        cov("5*i", "-i"),
        cov("6*i", "-i"),
        cov("7*i", "-i"),
        cov("11*i", "-2*i"),
    ]
    roots = pm(*positive)
    simple = adapted_simple_system(_dummy_datum(roots), ())
    assert set(simple) == {cov("i", 0), cov("4*i", "-i")}
    report = verify_simple_basis(roots, simple)
    assert (report["roots"], report["positive"]) == (12, 6)
    assert classify_cartan_matrix(cartan_matrix(simple, roots)) == "G2"


# ---------------------------------------------------------------------------
# Cartan decomposition checks


def theta_rows(*images):
    """theta as the rows theta(b_k) of the basis h, e, f (or x, y, z)."""
    return [{k: sc(x) for k, x in im.items()} for im in images]


# theta(h, e, f) = (-h, -f, -e): t = span(e - f), p = span(h, e + f)
SL2_THETA = theta_rows({0: -1}, {2: -1}, {1: -1})


def verify_theta(L, theta):
    """verify_cartan_decomposition with the generating set and Killing
    form of L, as a build hands them on."""
    return verify_cartan_decomposition(L, theta, generating_set(L), killing_form(L))


def test_verify_cartan_decomposition_sl2():
    t, p, report = verify_theta(sl2(), SL2_THETA)
    assert (t, p) == ([{1: -ONE, 2: ONE}], [{0: ONE}, {1: ONE, 2: ONE}])
    assert report["dim_t"] == 1
    assert report["dim_p"] == 2
    assert report["signature"] == 1
    assert report["killing_on_t"] == (0, 1, 0)
    assert report["killing_on_p"] == (2, 0, 0)
    assert (report["generators"], report["pairs"]) == ([0, 2, 1], 9)


def test_verify_cartan_decomposition_so3_compact():
    t, p, report = verify_theta(so3(), theta_rows({0: 1}, {1: 1}, {2: 1}))
    assert p == []
    assert report["dim_t"] == 3
    assert report["signature"] == -3
    assert report["killing_on_t"] == (0, 3, 0)
    assert (report["generators"], report["pairs"]) == ([0, 2], 6)


def test_verify_cartan_decomposition_rejects_swap():
    # -theta: t = span(h, e + f), p = span(e - f), and h -> h, e -> f is
    # no automorphism
    swapped = [{k: -x for k, x in row.items()} for row in SL2_THETA]
    with pytest.raises(VerificationError, match="not an automorphism") as info:
        verify_theta(sl2(), swapped)
    assert info.value.witness == {"pair": [0, 1]}


def test_verify_cartan_decomposition_rejects_complex_basis():
    """Ad([[0, i], [1, 0]]) (h -> -h, e -> -i f, f -> i e) is an involutive
    automorphism of sl2 over the field, but its +1 eigenspace e - i f is
    not real.  A linear involution with real t = span(e - f) and
    p = span(h, e + i f), no automorphism, fails the reality check first,
    on p, at index 1 + 1."""
    L = sl2()
    ad_g = theta_rows({0: -1}, {2: -IUNIT}, {1: IUNIT})
    with pytest.raises(VerificationError, match="non-real") as info:
        verify_theta(L, ad_g)
    assert info.value.witness == 0
    mixed = theta_rows({0: -1}, {1: IUNIT, 2: -ONE - IUNIT}, {1: IUNIT - ONE, 2: -IUNIT})
    with pytest.raises(VerificationError, match="non-real") as info:
        verify_theta(L, mixed)
    assert info.value.witness == 2


def test_verify_cartan_decomposition_rejects_non_subalgebra():
    # t = span(e) is a subalgebra but [t, p] leaves p: h -> -h, e -> e,
    # f -> -f is no automorphism
    with pytest.raises(VerificationError, match="not an automorphism"):
        verify_theta(sl2(), theta_rows({0: -1}, {1: 1}, {2: -1}))


def test_verify_cartan_decomposition_rejects_compact_p():
    # the rotation by pi about x is an involution of so3, but the Killing
    # form is negative on its -1 eigenspace too
    with pytest.raises(VerificationError, match="not positive definite on p") as info:
        verify_theta(so3(), theta_rows({0: 1}, {1: -1}, {2: -1}))
    assert info.value.witness == {"signature": [0, 2, 0]}


def _flip_iota_0(theta, build):
    block = build.square.iota_block(0)
    return [{k: -x for k, x in row.items()} if i in block else row for i, row in enumerate(theta)]


# mutations of e6p2's theta reach the automorphism and involution checks,
# with a JSON witness


@pytest.mark.parametrize(
    "mutate,match,witness",
    [
        (_flip_iota_0, "not an automorphism", {"pair": [49, 32]}),
        (
            lambda theta, build: [{k: x + x for k, x in row.items()} for row in theta],
            "not an involution",
            {"dim_t": 0, "dim_p": 0, "dim": 78},
        ),
    ],
    ids=["block sign flip", "2 theta"],
)
def test_verify_cartan_decomposition_mutations_are_witnessed(
    monkeypatch, get_build, mutate, match, witness
):
    build = dataclasses.replace(get_build("e6p2"))  # no memoised Cartan data

    def mutated(L, theta, generators, killing):
        return verify_cartan_decomposition(L, mutate(theta, build), generators, killing)

    monkeypatch.setattr(pipeline, "verify_cartan_decomposition", mutated)
    with pytest.raises(VerificationError, match=match) as info:
        pipeline.cartan_decomposition_report("e6p2", build)
    assert json.loads(json.dumps(info.value.witness)) == witness


def _e6m14_signs_on_e6p2(monkeypatch):
    # e6m14's block signs (-1, 1, -1) with the identity on pOs and pC: an
    # automorphism of order 2 of e6p2 whose Killing form is indefinite on
    # t, so not a Cartan involution
    def graded(build):
        return induced_automorphism(build.square, {}, {}, (-1, 1, -1))

    monkeypatch.setattr(pipeline, "cartan_involution", graded)


def test_indefinite_grading_is_witnessed(monkeypatch, get_build):
    _e6m14_signs_on_e6p2(monkeypatch)
    fresh = dataclasses.replace(get_build("e6p2"))  # no memoised Cartan data
    with pytest.raises(VerificationError, match="not negative definite on t") as info:
        pipeline.cartan_decomposition_report("e6p2", fresh)
    assert info.value.witness == {"signature": [24, 22, 0]}


def test_satake_rejects_the_indefinite_grading(monkeypatch, get_build):
    # the Satake pass reads t and p only through theta's certificate
    _e6m14_signs_on_e6p2(monkeypatch)
    fresh = dataclasses.replace(get_build("e6p2"))
    with pytest.raises(VerificationError, match="not negative definite on t") as info:
        pipeline.run_satake("e6p2", fresh)
    assert info.value.witness == {"signature": [24, 22, 0]}


# ---------------------------------------------------------------------------
# covector helpers


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_cov_neg_involution(xs):
    c = cov(*xs)
    assert cov_neg(cov_neg(c)) == c
    assert cov_add(c, cov_neg(c)) == cov(*([0] * len(xs)))


covector_entries = st.sampled_from(["-1", "-1/2", "0", "1/3", "1/2", "1", "r3", "1/2*i", "-r3*i"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(covector_entries, min_size=3, max_size=3), min_size=1, max_size=8))
def test_cov_sort_key_orders_as_scalar_keys(rows):
    """cov_sort_key sorts covectors as the tuples of their entries'
    `Scalar.key` do, with no Fraction."""
    covs = [cov(*row) for row in rows]
    want = sorted(covs, key=lambda c: tuple(x.key() for x in c))
    assert sorted(covs, key=cov_sort_key(covs)) == want
