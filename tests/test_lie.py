import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from realforms.algebras import hurwitz, symmetric_composition
from realforms.constructions import magic_square
from realforms.errors import VerificationError
from realforms.lie import (
    LieAlgebra,
    certify_jacobi,
    closed_subalgebra,
    generating_set,
    int_coords,
    killing_form,
    lie_from_fn,
    sub_lie_algebra,
)
from realforms.linalg import Echelon
from realforms.pipeline import MODELS
from realforms.scalars import IUNIT, ONE, SQRT3, ZERO, Scalar, sc
from realforms.triality import triality_cached

from oracles import (
    check_killing_invariance,
    derivation_lie_algebra,
    derivations,
    killing_signature,
    naive_jacobi_witness,
)


def sl2() -> LieAlgebra:
    # basis h, e, f
    def fn(i, j):
        if (i, j) == (0, 1):
            return {1: sc(2)}
        if (i, j) == (0, 2):
            return {2: sc(-2)}
        return {0: ONE}  # [e, f] = h

    return lie_from_fn("sl2", ["h", "e", "f"], fn)


def so3() -> LieAlgebra:
    def fn(i, j):
        k = 3 - i - j
        sign = sc(1) if (i, j) in ((0, 1), (1, 2)) else sc(-1)
        return {k: sign}

    return lie_from_fn("so3", ["x", "y", "z"], fn)


def test_lie_from_fn_stores_zero_free_copy():
    returned = {}

    def fn(i, j):
        returned[(i, j)] = {0: ZERO, 1: sc(2)} if (i, j) == (0, 1) else {2: ZERO}
        return returned[(i, j)]

    L = lie_from_fn("t", ["a", "b", "c"], fn)
    assert L.brk == {(0, 1): {1: sc(2)}}
    assert L.brk[(0, 1)] is not returned[(0, 1)]
    assert returned[(0, 1)] == {0: ZERO, 1: sc(2)}


def test_sl2_jacobi_sparse_report():
    report = certify_jacobi(sl2())
    assert report == {"generators": [0, 2, 1], "triples": 1}


def test_sl2_killing_oracle():
    k = killing_form(sl2())
    assert k == [{0: sc(8)}, {2: sc(4)}, {1: sc(4)}]
    assert killing_signature(sl2()) == (2, 1, 0)


def test_so3_killing_negative_definite():
    certify_jacobi(so3())
    k = killing_form(so3())
    assert k == [{0: sc(-2)}, {1: sc(-2)}, {2: sc(-2)}]
    assert killing_signature(so3()) == (0, 3, 0)


def test_jacobi_catches_corruption():
    # [e, f] = e violates Jacobi on (h, e, f), for rational and sqrt3 tables
    for make in (sl2, sl2_scaled):
        bad = make()
        bad.brk[(1, 2)] = {1: ONE}
        with pytest.raises(VerificationError) as info:
            certify_jacobi(bad)
        assert info.value.witness == (0, 1, 2)


def sl2_scaled(t: Scalar = SQRT3) -> LieAlgebra:
    # e' = t e puts t into the structure constants: [e', f] = t h
    def fn(i, j):
        if (i, j) == (0, 1):
            return {1: sc(2)}
        if (i, j) == (0, 2):
            return {2: sc(-2)}
        return {0: t}

    return lie_from_fn("sl2'", ["h", "e'", "f"], fn)


def test_sqrt3_table_matches_scaling():
    L = sl2_scaled()
    report = certify_jacobi(L)
    assert report == {"generators": [0, 2, 1], "triples": 1}
    k = killing_form(L)
    assert k == [{0: sc(8)}, {2: sc(4) * SQRT3}, {1: sc(4) * SQRT3}]
    assert killing_signature(L) == (2, 1, 0)


def jacobi_witness(L: LieAlgebra):
    try:
        certify_jacobi(L)
    except VerificationError as e:
        return e.witness
    return None


@pytest.mark.parametrize("t", [IUNIT, IUNIT * SQRT3], ids=["i", "i*r3"])
def test_imaginary_scaled_sl2_passes(t):
    # no constructed table has i parts; these exercise the i, i*r3 columns
    L = sl2_scaled(t)
    assert certify_jacobi(L) == {"generators": [0, 2, 1], "triples": 1}
    assert naive_jacobi_witness(L) is None


def two_sl2s() -> LieAlgebra:
    """sl2 with [e, f] = sqrt3 h plus sl2 with [e', f'] = i h': both
    sqrt3 and i occur in the table, which passes Jacobi."""
    brk = {}
    for base, t in ((0, SQRT3), (3, IUNIT)):
        brk[(base, base + 1)] = {base + 1: sc(2)}
        brk[(base, base + 2)] = {base + 2: sc(-2)}
        brk[(base + 1, base + 2)] = {base: t}
    return LieAlgebra("sl2+sl2", ["h", "e", "f", "h'", "e'", "f'"], brk)


@pytest.mark.parametrize(
    "delta",
    [ONE, SQRT3, IUNIT, IUNIT * SQRT3, sc("1/3")],
    ids=["1", "r3", "i", "i*r3", "1/3"],
)
@pytest.mark.parametrize("pair", [(1, 4), (0, 3), (1, 2), (4, 5)])
def test_jacobi_corruption_in_each_component(delta, pair):
    L = two_sl2s()
    # only h' lies outside S, so all C(6, 3) triples meet S
    assert certify_jacobi(L) == {"generators": [0, 5, 4, 2, 1], "triples": 20}
    v = dict(L.brk.get(pair, {}))
    v[1] = v.get(1, ZERO) + delta
    L.brk[pair] = {p: x for p, x in v.items() if x}
    expected = naive_jacobi_witness(L)
    assert expected is not None
    with pytest.raises(VerificationError) as info:
        certify_jacobi(L)
    assert info.value.witness == expected


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entries = st.one_of(
    st.builds(Scalar, _small, _small, _small, _small),
    st.builds(
        lambda q, t: Scalar(q) * t,
        _small,
        st.sampled_from([ONE, SQRT3, IUNIT, IUNIT * SQRT3]),
    ),
)


@st.composite
def antisymmetric_tables(draw, entries=_entries, min_dim=3, max_dim=5):
    n = draw(st.integers(min_dim, max_dim))
    brk = {}
    for i, j in combinations(range(n), 2):
        v = draw(st.dictionaries(st.integers(0, n - 1), entries, max_size=2))
        v = {p: x for p, x in v.items() if x}
        if v:
            brk[(i, j)] = v
    return LieAlgebra("random", [f"b{k}" for k in range(n)], brk)


@settings(deadline=None, max_examples=60)
@given(antisymmetric_tables())
def test_jacobi_matches_naive_loop(L):
    assert jacobi_witness(L) == naive_jacobi_witness(L)


def naive_killing(L: LieAlgebra):
    """trace(ad b_i ad b_j) = sum_{q,p} A_i[q][p] A_j[p][q] on the dense
    ad matrices A_i[q][p] = coordinate q of [b_i, b_p], as zero-free rows."""
    n = L.dim
    ads = []
    for i in range(n):
        a = [[ZERO] * n for _ in range(n)]
        for p in range(n):
            for q, x in L.bracket_basis(i, p).items():
                a[q][p] = x
        ads.append(a)
    nonzero = [
        [(q, p, x) for q, row in enumerate(a) for p, x in enumerate(row) if x]
        for a in ads
    ]
    return [
        {
            j: k
            for j in range(n)
            if (k := sum((x * ads[j][p][q] for q, p, x in nonzero[i]), ZERO))
        }
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "make",
    [
        sl2,
        so3,
        two_sl2s,
        lambda: triality_cached(symmetric_composition("pO")).lie,
        lambda: magic_square(
            symmetric_composition("Ok"), symmetric_composition("R"), (1, 1, 1)
        ).lie,
    ],
    ids=["sl2", "so3", "sl2+sl2", "tri(pO)", "f4(Ok)"],
)
def test_killing_form_matches_trace_of_dense_ad(make):
    L = make()
    assert killing_form(L) == naive_killing(L)


# any table has a Killing form: these need not be Lie algebras
_fractions12 = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
_entries12 = st.builds(Scalar, _fractions12, _fractions12, _fractions12, _fractions12)


@settings(deadline=None, max_examples=80)
@given(antisymmetric_tables(_entries12, 2, 6))
def test_killing_form_matches_trace_on_random_tables(L):
    assert killing_form(L) == naive_killing(L)


def test_killing_form_does_not_build_ad():
    L = sl2()
    killing_form(L)
    assert "ad" not in vars(L)


def test_bracket_antisymmetry_and_linearity():
    L = sl2()
    x = {0: sc(2), 1: sc(3), 2: sc(-1)}
    y = {0: ONE, 1: sc(-2), 2: sc(5)}
    xy = L.bracket(x, y)
    yx = L.bracket(y, x)
    assert xy == {k: -v for k, v in yx.items()}
    x2 = {k: v * sc(2) for k, v in x.items()}
    assert L.bracket(x2, y) == {k: v * sc(2) for k, v in xy.items()}


def test_bracket_is_zero_free():
    L = sl2()
    h = L.basis_vec(0)
    assert L.bracket(h, h) == {}
    # [e + f, e + f] = h - h: the cancelled entry must not stay behind
    assert L.bracket({1: ONE, 2: ONE}, {1: ONE, 2: ONE}) == {}
    # [h, e + f] = 2e - 2f, and [e + f, e - f] = -2h
    assert L.bracket(h, {1: ONE, 2: ONE}) == {1: sc(2), 2: sc(-2)}
    assert L.bracket({1: ONE, 2: ONE}, {1: ONE, 2: sc(-1)}) == {0: sc(-2)}


MIXED = [ONE, -ONE, sc("1/2"), SQRT3, IUNIT, sc("-1/2 + 1/2*r3*i"), sc("(2/3 - r3)*i")]


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(st.integers(0, 27), st.sampled_from(MIXED), max_size=5),
    st.dictionaries(st.integers(0, 27), st.sampled_from(MIXED), max_size=5),
)
def test_bracket_matches_the_basis_brackets_and_is_zero_free(x, y):
    # tri(Ok): structure constants over omega and sqrt3
    L = triality_cached(symmetric_composition("Ok")).lie
    want = {}
    for i, xi in x.items():
        for p, yp in y.items():
            for q, c in L.bracket_basis(i, p).items():
                want[q] = want.get(q, ZERO) + xi * yp * c
    xy = L.bracket(x, y)
    assert xy == {q: c for q, c in want.items() if c}
    assert all(xy.values())
    assert L.bracket(x, x) == {}


def test_derivations_of_complex_numbers_vanish():
    assert derivations(hurwitz("C")) == []


def test_derivations_of_quaternions_dim_3():
    assert len(derivations(hurwitz("H"))) == 3


def test_derivations_of_octonions_form_compact_g2():
    mats = derivations(hurwitz("O"))
    assert len(mats) == 14
    g2 = derivation_lie_algebra("Der(O)", mats)
    certify_jacobi(g2)
    assert killing_signature(g2) == (0, 14, 0)


def test_derivations_of_split_octonions_form_split_g2():
    mats = derivations(hurwitz("Os"))
    assert len(mats) == 14
    g2 = derivation_lie_algebra("Der(Os)", mats)
    certify_jacobi(g2)
    assert killing_signature(g2) == (8, 6, 0)


def test_sub_lie_algebra_borel_of_sl2():
    L = sl2()
    sub = sub_lie_algebra(L, [L.basis_vec(0), L.basis_vec(1)], "borel")
    assert sub.dim == 2
    assert killing_signature(sub) == (1, 0, 1)


def test_sub_lie_algebra_rejects_unclosed_span():
    L = sl2()
    with pytest.raises(VerificationError, match="bracket of elements 0, 1 leaves") as info:
        sub_lie_algebra(L, [L.basis_vec(1), L.basis_vec(2)], "ef")
    assert json.loads(json.dumps(info.value.witness)) == {"pair": [0, 1]}


def test_sub_lie_algebra_rejects_dependent_list():
    L = sl2()
    h, e = L.basis_vec(0), L.basis_vec(1)
    with pytest.raises(VerificationError, match="hh: spanning list is dependent") as info:
        sub_lie_algebra(L, [h, e, {0: sc(2)}], "hh")
    assert json.loads(json.dumps(info.value.witness)) == {"index": 2}


def test_derivation_lie_algebra_rejects_dependent_basis():
    mats = derivations(hurwitz("H"))
    with pytest.raises(VerificationError, match="derivation basis is dependent") as info:
        derivation_lie_algebra("Der(H)", mats + [mats[0]])
    assert json.loads(json.dumps(info.value.witness)) == {"index": 3}


def test_derivation_lie_algebra_rejects_unclosed_span():
    # E12 and E21 of gl2: their commutator diag(1, -1) is outside the span
    e12 = [{1: ONE}, {}]
    e21 = [{}, {0: ONE}]
    with pytest.raises(VerificationError, match="commutator escapes the span") as info:
        derivation_lie_algebra("ef", [e12, e21])
    assert json.loads(json.dumps(info.value.witness)) == {"pair": [0, 1]}


def closure_of(L: LieAlgebra, vectors, name):
    """closed_subalgebra on the span of vectors in L, which must be a
    reduced basis: read takes a bracket's entries at the pivot columns,
    coords certifies them by recombination."""
    ech = Echelon.reduced(vectors)
    calls = []

    def read(i, j):
        v = L.bracket(vectors[i], vectors[j])
        return {ech.piv[c]: x for c, x in v.items() if c in ech.piv}

    def coords(i, j):
        calls.append((i, j))
        return ech.coords(L.bracket(vectors[i], vectors[j]))

    labels = [f"x{k}" for k in range(len(vectors))]
    return closed_subalgebra(name, labels, read, coords, f"{name}: bracket"), calls


def test_closed_subalgebra_borel_of_sl2():
    L = sl2()
    sub, calls = closure_of(L, [L.basis_vec(0), L.basis_vec(1)], "borel")
    assert sub.brk == {(0, 1): {1: sc(2)}}
    # ad(h) fixes the line of h, so both generate, and each row is certified
    assert generating_set(sub) == [0, 1]
    assert calls == [(0, 1), (1, 0)]


def test_closed_subalgebra_of_sl2_is_sl2():
    L = sl2()
    sub, calls = closure_of(L, [L.basis_vec(k) for k in range(3)], "all")
    assert sub.brk == L.brk
    assert len(calls) == 2 * len(generating_set(sub))


def test_closed_subalgebra_rejects_unclosed_span():
    # [e, f] = h: its entry at the pivot columns of span{e, f} reads 0
    L = sl2()
    with pytest.raises(VerificationError, match=r"^ef: bracket escapes the span") as info:
        closure_of(L, [L.basis_vec(1), L.basis_vec(2)], "ef")
    assert json.loads(json.dumps(info.value.witness)) == {"pair": [0, 1]}


def test_killing_invariance_sl2_and_so3():
    assert check_killing_invariance(sl2()) == {"method": "sparse", "triples": 27}
    assert check_killing_invariance(so3())["triples"] == 27


def test_killing_invariance_flags_non_lie_table():
    def fn(i, j):
        if (i, j) == (0, 1):
            return {2: ONE}
        if (i, j) == (0, 2):
            return {0: ONE}
        return {}

    bad = lie_from_fn("bad", ["x", "y", "z"], fn)
    with pytest.raises(VerificationError, match="Killing invariance"):
        check_killing_invariance(bad)


# ---------------------------------------------------------------------------
# the Jacobi proof on a generating set


def _corrupted(L: LieAlgebra, pair, delta=ONE) -> LieAlgebra:
    """A copy of L with delta added to coordinate pair[0] of [b_j, b_k]."""
    brk = dict(L.brk)
    v = dict(brk.get(pair, {}))
    v[pair[0]] = v.get(pair[0], ZERO) + delta
    brk[pair] = {p: x for p, x in v.items() if x}
    return LieAlgebra(L.name, L.labels, brk)


@pytest.mark.parametrize(
    "make",
    [
        lambda: triality_cached(symmetric_composition("pO")).lie,
        lambda: magic_square(
            symmetric_composition("pO"), symmetric_composition("pC"), (1, -1, 1)
        ).lie,
    ],
    ids=["tri(pO)", "e6m14"],
)
def test_defect_away_from_the_generators_is_caught(make):
    L = make()
    gens = generating_set(L)
    j, k = [q for q in range(L.dim) if q not in gens][-2:]
    bad = _corrupted(L, (j, k))
    # the defect sits at a pair of non-generators of the table certified
    assert generating_set(bad) == gens
    expected = naive_jacobi_witness(bad)
    assert expected is not None
    assert jacobi_witness(bad) == expected


def naive_closure_rank(L: LieAlgebra, gens) -> int:
    """The dimension of the smallest subspace that contains the b_s for s
    in gens and is closed under their ad(b_s), by fixed-point iteration
    over L.bracket."""
    vectors = [L.basis_vec(s) for s in gens]
    while True:
        ech = Echelon()
        for v in vectors:
            ech.add(v)
        new = [
            w
            for s in gens
            for v in vectors
            if (w := L.bracket(L.basis_vec(s), v)) and not ech.contains(w)
        ]
        if not new:
            return ech.rank
        vectors += new


@settings(deadline=None, max_examples=60)
@given(antisymmetric_tables(max_dim=6))
def test_generating_set_closure_is_the_whole_algebra(L):
    gens = generating_set(L)
    assert len(set(gens)) == len(gens)
    assert naive_closure_rank(L, gens) == L.dim


def test_generating_set_closure_on_tri_po():
    L = triality_cached(symmetric_composition("pO")).lie
    assert naive_closure_rank(L, generating_set(L)) == L.dim


def test_jacobi_does_not_build_ad():
    L = triality_cached(symmetric_composition("pO")).lie
    L = LieAlgebra(L.name, L.labels, L.brk)
    certify_jacobi(L)
    assert "ad" not in vars(L)


@pytest.mark.parametrize("n", range(1, 7))
def test_abelian_table_needs_the_whole_basis(n):
    L = LieAlgebra("abelian", [f"b{k}" for k in range(n)], {})
    assert sorted(generating_set(L)) == list(range(n))
    assert certify_jacobi(L) == {"generators": generating_set(L), "triples": comb(n, 3)}


def test_whole_basis_generators_still_find_the_witness():
    # in stride order 0, 3, 2, 1 each b_g lies outside the closure of the
    # earlier ones, so S is the whole basis; [b2, b3] = b3 breaks Jacobi
    # on (0, 1, 3) and (0, 2, 3)
    brk = {(0, 1): {1: ONE, 2: ONE}, (0, 2): {2: ONE}, (2, 3): {3: ONE}}
    L = LieAlgebra("t", ["b0", "b1", "b2", "b3"], brk)
    assert sorted(generating_set(L)) == [0, 1, 2, 3]
    assert naive_jacobi_witness(L) == (0, 1, 3)
    assert jacobi_witness(L) == (0, 1, 3)


_SIMPLE = [sl2, so3, sl2_scaled, lambda: sl2_scaled(IUNIT)]


@st.composite
def genuine_lie_algebras(draw):
    """A direct sum of small Lie algebras (sl2, so3, their scaled forms and
    abelian lines), written in a random basis: permuted, with each new
    basis vector the old one plus a small multiple of a later one."""
    parts = draw(st.lists(st.sampled_from(_SIMPLE + [None]), min_size=1, max_size=3))
    brk, n = {}, 0
    for make in parts:
        if make is None:
            n += 1
            continue
        for (i, j), v in make().brk.items():
            brk[(n + i, n + j)] = {n + p: x for p, x in v.items()}
        n += 3
    L = LieAlgebra("sum", [f"b{k}" for k in range(n)], brk)
    order = draw(st.permutations(range(n)))
    vectors = []
    for a, k in enumerate(order):
        v = {k: ONE}
        if a + 1 < n:
            c = draw(st.sampled_from([ZERO, ONE, sc(-2), SQRT3, sc("1/2")]))
            if c:
                v[order[a + 1]] = c
        vectors.append(v)
    return sub_lie_algebra(L, vectors, "sum'")


@settings(deadline=None, max_examples=40)
@given(genuine_lie_algebras())
def test_genuine_lie_algebras_pass(L):
    n, gens = L.dim, generating_set(L)
    triples = comb(n, 3) - comb(n - len(gens), 3)
    assert certify_jacobi(L) == {"generators": gens, "triples": triples}
    assert naive_jacobi_witness(L) is None


@settings(deadline=None, max_examples=40)
@given(genuine_lie_algebras(), st.data())
def test_corrupted_genuine_lie_algebras_match_naive_loop(L, data):
    if L.dim < 3:
        return
    j, k = sorted(data.draw(st.lists(st.integers(0, L.dim - 1), min_size=2, max_size=2, unique=True)))
    delta = data.draw(st.sampled_from([ONE, SQRT3, sc("1/3")]))
    bad = _corrupted(L, (j, k), delta)
    assert jacobi_witness(bad) == naive_jacobi_witness(bad)


# |S| for each registry model: the restricted scan evaluates
# C(n,3) - C(n-|S|,3) triples, so a basis order that drives |S| up shows here
GENERATORS = {
    "f4m52": 6, "f4m20": 6, "f4p4": 9, "e6m78": 6,
    "e6m14": 6, "e6p2": 8, "e6p6": 8, "e6m26": 6,
}


@pytest.mark.parametrize("key", sorted(MODELS))
def test_generating_set_size_per_model(get_build, key):
    assert len(generating_set(get_build(key).lie)) <= GENERATORS[key]


def test_generating_set_size_okubo():
    L = magic_square(symmetric_composition("Ok"), symmetric_composition("R"), (1, 1, 1)).lie
    assert len(generating_set(L)) <= 5


_parts = st.integers(-20, 20)


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(
        st.integers(0, 3),
        st.builds(Scalar, _small, _small, _small, _small).filter(bool),
        max_size=4,
    ),
    st.integers(0, 3),
)
def test_int_coords_match_scalar_product(v, s):
    basis = (ONE, SQRT3, IUNIT, IUNIT * SQRT3)
    den = 1
    for x in v.values():
        den = den * x.as_ints()[4]
    want = []
    for q, x in v.items():
        *num, d = (x * basis[s]).as_ints()
        want.extend((q + 4 * u, y * (den // d)) for u, y in enumerate(num) if y)
    assert sorted(int_coords(v, s, den, 4)) == sorted(want)
