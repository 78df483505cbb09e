import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from realforms.linalg import (
    Echelon,
    SpanSolver,
    add_product,
    apply,
    combine,
    commutator,
    mat_mul,
    nullspace,
    sylvester_signature,
    to_dense,
    to_sparse,
    transpose,
)
from realforms.scalars import IUNIT, ONE, SQRT3, ZERO, Scalar, sc


def v(*xs):
    return [sc(x) for x in xs]


def rank(rows):
    return SpanSolver(map(to_sparse, rows)).rank


def test_rank_hand_cases():
    assert rank([v(1, 0), v(0, 1)]) == 2
    assert rank([v(1, 2), v(2, 4)]) == 1
    assert rank([v(0, 0)]) == 0
    # sqrt3 is irrational, so (1, r3) and (r3, 3) are dependent
    assert rank([[ONE, SQRT3], [SQRT3, sc(3)]]) == 1
    assert rank([[ONE, SQRT3], [SQRT3, sc(2)]]) == 2


def test_echelon_membership():
    ech = Echelon()
    ech.add(to_sparse(v(1, 1, 0)))
    ech.add(to_sparse(v(0, 1, 1)))
    assert ech.contains(to_sparse(v(1, 2, 1)))
    assert not ech.contains(to_sparse(v(0, 0, 1)))


def zero_free(x):
    return all(x.values())


def test_span_solver_coords():
    basis = [to_sparse(v(1, 1, 0)), to_sparse(v(0, 1, 1)), to_sparse(v(1, 0, 0))]
    sol = SpanSolver(basis)
    target = to_sparse(v(3, 1, -2))
    coords = sol.coords_sparse(target)
    assert coords is not None and zero_free(coords)
    recon = {}
    for k, c in coords.items():
        for q, x in basis[k].items():
            recon[q] = recon.get(q, ZERO) + c * x
    assert {q: x for q, x in recon.items() if x} == target
    assert sol.coords_sparse({}) == {}
    outside = SpanSolver(basis[:2])
    assert outside.coords_sparse(to_sparse(v(1, 0, 0))) is None


def test_span_solver_rejects_outside():
    sol = SpanSolver(map(to_sparse, [v(1, 0, 0), v(0, 1, 0)]))
    assert sol.coords_sparse({2: ONE}) is None


def test_span_solver_tolerates_dependent_basis():
    sol = SpanSolver(map(to_sparse, [v(1, 1), v(2, 2), v(0, 1)]))
    coords = sol.coords_sparse(to_sparse(v(3, 4)))
    assert coords is not None and zero_free(coords)
    c = [coords.get(k, ZERO) for k in range(3)]
    assert c[0] + c[1] * sc(2) == sc(3)
    assert c[0] + c[1] * sc(2) + c[2] == sc(4)


def test_nullspace_hand_case():
    # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
    rows = [to_sparse(v(1, 1, 1)), to_sparse(v(1, 0, -1))]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    b = basis[0]
    assert b and zero_free(b)
    x, y, z = (b.get(k, ZERO) for k in range(3))
    assert x + y + z == ZERO
    assert x - z == ZERO
    assert apply(rows, b) == {}


def test_nullspace_annihilates_random_matrix():
    rng = random.Random(7)
    rows = []
    for _ in range(6):
        rows.append(to_sparse([sc(rng.randint(-3, 3)) for _ in range(9)]))
    ns = nullspace(rows, 9)
    assert SpanSolver(rows).rank + len(ns) == 9
    for x in ns:
        assert x and zero_free(x)
        assert apply(rows, x) == {}


def test_mat_mul_identity():
    a = [v(1, 2), v(3, 4)]
    e = [v(1, 0), v(0, 1)]
    assert mat_mul(a, e) == a
    assert mat_mul(e, a) == a


ENTRIES = [ZERO, ZERO, ZERO, ONE, -ONE, sc(2), sc("1/2"), SQRT3, IUNIT,
           sc("1 - r3*i"), sc("-2/3*r3"), sc("(3/4 + r3)*i")]


def rand_matrix(rng, rows, cols):
    return [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]


def naive_mul(a, b):
    ncols = len(b[0]) if b else 0
    return [
        [sum((row[r] * b[r][q] for r in range(len(b))), ZERO) for q in range(ncols)]
        for row in a
    ]


@pytest.mark.parametrize(
    "m,k,n", [(3, 3, 3), (6, 6, 6), (2, 5, 3), (4, 1, 2), (1, 3, 0), (0, 2, 2)]
)
def test_mat_mul_matches_naive_loop(m, k, n):
    rng = random.Random(100 * m + 10 * k + n)
    for _ in range(5):
        a, b = rand_matrix(rng, m, k), rand_matrix(rng, k, n)
        assert mat_mul(a, b) == naive_mul(a, b)


def test_mat_mul_zero_and_empty():
    a = rand_matrix(random.Random(1), 3, 4)
    zero = [[ZERO] * 2 for _ in range(4)]
    assert mat_mul(a, zero) == [[ZERO, ZERO]] * 3
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul(a, []) == [[], [], []]
    assert mat_mul([], [[ONE, ONE]]) == []


@pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (7, 3), (3, 9), (5, 0)])
def test_apply_matches_dense_product(m, n):
    # rows and vectors of every density, empty rows included
    rng = random.Random(31 * m + n)
    for _ in range(10):
        a = rand_matrix(rng, m, n)
        x = [rng.choice(ENTRIES) for _ in range(n)]
        want = to_sparse([sum((r * y for r, y in zip(row, x)), ZERO) for row in a])
        assert apply([to_sparse(row) for row in a], to_sparse(x)) == want


@pytest.mark.parametrize("n", [1, 3, 7])
def test_commutator_matches_naive_loop(n):
    rng = random.Random(n)
    for _ in range(5):
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        ab, ba = naive_mul(a, b), naive_mul(b, a)
        expected = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
        sa, sb = [to_sparse(r) for r in a], [to_sparse(r) for r in b]
        assert commutator(sa, sb) == [to_sparse(r) for r in expected]
        assert commutator(sa, sa) == [{} for _ in range(n)]


@pytest.mark.parametrize("n", [1, 3, 7])
def test_add_product_and_commutator_rows_are_zero_free(n):
    rng = random.Random(40 + n)
    for _ in range(5):
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        sa, sb = [to_sparse(r) for r in a], [to_sparse(r) for r in b]
        # acc starts zero-free; a b - a b cancels every entry it made
        start = [to_sparse(r) for r in rand_matrix(rng, n, n)]
        acc = [dict(r) for r in start]
        add_product(acc, sa, sb, SQRT3)
        assert all(zero_free(r) for r in acc)
        ab = naive_mul(a, b)
        assert acc == [to_sparse([x + SQRT3 * y for x, y in zip(to_dense(r0, n), r1)])
                       for r0, r1 in zip(start, ab)]
        add_product(acc, sa, sb, -SQRT3)
        assert acc == start
        assert all(zero_free(r) for r in commutator(sa, sb))


# ---------------------------------------------------------------------------
# the one coordinate reader: a fully reduced basis read at its pivots


NCOLS = 5
SPARSE_VECS = st.dictionaries(st.integers(0, NCOLS - 1), st.sampled_from(ENTRIES), max_size=NCOLS)


@st.composite
def spanning_lists(draw):
    """Random sparse vectors over Q(sqrt3, i), explicit zeros included,
    followed by combinations of them, which are dependent."""
    base = draw(st.lists(SPARSE_VECS, max_size=4))
    combos = draw(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=len(base),
                                    max_size=len(base)), max_size=3))
    dependent = [combine(zip(cs, base)) for cs in combos]
    order = draw(st.permutations(range(len(base) + len(dependent))))
    vecs = base + dependent
    return [vecs[k] for k in order]


@settings(deadline=None, max_examples=80)
@given(spanning_lists(), SPARSE_VECS)
def test_echelon_coords_recombine_and_decide_rank(vecs, extra):
    ech = Echelon()
    for v in vecs + [extra]:
        c = ech.coords(v)
        if c is not None:
            assert zero_free(c)
            assert combine((x, ech.rows[r]) for r, x in c.items()) == combine([(ONE, v)])
        assert (c is None) == ech.add(v)
        assert ech.contains(v)


@settings(deadline=None, max_examples=80)
@given(spanning_lists(), st.lists(st.sampled_from(ENTRIES), max_size=7), SPARSE_VECS)
def test_span_solver_coords_recombine_over_dependent_list(vecs, cs, extra):
    sol = SpanSolver(vecs)
    target = combine(zip(cs, vecs))
    coords = sol.coords_sparse(target)
    assert coords is not None and zero_free(coords)
    assert combine((x, vecs[k]) for k, x in coords.items()) == target
    # a vector has coordinates exactly when it does not raise the rank
    ech = Echelon()
    for v in vecs:
        ech.add(v)
    coords = sol.coords_sparse(extra)
    assert (coords is None) == ech.add(extra)
    if coords is not None:
        assert combine((x, vecs[k]) for k, x in coords.items()) == combine([(ONE, extra)])


def test_reduced_certifies_independence():
    rows = [{0: ONE, 1: ONE, 2: sc(-1)}, {1: ONE, 3: sc(2)}]
    basis = nullspace(rows, 4)
    assert list(Echelon.reduced(basis).piv) == [2, 3]
    for bad in (basis + [basis[0]], basis + [combine([(ONE, basis[0]), (ONE, basis[1])])]):
        assert Echelon.reduced(bad) is None
    assert Echelon.reduced([combine([(sc(2), basis[0])])]) is None
    # independent, and 1 at a new largest index, but not 0 at the pivot of b0
    assert Echelon.reduced(basis + [{2: ONE, 4: ONE}]) is None


def test_signature_diagonal():
    g = [{0: sc(2)}, {1: sc(-3)}, {}]
    assert sylvester_signature(g) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    # all-zero diagonal forces the row+column trick
    g = [{1: ONE}, {0: ONE}]
    assert sylvester_signature(g) == (1, 1, 0)


def test_signature_sqrt3_entries():
    # diag(sqrt3 - 2, sqrt3 - 1): one negative, one positive
    g = [{0: SQRT3 - sc(2)}, {1: SQRT3 - ONE}]
    assert sylvester_signature(g) == (1, 1, 0)


def test_signature_leaves_input_unchanged():
    g = [{1: ONE, 2: sc(2)}, {0: ONE}, {0: sc(2), 2: -ONE}]
    copy = [dict(row) for row in g]
    assert sylvester_signature(g) == (1, 2, 0)
    assert g == copy


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-2, 2), max_size=6),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
    st.integers(0, 16),
)
def test_signature_congruence_invariance(diag, hyperbolic, seed, steps):
    # diag(diag) plus `hyperbolic` blocks [[0, 1], [1, 0]], each of which
    # contributes one positive and one negative direction
    n = len(diag) + 2 * hyperbolic
    assume(n > 0)
    g = [{i: sc(d)} if d else {} for i, d in enumerate(diag)]
    for _ in range(hyperbolic):
        k = len(g)
        g += [{k + 1: ONE}, {k: ONE}]
    expected = (
        sum(d > 0 for d in diag) + hyperbolic,
        sum(d < 0 for d in diag) + hyperbolic,
        diag.count(0),
    )
    # congruate by a random unimodular integer matrix p: p g p^T; with no
    # steps the all-zero diagonal of the hyperbolic blocks stays, and the
    # row+column step runs
    rng = random.Random(seed)
    p = [{i: ONE} for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        c = sc(rng.randint(-2, 2))
        if i != j and c:
            for k, x in p[j].items():
                p[i][k] = p[i].get(k, ZERO) + c * x
            p[i] = {k: x for k, x in p[i].items() if x}
    pg = [{} for _ in range(n)]
    add_product(pg, p, g)
    g2 = [{} for _ in range(n)]
    add_product(g2, pg, transpose(p))
    g2 = [{k: x for k, x in row.items() if x} for row in g2]
    assert sylvester_signature(g2) == expected


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_bounded_and_nullity(rows_int):
    rows = [to_sparse([sc(x) for x in row]) for row in rows_int]
    r = SpanSolver(rows).rank
    assert r <= min(len(rows), 4)
    ns = nullspace(rows, 4)
    assert r + len(ns) == 4
    for x in ns:
        assert x and zero_free(x)
        assert apply(rows, x) == {}


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_sparse_round_trip(xs):
    dense = [sc(x) for x in xs]
    assert to_dense(to_sparse(dense), 3) == dense
