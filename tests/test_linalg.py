import random

import pytest
from hypothesis import given, settings, strategies as st

from realforms.linalg import (
    Echelon,
    SpanSolver,
    commutator,
    is_zero_vec,
    mat_mul,
    mat_vec,
    nullspace,
    rank_of,
    sylvester_signature,
    to_dense,
    to_sparse,
)
from realforms.scalars import IUNIT, ONE, SQRT3, ZERO, Scalar, sc


def v(*xs):
    return [sc(x) for x in xs]


def test_rank_hand_cases():
    assert rank_of([v(1, 0), v(0, 1)]) == 2
    assert rank_of([v(1, 2), v(2, 4)]) == 1
    assert rank_of([v(0, 0)]) == 0
    # sqrt3 is irrational, so (1, r3) and (r3, 3) are dependent
    assert rank_of([[ONE, SQRT3], [SQRT3, sc(3)]]) == 1
    assert rank_of([[ONE, SQRT3], [SQRT3, sc(2)]]) == 2


def test_echelon_membership():
    ech = Echelon()
    ech.add(to_sparse(v(1, 1, 0)))
    ech.add(to_sparse(v(0, 1, 1)))
    assert ech.contains(to_sparse(v(1, 2, 1)))
    assert not ech.contains(to_sparse(v(0, 0, 1)))


def test_span_solver_coords():
    basis = [v(1, 1, 0), v(0, 1, 1), v(1, 0, 0)]
    sol = SpanSolver(map(to_sparse, basis))
    target = v(3, 1, -2)
    coords = sol.coords(target)
    assert coords is not None
    recon = [ZERO, ZERO, ZERO]
    for c, b in zip(coords, basis):
        recon = [r + c * x for r, x in zip(recon, b)]
    assert recon == target
    assert sol.coords_sparse(to_sparse(target)) == to_sparse(coords)
    assert sol.coords_sparse(to_sparse(v(0, 0, 0))) == {}
    outside = SpanSolver(map(to_sparse, basis[:2]))
    assert outside.coords_sparse(to_sparse(v(1, 0, 0))) is None


def test_span_solver_rejects_outside():
    sol = SpanSolver(map(to_sparse, [v(1, 0, 0), v(0, 1, 0)]))
    assert sol.coords(v(0, 0, 1)) is None


def test_span_solver_tolerates_dependent_basis():
    sol = SpanSolver(map(to_sparse, [v(1, 1), v(2, 2), v(0, 1)]))
    coords = sol.coords(v(3, 4))
    assert coords is not None
    assert coords[0] * v(1, 1)[0] + coords[1] * v(2, 2)[0] + coords[2] * ZERO == sc(3)


def test_nullspace_hand_case():
    # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
    rows = [to_sparse(v(1, 1, 1)), to_sparse(v(1, 0, -1))]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    b = basis[0]
    assert b[0] + b[1] + b[2] == ZERO
    assert b[0] - b[2] == ZERO
    assert not is_zero_vec(b)


def test_nullspace_annihilates_random_matrix():
    rng = random.Random(7)
    rows = []
    for _ in range(6):
        rows.append([sc(rng.randint(-3, 3)) for _ in range(9)])
    ns = nullspace([to_sparse(r) for r in rows], 9)
    assert rank_of(rows) + len(ns) == 9
    for x in ns:
        assert is_zero_vec(mat_vec(rows, to_dense(x, 9)))


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


def test_signature_diagonal():
    g = [v(2, 0, 0), v(0, -3, 0), v(0, 0, 0)]
    assert sylvester_signature(g) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    # all-zero diagonal forces the row+column trick
    g = [v(0, 1), v(1, 0)]
    assert sylvester_signature(g) == (1, 1, 0)


def test_signature_sqrt3_entries():
    # diag(sqrt3 - 2, sqrt3 - 1): one negative, one positive
    g = [[SQRT3 - sc(2), ZERO], [ZERO, SQRT3 - ONE]]
    assert sylvester_signature(g) == (1, 1, 0)


def test_signature_congruence_invariance():
    rng = random.Random(3)
    diag = [1, 1, -1, -1, -1, 0]
    n = len(diag)
    g = [[sc(diag[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    # congruate by a random unimodular integer matrix
    p = [[sc(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = sc(rng.randint(-2, 2))
        for k in range(n):
            p[i][k] = p[i][k] + c * p[j][k]
    pt = [list(row) for row in zip(*p)]
    g2 = mat_mul(mat_mul(p, g), pt)
    assert sylvester_signature(g2) == (2, 3, 1)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_bounded_and_nullity(rows_int):
    rows = [[sc(x) for x in row] for row in rows_int]
    r = rank_of(rows)
    assert r <= min(len(rows), 4)
    ns = nullspace([to_sparse(row) for row in rows], 4)
    assert r + len(ns) == 4
    for x in ns:
        assert is_zero_vec(mat_vec(rows, to_dense(x, 4)))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_sparse_round_trip(xs):
    dense = [sc(x) for x in xs]
    assert to_dense(to_sparse(dense), 3) == dense
