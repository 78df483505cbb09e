import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realforms.algebras import (
    AlgebraTable,
    albert,
    check_composition,
    check_jordan_sampled,
    check_symmetric,
    hurwitz,
    okubo_compact,
    okubo_split,
    para,
    symmetric_composition,
)
from realforms.errors import VerificationError
from realforms.linalg import SpanSolver, combine, to_sparse
from realforms.scalars import HALF, OMEGA, ONE, ZERO, Scalar, sc

from oracles import albert_matrix_isomorphism, composition_oracle, h3_octonions, symmetric_oracle


HURWITZ_DIMS = {"R": 1, "RR": 2, "C": 2, "Mat2": 4, "H": 4, "O": 8, "Os": 8}


@pytest.mark.parametrize("name,dim", sorted(HURWITZ_DIMS.items()))
def test_hurwitz_algebras_are_composition(name, dim):
    t = hurwitz(name)
    assert t.dim == dim
    check_composition(t)


def test_quaternion_relations():
    h = hurwitz("H")
    i, j, k = h.basis_vec(1), h.basis_vec(2), h.basis_vec(3)
    assert h.mul(i, j) == k
    assert h.mul(j, i) == {p: x * sc(-1) for p, x in k.items()}
    assert h.mul(i, i) == {p: x * sc(-1) for p, x in h.unit.items()}
    assert h.norm(k) == ONE


def test_octonion_labels_and_products():
    o = hurwitz("O")
    assert o.labels == ["1", "i", "j", "k", "l", "il", "jl", "kl"]
    il = o.mul(o.basis_vec(1), o.basis_vec(4))
    assert il == o.basis_vec(5)
    # polar form is twice the identity on this basis
    assert o.form == [{a: sc(2)} for a in range(8)]


def test_octonions_not_associative():
    o = hurwitz("O")
    i, j, l = o.basis_vec(1), o.basis_vec(2), o.basis_vec(4)
    assert o.mul(o.mul(i, j), l) != o.mul(i, o.mul(j, l))


def test_conjugation_antiautomorphism():
    o = hurwitz("O")
    for a in range(8):
        for b in range(8):
            x, y = o.basis_vec(a), o.basis_vec(b)
            assert o.conj_vec(o.mul(x, y)) == o.mul(o.conj_vec(y), o.conj_vec(x))


def test_split_octonion_idempotents():
    t = hurwitz("Os")
    e1, e2 = t.basis_vec(0), t.basis_vec(1)
    assert t.mul(e1, e1) == e1
    assert t.mul(e2, e2) == e2
    assert t.mul(e1, e2) == {}
    assert t.unit == combine([(ONE, e1), (ONE, e2)])
    u1, v1 = t.basis_vec(2), t.basis_vec(5)
    assert t.mul(e1, u1) == u1
    assert t.mul(u1, e1) == {}
    assert t.mul(u1, v1) == {p: -x for p, x in e1.items()}
    # isotropic norms, hyperbolic pairing
    assert t.norm(e1) == ZERO
    assert t.polar(e1, e2) == ONE
    assert t.conj_vec(e1) == e2
    assert t.conj_vec(u1) == {p: -x for p, x in u1.items()}


def test_split_octonion_cross_products():
    t = hurwitz("Os")
    u1, u2, v3 = t.basis_vec(2), t.basis_vec(3), t.basis_vec(7)
    assert t.mul(u1, u2) == v3
    assert t.mul(u2, u1) == {p: -x for p, x in v3.items()}


@pytest.mark.parametrize("name", ["pR", "pRR", "pC", "pO", "pOs"])
def test_para_algebras_are_symmetric_composition(name):
    check_symmetric(symmetric_composition(name))


def test_para_split_idempotent_squares_across():
    t = symmetric_composition("pOs")
    e1 = t.basis_vec(0)
    assert t.mul(e1, e1) == t.basis_vec(1)


def test_para_r_is_r():
    t = symmetric_composition("R")
    assert t.dim == 1
    assert t.mul({0: ONE}, {0: ONE}) == {0: ONE}
    check_symmetric(t)


def test_okubo_compact_is_symmetric_composition():
    t = okubo_compact()
    assert t.dim == 8
    check_symmetric(t)
    # definite: every basis vector has positive norm
    for b in range(8):
        assert t.norm(t.basis_vec(b)).sign() > 0


def test_okubo_split_is_symmetric_composition():
    t = okubo_split()
    assert t.dim == 8
    check_symmetric(t)


def test_okubo_has_no_left_unit():
    # x*y = y for all y is unsolvable: rank grows when the system is augmented
    t = okubo_compact()
    rows, aug = [], []
    for j in range(8):
        for p in range(8):
            # sum_i x_i (b_i * b_j)_p = delta_jp, the right side in column 8
            row = {i: t.sc[i][j][p] for i in range(8) if p in t.sc[i][j]}
            rows.append(row)
            aug.append({**row, 8: ONE} if p == j else row)
    assert SpanSolver(aug).rank > SpanSolver(rows).rank


def test_composition_check_catches_corruption():
    t = hurwitz("C")
    bad = [[dict(v) for v in row] for row in t.sc]
    bad[1][1][0] = ONE  # i*i = +1 breaks the norm law
    broken = type(t)(t.name, t.labels, bad, t.form, t.unit, t.invol)
    with pytest.raises(VerificationError, match="composition law fails") as exc:
        check_composition(broken)
    # n(1 1, i i) + n(1 i, i 1) = 2 + 2 with i i = +1, but n(1, i) n(1, i) = 0
    assert exc.value.witness == [0, 0, 1, 1]


def test_composition_check_rejects_a_wrong_unit():
    t = hurwitz("H")
    two = {p: x * sc(2) for p, x in t.unit.items()}
    broken = type(t)(t.name, t.labels, t.sc, t.form, two, t.invol)
    with pytest.raises(VerificationError, match="unit fails on 1") as exc:
        check_composition(broken)
    assert exc.value.witness == {"index": 0}


def test_composition_check_rejects_a_rescaled_form():
    # the unit axioms hold, but n(1) = n(1, 1)/2 doubles with the form
    t = hurwitz("C")
    form = [{q: x * sc(2) for q, x in row.items()} for row in t.form]
    broken = type(t)(t.name, t.labels, t.sc, form, t.unit, t.invol)
    with pytest.raises(VerificationError, match=r"n\(1\) != 1") as exc:
        check_composition(broken)
    assert exc.value.witness == "2"


def test_symmetric_check_rejects_a_hurwitz_product():
    # C is a composition algebra, but its form is not associative:
    # n(1 i, i) = n(i, i) = 2 while n(1, i i) = n(1, -1) = -2
    t = hurwitz("C")
    check_composition(t)
    with pytest.raises(VerificationError, match="form associativity fails at") as exc:
        check_symmetric(t)
    assert exc.value.witness == [0, 1, 1]


# ---------------------------------------------------------------------------
# the integer-part checks against the Scalar oracle


def _outcome(check, t):
    """("ok", report) or ("fails", message, witness)."""
    try:
        return ("ok", check(t))
    except VerificationError as exc:
        return ("fails", str(exc), exc.witness)


def _with_products(t, sc_):
    return AlgebraTable(t.name, t.labels, sc_, t.form, t.unit, t.invol)


# the package check and its oracle: Hurwitz C has a unit and no
# associative form, the others are symmetric composition algebras
CHECKED = {
    "C": (lambda: hurwitz("C"), check_composition, composition_oracle),
    "pO": (lambda: symmetric_composition("pO"), check_symmetric, symmetric_oracle),
    "Ok": (okubo_compact, check_symmetric, symmetric_oracle),
    "Oks": (okubo_split, check_symmetric, symmetric_oracle),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_integer_checks_match_the_oracle_on_intact_tables(name):
    make, check, oracle = CHECKED[name]
    t = make()
    assert _outcome(check, t) == _outcome(oracle, t)
    assert _outcome(check, t)[0] == "ok"


entry_parts = st.integers(-2, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(CHECKED)),
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(entry_parts, entry_parts, entry_parts, entry_parts),
    st.sampled_from([1, 2, 3, 6]),
)
def test_one_corrupted_product_entry_fails_as_the_oracle_does(name, where, parts, den):
    """Entry q of b_i b_j set to (a + b r3 + (c + d r3) i)/den, or removed
    when that is 0: both checks pass, or both raise the same message with
    the same witness."""
    make, check, oracle = CHECKED[name]
    t = make()
    i, j, q = (x % t.dim for x in where)
    bad = [[dict(v) for v in row] for row in t.sc]
    x = Scalar.from_ints(*parts, den)
    if x:
        bad[i][j][q] = x
    else:
        bad[i][j].pop(q, None)
    broken = _with_products(t, bad)
    assert _outcome(check, broken) == _outcome(oracle, broken)


def test_corrupted_okubo_product_reaches_the_composition_law():
    # b3 b4 = -b8 turned into -omega b8: same norm line, other products
    t = okubo_split()
    bad = [[dict(v) for v in row] for row in t.sc]
    bad[2][3][7] = bad[2][3][7] * OMEGA
    broken = _with_products(t, bad)
    with pytest.raises(VerificationError, match="composition law fails") as exc:
        check_symmetric(broken)
    assert str(exc.value) == "Oks: composition law fails at (b1,b4,b3,b7)"
    assert exc.value.witness == [0, 3, 2, 6]
    assert _outcome(symmetric_oracle, broken) == _outcome(check_symmetric, broken)


def test_reflected_okubo_products_reach_form_associativity():
    # every product followed by the reflection b2 -> -b2, an isometry of
    # the diagonal form: the composition law still holds, associativity not
    t = okubo_split()
    bad = [[{q: -x if q == 1 else x for q, x in v.items()} for v in row] for row in t.sc]
    broken = _with_products(t, bad)
    assert check_composition(broken) == {"tuples": 8**4}
    with pytest.raises(VerificationError, match="form associativity fails") as exc:
        check_symmetric(broken)
    assert str(exc.value) == "Oks: form associativity fails at (b1,b2,b2)"
    assert exc.value.witness == [0, 1, 1]
    assert _outcome(symmetric_oracle, broken) == _outcome(check_symmetric, broken)


def test_albert_dimensions_and_unit():
    alg = albert(symmetric_composition("pO"), (1, 1, 1))
    assert alg.dim == 27
    t = alg.table
    for k in range(27):
        b = t.basis_vec(k)
        assert t.mul(t.unit, b) == b
    assert alg.trace(t.unit) == sc(3)


def test_albert_idempotent_action():
    alg = albert(symmetric_composition("pO"), (1, 1, 1))
    t = alg.table
    e0 = t.basis_vec(alg.E_index(0))
    i0 = t.basis_vec(alg.iota_index(0, 3))
    i1 = t.basis_vec(alg.iota_index(1, 3))
    assert t.mul(e0, i0) == {}
    assert t.mul(e0, i1) == {p: x * HALF for p, x in i1.items()}


def test_albert_same_slot_product():
    s = symmetric_composition("pO")
    alg = albert(s, (1, 1, 1))
    t = alg.table
    x = t.basis_vec(alg.iota_index(0, 2))
    y = t.basis_vec(alg.iota_index(0, 2))
    out = t.mul(x, y)
    # 2 * q(e2, e2) = 4 on E1 + E2
    assert out[1] == sc(4) and out[2] == sc(4)
    assert not any(p >= 3 for p in out)


@pytest.mark.parametrize(
    "sname,eps",
    [("pO", (1, 1, 1)), ("pO", (1, -1, 1)), ("pOs", (1, 1, 1))],
)
def test_albert_is_jordan(sname, eps):
    alg = albert(symmetric_composition(sname), eps)
    report = check_jordan_sampled(alg, trials=25)
    assert report["jordan_samples"] == 25


def test_h3_octonions_is_jordan_sampled():
    h3, o = h3_octonions()
    import random

    rng = random.Random(11)
    for _ in range(10):
        x = to_sparse([sc(rng.randint(-2, 2)) for _ in range(27)])
        y = to_sparse([sc(rng.randint(-2, 2)) for _ in range(27)])
        xx = h3.mul(x, x)
        assert h3.mul(xx, h3.mul(y, x)) == h3.mul(h3.mul(xx, y), x)


def test_albert_matches_hermitian_matrices():
    report = albert_matrix_isomorphism()
    assert report["pairs"] == 27 * 28 // 2


@pytest.mark.parametrize(
    "name",
    ["R", "RR", "C", "Mat2", "H", "O", "Os"]
    + ["pR", "pRR", "pC", "pMat2", "pH", "pO", "pOs", "Ok", "Oks"]
    + ["albert:pO", "h3"],
)
def test_tables_are_zero_free_sparse(name):
    """Every product, the unit and each conj(b_j) is a dict without zero
    entries, so == on elements is vector equality."""
    if name in HURWITZ_DIMS:
        t = hurwitz(name)
    elif name == "albert:pO":
        t = albert(symmetric_composition("pO"), (1, 1, 1)).table
    elif name == "h3":
        t, _ = h3_octonions()
    else:
        t = symmetric_composition(name)
    entries = [v for row in t.sc for v in row]
    if t.unit is not None:
        entries.append(t.unit)
    entries += t.invol or []
    assert len(entries) >= t.dim * t.dim
    for v in entries:
        assert isinstance(v, dict)
        assert all(v.values())
