import fractions
import sys
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from realforms.scalars import (
    HALF,
    IUNIT,
    OMEGA,
    ONE,
    SQRT3,
    ZERO,
    Scalar,
    add_scaled,
    dot,
    parse_scalar,
    sc,
    sort_key,
)


def test_sqrt3_squares_to_three():
    assert SQRT3 * SQRT3 == sc(3)


def test_i_squares_to_minus_one():
    assert IUNIT * IUNIT == -ONE


def test_omega_is_primitive_cube_root():
    assert OMEGA != ONE
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO


def test_omega_minus_omega_sq_is_sqrt3_i():
    assert OMEGA - OMEGA * OMEGA == SQRT3 * IUNIT


def test_inverse_hand_values():
    # 1/(1 + r3) = (r3 - 1)/2
    x = ONE + SQRT3
    assert x.inverse() == (SQRT3 - ONE) * HALF
    assert x * x.inverse() == ONE
    # 1/i = -i
    assert IUNIT.inverse() == -IUNIT
    # 1/omega = omega^2
    assert OMEGA.inverse() == OMEGA * OMEGA


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_exact_cases():
    assert (sc(2) - SQRT3).sign() == 1  # 2 > sqrt3
    assert (SQRT3 - sc(2)).sign() == -1
    assert (SQRT3 - ONE).sign() == 1  # sqrt3 > 1
    assert (sc(7) * HALF - SQRT3 * sc(2)).sign() == 1  # 7/2 > 2 sqrt3
    assert (SQRT3 * sc(2) - sc(7) * HALF).sign() == -1
    assert ZERO.sign() == 0
    assert SQRT3.sign() == 1
    assert (-SQRT3).sign() == -1


def test_sign_rejects_imaginary():
    with pytest.raises(ValueError):
        IUNIT.sign()


def test_conj_fixes_reals_and_flips_i():
    z = sc(2) + SQRT3 + IUNIT * sc(5)
    assert z.conj() == sc(2) + SQRT3 - IUNIT * sc(5)
    assert (z * z.conj()).is_real()


def test_parse_round_trip_hand_cases():
    cases = [
        "0",
        "1",
        "-2/3",
        "1/2 + 3*r3",
        "5*i",
        "-1/2 + 1/2*r3*i",
        "(2 - 1/3*r3)*i",
        "1 - r3 + (1/4 + 2*r3)*i",
    ]
    for text in cases:
        z = parse_scalar(text)
        assert parse_scalar(z.to_str()) == z


def test_parse_rejects_garbage():
    for bad in ["1 +", "r4", "(1", "2 * * 3", "x"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_omega_renders_and_parses():
    assert parse_scalar(OMEGA.to_str()) == OMEGA


rationals = st.fractions(min_value=-25, max_value=25, max_denominator=40)


@st.composite
def scalars(draw):
    return Scalar(draw(rationals), draw(rationals), draw(rationals), draw(rationals))


@settings(deadline=None, max_examples=60)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x


@settings(deadline=None, max_examples=60)
@given(scalars())
def test_as_ints_round_trip(x):
    a, b, c, d, n = x.as_ints()
    assert n > 0 and gcd(a, b, c, d, n) == 1
    assert Scalar(*(fractions.Fraction(v, n) for v in (a, b, c, d))) == x


@settings(deadline=None, max_examples=60)
@given(scalars())
def test_inverse_property(x):
    if x:
        assert x * x.inverse() == ONE


@settings(deadline=None, max_examples=60)
@given(scalars(), scalars())
def test_conj_is_automorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


@settings(deadline=None, max_examples=60)
@given(scalars())
def test_serialization_round_trip(x):
    assert parse_scalar(x.to_str()) == x


@settings(deadline=None, max_examples=60)
@given(rationals, rationals)
def test_real_sign_matches_float(a, b):
    z = Scalar(a, b)
    approx = float(a) + float(b) * 3 ** 0.5
    if abs(approx) > 1e-6:
        assert z.sign() == (1 if approx > 0 else -1)


def test_coercion_accepts_fraction_int_str():
    assert sc(fractions.Fraction(3, 4)) == sc("3/4")
    assert sc(2) == ONE + ONE
    assert Scalar.of(sc(5)) is not None


# ---------------------------------------------------------------------------
# the integer-numerator representation: components, hashing, canonical form


@settings(deadline=None, max_examples=60)
@given(scalars(), scalars())
def test_equal_scalars_hash_equal(x, y):
    # x + y - y is x rebuilt through a different common denominator
    z = x + y - y
    assert z == x
    assert hash(z) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@settings(deadline=None, max_examples=60)
@given(scalars())
def test_hash_matches_fraction_components(x):
    parts = (x.a, x.b, x.c, x.d)
    assert all(type(p) is fractions.Fraction for p in parts)
    assert hash(x) == hash(parts)
    assert x == Scalar(*parts)


@pytest.mark.parametrize(
    "parts",
    [
        # a component hashing to -1, which Python reads as -2
        (fractions.Fraction(-(2 + sys.hash_info.modulus), 2), 0, 1, "1/3"),
        # numerators that are multiples of the hash modulus
        (fractions.Fraction(sys.hash_info.modulus, 7), -sys.hash_info.modulus, 0, 0),
        # denominators divisible by the hash modulus take the Fraction path
        (fractions.Fraction(1, sys.hash_info.modulus), "-1/2", 0, 3),
        (0, 0, fractions.Fraction(-5, 3 * sys.hash_info.modulus), 0),
    ],
)
def test_hash_matches_fraction_components_at_the_modulus(parts):
    x = Scalar(*parts)
    fracs = (x.a, x.b, x.c, x.d)
    assert hash(x) == hash(fracs)
    assert hash(x) == hash(tuple(fractions.Fraction(p) for p in parts))


@settings(deadline=None, max_examples=60)
@given(scalars())
def test_self_difference_is_canonical_zero(x):
    assert x - x == ZERO
    assert hash(x - x) == hash(ZERO)
    assert not (x - x)


def test_mixed_construction():
    x = Scalar(fractions.Fraction(2, 4), "1/3", 0, 1)
    assert x == sc("1/2 + 1/3*r3 + r3*i")
    assert (x.a, x.b, x.c, x.d) == (
        fractions.Fraction(1, 2),
        fractions.Fraction(1, 3),
        0,
        1,
    )

    class Half(fractions.Fraction):
        pass

    assert Scalar(Half(1, 2)) == HALF
    assert type(Scalar(Half(1, 2)).a) is fractions.Fraction


def test_division_by_negative_rational():
    x = sc("1/2 + r3")
    q = x / sc(-3)
    assert q == sc("-1/6 - 1/3*r3")
    assert q.to_str() == "-1/6 - 1/3*r3"
    assert hash(q) == hash(sc("-1/6 - 1/3*r3"))
    assert q * sc(-3) == x
    assert sc("2/3*i") / sc("-2/9") == sc("-3*i")


def test_inverse_all_parts_nonzero():
    x = sc("1/2 + 1/3*r3 + (2/5 - 3/7*r3)*i")
    inv = x.inverse()
    assert inv.to_str() == (
        "141906450/361967929 + 94261300/361967929*r3 + "
        "(-109232760/361967929 + 119046900/361967929*r3)*i"
    )
    assert x * inv == ONE
    assert inv.inverse() == x
    assert ONE / x == inv


def test_key_order_unchanged():
    vals = [
        sc("1/2"),
        sc(-1),
        SQRT3,
        sc("1/2 + r3*i"),
        sc("1/2 - r3*i"),
        IUNIT,
        ZERO,
        sc("-1/3*r3 + 2*i"),
        OMEGA,
    ]
    assert [v.to_str() for v in sorted(vals, key=Scalar.key)] == [
        "-1",
        "-1/2 + 1/2*r3*i",
        "-1/3*r3 + 2*i",
        "0",
        "1*i",
        "1*r3",
        "1/2 - 1*r3*i",
        "1/2",
        "1/2 + 1*r3*i",
    ]
    assert OMEGA.key() == (
        fractions.Fraction(-1, 2),
        0,
        0,
        fractions.Fraction(1, 2),
    )


# components from a few values, so that leading components tie often
tied_parts = st.sampled_from(
    [fractions.Fraction(x) for x in ("-1", "-1/2", "0", "1/3", "1/2", "1", "3/2")]
)
tied_scalars = st.builds(Scalar, tied_parts, tied_parts, tied_parts, tied_parts)


@settings(deadline=None, max_examples=80)
@given(st.lists(tied_scalars, min_size=1, max_size=10))
def test_sort_key_orders_as_key(vals):
    """The integer parts over one denominator sort as the Fraction key:
    equal values have equal keys, so both stable sorts give one list."""
    assert sorted(vals, key=sort_key(vals)) == sorted(vals, key=Scalar.key)
    key = sort_key(vals)
    for x in vals:
        for y in vals:
            assert (key(x) < key(y)) == (x.key() < y.key())


# ---------------------------------------------------------------------------
# add_scaled, the fused multiply-accumulate kernel, against the operators

# mixed denominators: a small rational times 1, 1/2, omega, sqrt3, i or
# sqrt3 i, so products and sums cross denominators 1, 2, 3, 4, 6, ...
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
mixed_scalars = st.builds(
    lambda r, u: Scalar(r) * u,
    small_rationals,
    st.sampled_from([ONE, HALF, OMEGA, SQRT3, IUNIT, SQRT3 * IUNIT]),
)
mixed_vecs = st.dictionaries(st.integers(0, 7), mixed_scalars, max_size=6)


def operator_sum(acc, x, v):
    """acc + x v entry by entry with Scalar's own operators, zeros dropped."""
    out = dict(acc)
    for q, y in v.items():
        out[q] = acc.get(q, ZERO) + x * y
    return {q: s for q, s in out.items() if s}


def assert_canonical(s):
    a, b, c, d, n = s.as_ints()
    assert n > 0 and gcd(a, b, c, d, n) == 1


@settings(deadline=None, max_examples=200)
@given(mixed_vecs, st.one_of(mixed_scalars, scalars()), mixed_vecs)
def test_add_scaled_matches_the_operators(acc, x, v):
    acc = {q: s for q, s in acc.items() if s}
    out = dict(acc)
    add_scaled(out, x, v)
    assert out == operator_sum(acc, x, v)
    assert all(out.values())
    for s in out.values():
        assert_canonical(s)
    # entries of acc that v does not touch are left as they were
    for q in acc.keys() - v.keys():
        assert out[q] is acc[q]


@settings(deadline=None, max_examples=60)
@given(mixed_vecs, mixed_vecs)
def test_add_scaled_by_zero_changes_nothing(acc, v):
    acc = {q: s for q, s in acc.items() if s}
    out = dict(acc)
    add_scaled(out, ZERO, v)
    assert out == acc


@settings(deadline=None, max_examples=100)
@given(mixed_scalars, mixed_scalars, mixed_vecs)
def test_add_scaled_removes_a_sum_that_cancels(x, y, rest):
    assume(x and y)
    # acc[0] = x y over a different denominator than -x and y have alone
    acc = {q: s for q, s in rest.items() if s and q}
    acc[0] = x * y
    out = dict(acc)
    add_scaled(out, -x, {0: y})
    assert 0 not in out
    assert out == {q: s for q, s in acc.items() if q}


def test_add_scaled_hand_cases():
    # omega/2 - omega * (1/2) cancels; 1/3 + sqrt3 * sqrt3/2 = 11/6
    acc = {0: OMEGA * HALF, 1: sc("1/3"), 2: IUNIT}
    add_scaled(acc, OMEGA, {0: -HALF})
    add_scaled(acc, SQRT3, {1: SQRT3 * HALF, 3: sc("2/3")})
    assert acc == {1: sc("11/6"), 2: IUNIT, 3: sc("2/3*r3")}
    assert_canonical(acc[1])
    # a zero entry of v adds nothing and stores nothing
    add_scaled(acc, ONE, {4: ZERO})
    assert 4 not in acc


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.one_of(mixed_scalars, scalars()), mixed_scalars), max_size=6))
def test_dot_matches_the_operators(pairs):
    got = dot(pairs)
    assert got == sum((x * y for x, y in pairs), ZERO)
    assert_canonical(got)


def test_dot_hand_cases():
    assert dot([]) is ZERO
    # omega/2 - omega * (1/2) cancels to the canonical zero
    assert dot([(OMEGA, HALF), (-OMEGA, HALF)]).as_ints() == (0, 0, 0, 0, 1)
    # 1/3 * 1/2 + sqrt3 * sqrt3/4 + i * 1/6 = 11/12 + i/6, over denominators 6, 4, 6
    pairs = [(sc("1/3"), HALF), (SQRT3, sc("1/4*r3")), (IUNIT, sc("1/6"))]
    assert dot(pairs) == sc("11/12 + 1/6*i")

