from dataclasses import replace
from math import comb

import pytest

import realforms.constructions as constructions_mod
import realforms.triality as triality_mod
from realforms.algebras import AlbertAlgebra, albert, symmetric_composition
from realforms.constructions import (
    check_rho_homomorphism,
    derivation_model,
    induced_automorphism,
    magic_square,
    rho_images,
)
from realforms.errors import VerificationError
from realforms.lie import LieAlgebra, certify_jacobi, killing_form
from realforms.linalg import SpanSolver, apply, combine, flatten
from realforms.pipeline import build_model, certify
from realforms.scalars import HALF, IUNIT, ONE, SQRT3, TWO, ZERO, sc

from oracles import derivations, killing_signature, naive_jacobi_witness


@pytest.fixture(scope="module")
def f4_square():
    return magic_square(
        symmetric_composition("pO"), symmetric_composition("R"), (1, 1, 1)
    )


@pytest.fixture(scope="module")
def e6_indef_square():
    return magic_square(
        symmetric_composition("pO"), symmetric_composition("pC"), (1, -1, 1)
    )


@pytest.fixture(scope="module")
def model78():
    return derivation_model(symmetric_composition("pO"))


def test_f4_square_is_compact_f4(f4_square):
    assert f4_square.dim == 52
    certify_jacobi(f4_square.lie)
    assert killing_signature(f4_square.lie) == (0, 52, 0)


def test_e6_square_signature_minus_14(e6_indef_square):
    assert e6_indef_square.dim == 78
    certify_jacobi(e6_indef_square.lie)
    assert killing_signature(e6_indef_square.lie) == (32, 46, 0)


def test_compact_e6_square():
    sq = magic_square(
        symmetric_composition("pO"), symmetric_composition("pC"), (1, 1, 1)
    )
    certify_jacobi(sq.lie)
    assert killing_signature(sq.lie) == (0, 78, 0)


def test_killing_form_invariance_sampled(e6_indef_square):
    import random

    L = e6_indef_square.lie
    k = killing_form(L)
    rng = random.Random(5)
    n = L.dim

    def kform(x, y):
        acc = ZERO
        for i, xi in x.items():
            for j, yj in y.items():
                kij = k[i].get(j)
                if kij:
                    acc = acc + xi * kij * yj
        return acc

    def element():
        coefs = [rng.randint(-1, 1) for _ in range(n)]
        return {i: sc(c) for i, c in enumerate(coefs) if c}

    for _ in range(6):
        x, y, z = element(), element(), element()
        assert kform(L.bracket(x, y), z) == kform(x, L.bracket(y, z))


def test_iota_bracket_eigenvector_conventions(e6_indef_square):
    # [h, v] = v for h = iota_0(e0 x e1)/2 and
    # v = iota_0(e0 x e0) - iota_0(e1 x e1) + t_{e0,e1} + t'_{e0,e1}
    sq = e6_indef_square
    s, sp = sq.s, sq.sp
    e0s, e1s = s.basis_vec(0), s.basis_vec(1)
    e0p, e1p = sp.basis_vec(0), sp.basis_vec(1)
    h = combine([(HALF, sq.iota_vec(0, e0s, e1p))])
    v = combine([
        (ONE, sq.iota_vec(0, e0s, e0p)),
        (sc(-1), sq.iota_vec(0, e1s, e1p)),
        (ONE, sq.tri_s.t_element(e0s, e1s)),
        (ONE, sq.tri_sp_vec(sq.tri_sp.t_element(e0p, e1p))),
    ])
    assert sq.lie.bracket(h, v) == v


def test_block_layout(e6_indef_square):
    sq = e6_indef_square
    assert sq.tri_s.dim == 28
    assert sq.tri_sp.dim == 2
    assert sq.iota_offset == 30
    assert sq.iota_index(0, 0, 1) == 31
    assert sq.iota_index(1, 0, 0) == 46
    assert sq.iota_index(2, 7, 1) == 77


def test_tri_blocks_commute(e6_indef_square):
    sq = e6_indef_square
    for k in range(sq.tri_s.dim):
        for m in range(sq.tri_sp.dim):
            assert not sq.lie.bracket_basis(k, sq.tri_s.dim + m)


def test_albert_derivations_dimension():
    alg = albert(symmetric_composition("pO"), (1, 1, 1))
    assert len(derivations(alg.table)) == 52


def test_rho_images_are_derivations(f4_square):
    alg = albert(symmetric_composition("pO"), (1, 1, 1))
    rho = rho_images(f4_square, alg)
    assert len(rho) == 52
    t = alg.table
    # spot-check the derivation property on a few images, all basis pairs
    for m in (rho[0], rho[17], rho[28], rho[40], rho[51]):
        for i in range(t.dim):
            bi = t.basis_vec(i)
            dbi = apply(m, bi)
            for j in range(i, t.dim):
                bj = t.basis_vec(j)
                lhs = apply(m, t.sc[i][j])
                rhs = combine([(ONE, t.mul(dbi, bj)), (ONE, t.mul(bi, apply(m, bj)))])
                assert lhs == rhs


def test_rho_homomorphism_catches_corruption(monkeypatch):
    """rho(b_1) doubled stays independent of the other images, keeps A0
    and leaves their span as it was, so the derivation model is built; it
    is no longer a homomorphism, and the model's Jacobi certificate fails
    on a triple (b_i, b_j, z) with z in A0."""
    s = symmetric_composition("pC")
    square = magic_square(s, symmetric_composition("R"), (1, 1, 1))
    alg = albert(s, (1, 1, 1))
    R = rho_images(square, alg)
    assert check_rho_homomorphism(R, alg.table.unit).rank == 8
    R[1] = [{q: TWO * x for q, x in row.items()} for row in R[1]]
    monkeypatch.setattr(constructions_mod, "rho_images", lambda square, alg: R)
    model = derivation_model(s)
    expected = naive_jacobi_witness(model.lie)
    assert expected is not None and expected[1] < model.der_dim <= expected[2]
    with pytest.raises(VerificationError, match="Jacobi fails") as info:
        certify(model.lie, None, "tits(pC)")
    assert info.value.witness == expected


def test_rho_homomorphism_rejects_dependent_images():
    s = symmetric_composition("pC")
    square = magic_square(s, symmetric_composition("R"), (1, 1, 1))
    alg = albert(s, (1, 1, 1))
    R = rho_images(square, alg)
    R[5] = [dict(row) for row in R[2]]
    with pytest.raises(VerificationError, match="dependent") as info:
        check_rho_homomorphism(R, alg.table.unit)
    assert info.value.witness == {"index": 5}


# the Jacobi record of the 78-dimensional model over pO or Ok
MODEL78_JACOBI = {
    "generators": [0, 49, 20, 69, 40, 11],
    "triples": comb(78, 3) - comb(78 - 6, 3),
}


@pytest.mark.parametrize(
    "delta", [ONE, SQRT3, IUNIT, IUNIT * SQRT3], ids=["1", "r3", "i", "i*r3"]
)
def test_rho_homomorphism_mutation_in_each_lane(monkeypatch, f4_square, delta):
    """A constant of g corrupted in one lane reaches the model's table,
    and the EIV build fails its Jacobi certificate at the first failing
    triple of that table."""
    brk = {k: dict(v) for k, v in f4_square.lie.brk.items()}
    a, b = next(k for k, v in brk.items() if set(v) - set(k))
    m = next(m for m in brk[(a, b)] if m not in (a, b))
    brk[(a, b)][m] = brk[(a, b)][m] + delta
    bad = replace(f4_square, lie=LieAlgebra("bad", f4_square.lie.labels, brk))
    monkeypatch.setattr(constructions_mod, "magic_square", lambda s, sp, eps: bad)
    expected = naive_jacobi_witness(derivation_model(symmetric_composition("pO")).lie)
    assert expected is not None
    with pytest.raises(VerificationError, match="Jacobi fails") as info:
        build_model("e6m26")
    assert info.value.witness == expected


def test_rho_homomorphism_lanes_of_the_constants(monkeypatch, f4_square):
    """Rescale b_a by sqrt3 and b_b by i: the images gain the sqrt3 and i
    lanes, and the constant t_a t_b / t_m c^m_ab the i sqrt3 lane, which no
    image has.  The model built on them still passes Jacobi, and a
    corrupted constant in that lane is still caught."""
    pO = symmetric_composition("pO")
    brk = f4_square.lie.brk
    a, b = next(k for k, v in brk.items() if set(v) - set(k))
    R = rho_images(f4_square, albert(pO, (1, 1, 1)))
    t = [ONE] * len(R)
    t[a], t[b] = SQRT3, IUNIT
    R = [[{q: t[k] * x for q, x in row.items()} for row in m] for k, m in enumerate(R)]
    scaled = {
        (i, j): {m: t[i] * t[j] * c / t[m] for m, c in v.items()}
        for (i, j), v in brk.items()
    }
    square = replace(f4_square, lie=LieAlgebra("scaled", f4_square.lie.labels, scaled))
    assert any(c.d for v in scaled.values() for c in v.values())
    assert not any(x.d for m in R for row in m for x in row.values())
    monkeypatch.setattr(constructions_mod, "magic_square", lambda s, sp, eps: square)
    monkeypatch.setattr(constructions_mod, "rho_images", lambda square, alg: R)
    assert certify_jacobi(derivation_model(pO).lie) == MODEL78_JACOBI
    m = next(m for m in scaled[(a, b)] if m not in (a, b))
    scaled[(a, b)][m] = scaled[(a, b)][m] + IUNIT * SQRT3
    model = derivation_model(pO)
    expected = naive_jacobi_witness(model.lie)
    assert expected is not None
    with pytest.raises(VerificationError, match="Jacobi fails") as info:
        certify_jacobi(model.lie)
    assert info.value.witness == expected


def test_rho_homomorphism_okubo_model():
    model = derivation_model(symmetric_composition("Ok"))
    consts = [c for v in model.square.lie.brk.values() for c in v.values()]
    assert any(c.b for c in consts)  # sqrt3 lanes in the constants
    assert check_rho_homomorphism(model.rho, model.alg.table.unit).rank == 52
    assert certify_jacobi(model.lie) == MODEL78_JACOBI
    assert model.lie.dim == 78


def test_second_square_over_a_tri_solves_no_t_element(monkeypatch):
    """The theta-power table of t_{e_a, e_b} is held by tri(S), so only
    the first square over S solves for the 28 t elements of tri(pO)."""
    calls = []
    real = triality_mod.TrialityAlgebra.t_coords

    def counted(self, x, y, mx, my):
        calls.append(self.comp.name)
        return real(self, x, y, mx, my)

    pO, pC = symmetric_composition("pO"), symmetric_composition("pC")
    magic_square(pO, pC, (1, 1, 1))
    monkeypatch.setattr(triality_mod.TrialityAlgebra, "t_coords", counted)
    magic_square(pO, symmetric_composition("R"), (1, 1, 1))
    magic_square(pO, pC, (1, -1, 1))
    assert calls == []
    _ = triality_mod.triality(pO).theta_t_table
    assert calls == ["pO"] * 28


def traceless_coords(v):
    """Coordinates of a traceless Jordan element over E0 - E1, E2 - E0 and
    the iota basis vectors, in closed form."""
    out = {0: -v.get(1, ZERO), 1: v.get(2, ZERO)}
    out.update((k - 1, x) for k, x in v.items() if k >= 3)
    return {k: x for k, x in out.items() if x}


@pytest.mark.parametrize("name", ["pO", "Ok"])
def test_rho_on_traceless_part_matches_apply_oracle(request, name):
    if name == "pO":
        model = request.getfixturevalue("model78")
    else:
        model = derivation_model(symmetric_composition(name))
    nd = model.der_dim
    zs = model.alg.zero_trace_basis()
    for i in range(nd):
        for j, z in enumerate(zs, start=nd):
            image = apply(model.rho[i], z)
            assert model.alg.trace(image) == ZERO
            want = {nd + k: x for k, x in traceless_coords(image).items()}
            assert model.lie.bracket_basis(i, j) == want


def test_rho_image_outside_the_traceless_basis_is_witnessed(monkeypatch):
    """Replace iota_2(e_1) in the traceless basis by a second copy of
    iota_2(e_0): the first pair (i, j), in lexicographic order, whose image
    rho(b_i) z_j meets the lost direction fails."""
    pC = symmetric_composition("pC")
    full = derivation_model(pC)
    nd, zs = full.der_dim, full.alg.zero_trace_basis()
    lost = full.alg.iota_index(2, 1)
    assert zs[-1] == {lost: ONE}
    short = zs[:-1] + [zs[-2]]
    want = next(
        [i, j]
        for i in range(nd)
        for j, z in enumerate(short, start=nd)
        if lost in apply(full.rho[i], z)
    )
    monkeypatch.setattr(AlbertAlgebra, "zero_trace_basis", lambda self: short)
    with pytest.raises(VerificationError, match="left the traceless subspace") as info:
        derivation_model(pC)
    assert info.value.witness == {"pair": want}


def test_commutator_outside_the_images_is_witnessed(monkeypatch):
    """Leave the last derivation image out of the span that the
    commutators of multiplications are read over: the first pair of the
    traceless part whose commutator needs it fails."""
    pC = symmetric_composition("pC")
    full = derivation_model(pC)
    nd, L = full.der_dim, full.lie
    want = next(
        [i, j]
        for i in range(nd, L.dim)
        for j in range(i + 1, L.dim)
        if nd - 1 in L.bracket_basis(i, j)
    )
    real = constructions_mod.check_rho_homomorphism

    def short_span(R, unit):
        real(R, unit)
        return SpanSolver(flatten(m) for m in R[:-1])

    monkeypatch.setattr(constructions_mod, "check_rho_homomorphism", short_span)
    with pytest.raises(VerificationError, match="not in the image") as info:
        derivation_model(pC)
    assert info.value.witness == {"pair": want}


def test_model78_structure(model78):
    assert model78.lie.dim == 78
    assert certify_jacobi(model78.lie) == MODEL78_JACOBI
    assert killing_signature(model78.lie) == (26, 52, 0)


def test_model78_traceless_part_brackets_into_derivations(model78):
    L = model78.lie
    nd = model78.der_dim
    for i in (nd, nd + 1, nd + 9):
        for j in (nd + 2, nd + 14, nd + 25):
            if j <= i:
                continue
            v = L.bracket_basis(i, j)
            assert all(p < nd for p in v)


def test_model78_derivations_kill_unit(monkeypatch, model78):
    """The model's Jacobi certificate sees rho only on A0; rho(b) 1 = 0
    is checked before the model is built.  Adding e_3 to rho(b_33) E0,
    E1 and E2 moves the unit and no element of A0."""
    unit = model78.alg.table.unit
    assert all(apply(m, unit) == {} for m in model78.rho)
    R = [[dict(row) for row in m] for m in model78.rho]
    for c in range(3):
        R[33][3][c] = R[33][3].get(c, ZERO) + ONE
    assert all(apply(R[33], z) == apply(model78.rho[33], z)
               for z in model78.alg.zero_trace_basis())
    monkeypatch.setattr(constructions_mod, "rho_images", lambda square, alg: R)
    with pytest.raises(VerificationError, match="does not kill the unit") as info:
        derivation_model(symmetric_composition("pO"))
    assert info.value.witness == {"index": next(k for k, m in enumerate(R) if apply(m, unit))}


def test_induced_automorphism_rejects_a_non_automorphism(get_build):
    # e1 <-> u1, e2 <-> v1 preserves the norm of pOs but not its product,
    # so conjugating tri(pOs) by it leaves tri
    square = get_build("e6p2").square
    swap = {"e1": "u1", "u1": "e1", "e2": "v1", "v1": "e2"}
    with pytest.raises(VerificationError, match="not a triality element"):
        induced_automorphism(square, swap, {}, (1, 1, 1))
