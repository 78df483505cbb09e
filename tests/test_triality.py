import pytest

from realforms.algebras import symmetric_composition
from realforms.lie import certify_jacobi, killing_signature
from realforms.linalg import SpanSolver, apply, combine
from realforms.scalars import HALF, ONE, ZERO, sc
from realforms.triality import orthogonal_lie, triality


def test_orthogonal_dimensions():
    assert len(orthogonal_lie(symmetric_composition("pO"))) == 28
    assert len(orthogonal_lie(symmetric_composition("pOs"))) == 28
    assert len(orthogonal_lie(symmetric_composition("pC"))) == 1


@pytest.mark.parametrize(
    "name,dim", [("pO", 28), ("pOs", 28), ("pC", 2), ("pRR", 2), ("R", 0)]
)
def test_triality_dimensions(name, dim):
    assert triality(symmetric_composition(name)).dim == dim


def test_triality_natural_action():
    s = symmetric_composition("pO")
    tri = triality(s)
    d0, d1, d2 = tri.component_maps(tri.lie.basis_vec(7))
    for i in range(8):
        x = s.basis_vec(i)
        for j in range(8):
            y = s.basis_vec(j)
            lhs = apply(d0, s.mul(x, y))
            rhs = combine([(ONE, s.mul(apply(d1, x), y)), (ONE, s.mul(x, apply(d2, y)))])
            assert lhs == rhs


def test_t_elements_antisymmetric_and_spanning():
    s = symmetric_composition("pO")
    tri = triality(s)
    e = [s.basis_vec(i) for i in range(8)]
    ts = {}
    for a in range(8):
        assert tri.t_element(e[a], e[a]) == {}
        for b in range(a + 1, 8):
            ts[(a, b)] = tri.t_element(e[a], e[b])
            back = tri.t_element(e[b], e[a])
            assert ts[(a, b)] == {k: -x for k, x in back.items()}
    assert SpanSolver(ts.values()).rank == 28


def test_theta_is_order_three_automorphism():
    tri = triality(symmetric_composition("pO"))
    n = tri.dim
    for k in range(n):
        v = tri.lie.basis_vec(k)
        assert tri.theta(v, 3) == v
    # automorphism on a few pairs
    for i, j in [(0, 1), (3, 17), (9, 22)]:
        vi, vj = tri.lie.basis_vec(i), tri.lie.basis_vec(j)
        lhs = tri.theta(tri.lie.bracket(vi, vj))
        rhs = tri.lie.bracket(tri.theta(vi), tri.theta(vj))
        assert lhs == rhs


def test_tri_octonion_killing_signatures():
    tri_c = triality(symmetric_composition("pO")).lie
    certify_jacobi(tri_c)
    assert killing_signature(tri_c) == (0, 28, 0)
    tri_s = triality(symmetric_composition("pOs")).lie
    certify_jacobi(tri_s)
    assert killing_signature(tri_s) == (16, 12, 0)


def test_tri_okubo_matches_para():
    tri = triality(symmetric_composition("Ok"))
    assert tri.dim == 28
    certify_jacobi(tri.lie)
    assert killing_signature(tri.lie) == (0, 28, 0)


def test_tri_pc_structure():
    s = symmetric_composition("pC")
    tri = triality(s)
    assert tri.dim == 2
    # abelian
    assert not tri.lie.brk
    e0, e1 = s.basis_vec(0), s.basis_vec(1)
    sig = tri.sigma_map(e0, e1)
    assert apply(sig, e0) == combine([(sc(2), e1)])
    assert apply(sig, e1) == combine([(sc(-2), e0)])
    # t_{e0,e1} = (sig, -sig/2, -sig/2)
    neg_half = [{q: -x * HALF for q, x in row.items()} for row in sig]
    expected = tri.coords_of_triple((sig, neg_half, neg_half))
    assert tri.t_element(e0, e1) == expected
    # t_{e0,e0} vanishes
    assert tri.t_element(e0, e0) == {}


def test_tri_pc_beta_description():
    s = symmetric_composition("pC")
    tri = triality(s)
    sig = tri.sigma_map(s.basis_vec(0), s.basis_vec(1))

    def scaled(c):
        return [{q: x * c for q, x in row.items()} for row in sig]

    # (b0 d, b1 d, b2 d) is a triality element iff b0 + b1 + b2 = 0
    tri.coords_of_triple((scaled(ONE), scaled(ONE), scaled(sc(-2))))
    from realforms.errors import VerificationError

    with pytest.raises(VerificationError):
        tri.coords_of_triple((scaled(ONE), scaled(ONE), scaled(ONE)))
