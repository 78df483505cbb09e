import hashlib
import json

import pytest

import realforms.triality as triality_mod
from realforms.algebras import symmetric_composition
from realforms.errors import ConstructionError, VerificationError
from realforms.lie import certify_jacobi, generating_set
from realforms.linalg import SpanSolver, apply, combine, commutator, flatten, nullspace
from realforms.scalars import HALF, ONE, ZERO, sc
from realforms.triality import orthogonal_lie, triality

from oracles import killing_signature, theta


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
        assert theta(tri, v, 3) == v
    # automorphism on a few pairs
    for i, j in [(0, 1), (3, 17), (9, 22)]:
        vi, vj = tri.lie.basis_vec(i), tri.lie.basis_vec(j)
        lhs = theta(tri, tri.lie.bracket(vi, vj))
        rhs = tri.lie.bracket(theta(tri, vi), theta(tri, vj))
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
    with pytest.raises(VerificationError, match="not a triality element") as err:
        tri.coords_of_triple((scaled(ONE), scaled(ONE), scaled(ONE)))
    # the witness is the triple over so(q)^3, the vector outside the solutions
    assert err.value.witness == {"coefs": {"0": "2", "1": "2", "2": "2"}}


# ---------------------------------------------------------------------------
# oracle: the bracket table and theta recomputed on the flattened triples


@pytest.mark.parametrize("name", ["pO", "pOs", "Ok", "Oks", "pC", "pRR", "pH"])
def test_tables_match_span_solver_oracle(name):
    tri = triality(symmetric_composition(name))
    solver = SpanSolver(flatten(*t) for t in tri.basis)
    assert solver.rank == tri.dim
    for i in range(tri.dim):
        for j in range(i + 1, tri.dim):
            triple = [commutator(a, b) for a, b in zip(tri.basis[i], tri.basis[j])]
            assert tri.lie.brk.get((i, j), {}) == solver.coords_sparse(flatten(*triple))
    for k, t in enumerate(tri.basis):
        assert tri.theta_rows[k] == solver.coords_sparse(flatten(t[2], t[0], t[1]))


def _record_closures(monkeypatch):
    """Record the (what, read, coords) of each closed_subalgebra call of
    triality(); coords calls are counted per `what`."""
    seen, calls = [], {}
    real = triality_mod.closed_subalgebra

    def recording(name, labels, read, coords, what):
        def counted(i, j):
            calls[what] = calls.get(what, 0) + 1
            return coords(i, j)

        seen.append((what, len(labels), read, coords))
        return real(name, labels, read, counted, what)

    monkeypatch.setattr(triality_mod, "closed_subalgebra", recording)
    return seen, calls


@pytest.mark.parametrize("name", ["pO", "pOs", "Ok", "pC"])
def test_pivot_reads_match_certified_coordinates(monkeypatch, name):
    """On every pair, the bracket read off the pivot columns equals its
    coordinates certified by recombination, for so(q) and for tri(S)."""
    seen, _ = _record_closures(monkeypatch)
    triality(symmetric_composition(name))
    assert [what for what, *_ in seen] == [
        f"tri({name}): so(q) commutator",
        f"tri({name}): bracket",
    ]
    for _, dim, read, coords in seen:
        for i in range(dim):
            for j in range(i + 1, dim):
                assert {q: x for q, x in read(i, j).items() if x} == coords(i, j)


@pytest.mark.parametrize("name", ["pO", "pOs", "Ok", "pC"])
def test_theta_t_table_matches_theta_of_t_elements(name):
    tri = triality_mod.triality_cached(symmetric_composition(name))
    n = tri.comp.dim
    table = tri.theta_t_table
    for a in range(n):
        for b in range(n):
            t = tri.t_element({a: ONE}, {b: ONE})
            for k in range(3):
                assert table[k][a * n + b] == theta(tri, t, k)


def test_so_q_commutators_are_formed_once(monkeypatch):
    """The so(q) table and its closure certificate share each [B_k, B_l]:
    C(28, 2) = 378 commutators, where forming one per read and one per
    certified pair would take 378 + 7 * 27 = 567."""
    calls = []
    real = triality_mod.commutator

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(triality_mod, "commutator", counted)
    triality(symmetric_composition("pO"))
    assert len(calls) == 28 * 27 // 2 == 378


@pytest.mark.parametrize("name", ["pO", "Ok"])
def test_theta_t_table_forms_no_product_with_theta_rows(monkeypatch, name):
    """theta^k(t) is read at pivot columns: add_product runs only in the
    solve of each t element, never with the theta rows."""
    tri = triality(symmetric_composition(name))
    seen = []
    real = triality_mod.add_product

    def counted(acc, a, b, *coef):
        seen.append(b is tri.theta_rows)
        return real(acc, a, b, *coef)

    monkeypatch.setattr(triality_mod, "add_product", counted)
    assert len(tri.theta_t_table[2]) == 64
    assert len(seen) == 2 * 28
    assert not any(seen)


def test_bracket_certified_on_the_generating_rows_only(monkeypatch):
    _, calls = _record_closures(monkeypatch)
    tri = triality(symmetric_composition("pO"))
    gens = generating_set(tri.lie)
    assert len(gens) == 7
    assert calls["tri(pO): bracket"] == len(gens) * (tri.dim - 1) == 189


def test_coords_certify_membership():
    tri = triality(symmetric_composition("Ok"))
    b0, b3 = tri.orth.rows[0], tri.orth.rows[3]
    inside = combine([(ONE, b0), (sc(2), b3)])
    assert tri.orth.coords(inside) == {0: ONE, 3: sc(2)}
    # the identity map is not skew: its entries at the free columns are 0
    identity = flatten([{p: ONE} for p in range(8)])
    assert tri.orth.coords(identity) is None
    # same entries as b0 at every free column, one more entry elsewhere
    pivot = min(b0)
    outside = dict(b0)
    outside[pivot] = b0[pivot] + ONE
    assert tri.orth.coords(outside) is None


# ---------------------------------------------------------------------------
# mutations: each failure of triality() is reached and carries a witness


def _patch_tri_nullspace(monkeypatch, edit):
    """Apply `edit` to the solutions of the triality system: the second
    nullspace that triality() computes, after the one of so(q)."""
    calls = []

    def patched(rows, ncols):
        calls.append(ncols)
        sols = nullspace(rows, ncols)
        return edit(sols) if len(calls) == 2 else sols

    monkeypatch.setattr(triality_mod, "nullspace", patched)


def _patch_orthogonal_lie(monkeypatch, edit):
    real = orthogonal_lie
    monkeypatch.setattr(triality_mod, "orthogonal_lie", lambda s: edit(real(s)))


def test_so_q_commutator_outside_its_span_is_witnessed(monkeypatch):
    _patch_orthogonal_lie(monkeypatch, lambda basis: basis[:-1])
    with pytest.raises(VerificationError, match=r"so\(q\) commutator escapes") as err:
        triality(symmetric_composition("pO"))
    assert str(err.value).startswith("tri(pO): so(q) commutator")
    assert err.value.witness == {"pair": [15, 21]}
    json.dumps(err.value.witness)


def test_bracket_outside_the_span_is_witnessed(monkeypatch):
    _patch_tri_nullspace(monkeypatch, lambda sols: sols[:-1])
    with pytest.raises(VerificationError, match="bracket escapes the span") as err:
        triality(symmetric_composition("pO"))
    assert err.value.witness == {"pair": [15, 21]}
    json.dumps(err.value.witness)


# the witness is the first failing pair in lexicographic order, as the
# slot-by-slot scan of every pair found it before the generating-set proof
DROPPED = {"last": (lambda v: v[:-1], [15, 21]), "first": (lambda v: v[1:], [0, 1])}


@pytest.mark.parametrize("which", sorted(DROPPED))
@pytest.mark.parametrize("name", ["pO", "Ok"])
def test_dropped_solution_witness_is_pinned(monkeypatch, name, which):
    edit, pair = DROPPED[which]
    _patch_tri_nullspace(monkeypatch, edit)
    with pytest.raises(VerificationError, match=rf"^tri\({name}\): bracket escapes") as err:
        triality(symmetric_composition(name))
    assert err.value.witness == {"pair": pair}


@pytest.mark.parametrize("which", sorted(DROPPED))
def test_dropped_so_q_vector_witness_is_pinned(monkeypatch, which):
    edit, pair = DROPPED[which]
    _patch_orthogonal_lie(monkeypatch, edit)
    with pytest.raises(VerificationError, match=r"^tri\(pO\): so\(q\) commutator") as err:
        triality(symmetric_composition("pO"))
    assert err.value.witness == {"pair": pair}


def test_theta_outside_the_span_is_witnessed(monkeypatch):
    # one of the two solutions for pC: abelian, but no line is theta-stable
    _patch_tri_nullspace(monkeypatch, lambda sols: sols[:1])
    with pytest.raises(VerificationError, match="theta leaves the span") as err:
        triality(symmetric_composition("pC"))
    assert err.value.witness == {"index": 0}


def test_dependent_solutions_fail_the_independence_certificate(monkeypatch):
    _patch_tri_nullspace(monkeypatch, lambda sols: sols + [sols[0]])
    with pytest.raises(ConstructionError, match=r"tri\(pC\): dependent solution basis"):
        triality(symmetric_composition("pC"))


def test_non_skew_component_is_witnessed_by_its_slot():
    s = symmetric_composition("pC")
    tri = triality(s)
    sig = tri.sigma_map(s.basis_vec(0), s.basis_vec(1))
    identity = [{0: ONE}, {1: ONE}]
    for slot in range(3):
        triple = [sig, sig, sig]
        triple[slot] = identity
        with pytest.raises(VerificationError, match="not a triality element") as err:
            tri.coords_of_triple(tuple(triple))
        assert err.value.witness == {"slot": slot}


# ---------------------------------------------------------------------------
# golden pin: the tri(S) tables, byte for byte


def _canonical(v):
    """A sparse vector as its sorted (index, scalar text) pairs."""
    return [[k, x.to_str()] for k, x in sorted(v.items())]


def _tri_dump(name):
    tri = triality(symmetric_composition(name))
    return json.dumps(
        {
            "coefs": [_canonical(v) for v in tri.coefs.rows],
            "brk": [[i, j, _canonical(v)] for (i, j), v in sorted(tri.lie.brk.items())],
            "theta_rows": [_canonical(v) for v in tri.theta_rows],
            "theta_t_table": [[_canonical(v) for v in power] for power in tri.theta_t_table],
        },
        separators=(",", ":"),
    )


# the solved basis, bracket table, theta rows and theta-power table of
# t_{e_a, e_b}; a change to how tri(S) is computed must not move a byte
TRI_SHA256 = {
    "pO": "32f51d9091bdc4153619a14456c90fde53634dba99dbacd5b61109ba2ece1256",
    "pOs": "6badfd6f583007ffe94e0e15f7dc8de7181ab65f1191a32841479de96aa2a90c",
    "Ok": "2a6c34f1b6da7951f7308c2a44922a0d01160ab0d63f3d95c8326244d6b0dbb1",
    "Oks": "25248c903d70a08d5429757da8a9d9f9f889ff8136d33843ebc277b86ec57e9f",
    "pC": "bb8fd30a54a802dc90750385fd355a6581f1d4079ced6c1552dedd07526fa9cc",
}


@pytest.mark.parametrize("name", sorted(TRI_SHA256))
def test_tri_tables_golden(name):
    digest = hashlib.sha256(_tri_dump(name).encode("utf-8")).hexdigest()
    assert digest == TRI_SHA256[name]
