"""End-to-end checks of the three exceptional pipelines.

Everything here leans on the session fixtures in conftest, so the
expensive magic-square builds and root decompositions happen once.
"""

import dataclasses
import json
import sys

import pytest

from realforms import lie, pipeline, rootspace
from realforms.errors import ConstructionError, VerificationError
from realforms.lie import lie_from_fn
from realforms.linalg import combine
from realforms.pipeline import (
    MODELS,
    PRESET_MODEL,
    SIGNATURE_CELLS,
    CartanData,
    ModelBuild,
    ModelSpec,
    build_cell,
    cartan_decomposition_report,
    cartan_involution,
    certify_maximal_abelian,
    run_satake,
    table_rows,
)
from realforms.rootspace import (
    adapted_simple_system,
    cartan_integer,
    cov_is_zero,
    cov_scale,
    cov_sub,
    highest_root,
    restrict_covector,
    restricted_multiplicities,
    root_decomposition,
    simple_coords,
    split_indices,
    verify_simple_basis,
)
from realforms.satake import (
    SatakeNode,
    build_restricted_table,
    build_satake,
)
from realforms.scalars import HALF, ONE, Rat, Scalar, sc

from oracles import canonical_key, compact_satake, cov_neg, der_dim, t_s


def cov(*xs):
    return tuple(sc(x) for x in xs)


# ---------------------------------------------------------------------------
# the oracle: hand-written Cartan generators and published simple systems
#
# The package reads hs off theta.  The recipes below are independent of
# theta: commuting Cartan generators typed in per model, on which
# PRESET_SIMPLE gives the published simple systems of EIV, EIII and EII as
# values on (h1..h6).  Decomposing g under them must give the diagram and
# the restricted table of the derived pass, up to relabelling.


def _covs(rows):
    return [tuple(sc(x) for x in row) for row in rows]


PRESET_SIMPLE = {
    "EIV": _covs([
        ("1/2*i", "-1/2*i", "-1/2*i", "-1/2*i", "1/2", "-1"),
        ("i", "i", "0", "0", "0", "0"),
        ("-i", "i", "0", "0", "0", "0"),
        ("0", "-i", "i", "0", "0", "0"),
        ("0", "0", "-i", "i", "0", "0"),
        ("0", "0", "0", "-i", "1/2", "1/2"),
    ]),
    "EIII": _covs([
        ("-1/2*i", "-1/2*i", "-1/2*i", "-1/2*i", "-1/2", "1/2"),
        ("-i", "0", "0", "0", "1", "0"),
        ("0", "i", "i", "0", "0", "0"),
        ("i", "-i", "0", "0", "0", "0"),
        ("0", "i", "-i", "0", "0", "0"),
        ("-1/2*i", "-1/2*i", "1/2*i", "1/2*i", "-1/2", "1/2"),
    ]),
    "EII": _covs([
        ("1/2", "-1/2", "-1/2", "-1/2", "i", "-1/2*i"),
        ("0", "1", "-1", "0", "0", "0"),
        ("0", "0", "0", "1", "-1/2*i", "-1/2*i"),
        ("0", "0", "1", "-1", "0", "0"),
        ("0", "0", "0", "1", "1/2*i", "1/2*i"),
        ("1/2", "-1/2", "-1/2", "-1/2", "-i", "1/2*i"),
    ]),
}

# the split part of each recipe: the h_k real on every root
PRESET_SPLIT = {"EIV": (4, 5), "EIII": (4, 5), "EII": (0, 1, 2, 3), "EI": tuple(range(6))}


def preset_hs(build: ModelBuild):
    """The hand-written Cartan generators of an e6 model."""
    key = build.spec.satake_preset
    quarter = Scalar(Rat(1, 4))
    square = build.square
    if key == "EIV":
        der = der_dim(build.obj)
        hs = [
            combine([(HALF, t_s(square, a, b))])
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7))
        ]
        return hs + [{der: Scalar(-1)}, {der + 1: Scalar(-1)}]  # E1 - E0, E0 - E2
    tri_sp, sp = square.tri_sp, square.sp
    if key == "EIII":
        hs = [
            combine([(HALF, t_s(square, a, b))]) for a, b in ((2, 3), (4, 5), (6, 7))
        ]
        # opposite orientation of the 2-dim factor: sigma_{e1,e0} throughout
        sigma = tri_sp.sigma_map(sp.basis_vec(1), sp.basis_vec(0))
        neg = [{q: -x for q, x in row.items()} for row in sigma]
        coords = tri_sp.coords_of_triple(([{}, {}], sigma, neg))
        hs.append(combine([(quarter, square.tri_sp_vec(coords))]))
        hs.append({square.iota_index(0, 0, 1): -HALF})
        hs.append({square.iota_index(0, 1, 0): -HALF})
        return hs
    # EII and EI: tri(S') is tri(pC) for EII and tri(pRR) for EI
    hs = [t_s(square, 0, 1), t_s(square, 2, 5), t_s(square, 3, 6), t_s(square, 4, 7)]
    sigma = tri_sp.sigma_map(sp.basis_vec(0), sp.basis_vec(1))
    neg2 = [{q: -(x + x) for q, x in row.items()} for row in sigma]
    for triple in ((sigma, sigma, neg2), (sigma, neg2, sigma)):
        coords = tri_sp.coords_of_triple(triple)
        hs.append(combine([(quarter, square.tri_sp_vec(coords))]))
    return hs


_PRESET_DATA = {}


def preset_datum(build: ModelBuild):
    """The root decomposition of g under the recipe of its model and the
    split part read off it, computed once per model."""
    key = build.spec.key
    if key not in _PRESET_DATA:
        datum = root_decomposition(build.lie, preset_hs(build), name=f"preset {key}")
        _PRESET_DATA[key] = (datum, split_indices(datum))
    return _PRESET_DATA[key]


def published_pair(build: ModelBuild, name: str):
    """The Satake diagram and restricted table of the published simple
    system of `name`, each of whose roots must be a root of the recipe's
    decomposition."""
    datum, a_idx = preset_datum(build)
    assert all(s in datum.root_set() for s in PRESET_SIMPLE[name])
    return (
        build_satake(datum, a_idx, PRESET_SIMPLE[name]),
        build_restricted_table(datum, a_idx, PRESET_SIMPLE[name]),
    )


def test_preset_names_resolve():
    assert PRESET_MODEL == {"EIV": "e6m26", "EIII": "e6m14", "EII": "e6p2", "EI": "e6p6"}
    assert set(PRESET_SIMPLE) == {"EIV", "EIII", "EII"}
    for simple in PRESET_SIMPLE.values():
        assert len(simple) == 6


def _commute(L, hs):
    return all(
        L.bracket(hs[i], hs[j]) == {} for i in range(len(hs)) for j in range(i + 1, len(hs))
    )


@pytest.mark.parametrize("key,na", [("e6m26", 2), ("e6m14", 2), ("e6p2", 4)])
def test_preset_cartan_shape(get_build, get_satake, key, na):
    build = get_build(key)
    assert len(preset_hs(build)) == 6 and _commute(build.lie, preset_hs(build))
    # the derived hs: theta h = -h on a, theta h = h on t_h
    cartan = build.cartan
    assert (len(cartan.a), len(cartan.hs)) == (na, 6)
    assert len(get_satake(key).a_idx) == na
    assert _commute(build.lie, cartan.hs)
    theta = cartan_involution(build)
    for sign, hs in ((-ONE, cartan.a), (ONE, cartan.t_h)):
        for h in hs:
            image = combine((x, theta[q]) for q, x in h.items())
            assert image == combine([(sign, h)])


@pytest.mark.parametrize("factor", ["1/5", "1/7*r3"])
def test_scaled_cartan_decomposes(get_build, factor):
    # eigenvalues such as 1/5 and r3/7, with denominators 5 and 7
    build = get_build("e6m14")
    hs = [combine([(sc(factor), h)]) for h in build.cartan.hs]
    datum = root_decomposition(build.lie, hs, name="scaled e6m14")
    assert len(datum.spaces) == 72
    assert all(s.dim == 1 for s in datum.spaces)
    assert datum.zero.dim == 6


# ---------------------------------------------------------------------------
# the three diagrams


def test_eiv_invariants(get_satake):
    res = get_satake("EIV")
    c = res.checks
    assert c["roots"] == 72 and c["positive_roots"] == 36
    assert res.datum.zero.dim == 6
    assert (c["delta0_type"], c["delta0_roots"]) == ("D4", 24)
    assert c["black_nodes"] == 4 and c["arrows"] == []
    assert c["sigma_type"] == "A2" and c["mult_sum"] == 48
    assert [r.m for r in res.table.rows] == [8, 8]
    assert [r.m2 for r in res.table.rows] == [0, 0]
    assert [r.label for r in res.table.rows] == ["a1", "a6"]
    assert res.diagram.meta["signature"] == -26


def test_eiii_invariants(get_satake):
    res = get_satake("EIII")
    c = res.checks
    assert (c["delta0_type"], c["delta0_roots"]) == ("A3", 12)
    assert c["black_nodes"] == 3
    assert c["arrows"] == [("a1", "a6")]
    assert c["sigma_type"] == "BC2" and c["mult_sum"] == 60
    assert c["highest_root_coords"] == [1, 2, 2, 3, 2, 1]
    assert c["highest_root_restricted_mult"] == 1
    rows = {r.label: r for r in res.table.rows}
    assert rows["a1"].members == ["a1", "a6"]
    assert (rows["a1"].m, rows["a1"].m2) == (8, 1)
    assert (rows["a2"].m, rows["a2"].m2) == (6, 0)


def test_eiii_multiplicity_values(get_satake):
    res = get_satake("EIII")
    rmult = restricted_multiplicities(res.datum, res.a_idx)
    assert rmult[cov(1, 1)] == 8
    assert rmult[cov(2, 2)] == 1
    assert rmult[cov(-2, 0)] == 6


def test_eii_invariants(get_satake):
    res = get_satake("EII")
    c = res.checks
    assert c["delta0_type"] == "empty" and c["delta0_roots"] == 0
    assert c["black_nodes"] == 0
    assert c["arrows"] == [("a1", "a6"), ("a3", "a5")]
    assert c["sigma_type"] == "F4" and c["mult_sum"] == 72
    assert [r.m for r in res.table.rows] == [2, 1, 2, 1]
    assert all(r.m2 == 0 for r in res.table.rows)


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_rank_identity_and_auto(get_build, get_satake, name):
    res = get_satake(name)
    assert res.checks["rank_identity"] is True
    assert res.delta_type == "E6"
    # the derived system has the published diagram and restricted table
    diagram, table = published_pair(get_build(PRESET_MODEL[name]), name)
    assert canonical_key(res.diagram) == canonical_key(diagram)
    assert canonical_key(res.table) == canonical_key(table)


def test_ei_matches_the_recipe(get_build, get_satake):
    # no published EI system: the sigma-order system of the recipe's
    # decomposition gives the derived diagram and table
    datum, a_idx = preset_datum(get_build("e6p6"))
    simple = adapted_simple_system(datum, a_idx)
    res = get_satake("EI")
    assert canonical_key(res.diagram) == canonical_key(build_satake(datum, a_idx, simple))
    assert (
        canonical_key(res.table)
        == canonical_key(build_restricted_table(datum, a_idx, simple))
    )


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_mult_sum_is_noncompact_root_count(get_satake, name):
    res = get_satake(name)
    assert res.table.mult_sum == 72 - res.checks["delta0_roots"]


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_root_set_symmetry(get_satake, name):
    roots = get_satake(name).datum.root_set()
    assert {cov_neg(c) for c in roots} == roots


def test_auto_simple_is_adapted(get_satake):
    # the derived system is a genuine simple system and its compact part
    # matches the preset black count
    for name in ("EIV", "EIII", "EII"):
        res = get_satake(name)
        roots = res.datum.root_set()
        verify_simple_basis(roots, res.simple)
        zero_restr = sum(
            1
            for s in res.simple
            if cov_is_zero(restrict_covector(s, res.a_idx))
        )
        assert zero_restr == res.checks["black_nodes"]


@pytest.mark.parametrize(
    "name,dim_p", [("EIV", 26), ("EIII", 32), ("EII", 40), ("EI", 42)]
)
def test_split_part_is_maximal(get_satake, name, dim_p):
    # z_p(a) = a, and real rank + mult_sum / 2 = (dim g + signature) / 2 = dim p
    res = get_satake(name)
    rank = res.checks["real_rank"]
    assert res.checks["maximally_noncompact"] == {"dim_p": dim_p, "dim_z_p_a": rank}
    assert rank + res.table.mult_sum // 2 == dim_p


def test_ei_invariants(get_satake):
    # the split form: every root real on all six h, nothing compact
    res = get_satake("EI")
    c = res.checks
    assert res.preset_key == "EI" and res.delta_type == "E6"
    assert c["roots"] == 72 and res.datum.zero.dim == 6
    assert (c["delta0_type"], c["delta0_roots"]) == ("empty", 0)
    assert (c["black_nodes"], c["arrows"]) == (0, [])
    assert c["sigma_type"] == "E6" and c["mult_sum"] == 72
    assert [(r.m, r.m2) for r in res.table.rows] == [(1, 0)] * 6
    assert "auto_matches_preset" not in c  # no published system to compare


# ---------------------------------------------------------------------------
# f4 and the compact forms, through the same pass
#
# Expected values from Helgason, Differential Geometry, Lie Groups, and
# Symmetric Spaces, Ch. X, Table VI (after Araki, J. Math. Osaka City Univ.
# 13, 1962): a compact form has every node black and real rank 0; FII,
# f4(-20), has a1 a2 a3 black and Sigma = BC1 with m = 8, m2 = 7; FI, f4(4),
# is split, with Sigma = F4 and every m = 1.


@pytest.mark.parametrize("key,roots,root_type", [("f4m52", 48, "F4"), ("e6m78", 72, "E6")])
def test_compact_forms_are_all_black(get_satake, key, roots, root_type):
    res = get_satake(key)
    c = res.checks
    assert res.delta_type == root_type and (c["real_rank"], res.a_idx) == (0, ())
    assert c["roots"] == roots and (c["delta0_type"], c["delta0_roots"]) == (root_type, roots)
    assert c["black_nodes"] == len(res.simple) and c["arrows"] == []
    assert (c["mult_sum"], res.table.rows, c["sigma_type"]) == (0, [], "empty")
    assert res.table.render_ascii() == "restricted system: empty (mult sum 0)\n"
    assert c["maximally_noncompact"] == {"dim_p": 0, "dim_z_p_a": 0}


def test_fii_invariants(get_satake):
    res = get_satake("f4m20")
    c = res.checks
    assert res.delta_type == "F4" and c["roots"] == 48 and c["real_rank"] == 1
    assert (c["delta0_type"], c["delta0_roots"]) == ("B3", 18)
    assert [n.filled for n in res.diagram.nodes] == [True, True, True, False]
    assert c["sigma_type"] == "BC1" and c["mult_sum"] == 30
    assert [(r.label, r.m, r.m2) for r in res.table.rows] == [("a4", 8, 7)]


def test_fi_invariants(get_satake):
    res = get_satake("f4p4")
    c = res.checks
    assert res.delta_type == "F4" and c["real_rank"] == 4
    assert (c["black_nodes"], c["arrows"]) == (0, [])
    assert c["sigma_type"] == "F4" and c["mult_sum"] == 48
    assert [(r.m, r.m2) for r in res.table.rows] == [(1, 0)] * 4


def _edge_set(diagram):
    return {(e.a, e.b, e.bond, e.arrow_to) for e in diagram.edges}


def test_compact_diagrams_match_the_template(get_satake):
    f4 = get_satake("f4m52").diagram
    template = compact_satake("F4", {"signature": -52})
    assert f4.to_json() == template.to_json()
    assert f4.render_ascii() == template.render_ascii()
    assert f4.render_dot() == template.render_dot()
    # the pass lists the E6 edges in `_bonds` order, the template in its own
    e6 = get_satake("e6m78").diagram
    template = compact_satake("E6", {"signature": -78})
    assert e6.render_ascii() == template.render_ascii()
    assert _edge_set(e6) == _edge_set(template)
    assert e6.meta == template.meta


def test_cells_of_one_form_agree(get_satake):
    """The pass on each of the twelve signature cells, built as a magic
    square, gives the diagram, Sigma, arrows, black nodes and (m, m2) of
    the named model of its form (the signature names the form).  For
    e6(-26) that is the derivation model e6m26: the two constructions of
    EIV agree."""

    def summary(res):
        return (
            res.diagram.render_ascii(),
            res.table.sigma_type,
            res.checks["arrows"],
            res.diagram.filled_indices(),
            [(r.m, r.m2) for r in res.table.rows],
        )

    named = {spec.cell.signature: summary(get_satake(key)) for key, spec in MODELS.items()}
    assert len(named) == 8
    for n, cell in enumerate(SIGNATURE_CELLS):
        key = f"cell{n}"
        build = ModelBuild(ModelSpec(key, cell, cell.form), *build_cell(cell, key))
        assert summary(run_satake(key, build)) == named[cell.signature], cell


# the multiplicity of the restricted highest root of each model, 0 at real
# rank 0, where the highest root restricts to 0
HIGHEST_ROOT_MULT = {
    "f4m52": 0, "f4m20": 7, "f4p4": 1,
    "e6m78": 0, "e6m14": 1, "e6p2": 1, "e6p6": 1, "e6m26": 8,
}


def _landing_multiplicity(res, r):
    """The m or m2 of the restricted row whose root, or twice it, is
    Weyl-conjugate to the positive restricted root r: r is reflected in the
    simple restricted roots of the rows, each step lowering its height,
    until it is one of them or twice one."""
    sigma = set(restricted_multiplicities(res.datum, res.a_idx))
    two = Scalar(2)
    while True:
        for row in res.table.rows:
            if r == row.restriction:
                return row.m
            if r == cov_scale(two, row.restriction):
                return row.m2
        lam, k = next(
            (row.restriction, k) for row in res.table.rows
            if (k := cartan_integer(r, row.restriction, sigma)) > 0
        )
        r = cov_sub(r, cov_scale(Scalar(k), lam))


@pytest.mark.parametrize("key,mult", sorted(HIGHEST_ROOT_MULT.items()))
def test_highest_root_of_every_model(get_satake, key, mult):
    res = get_satake(key)
    c = res.checks
    coords = {"F4": [2, 3, 4, 2], "E6": [1, 2, 2, 3, 2, 1]}[res.delta_type]
    assert (c["highest_root_coords"], c["highest_root_restricted_mult"]) == (coords, mult)
    top = restrict_covector(highest_root(res.datum.root_set(), res.simple), res.a_idx)
    if res.a_idx:
        assert _landing_multiplicity(res, top) == mult
    else:
        assert cov_is_zero(top) and mult == 0


# ---------------------------------------------------------------------------
# the derived split part and its failure witnesses


@pytest.mark.parametrize(
    "name,a_idx",
    [("EIV", (0, 1)), ("EIII", (0, 1)), ("EII", (0, 1, 2, 3)), ("EI", tuple(range(6)))],
)
def test_split_indices(get_build, get_satake, name, a_idx):
    # a comes first in hs; the recipe's split part sits where it was typed
    res = get_satake(name)
    assert split_indices(res.datum) == a_idx
    assert res.a_idx == a_idx
    assert preset_datum(get_build(PRESET_MODEL[name]))[1] == PRESET_SPLIT[name]


def test_split_indices_rejects_mixed_generator(get_build):
    # h1 is split and h5 compact on e6m14, so h1 + h5 is neither
    build = get_build("e6m14")
    hs = build.cartan.hs
    mixed = [combine([(ONE, hs[0]), (ONE, hs[4])])] + hs[1:]
    datum = root_decomposition(build.lie, mixed, name="mixed e6m14")
    with pytest.raises(VerificationError, match="h1 is neither split nor compact") as exc:
        split_indices(datum)
    assert exc.value.witness == {"h": 0}


def _raises_witnessed(key, build, match):
    with pytest.raises(VerificationError, match=match) as exc:
        run_satake(key, build)
    json.dumps(exc.value.witness)
    return exc.value.witness


def _with_hs(monkeypatch, hs):
    monkeypatch.setattr(CartanData, "hs", property(hs))


def test_run_satake_rejects_five_generators(get_build, monkeypatch):
    # without h1 two roots of e6m14 coincide on the other five
    _with_hs(monkeypatch, lambda c: (c.a + c.t_h)[1:])
    w = _raises_witnessed("e6m14", get_build("e6m14"), "not 1-dimensional")
    assert w == {"covector": ["-2", "0", "0", "0", "0"], "dim": 2}


def test_run_satake_rejects_generators_of_rank_five(get_build, monkeypatch):
    # without h5 the 72 roots of e6m14 stay distinct on the other five, and
    # the zero space stays 6-dimensional
    _with_hs(monkeypatch, lambda c: (c.a + c.t_h)[:4] + (c.a + c.t_h)[5:])
    w = _raises_witnessed("e6m14", get_build("e6m14"), "5 Cartan generators")
    assert w == {"generators": 5, "zero_dim": 6, "root_rank": 5}


def test_run_satake_rejects_split_part_other_than_a(get_build, monkeypatch):
    # with t_h listed first the roots are real on h5 and h6, not on h1, h2
    _with_hs(monkeypatch, lambda c: c.t_h + c.a)
    w = _raises_witnessed("e6m14", get_build("e6m14"), "not on the 2 vectors of a")
    assert w == {"split_indices": [4, 5], "a": [0, 1]}


def test_greedy_a_that_is_not_maximal_is_witnessed(get_build, monkeypatch):
    # a greedy loop that stops one step early leaves z_p(a) larger than a
    # and hands out the centraliser it solved at that step
    real = pipeline._maximal_abelian

    def one_step_early(L, basis):
        hs = real(L, basis)[0][:-1]
        return hs, pipeline._centraliser(L, hs, basis)

    monkeypatch.setattr(pipeline, "_maximal_abelian", one_step_early)
    fresh = dataclasses.replace(get_build("e6m14"))  # no memoised Cartan data
    w = _raises_witnessed("e6m14", fresh, "a is not maximal abelian in p")
    assert w == {"dim_a": 1, "dim_z_p_a": 8}


def test_cartan_data_rejects_models_without_theta(get_build, monkeypatch):
    # theta needs a signed permutation of both composition algebras
    monkeypatch.delitem(pipeline._CARTAN_PHI, "pO")
    fresh = dataclasses.replace(get_build("e6m78"))  # no memoised Cartan data
    msg = "no Cartan decomposition recipe for the composition algebra 'pO'"
    with pytest.raises(ConstructionError, match=msg):
        fresh.cartan


def test_cartan_data_solves_each_centraliser_once(get_build, monkeypatch):
    # the greedy a solves z_p of each of its dim a + 1 stages, the last of
    # which is the certificate's z_p(a); then z_t(a) and the greedy t_h
    calls = []
    real = pipeline._centraliser

    def counted(L, xs, basis):
        calls.append(len(xs))
        return real(L, xs, basis)

    monkeypatch.setattr(pipeline, "_centraliser", counted)
    cartan = dataclasses.replace(get_build("e6m14")).cartan
    assert cartan.maximally_noncompact == {"dim_p": 32, "dim_z_p_a": 2}
    assert calls == [0, 1, 2, 2, 0, 1, 2, 3, 4]


_OFFDIAG = [(i, j) for i in range(3) for j in range(3) if i != j]


def _sl3():
    """sl3 on H1 = E11 - E22, H2 = E22 - E33 and the E_ij, i != j."""

    def matrix(k):
        m = [[0] * 3 for _ in range(3)]
        if k < 2:
            m[k][k], m[k + 1][k + 1] = 1, -1
        else:
            i, j = _OFFDIAG[k - 2]
            m[i][j] = 1
        return m

    def fn(x, y):
        a, b = matrix(x), matrix(y)
        c = [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
              for j in range(3)] for i in range(3)]
        # diag(d1, d2, d3) = d1 H1 + (d1 + d2) H2
        coords = [c[0][0], c[0][0] + c[1][1]] + [c[i][j] for i, j in _OFFDIAG]
        return {k: Scalar(v) for k, v in enumerate(coords) if v}

    labels = ["H1", "H2"] + [f"E{i + 1}{j + 1}" for i, j in _OFFDIAG]
    return lie_from_fn("sl3", labels, fn)


def test_maximally_noncompact_certificate():
    # sl3(R) with theta(X) = -X^T: p is the symmetric part (dim 5), and
    # the diagonal a = span(H1, H2) is its own centraliser in p
    L = _sl3()
    e = {ij: 2 + n for n, ij in enumerate(_OFFDIAG)}
    p = [{0: ONE}, {1: ONE}] + [{e[i, j]: ONE, e[j, i]: ONE} for i, j in ((0, 1), (0, 2), (1, 2))]
    a, z = pipeline._maximal_abelian(L, p)
    assert a == [{0: ONE}, {1: ONE}]
    assert z == pipeline._centraliser(L, a, p)
    assert certify_maximal_abelian(a, z, p) == {"dim_p": 5, "dim_z_p_a": 2}
    # a one-dimensional a is abelian in p but not maximal
    with pytest.raises(VerificationError, match="not maximal abelian") as exc:
        certify_maximal_abelian(a[:1], pipeline._centraliser(L, a[:1], p), p)
    assert exc.value.witness == {"dim_a": 1, "dim_z_p_a": 2}
    with pytest.raises(VerificationError, match="not maximal abelian") as exc:
        certify_maximal_abelian([], pipeline._centraliser(L, [], p), p)
    assert exc.value.witness == {"dim_a": 0, "dim_z_p_a": 5}


def test_run_satake_rejects_lost_root_space(get_build, monkeypatch):
    real = pipeline.root_decomposition

    def lossy(*args, **kwargs):
        datum = real(*args, **kwargs)
        return dataclasses.replace(datum, spaces=datum.spaces[:-1])

    monkeypatch.setattr(pipeline, "root_decomposition", lossy)
    w = _raises_witnessed("e6m26", get_build("e6m26"), "expected 72 roots, got 71$")
    assert w == {"roots": 71}


def test_run_satake_rejects_non_e6_system(get_build, get_satake, monkeypatch):
    # alpha2 swapped for minus the highest root: the extended diagram
    # without alpha2 is A5 + A1
    res = get_satake("EIV")
    roots = res.datum.root_set()
    bad = list(res.simple)
    bad[1] = cov_neg(highest_root(roots, res.simple))
    monkeypatch.setattr(pipeline, "adapted_simple_system", lambda datum, a_idx: bad)
    w = _raises_witnessed("e6m26", res.build, "root system classified as")
    assert w["type"] != "E6"


@pytest.mark.parametrize("key", ["e6m14", "e6p2"])
def test_labelling_ignores_the_order_of_the_adapted_system(get_build, get_satake, key, monkeypatch):
    # the Bourbaki labels are read off the classification, not off the
    # order in which the simple roots come
    res = get_satake(key)
    real = pipeline.adapted_simple_system
    for shuffle in (lambda s: s[::-1], lambda s: s[2:] + s[:2]):
        monkeypatch.setattr(
            pipeline, "adapted_simple_system", lambda d, a, f=shuffle: f(real(d, a))
        )
        again = run_satake(key, get_build(key))
        assert again.simple == res.simple
        assert again.diagram.to_json() == res.diagram.to_json()
        assert again.table.to_json_dict() == res.table.to_json_dict()


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_preset_root_that_is_not_a_root(get_build, name):
    # 2 alpha_3 is not a root, and alpha_3 is half of it
    datum, a_idx = preset_datum(get_build(PRESET_MODEL[name]))
    preset = list(PRESET_SIMPLE[name])
    preset[2] = cov_scale(sc(2), preset[2])
    assert preset[2] not in datum.root_set()
    with pytest.raises(VerificationError, match=r"simple root \(.*\) is not a root") as exc:
        build_satake(datum, a_idx, preset)
    assert exc.value.witness["simple"] == _strs(preset)
    assert exc.value.witness["covector"] == _strs([preset[2]])[0]


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_preset_with_another_root_fails(get_build, name):
    # -alpha_3 is a root, but the system is no longer simple
    datum, a_idx = preset_datum(get_build(PRESET_MODEL[name]))
    preset = list(PRESET_SIMPLE[name])
    preset[2] = cov_neg(preset[2])
    with pytest.raises(VerificationError, match="mixed-sign simple coordinates") as exc:
        build_satake(datum, a_idx, preset)
    # the witness names the system that failed: the edited preset
    assert exc.value.witness["simple"] == _strs(preset)


def _strs(covs):
    return [[x.to_str() for x in c] for c in covs]


def _strs_key(c):
    return [x.key() for x in c]


@pytest.mark.parametrize(
    "mutation,match",
    [
        ("negate", "mixed-sign simple coordinates"),
        ("drop", "outside the simple span"),
        ("double", "non-integer simple coordinates"),
        ("positive", "positive roots are not half"),
        ("not-a-root", "is not a root"),
        ("dependent", "simple roots are dependent"),
    ],
)
def test_simple_basis_failures_carry_the_system(get_satake, mutation, match):
    res = get_satake("EIII")
    roots = res.datum.root_set()
    simple = list(res.simple)
    if mutation == "negate":
        simple[2] = cov_neg(simple[2])
    elif mutation == "drop":
        simple = simple[:5]
    elif mutation == "double":
        # a root with a3-coordinate 2 in place of a3: independent roots
        # that span an index-2 sublattice, over which a3 has coordinate 1/2
        simple[2] = next(
            r for r in sorted(roots, key=_strs_key) if simple_coords(r, simple)[2] == 2
        )
    elif mutation == "not-a-root":
        simple[2] = cov_scale(sc(2), simple[2])
    elif mutation == "dependent":
        simple[5] = cov_neg(simple[0])
    else:
        roots = {c for c in roots if sum(simple_coords(c, simple)) > 0}
    with pytest.raises(VerificationError, match=match) as exc:
        verify_simple_basis(roots, simple)
    w = json.loads(json.dumps(exc.value.witness))
    assert w.pop("simple") == _strs(simple)
    if mutation == "positive":
        assert w == {"positive": 36, "roots": 36}
    elif mutation == "not-a-root":
        assert w == {"covector": _strs([simple[2]])[0]}
        assert simple[2] not in roots
    elif mutation == "dependent":
        assert w == {"covector": _strs([simple[5]])[0]}
        assert simple[5] in roots
    else:
        assert tuple(sc(x) for x in w["covector"]) in roots


def test_preset_diagram_mismatch(get_build, get_satake):
    # the oracle's comparison is not vacuous: one flipped node breaks it
    diagram, _ = published_pair(get_build("e6m14"), "EIII")
    diagram.nodes[0] = SatakeNode("a1", not diagram.nodes[0].filled)
    assert canonical_key(diagram) != canonical_key(get_satake("EIII").diagram)


def test_preset_table_mismatch(get_build, get_satake):
    _, table = published_pair(get_build("e6m14"), "EIII")
    table.rows[0].m += 1
    assert canonical_key(table) != canonical_key(get_satake("EIII").table)


# ---------------------------------------------------------------------------
# Cartan decompositions


def test_cartan_decomposition_eiv(get_cartan_report):
    report = get_cartan_report("e6m26")
    assert (report["dim_t"], report["dim_p"]) == (52, 26)
    assert report["signature"] == -26
    assert report["killing_on_t"] == (0, 52, 0)
    assert report["killing_on_p"] == (26, 0, 0)


def test_cartan_decomposition_eiii(get_cartan_report):
    report = get_cartan_report("e6m14")
    assert (report["dim_t"], report["dim_p"]) == (46, 32)
    assert report["signature"] == -14


def test_cartan_decomposition_eii(get_cartan_report):
    report = get_cartan_report("e6p2")
    assert (report["dim_t"], report["dim_p"]) == (38, 40)
    assert report["dim_p_outside_cartan"] == 36
    assert report["cartan_in_p"] == [0, 1, 2, 3]
    assert report["signature"] == 2


def test_cartan_decomposition_ei(get_cartan_report):
    report = get_cartan_report("e6p6")
    assert (report["dim_t"], report["dim_p"]) == (36, 42)
    assert report["signature"] == 6
    assert report["killing_on_t"] == (0, 36, 0)
    assert report["killing_on_p"] == (42, 0, 0)
    assert report["cartan_in_p"] == [0, 1, 2, 3, 4, 5]


def test_cartan_decomposition_unknown_model():
    from realforms.pipeline import cartan_decomposition_report

    with pytest.raises(ConstructionError, match="unknown model 'e7m133'"):
        cartan_decomposition_report("e7m133")


# the Jacobi record of a build: S and the C(78, 3) - C(78 - |S|, 3) triples
JACOBI_RECORDS = {
    "e6m14": {"generators": [0, 49, 20, 69, 40, 60], "triples": 16436},
    "e6p2": {"generators": [0, 49, 20, 69, 40, 60, 31, 51], "triples": 21336},
}


@pytest.mark.parametrize("key,pairs", [("e6m14", 6 * 78), ("e6p2", 8 * 78)])
def test_theta_certificate_prints_the_jacobi_generators(get_build, get_satake, key, pairs):
    build = get_build(key)
    assert build.jacobi == JACOBI_RECORDS[key]
    report = build.cartan.report
    assert (report["generators"], report["pairs"]) == (build.jacobi["generators"], pairs)
    assert get_satake(key).checks["cartan_involution"] is report


def test_one_generating_set_per_build(monkeypatch):
    """The theta certificate takes S from the Jacobi record: the build and
    its Cartan data find S and the Killing form of the table once each."""
    calls = []

    def counted(fn):
        def wrapper(L):
            calls.append((fn.__name__, L.dim))
            return fn(L)

        return wrapper

    monkeypatch.setattr(lie, "generating_set", counted(lie.generating_set))
    monkeypatch.setattr(pipeline, "killing_form", counted(pipeline.killing_form))
    build = pipeline.build_model("e6m14")
    report = build.cartan.report
    assert calls.count(("generating_set", 78)) == 1
    assert calls.count(("killing_form", 78)) == 1
    assert report["generators"] == build.jacobi["generators"]
    assert not {"generating_set", "killing_form"} & set(vars(rootspace))


def test_one_jacobi_certificate_per_eiv_build(monkeypatch):
    """rho is certified a homomorphism by the Jacobi identity of the
    derivation model itself, so the EIV build sums Jacobi on its
    78-dimensional table only."""
    calls = []
    real = lie.certify_jacobi

    def counted(L):
        calls.append(L.dim)
        return real(L)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("realforms") and vars(mod).get("certify_jacobi") is real:
            monkeypatch.setattr(mod, "certify_jacobi", counted)
    pipeline.build_model("e6m26")
    assert calls == [78]


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII", "EI"])
def test_cartan_in_p_is_the_derived_split_part(get_satake, get_cartan_report, name):
    # the h_k in p are exactly those that split_indices reads off the roots
    key = PRESET_MODEL[name]
    assert get_cartan_report(key)["cartan_in_p"] == list(get_satake(key).a_idx)


def test_cartan_decomposition_checks_killing_signature(get_build):
    build = get_build("e6m14")
    wrong = dataclasses.replace(build, signature=(46, 32, 0))
    with pytest.raises(VerificationError, match="signature -14 differs .* 14") as exc:
        cartan_decomposition_report("e6m14", wrong)
    assert exc.value.witness == (-14, 14)


def test_certify_wrong_signature_is_witnessed():
    wrong = dataclasses.replace(MODELS["e6m14"].cell, signature=14)
    with pytest.raises(VerificationError, match="does not match expected 14") as exc:
        build_cell(wrong, "e6m14")
    assert json.loads(json.dumps(exc.value.witness)) == {
        "signature": [32, 46, 0], "expected": 14
    }


# ---------------------------------------------------------------------------
# combined table


def test_table_ei_row_is_computed():
    rows = table_rows(only=["e6p6"])
    assert len(rows) == 1
    row = rows[0]
    assert row["computed"] is True and "note" not in row
    assert (row["satake"], row["signature"]) == ("EI", 6)
    assert row["sigma_type"] == "E6" and row["mult_sum"] == 72
    assert (row["black_nodes"], row["arrows"]) == (0, [])
    assert [(r["m"], r["m2"]) for r in row["rows"]] == [(1, 0)] * 6
    assert row["rank_identity"] is True


def test_table_rejects_unknown_key():
    with pytest.raises(ConstructionError):
        table_rows(only=["f4m52"])


def test_model_registry_signatures():
    sigs = {k: MODELS[k].cell.signature for k in MODELS}
    assert sigs == {
        "f4m52": -52,
        "f4m20": -20,
        "f4p4": 4,
        "e6m78": -78,
        "e6m14": -14,
        "e6p2": 2,
        "e6p6": 6,
        "e6m26": -26,
    }
