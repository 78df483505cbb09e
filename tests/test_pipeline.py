"""End-to-end checks of the three exceptional pipelines.

Everything here leans on the session fixtures in conftest, so the
expensive magic-square builds and root decompositions happen once.
"""

import dataclasses
import json

import pytest

from realforms import pipeline
from realforms.errors import ConstructionError, VerificationError
from realforms.linalg import combine
from realforms.pipeline import (
    MODELS,
    PRESET_MODEL,
    PRESET_SIMPLE,
    CartanSpec,
    cartan_decomposition_report,
    compact_diagram,
    preset_cartan,
    run_satake,
    table_rows,
)
from realforms.rootspace import (
    cov_is_zero,
    cov_neg,
    cov_scale,
    highest_root,
    restrict_covector,
    restricted_multiplicities,
    root_decomposition,
    simple_coords,
    split_indices,
    verify_simple_basis,
)
from realforms.satake import SatakeNode
from realforms.scalars import ONE, sc


def cov(*xs):
    return tuple(sc(x) for x in xs)


# ---------------------------------------------------------------------------
# presets


def test_preset_names_resolve():
    assert PRESET_MODEL == {"EIV": "e6m26", "EIII": "e6m14", "EII": "e6p2", "EI": "e6p6"}
    assert set(PRESET_SIMPLE) == {"EIV", "EIII", "EII"}
    for simple in PRESET_SIMPLE.values():
        assert len(simple) == 6


@pytest.mark.parametrize("key,na", [("e6m26", 2), ("e6m14", 2), ("e6p2", 4)])
def test_preset_cartan_shape(get_build, get_satake, key, na):
    cartan = preset_cartan(get_build(key))
    assert len(cartan.hs) == 6
    assert len(get_satake(key).a_idx) == na
    L = get_build(key).lie
    for i in range(6):
        for j in range(i + 1, 6):
            assert L.bracket(cartan.hs[i], cartan.hs[j]) == {}


@pytest.mark.parametrize("factor", ["1/5", "1/7*r3"])
def test_scaled_cartan_decomposes(get_build, factor):
    # eigenvalues such as 1/10 and r3/14, with denominators 5 and 7
    build = get_build("e6m14")
    hs = [combine([(sc(factor), h)]) for h in preset_cartan(build).hs]
    datum = root_decomposition(build.lie, hs, name="scaled e6m14")
    assert len(datum.spaces) == 72
    assert all(s.dim == 1 for s in datum.spaces)
    assert datum.zero.dim == 6


def test_preset_cartan_rejects_other_models(get_build):
    with pytest.raises(ConstructionError):
        preset_cartan(get_build("e6m78"))


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
    assert rmult[cov("1/2", "1/2")] == 8
    assert rmult[cov(1, 1)] == 1
    assert rmult[cov(-1, 0)] == 6


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
def test_rank_identity_and_auto(get_satake, name):
    res = get_satake(name)
    assert res.checks["rank_identity"] is True
    assert res.checks["auto_matches_preset"] is True
    assert res.delta_type == "E6"


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
    # real rank + mult_sum / 2 = (dim g + signature) / 2 = dim p
    res = get_satake(name)
    assert res.checks["maximally_noncompact"] == {"dim_p": dim_p}
    assert res.checks["real_rank"] + res.table.mult_sum // 2 == dim_p


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
# the derived split part and its failure witnesses


@pytest.mark.parametrize(
    "name,a_idx",
    [("EIV", (4, 5)), ("EIII", (4, 5)), ("EII", (0, 1, 2, 3)), ("EI", tuple(range(6)))],
)
def test_split_indices(get_satake, name, a_idx):
    res = get_satake(name)
    assert split_indices(res.datum) == a_idx
    assert res.a_idx == a_idx


def test_split_indices_rejects_mixed_generator(get_build):
    # h1 is compact and h5 split on e6m14, so h1 + h5 is neither
    build = get_build("e6m14")
    hs = preset_cartan(build).hs
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


def test_run_satake_rejects_five_generators(get_build, monkeypatch):
    # without h1 two roots of e6m14 coincide on the other five
    real = pipeline.preset_cartan
    monkeypatch.setattr(
        pipeline, "preset_cartan", lambda b: CartanSpec("EIII", real(b).hs[1:])
    )
    w = _raises_witnessed("e6m14", get_build("e6m14"), "not 1-dimensional")
    assert w == {"covector": ["-1*i", "0", "0", "0", "0"], "dim": 2}


def test_run_satake_rejects_generators_of_rank_five(get_build, monkeypatch):
    # without h4 the 72 roots of e6m14 stay distinct on the other five, and
    # the zero space stays 6-dimensional
    real = pipeline.preset_cartan

    def drop_h4(build):
        hs = real(build).hs
        return CartanSpec("EIII", hs[:3] + hs[4:])

    monkeypatch.setattr(pipeline, "preset_cartan", drop_h4)
    w = _raises_witnessed("e6m14", get_build("e6m14"), "5 Cartan generators")
    assert w == {"generators": 5, "zero_dim": 6, "root_rank": 5}


def test_run_satake_rejects_lost_root_space(get_build, monkeypatch):
    real = pipeline.root_decomposition

    def lossy(*args, **kwargs):
        datum = real(*args, **kwargs)
        return dataclasses.replace(datum, spaces=datum.spaces[:-1])

    monkeypatch.setattr(pipeline, "root_decomposition", lossy)
    w = _raises_witnessed("e6m26", get_build("e6m26"), "expected 72 roots")
    assert w == {"roots": 71, "zero_dim": 6}


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


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_preset_root_that_is_not_a_root(get_build, monkeypatch, name):
    preset = list(PRESET_SIMPLE[name])
    preset[2] = cov_scale(sc(2), preset[2])
    monkeypatch.setitem(PRESET_SIMPLE, name, preset)
    w = _raises_witnessed(
        PRESET_MODEL[name], get_build(PRESET_MODEL[name]), "preset simple root .* not a root"
    )
    assert w == {"index": 2, "covector": [x.to_str() for x in preset[2]]}


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII"])
def test_preset_with_another_root_fails(get_build, monkeypatch, name):
    # -alpha_3 is a root, but the system is no longer simple
    preset = list(PRESET_SIMPLE[name])
    preset[2] = cov_neg(preset[2])
    monkeypatch.setitem(PRESET_SIMPLE, name, preset)
    with pytest.raises(VerificationError, match="mixed-sign simple coordinates") as exc:
        run_satake(PRESET_MODEL[name], get_build(PRESET_MODEL[name]))
    # the witness names the system that failed: the edited preset
    assert exc.value.witness["simple"] == _strs(preset)


def _strs(covs):
    return [[x.to_str() for x in c] for c in covs]


@pytest.mark.parametrize(
    "mutation,match",
    [
        ("negate", "mixed-sign simple coordinates"),
        ("drop", "outside the simple span"),
        ("double", "non-integer simple coordinates"),
        ("positive", "positive roots are not half"),
    ],
)
def test_simple_basis_failures_carry_the_system(get_satake, mutation, match):
    roots = get_satake("EIII").datum.root_set()
    simple = list(PRESET_SIMPLE["EIII"])
    if mutation == "negate":
        simple[2] = cov_neg(simple[2])
    elif mutation == "drop":
        simple = simple[:5]
    elif mutation == "double":
        simple[2] = cov_scale(sc(2), simple[2])
    else:
        roots = {c for c in roots if sum(simple_coords(c, simple)) > 0}
    with pytest.raises(VerificationError, match=match) as exc:
        verify_simple_basis(roots, simple)
    w = json.loads(json.dumps(exc.value.witness))
    assert w.pop("simple") == _strs(simple)
    if mutation == "positive":
        assert w == {"positive": 36, "roots": 36}
    else:
        assert tuple(sc(x) for x in w["covector"]) in roots


def test_preset_diagram_mismatch(get_build, monkeypatch):
    # every simple system that passes the certificates of build_satake
    # gives the same diagram, so the mismatch is injected after them
    real = pipeline.build_satake

    def flip_preset(datum, a_idx, simple, **kwargs):
        diagram = real(datum, a_idx, simple, **kwargs)
        if simple is PRESET_SIMPLE["EIII"]:
            diagram.nodes[0] = SatakeNode("a1", not diagram.nodes[0].filled)
        return diagram

    monkeypatch.setattr(pipeline, "build_satake", flip_preset)
    w = _raises_witnessed("e6m14", get_build("e6m14"), "diagram differs from preset")
    assert w["derived"]["nodes"][0]["filled"] != w["preset"]["nodes"][0]["filled"]


def test_preset_table_mismatch(get_build, monkeypatch):
    real = pipeline.build_restricted_table

    def bump_preset(datum, a_idx, simple, *args):
        table = real(datum, a_idx, simple, *args)
        if simple is PRESET_SIMPLE["EIII"]:
            table.rows[0].m += 1
        return table

    monkeypatch.setattr(pipeline, "build_restricted_table", bump_preset)
    w = _raises_witnessed("e6m14", get_build("e6m14"), "table differs from preset")
    assert w["preset"]["rows"][0]["m"] == w["derived"]["rows"][0]["m"] + 1


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


@pytest.mark.parametrize("name", ["EIV", "EIII", "EII", "EI"])
def test_cartan_in_p_is_the_derived_split_part(get_satake, get_cartan_report, name):
    # theta h = -h exactly on the h_k that split_indices reads off the roots
    key = PRESET_MODEL[name]
    assert get_cartan_report(key)["cartan_in_p"] == list(get_satake(key).a_idx)


def test_cartan_decomposition_checks_killing_signature(get_build):
    build = get_build("e6m14")
    wrong = dataclasses.replace(build, signature=(46, 32, 0))
    with pytest.raises(VerificationError, match="signature -14 differs .* 14") as exc:
        cartan_decomposition_report("e6m14", wrong)
    assert exc.value.witness == (-14, 14)


def test_cartan_generator_in_neither_t_nor_p_is_witnessed(monkeypatch, get_build):
    # h1 lies in t and h5 in p for e6m14, so h1 + h5 is in neither
    def mixed(build):
        spec = preset_cartan(build)
        spec.hs[0] = combine([(ONE, spec.hs[0]), (ONE, spec.hs[4])])
        return spec

    monkeypatch.setattr(pipeline, "preset_cartan", mixed)
    with pytest.raises(VerificationError, match="h1 lies in neither t nor p") as exc:
        cartan_decomposition_report("e6m14", get_build("e6m14"))
    assert exc.value.witness == {"h": 0}


def test_certify_wrong_signature_is_witnessed(get_build):
    with pytest.raises(VerificationError, match="does not match expected 14") as exc:
        pipeline.certify(get_build("e6m14").lie, 14, "e6m14")
    assert json.loads(json.dumps(exc.value.witness)) == {
        "signature": [32, 46, 0], "expected": 14
    }


def test_cartan_decomposition_unknown_model(get_build):
    from realforms.pipeline import cartan_decomposition_report

    with pytest.raises(ConstructionError):
        cartan_decomposition_report("e6m78")


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


def test_compact_diagrams():
    e6 = compact_diagram("e6m78")
    assert e6.meta["signature"] == -78
    assert len(e6.filled_indices()) == 6
    f4 = compact_diagram("f4m52")
    assert f4.meta["signature"] == -52
    with pytest.raises(ConstructionError):
        compact_diagram("e6p2")


def test_model_registry_signatures():
    sigs = {k: MODELS[k].signature for k in MODELS}
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
