import pytest

from realforms.errors import IOFormatError, VerificationError
from realforms.rootspace import (
    RootDatum,
    RootSpace,
    cov_sort_key,
    cov_scale,
    restrict_covector,
)
from realforms.satake import (
    RestrictedRow,
    RestrictedTable,
    SatakeDiagram,
    SatakeEdge,
    SatakeNode,
    build_restricted_table,
    build_satake,
    compact_satake,
)
from realforms.scalars import HALF, ONE, sc

from oracles import cov_neg


def cov(*xs):
    return tuple(sc(x) for x in xs)


def _datum(roots):
    spaces = [
        RootSpace(c, [{}]) for c in sorted(roots, key=cov_sort_key(roots))
    ]
    return RootDatum(None, [], spaces, RootSpace(None, []))


def pm(*covs):
    out = set()
    for c in covs:
        out.add(c)
        out.add(cov_neg(c))
    return out


# ---------------------------------------------------------------------------
# diagram structure and serialization


def test_compact_templates():
    e6 = compact_satake("E6")
    assert len(e6.filled_indices()) == 6
    assert e6.meta["real_rank"] == 0
    f4 = compact_satake("F4")
    assert [e.bond for e in f4.edges] == [1, 2, 1]
    assert f4.edges[1].arrow_to == 2
    with pytest.raises(VerificationError, match="no compact template") as exc:
        compact_satake("E8")
    assert exc.value.witness == {"type": "E8"}


def test_canonical_key_relabeling_invariance():
    base = compact_satake("E6")
    # reversed node order with remapped edges is the same diagram
    n = len(base.nodes)
    perm = list(reversed(range(n)))
    nodes = [base.nodes[perm.index(k)] for k in range(n)]
    edges = [
        SatakeEdge(perm[e.a], perm[e.b], e.bond, None) for e in base.edges
    ]
    relabeled = SatakeDiagram(nodes, edges, [], dict(base.meta))
    assert relabeled.canonical_key() == base.canonical_key()


def test_canonical_key_sees_filling_and_arrows():
    plain = SatakeDiagram(
        [SatakeNode("a1", False), SatakeNode("a2", False)],
        [SatakeEdge(0, 1, 1)],
        [],
        {},
    )
    filled = SatakeDiagram(
        [SatakeNode("a1", True), SatakeNode("a2", False)],
        [SatakeEdge(0, 1, 1)],
        [],
        {},
    )
    arrowed = SatakeDiagram(
        [SatakeNode("a1", False), SatakeNode("a2", False)],
        [SatakeEdge(0, 1, 1)],
        [(0, 1)],
        {},
    )
    keys = {plain.canonical_key(), filled.canonical_key(), arrowed.canonical_key()}
    assert len(keys) == 3


def test_canonical_key_sees_arrow_direction():
    # bond pattern 1,2 pins the chain orientation, so only the double-bond
    # arrow distinguishes the B3 and C3 shapes
    def chain(arrow_to):
        return SatakeDiagram(
            [SatakeNode(f"a{k + 1}", False) for k in range(3)],
            [SatakeEdge(0, 1, 1), SatakeEdge(1, 2, 2, arrow_to)],
            [],
            {},
        )

    assert chain(2).canonical_key() != chain(1).canonical_key()


def test_canonical_key_decorations():
    diag = SatakeDiagram([SatakeNode("a1", False)], [], [], {})
    assert diag.canonical_key([(8, 0)]) != diag.canonical_key([(8, 1)])


# ---------------------------------------------------------------------------
# renderers


def test_ascii_compact_e6_two_rows():
    text = compact_satake("E6").render_ascii()
    assert text.count("*") == 6
    assert "o" not in text.replace("node", "")
    assert "|" in text  # branch stem


def e6_stem_columns(text):
    """Columns of the branch node, its stem and the label a4 in an E6
    ascii diagram."""
    top, stem, _, labels = text.splitlines()[:4]
    return top.index("a2") - 3, stem.index("|"), labels.index("a4")


def test_ascii_e6_stem_over_a4(get_satake):
    # a2 joins the degree-3 node a4, the third node of the bottom row
    for diag in (compact_satake("E6"), get_satake("e6m14").diagram):
        assert e6_stem_columns(diag.render_ascii()) == (12, 12, 12)


def test_ascii_f4_double_bond_arrow():
    text = compact_satake("F4").render_ascii()
    assert "==>" in text


def test_ascii_arrow_lines():
    diag = SatakeDiagram(
        [SatakeNode("a1", False), SatakeNode("a2", False)],
        [SatakeEdge(0, 1, 1)],
        [(0, 1)],
        {},
    )
    assert "arrow: a1 <--> a2" in diag.render_ascii()


def test_dot_rendering():
    diag = compact_satake("E6")
    dot = diag.render_dot()
    assert dot.startswith("graph satake {")
    assert "style=filled" in dot
    arrowed = SatakeDiagram(
        [SatakeNode("a1", False), SatakeNode("a2", False)],
        [SatakeEdge(0, 1, 1)],
        [(0, 1)],
        {},
    )
    assert "dir=both, style=dashed" in arrowed.render_dot()


def test_render_dispatch():
    diag = compact_satake("F4")
    assert diag.render("ascii") == diag.render_ascii()
    assert diag.render("dot") == diag.render_dot()
    assert diag.render("json") == diag.to_json()
    with pytest.raises(IOFormatError, match="unknown format"):
        diag.render("svg")


# ---------------------------------------------------------------------------
# building from root data


def test_build_satake_black_node():
    # one compact direction: the zero-restriction simple root is filled
    roots = pm(cov(1, 0), cov(0, "i"), cov(1, "i"))
    diag = build_satake(_datum(roots), (0,), [cov(1, 0), cov(0, "i")])
    assert [n.filled for n in diag.nodes] == [False, True]
    assert diag.arrows == []
    assert len(diag.edges) == 1 and diag.edges[0].bond == 1


def test_build_satake_arrow_pair():
    # two simple roots with the same nonzero restriction get an arrow
    roots = pm(cov(1, "i"), cov(1, "-i"), cov(2, 0))
    diag = build_satake(_datum(roots), (0,), [cov(1, "i"), cov(1, "-i")])
    assert diag.filled_indices() == []
    assert diag.arrows == [(0, 1)]
    assert "arrow: a1 <--> a2" in diag.render_ascii()


def test_build_satake_rank_identity_guard():
    # both roots of A1 + A1 restrict to zero but a_idx claims a split
    # direction
    roots = pm(cov(0, "i", 0), cov(0, 0, "i"))
    with pytest.raises(VerificationError, match="rank identity fails") as exc:
        build_satake(_datum(roots), (0,), [cov(0, "i", 0), cov(0, 0, "i")])
    assert exc.value.witness == {"rank": 2, "real_rank": 1, "arrows": 0, "black": 2}


def test_build_satake_rejects_cartan_integer_out_of_range():
    # a beta + k alpha string of five roots gives <beta, alpha^vee> = -4
    roots = pm(cov(1, 0), *(cov(k, 1) for k in range(5)))
    with pytest.raises(VerificationError, match="Cartan integer -4 out of range") as exc:
        build_satake(_datum(roots), (0, 1), [cov(1, 0), cov(0, 1)])
    assert exc.value.witness == {"entry": [0, 1], "value": -4}


def test_build_satake_rejects_bond_multiplicity_four():
    # alpha and beta strings of three roots each give a_12 = a_21 = -2
    roots = pm(cov(1, 0), cov(0, 1), cov(1, 1), cov(2, 1), cov(1, 2))
    with pytest.raises(VerificationError, match="bond multiplicity 4") as exc:
        build_satake(_datum(roots), (0, 1), [cov(1, 0), cov(0, 1)])
    assert exc.value.witness == {"pair": [0, 1], "bond": 4}


# ---------------------------------------------------------------------------
# restricted tables


def test_restricted_table_from_arrow_pair():
    roots = pm(cov(1, "i"), cov(1, "-i"), cov(2, 0))
    table = build_restricted_table(
        _datum(roots), (0,), [cov(1, "i"), cov(1, "-i")]
    )
    assert table.sigma_type == "BC1"
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.members == ["a1", "a2"]
    assert row.restriction == cov(1)
    assert (row.m, row.m2) == (2, 1)
    # both signs count toward the multiplicity sum
    assert table.mult_sum == 6


# mutations of the EIII simple system fail the base certificate of the
# restricted simple roots: a restricted simple root that is no restricted
# root, or one that is dependent on the others, never reaches the table


def test_restricted_table_rejects_a_restriction_without_multiplicity(get_satake):
    # a2 halved: the restricted simple roots still give every restricted
    # root integer coordinates of one sign, but a2 / 2 restricts to (0, 1),
    # which is no restricted root
    res = get_satake("EIII")
    simple = list(res.simple)
    simple[1] = cov_scale(HALF, simple[1])
    with pytest.raises(VerificationError, match=r"simple root \(.*\) is not a root") as exc:
        build_restricted_table(res.datum, res.a_idx, simple)
    assert exc.value.witness == {"covector": ["0", "1"], "simple": [["1", "-1"], ["0", "1"]]}


def test_restricted_table_rejects_a_divisible_restriction(get_satake):
    # the black a3 replaced by a root restricting to 2 (a1 | a): the
    # restricted simple roots (1, -1), (0, 2), (2, -2) are dependent, so
    # they are no base, and (2, -2) is divisible
    res = get_satake("EIII")
    double = next(
        s.covector for s in res.datum.spaces
        if restrict_covector(s.covector, res.a_idx) == cov(2, -2)
    )
    simple = list(res.simple)
    simple[2] = double
    with pytest.raises(VerificationError, match="simple roots are dependent") as exc:
        build_restricted_table(res.datum, res.a_idx, simple)
    assert exc.value.witness == {
        "covector": ["2", "-2"], "simple": [["1", "-1"], ["0", "2"], ["2", "-2"]]
    }


def test_restricted_table_serialization():
    table = RestrictedTable(
        [RestrictedRow("a1", ["a1"], cov(1), 4, 1)], [], "BC1", 5
    )
    raw = table.to_json_dict()
    assert raw["rows"][0]["m"] == 4
    assert raw["rows"][0]["restriction"] == ["1"]
    assert "BC1" in table.render_ascii()


def test_restricted_table_canonical_key_sees_mults():
    t1 = RestrictedTable([RestrictedRow("a1", ["a1"], cov(1), 4, 1)], [], "BC1", 5)
    t2 = RestrictedTable([RestrictedRow("a1", ["a1"], cov(1), 4, 0)], [], "BC1", 5)
    assert t1.canonical_key() != t2.canonical_key()
