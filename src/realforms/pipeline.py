"""Named models, Cartan presets, and the end-to-end Satake pipelines.

The registry covers the twelve signature-table cells through eight named
models (the epsilon-twisted cells that repeat a signature reuse the same
construction).  For the four noncompact e6 models the module ships a
recipe for commuting Cartan generators, runs the exact decomposition,
derives the split part and the sigma-order simple system from it, and
prints the diagram and restricted table of that derived system.  The
published simple systems of EIV, EIII and EII only check it.  Each of
these models also names a Cartan involution theta; its +1 and -1
eigenspaces are certified as a Cartan decomposition g = t + p, and each
Cartan generator is checked to lie in t or in p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import symmetric_composition
from .constructions import (
    MagicSquareAlgebra,
    derivation_model,
    induced_automorphism,
    magic_square,
)
from .errors import ConstructionError, VerificationError
from .lie import LieAlgebra, certify_jacobi, killing_form
from .linalg import (
    Echelon,
    SparseMatrix,
    SparseVec,
    combine,
    nullspace,
    sylvester_signature,
    to_sparse,
    transpose,
)
from .rootspace import (
    Covector,
    RootDatum,
    adapted_simple_system,
    cartan_matrix,
    certify_maximally_noncompact,
    classify_cartan_matrix,
    cov_is_zero,
    cov_key,
    highest_root,
    restrict_covector,
    restricted_multiplicities,
    root_decomposition,
    simple_coords,
    split_indices,
    verify_cartan_decomposition,
    verify_simple_basis,
)
from .satake import (
    RestrictedTable,
    SatakeDiagram,
    build_restricted_table,
    build_satake,
    compact_satake,
    e6_label_order,
)
from .scalars import HALF, ONE, Rat, Scalar, sc

# ---------------------------------------------------------------------------
# model registry


@dataclass(frozen=True)
class ModelSpec:
    key: str
    kind: str  # "magic" or "tits"
    s_name: str
    sp_name: str
    eps: Tuple[int, int, int]
    signature: int
    description: str
    satake_preset: Optional[str] = None
    compact_type: Optional[str] = None


MODELS: Dict[str, ModelSpec] = {
    m.key: m
    for m in [
        ModelSpec("f4m52", "magic", "pO", "R", (1, 1, 1), -52,
                  "compact form of f4", compact_type="F4"),
        ModelSpec("f4m20", "magic", "pO", "R", (1, -1, 1), -20,
                  "f4(-20), the rank-1 real form"),
        ModelSpec("f4p4", "magic", "pOs", "R", (1, 1, 1), 4,
                  "f4(4), the split form"),
        ModelSpec("e6m78", "magic", "pO", "pC", (1, 1, 1), -78,
                  "compact form of e6", compact_type="E6"),
        ModelSpec("e6m14", "magic", "pO", "pC", (1, -1, 1), -14,
                  "e6(-14), Satake type EIII", satake_preset="EIII"),
        ModelSpec("e6p2", "magic", "pOs", "pC", (1, 1, 1), 2,
                  "e6(2), Satake type EII", satake_preset="EII"),
        ModelSpec("e6p6", "magic", "pOs", "pRR", (1, 1, 1), 6,
                  "e6(6), the split form (Satake type EI)", satake_preset="EI"),
        ModelSpec("e6m26", "tits", "pO", "", (1, 1, 1), -26,
                  "e6(-26), Satake type EIV (derivation model)",
                  satake_preset="EIV"),
    ]
}


def certify(
    lie: LieAlgebra, expected: Optional[int], what: str
) -> Tuple[Dict[str, object], SparseMatrix, Tuple[int, int, int]]:
    """The Jacobi certificate, the Killing form (zero-free symmetric sparse
    rows) and its Sylvester signature (positive, negative, zero) of `lie`.
    When `expected` is given, the form must be nondegenerate with
    positive - negative == expected."""
    jacobi = certify_jacobi(lie)
    killing = killing_form(lie)
    sig = sylvester_signature(killing)
    if expected is not None and (sig[0] - sig[1] != expected or sig[2]):
        raise VerificationError(
            f"{what}: Killing signature {sig} does not match expected {expected}",
            witness={"signature": list(sig), "expected": expected},
        )
    return jacobi, killing, sig


@dataclass(eq=False)
class ModelBuild:
    spec: ModelSpec
    lie: LieAlgebra
    obj: object  # MagicSquareAlgebra or DerivationModel
    signature: Tuple[int, int, int]
    jacobi: Dict[str, object]
    killing: SparseMatrix

    @property
    def square(self) -> MagicSquareAlgebra:
        if isinstance(self.obj, MagicSquareAlgebra):
            return self.obj
        return self.obj.square  # type: ignore[union-attr]


def build_model(key: str) -> ModelBuild:
    if key not in MODELS:
        raise ConstructionError(
            f"unknown model {key!r}; known: {', '.join(sorted(MODELS))}"
        )
    spec = MODELS[key]
    if spec.kind == "magic":
        s = symmetric_composition(spec.s_name)
        sp = symmetric_composition(spec.sp_name)
        obj: object = magic_square(s, sp, spec.eps)
    else:
        obj = derivation_model(symmetric_composition(spec.s_name))
    lie = obj.lie  # type: ignore[attr-defined]
    jacobi, killing, sig = certify(lie, spec.signature, key)
    return ModelBuild(spec, lie, obj, sig, jacobi, killing)


# ---------------------------------------------------------------------------
# signature table (the twelve cells)


@dataclass(frozen=True)
class TableCell:
    s_name: str
    sp_name: str
    eps: Tuple[int, int, int]
    expected: int
    form: str


SIGNATURE_CELLS: List[TableCell] = [
    TableCell("pO", "R", (1, 1, 1), -52, "f4(-52)"),
    TableCell("pO", "pC", (1, 1, 1), -78, "e6(-78)"),
    TableCell("pO", "pRR", (1, 1, 1), -26, "e6(-26)"),
    TableCell("pOs", "R", (1, 1, 1), 4, "f4(4)"),
    TableCell("pOs", "pC", (1, 1, 1), 2, "e6(2)"),
    TableCell("pOs", "pRR", (1, 1, 1), 6, "e6(6)"),
    TableCell("pO", "R", (1, -1, 1), -20, "f4(-20)"),
    TableCell("pO", "pC", (1, -1, 1), -14, "e6(-14)"),
    TableCell("pO", "pRR", (1, -1, 1), -26, "e6(-26)"),
    TableCell("pOs", "R", (1, -1, 1), 4, "f4(4)"),
    TableCell("pOs", "pC", (1, -1, 1), 2, "e6(2)"),
    TableCell("pOs", "pRR", (1, -1, 1), 6, "e6(6)"),
]


def signature_table() -> List[Dict[str, object]]:
    """All twelve (S, S', eps) Killing signatures, certified and compared."""
    rows = []
    for cell in SIGNATURE_CELLS:
        s = symmetric_composition(cell.s_name)
        sp = symmetric_composition(cell.sp_name)
        sq = magic_square(s, sp, cell.eps)
        what = f"signature cell ({cell.s_name},{cell.sp_name},{cell.eps})"
        sig = certify(sq.lie, cell.expected, what)[2]
        rows.append(
            {
                "s": cell.s_name,
                "sp": cell.sp_name,
                "eps": list(cell.eps),
                "signature": sig[0] - sig[1],
                "positive": sig[0],
                "negative": sig[1],
                "form": cell.form,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Cartan presets


@dataclass(eq=False)
class CartanSpec:
    label: str
    hs: List[SparseVec]


def _covs(rows: Sequence[Sequence[str]]) -> List[Covector]:
    return [tuple(sc(x) for x in row) for row in rows]


# simple systems as values on (h1..h6), verified against the decomposition
PRESET_SIMPLE: Dict[str, List[Covector]] = {
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

PRESET_MODEL: Dict[str, str] = {
    m.satake_preset: m.key for m in MODELS.values() if m.satake_preset
}


def _check_commuting(L: LieAlgebra, hs: List[SparseVec], label: str) -> None:
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if L.bracket(hs[i], hs[j]):
                raise ConstructionError(
                    f"{label}: h{i + 1} and h{j + 1} do not commute"
                )


def preset_cartan(build: ModelBuild) -> CartanSpec:
    key = build.spec.satake_preset
    if key is None:
        raise ConstructionError(
            f"model {build.spec.key} has no Cartan preset"
        )
    quarter = Scalar(Rat(1, 4))
    square: MagicSquareAlgebra = build.square
    if key == "EIV":
        der = build.obj.der_dim  # type: ignore[attr-defined]
        hs = [
            combine([(HALF, square.t_s(a, b))])
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7))
        ]
        hs += [{der: Scalar(-1)}, {der + 1: Scalar(-1)}]  # E1 - E0, E0 - E2
    elif key == "EIII":
        tri_sp = square.tri_sp
        sp = square.sp
        hs = [
            combine([(HALF, square.t_s(a, b))]) for a, b in ((2, 3), (4, 5), (6, 7))
        ]
        # opposite orientation of the 2-dim factor: sigma_{e1,e0} throughout
        sigma = tri_sp.sigma_map(sp.basis_vec(1), sp.basis_vec(0))
        neg = [{q: -x for q, x in row.items()} for row in sigma]
        coords = tri_sp.coords_of_triple(([{}, {}], sigma, neg))
        hs.append(combine([(quarter, square.tri_sp_vec(coords))]))
        hs.append({square.iota_index(0, 0, 1): -HALF})
        hs.append({square.iota_index(0, 1, 0): -HALF})
    elif key in ("EII", "EI"):
        # tri(S') is tri(pC) for EII and tri(pRR) for EI
        tri_sp = square.tri_sp
        sp = square.sp
        hs = [
            square.t_s(0, 1),
            square.t_s(2, 5),
            square.t_s(3, 6),
            square.t_s(4, 7),
        ]
        sigma = tri_sp.sigma_map(sp.basis_vec(0), sp.basis_vec(1))
        neg2 = [{q: -(x + x) for q, x in row.items()} for row in sigma]
        for triple in ((sigma, sigma, neg2), (sigma, neg2, sigma)):
            coords = tri_sp.coords_of_triple(triple)
            hs.append(combine([(quarter, square.tri_sp_vec(coords))]))
    else:
        raise ConstructionError(f"unknown preset {key!r}")
    _check_commuting(build.lie, hs, key)
    return CartanSpec(key, hs)


# ---------------------------------------------------------------------------
# Satake pipeline


@dataclass(eq=False)
class SatakeResult:
    build: ModelBuild
    cartan: CartanSpec
    datum: RootDatum
    a_idx: Tuple[int, ...]
    simple: List[Covector]
    delta_type: str
    diagram: SatakeDiagram
    table: RestrictedTable
    checks: Dict[str, object] = field(default_factory=dict)

    @property
    def preset_key(self) -> str:
        return self.cartan.label


def _delta0_data(
    datum: RootDatum, a_idx: Sequence[int], simple: List[Covector]
) -> Tuple[int, str]:
    """Size and type of the compact subsystem (roots vanishing on the
    split part), classified through the black simple roots."""
    delta0 = {c for c in datum.root_set() if cov_is_zero(restrict_covector(c, a_idx))}
    if not delta0:
        return 0, "empty"
    black = [s for s in simple if s in delta0]
    verify_simple_basis(delta0, black)
    return len(delta0), classify_cartan_matrix(cartan_matrix(black, delta0))


def _bourbaki_order(simple: List[Covector], cm: List[List[int]]) -> List[Covector]:
    """An E6 simple system with Cartan matrix cm, in Bourbaki label order."""
    n = len(simple)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if cm[i][j]]
    ordered = [simple[k] for k in e6_label_order(edges, n)]
    # two Bourbaki orders exist (arm swap); pick deterministically
    alt = [ordered[k] for k in (5, 1, 4, 3, 2, 0)]
    return min(ordered, alt, key=lambda o: tuple(cov_key(c) for c in o))


def _satake_pair(
    datum: RootDatum, a_idx: Sequence[int], simple: List[Covector], sig: int
) -> Tuple[SatakeDiagram, RestrictedTable]:
    """The Satake diagram (which certifies `simple` as a simple system of
    the roots) and the restricted table of one simple system."""
    diagram = build_satake(datum, a_idx, simple, meta={"signature": sig})
    return diagram, build_restricted_table(datum, a_idx, simple)


def run_satake(key: str, build: Optional[ModelBuild] = None) -> SatakeResult:
    """Satake data of the sigma-order simple system of the certified root
    decomposition.  A published simple system, where the model has one,
    is only a cross-check: same diagram and table up to relabelling."""
    key = PRESET_MODEL.get(key, key)
    if build is None:
        build = build_model(key)
    cartan = preset_cartan(build)
    datum = root_decomposition(build.lie, cartan.hs, name=key)
    wide = [s for s in datum.spaces if s.dim != 1]
    if wide:
        raise VerificationError(
            f"{key}: some root space is not 1-dimensional",
            witness={"covector": [x.to_str() for x in wide[0].covector],
                     "dim": wide[0].dim},
        )
    if len(datum.spaces) != 72 or datum.zero.dim != 6:
        raise VerificationError(
            f"{key}: expected 72 roots and a 6-dim zero space, got "
            f"{len(datum.spaces)} and {datum.zero.dim}",
            witness={"roots": len(datum.spaces), "zero_dim": datum.zero.dim},
        )
    covectors = Echelon()
    for s in datum.spaces:
        covectors.add(to_sparse(s.covector))
    if not len(cartan.hs) == datum.zero.dim == covectors.rank:
        raise VerificationError(
            f"{key}: {len(cartan.hs)} Cartan generators, but the zero space has "
            f"dim {datum.zero.dim} and the roots span {covectors.rank}",
            witness={"generators": len(cartan.hs), "zero_dim": datum.zero.dim,
                     "root_rank": covectors.rank},
        )
    roots = datum.root_set()
    a_idx = split_indices(datum)
    adapted = adapted_simple_system(datum, a_idx)
    cm = cartan_matrix(adapted, roots)
    delta_type = classify_cartan_matrix(cm)
    if delta_type != "E6":
        raise VerificationError(
            f"{key}: root system classified as {delta_type}",
            witness={"type": delta_type},
        )
    simple = _bourbaki_order(adapted, cm)
    sig = build.signature[0] - build.signature[1]
    diagram, table = _satake_pair(datum, a_idx, simple, sig)
    d0_count, d0_type = _delta0_data(datum, a_idx, simple)
    checks: Dict[str, object] = {
        "roots": len(datum.spaces),
        # build_satake certified `simple`, so half of the roots are positive
        "positive_roots": len(roots) // 2,
        "delta0_roots": d0_count,
        "delta0_type": d0_type,
        "black_nodes": len(diagram.filled_indices()),
        "arrows": [
            (diagram.nodes[a].label, diagram.nodes[b].label)
            for a, b in diagram.arrows
        ],
        "sigma_type": table.sigma_type,
        "mult_sum": table.mult_sum,
        "real_rank": len(a_idx),
        "rank_identity": 6
        == len(a_idx) + len(diagram.arrows) + len(diagram.filled_indices()),
        "maximally_noncompact": certify_maximally_noncompact(
            datum, a_idx, build.lie.dim, sig
        ),
    }
    preset = PRESET_SIMPLE.get(cartan.label)
    if preset is not None:
        for k, s in enumerate(preset):
            if s not in roots:
                raise VerificationError(
                    f"{key}: preset simple root {s} not a root",
                    witness={"index": k, "covector": [x.to_str() for x in s]},
                )
        pair = _satake_pair(datum, a_idx, preset, sig)
        for what, mine, theirs in zip(("diagram", "table"), (diagram, table), pair):
            if mine.canonical_key() != theirs.canonical_key():
                raise VerificationError(
                    f"{key}: adapted basis {what} differs from preset",
                    witness={"derived": mine.to_json_dict(),
                             "preset": theirs.to_json_dict()},
                )
        checks["auto_matches_preset"] = True
    if cartan.label == "EIII":
        top = highest_root(roots, simple)
        checks["highest_root_coords"] = simple_coords(top, simple)
        checks["highest_root_restricted_mult"] = restricted_multiplicities(
            datum, a_idx
        )[restrict_covector(top, a_idx)]
    return SatakeResult(
        build, cartan, datum, a_idx, simple, delta_type, diagram, table, checks
    )


# ---------------------------------------------------------------------------
# Cartan decompositions: t and p are the +1 and -1 eigenspaces of theta

# theta on g(S, S'), per model: a signed permutation phi of S and phi' of
# S' by label (`constructions.induced_automorphism`; unlisted labels are
# fixed) and the signs c_i of the iota blocks.  The derivation model takes
# theta of its square on Der and -1 on A0.  phi on pOs fixes the unit
# e1 + e2 and swaps the u_i with the v_i: its +1 eigenspace {1, u_i + v_i}
# is norm-positive and its -1 eigenspace norm-negative.
_SWAP_OS = {"e1": "e2", "e2": "e1", "u1": "v1", "v1": "u1",
            "u2": "v2", "v2": "u2", "u3": "v3", "v3": "u3"}
CARTAN_THETA: Dict[str, Tuple[Dict[str, str], Dict[str, str], Tuple[int, int, int]]] = {
    "e6m26": ({}, {}, (1, 1, 1)),
    "e6m14": ({}, {}, (-1, 1, -1)),
    "e6p2": (_SWAP_OS, {}, (1, 1, 1)),
    "e6p6": (_SWAP_OS, {"u": "-u"}, (1, 1, 1)),
}


def cartan_involution(build: ModelBuild) -> SparseMatrix:
    """Row k: theta(b_k), from the model's entry of CARTAN_THETA."""
    key = build.spec.key
    if key not in CARTAN_THETA:
        raise ConstructionError(f"no Cartan decomposition recipe for {key}")
    rows = induced_automorphism(build.square, *CARTAN_THETA[key])
    # the rows past the square's are A0 of the derivation model
    rows += [{k: -ONE} for k in range(len(rows), build.lie.dim)]
    return rows


def cartan_decomposition_report(key: str, build: Optional[ModelBuild] = None) -> Dict[str, object]:
    """Certify t = ker(theta - 1) and p = ker(theta + 1) as a Cartan
    decomposition (`verify_cartan_decomposition`) whose signature is the
    certified Killing signature.  Each preset Cartan generator h_k must
    satisfy theta h = h or theta h = -h; `cartan_in_p` lists the k with
    theta h_k = -h_k."""
    key = PRESET_MODEL.get(key, key)
    if build is None:
        build = build_model(key)
    L = build.lie
    theta = cartan_involution(build)
    cols = transpose(theta)  # row i: entry i of every theta(b_k)

    def eigenspace(lam: Scalar) -> List[SparseVec]:
        rows = [combine([(ONE, row), (-lam, {i: ONE})]) for i, row in enumerate(cols)]
        return nullspace(rows, L.dim)

    report = verify_cartan_decomposition(
        L, eigenspace(ONE), eigenspace(-ONE), killing=build.killing
    )
    sig = build.signature[0] - build.signature[1]
    if report["signature"] != sig:
        raise VerificationError(
            f"{key}: Cartan decomposition signature {report['signature']} "
            f"differs from the Killing signature {sig}",
            witness=(report["signature"], sig),
        )
    in_p = []
    for k, h in enumerate(preset_cartan(build).hs):
        image = combine((x, theta[q]) for q, x in h.items())
        if image == combine([(-ONE, h)]):
            in_p.append(k)
        elif image != h:
            raise VerificationError(
                f"{key}: Cartan generator h{k + 1} lies in neither t nor p",
                witness={"h": k},
            )
    report["cartan_in_p"] = in_p
    report["dim_p_outside_cartan"] = report["dim_p"] - len(in_p)
    return report


# ---------------------------------------------------------------------------
# the combined table


def table_rows(only: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    all_keys = ["e6p2", "e6m14", "e6m26", "e6p6"]
    if only:
        bad = [k for k in only if k not in all_keys]
        if bad:
            raise ConstructionError(
                f"table covers {', '.join(all_keys)}; cannot run {', '.join(bad)}"
            )
        keys = [k for k in all_keys if k in only]
    else:
        keys = all_keys
    rows: List[Dict[str, object]] = []
    for res in map(run_satake, keys):
        rows.append(
            {
                "key": res.build.spec.key,
                "satake": res.preset_key,
                "computed": True,
                "signature": res.build.signature[0] - res.build.signature[1],
                "black_nodes": res.checks["black_nodes"],
                "arrows": res.checks["arrows"],
                "sigma_type": res.table.sigma_type,
                "mult_sum": res.table.mult_sum,
                "rows": [
                    {"label": r.label, "members": r.members, "m": r.m, "m2": r.m2}
                    for r in res.table.rows
                ],
                "rank_identity": res.checks["rank_identity"],
            }
        )
    return rows


def compact_diagram(key: str) -> SatakeDiagram:
    spec = MODELS[key]
    if spec.compact_type is None:
        raise ConstructionError(
            f"model {key} is not compact and has no Cartan preset"
        )
    return compact_satake(spec.compact_type, {"signature": spec.signature})
