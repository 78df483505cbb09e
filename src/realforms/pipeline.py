"""Named models, their Cartan involutions, and the end-to-end Satake pipelines.

The registry covers the twelve signature-table cells through eight named
models (the epsilon-twisted cells that repeat a signature reuse the same
construction).  Each of the four noncompact e6 models names a Cartan
involution theta, certified as one (`verify_cartan_decomposition`) before
anything reads its +1 and -1 eigenspaces t and p.  The Cartan subalgebra
is read off them: a maximal abelian a in p, certified by z_p(a) = a, then
a maximal torus t_h of z_t(a).  The Satake pass decomposes g under
hs = a + t_h, checks that the split part of the roots is exactly a,
derives the sigma-order simple system, lists it in Bourbaki order read off
the match of its Cartan matrix with the catalog of the model's root type,
and prints its diagram and restricted table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
)
from .rootspace import (
    Covector,
    RootDatum,
    adapted_simple_system,
    bourbaki_orders,
    cartan_matrix,
    classify_cartan_matrix,
    cov_is_zero,
    cov_sort_key,
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
)
from .scalars import ONE

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
    root_type: str  # the type of the complexified root system
    compact: bool = False
    satake_preset: Optional[str] = None


MODELS: Dict[str, ModelSpec] = {
    m.key: m
    for m in [
        ModelSpec("f4m52", "magic", "pO", "R", (1, 1, 1), -52,
                  "compact form of f4", "F4", compact=True),
        ModelSpec("f4m20", "magic", "pO", "R", (1, -1, 1), -20,
                  "f4(-20), the rank-1 real form", "F4"),
        ModelSpec("f4p4", "magic", "pOs", "R", (1, 1, 1), 4,
                  "f4(4), the split form", "F4"),
        ModelSpec("e6m78", "magic", "pO", "pC", (1, 1, 1), -78,
                  "compact form of e6", "E6", compact=True),
        ModelSpec("e6m14", "magic", "pO", "pC", (1, -1, 1), -14,
                  "e6(-14), Satake type EIII", "E6", satake_preset="EIII"),
        ModelSpec("e6p2", "magic", "pOs", "pC", (1, 1, 1), 2,
                  "e6(2), Satake type EII", "E6", satake_preset="EII"),
        ModelSpec("e6p6", "magic", "pOs", "pRR", (1, 1, 1), 6,
                  "e6(6), the split form (Satake type EI)", "E6",
                  satake_preset="EI"),
        ModelSpec("e6m26", "tits", "pO", "", (1, 1, 1), -26,
                  "e6(-26), Satake type EIV (derivation model)", "E6",
                  satake_preset="EIV"),
    ]
}

# the classical Satake labels, accepted as aliases of the model keys
PRESET_MODEL: Dict[str, str] = {
    m.satake_preset: m.key for m in MODELS.values() if m.satake_preset
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

    @cached_property
    def cartan(self) -> "CartanData":
        """The model's Cartan involution, certified on first use, and the
        hs read off its eigenspaces t and p; shared by the Satake pass, the
        Cartan decomposition report and `roots`."""
        L = self.lie
        theta, gens = cartan_involution(self), self.jacobi["generators"]
        t, p, report = verify_cartan_decomposition(L, theta, gens, self.killing)
        a, z = _maximal_abelian(L, p)
        certificate = certify_maximal_abelian(a, z, p)
        t_h, _ = _maximal_abelian(L, _centraliser(L, a, t))
        return CartanData(a, t_h, certificate, report)


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
# Satake pipeline


@dataclass(eq=False)
class SatakeResult:
    build: ModelBuild
    datum: RootDatum
    a_idx: Tuple[int, ...]
    simple: List[Covector]
    delta_type: str
    diagram: SatakeDiagram
    table: RestrictedTable
    checks: Dict[str, object] = field(default_factory=dict)

    @property
    def preset_key(self) -> Optional[str]:
        return self.build.spec.satake_preset


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


def run_satake(key: str, build: Optional[ModelBuild] = None) -> SatakeResult:
    """Satake data of the sigma-order simple system of the root
    decomposition under the model's hs = a + t_h."""
    key = PRESET_MODEL.get(key, key)
    if build is None:
        build = build_model(key)
    cartan = build.cartan
    datum = root_decomposition(build.lie, cartan.hs, name=key)
    wide = [s for s in datum.spaces if s.dim != 1]
    if wide:
        raise VerificationError(
            f"{key}: some root space is not 1-dimensional",
            witness={"covector": [x.to_str() for x in wide[0].covector],
                     "dim": wide[0].dim},
        )
    covectors = Echelon()
    for s in datum.spaces:
        covectors.add(to_sparse(s.covector))
    rank = len(cartan.hs)
    if not rank == datum.zero.dim == covectors.rank:
        raise VerificationError(
            f"{key}: {rank} Cartan generators, but the zero space has "
            f"dim {datum.zero.dim} and the roots span {covectors.rank}",
            witness={"generators": rank, "zero_dim": datum.zero.dim,
                     "root_rank": covectors.rank},
        )
    if len(datum.spaces) != build.lie.dim - rank:
        raise VerificationError(
            f"{key}: expected {build.lie.dim - rank} roots, got {len(datum.spaces)}",
            witness={"roots": len(datum.spaces)},
        )
    roots = datum.root_set()
    a_idx = split_indices(datum)
    if a_idx != tuple(range(len(cartan.a))):
        raise VerificationError(
            f"{key}: the roots are real on h_k for k in {list(a_idx)}, "
            f"not on the {len(cartan.a)} vectors of a",
            witness={"split_indices": list(a_idx), "a": list(range(len(cartan.a)))},
        )
    adapted = adapted_simple_system(datum, a_idx)
    delta_type, orders = bourbaki_orders(cartan_matrix(adapted, roots))
    if delta_type != build.spec.root_type:
        raise VerificationError(
            f"{key}: root system classified as {delta_type}",
            witness={"type": delta_type},
        )
    # one Bourbaki order per diagram automorphism; the least in cov_sort_key
    key_of = cov_sort_key(adapted)
    simple = min(
        ([adapted[k] for k in order] for order in orders),
        key=lambda system: tuple(map(key_of, system)),
    )
    sig = build.signature[0] - build.signature[1]
    diagram = build_satake(datum, a_idx, simple, meta={"signature": sig})
    table = build_restricted_table(datum, a_idx, simple)
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
        "rank_identity": rank
        == len(a_idx) + len(diagram.arrows) + len(diagram.filled_indices()),
        "maximally_noncompact": cartan.maximally_noncompact,
        "cartan_involution": cartan.report,
    }
    if build.spec.satake_preset == "EIII":
        top = highest_root(roots, simple)
        checks["highest_root_coords"] = simple_coords(top, simple)
        checks["highest_root_restricted_mult"] = restricted_multiplicities(
            datum, a_idx
        )[restrict_covector(top, a_idx)]
    return SatakeResult(
        build, datum, a_idx, simple, delta_type, diagram, table, checks
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


@dataclass(eq=False)
class CartanData:
    """The theta-stable Cartan subalgebra hs = a + t_h read off the
    eigenspaces t (+1) and p (-1) of theta, certified a Cartan involution
    (`report`): a is maximal abelian in p, and t_h is a maximal abelian
    subalgebra of z_t(a)."""

    a: List[SparseVec]
    t_h: List[SparseVec]
    maximally_noncompact: Dict[str, int]
    report: Dict[str, object]

    @property
    def hs(self) -> List[SparseVec]:
        return self.a + self.t_h


def _centraliser(L: LieAlgebra, xs: List[SparseVec], basis: List[SparseVec]) -> List[SparseVec]:
    """A basis of the elements of span(basis) that commute with every x in
    xs: one nullspace over the coordinates of `basis`."""
    rows: Dict[Tuple[int, int], SparseVec] = {}
    for j, x in enumerate(xs):
        for k, b in enumerate(basis):
            for q, v in L.bracket(x, b).items():
                rows.setdefault((j, q), {})[k] = v
    return [
        combine((c, basis[k]) for k, c in vec.items())
        for vec in nullspace(rows.values(), len(basis))
    ]


def _maximal_abelian(
    L: LieAlgebra, basis: List[SparseVec]
) -> Tuple[List[SparseVec], List[SparseVec]]:
    """A maximal abelian subspace hs of span(basis), grown greedily: each
    step adds the sparsest vector of its centraliser that lies outside it.
    Returned with the last centraliser solved, that of hs itself."""
    hs: List[SparseVec] = []
    span = Echelon()
    while True:
        z = _centraliser(L, hs, basis)
        fresh = [v for v in z if not span.contains(v)]
        if not fresh:
            return hs, z
        hs.append(min(fresh, key=len))
        span.add(hs[-1])


def certify_maximal_abelian(
    a: List[SparseVec], z: List[SparseVec], p: List[SparseVec]
) -> Dict[str, int]:
    """Certify that the abelian a is maximal abelian in p from a basis z of
    its centraliser z_p(a) (`_centraliser`): z_p(a) contains a, so when it
    has the dimension of a it is a (Knapp, Lie Groups Beyond an
    Introduction, VI.6)."""
    if len(z) != len(a):
        raise VerificationError(
            f"a is not maximal abelian in p: dim z_p(a) = {len(z)}, dim a = {len(a)}",
            witness={"dim_a": len(a), "dim_z_p_a": len(z)},
        )
    return {"dim_p": len(p), "dim_z_p_a": len(z)}


def cartan_decomposition_report(key: str, build: Optional[ModelBuild] = None) -> Dict[str, object]:
    """The report of theta's certificate as a Cartan involution, whose
    signature must be the certified Killing signature.  hs lists a first,
    so `cartan_in_p`, the k with h_k in p, is 0, ..., dim a - 1."""
    key = PRESET_MODEL.get(key, key)
    if build is None:
        build = build_model(key)
    cartan = build.cartan
    report = cartan.report
    sig = build.signature[0] - build.signature[1]
    if report["signature"] != sig:
        raise VerificationError(
            f"{key}: Cartan decomposition signature {report['signature']} "
            f"differs from the Killing signature {sig}",
            witness=(report["signature"], sig),
        )
    return {
        **report,
        "cartan_in_p": list(range(len(cartan.a))),
        "dim_p_outside_cartan": report["dim_p"] - len(cartan.a),
    }


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
    if not spec.compact:
        raise ConstructionError(
            f"model {key} is not compact and has no Cartan preset"
        )
    return compact_satake(spec.root_type, {"signature": spec.signature})
