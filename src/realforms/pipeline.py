"""Cells, named models, their Cartan involutions, and the end-to-end Satake pipelines.

A cell (S, S', eps) of the magic square is the one unit of construction
(`Cell`): it names its Killing signature, and its root type (F4 when
S' = R, E6 otherwise) and form follow from it.  `SIGNATURE_CELLS` lists
the twelve cells of the signature table; each of the eight named models
(`MODELS`) points at its cell there, except e6m26, whose cell is the
derivation model Der(A(pO)) + A0.  `build_cell` builds every construction
and issues its Jacobi, Killing and Sylvester certificates.  Every model,
compact or not, takes its Cartan involution theta from its cell
(S, S', eps) by one rule (`cartan_involution`), and theta is certified as
one (`verify_cartan_decomposition`) before anything reads its +1 and -1
eigenspaces t and p.  The Cartan subalgebra is read off them: a maximal
abelian a in p, certified by z_p(a) = a, then a maximal torus t_h of
z_t(a).  The Satake pass decomposes g under hs = a + t_h, checks that the
split part of the roots is exactly a, derives the sigma-order simple
system, lists it in Bourbaki order read off the match of its Cartan matrix
with the catalog of the model's root type, prints its diagram and
restricted table, and reports the highest root's simple coordinates with
the multiplicity of its restriction.
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
)
from .scalars import ONE

# ---------------------------------------------------------------------------
# the cells and the model registry


@dataclass(frozen=True)
class Cell:
    """A cell (S, S', eps) of the magic square, built as g(S, S', eps); a
    cell without S' is the derivation model Der(A(S)) + A0 of the Jordan
    algebra A(S, +++).  `signature`, when given, is the Killing signature
    positive - negative that the build must certify."""

    s_name: str
    sp_name: Optional[str] = None
    eps: Tuple[int, int, int] = (1, 1, 1)
    signature: Optional[int] = None

    @property
    def root_type(self) -> str:
        """The type of the complexified root system for an eight-dimensional
        S: F4 when S' = R, E6 otherwise."""
        return "F4" if self.sp_name == "R" else "E6"

    @property
    def form(self) -> str:
        return f"{self.root_type.lower()}({self.signature})"


SIGNATURE_CELLS: List[Cell] = [
    Cell("pO", "R", (1, 1, 1), -52),
    Cell("pO", "pC", (1, 1, 1), -78),
    Cell("pO", "pRR", (1, 1, 1), -26),
    Cell("pOs", "R", (1, 1, 1), 4),
    Cell("pOs", "pC", (1, 1, 1), 2),
    Cell("pOs", "pRR", (1, 1, 1), 6),
    Cell("pO", "R", (1, -1, 1), -20),
    Cell("pO", "pC", (1, -1, 1), -14),
    Cell("pO", "pRR", (1, -1, 1), -26),
    Cell("pOs", "R", (1, -1, 1), 4),
    Cell("pOs", "pC", (1, -1, 1), 2),
    Cell("pOs", "pRR", (1, -1, 1), 6),
]
_CELL = {(c.s_name, c.sp_name, c.eps): c for c in SIGNATURE_CELLS}


@dataclass(frozen=True)
class ModelSpec:
    key: str
    cell: Cell
    description: str
    satake_preset: Optional[str] = None


# the models with a Satake label are listed in the row order of `table_rows`
MODELS: Dict[str, ModelSpec] = {
    m.key: m
    for m in [
        ModelSpec("f4m52", _CELL["pO", "R", (1, 1, 1)], "compact form of f4"),
        ModelSpec("f4m20", _CELL["pO", "R", (1, -1, 1)], "f4(-20), the rank-1 real form"),
        ModelSpec("f4p4", _CELL["pOs", "R", (1, 1, 1)], "f4(4), the split form"),
        ModelSpec("e6m78", _CELL["pO", "pC", (1, 1, 1)], "compact form of e6"),
        ModelSpec("e6p2", _CELL["pOs", "pC", (1, 1, 1)], "e6(2), Satake type EII",
                  satake_preset="EII"),
        ModelSpec("e6m14", _CELL["pO", "pC", (1, -1, 1)], "e6(-14), Satake type EIII",
                  satake_preset="EIII"),
        ModelSpec("e6m26", Cell("pO", signature=-26),
                  "e6(-26), Satake type EIV (derivation model)", satake_preset="EIV"),
        ModelSpec("e6p6", _CELL["pOs", "pRR", (1, 1, 1)],
                  "e6(6), the split form (Satake type EI)", satake_preset="EI"),
    ]
}

# the classical Satake labels, accepted as aliases of the model keys
PRESET_MODEL: Dict[str, str] = {
    m.satake_preset: m.key for m in MODELS.values() if m.satake_preset
}


def model_key(name: str) -> str:
    """The key of the model that `name`, a key or a Satake label, names."""
    key = PRESET_MODEL.get(name, name)
    if key not in MODELS:
        raise ConstructionError(
            f"unknown model {name!r}; known: {', '.join(sorted(MODELS))}"
        )
    return key


def build_cell(
    cell: Cell, what: str
) -> Tuple[object, Dict[str, object], SparseMatrix, Tuple[int, int, int]]:
    """The construction of `cell` (a MagicSquareAlgebra or a
    DerivationModel), the Jacobi certificate of its Lie algebra, the Killing
    form (zero-free symmetric sparse rows) and its Sylvester signature
    (positive, negative, zero).  When the cell names a signature, the form
    must be nondegenerate with positive - negative equal to it."""
    s = symmetric_composition(cell.s_name)
    if cell.sp_name is None:
        obj: object = derivation_model(s)
    else:
        obj = magic_square(s, symmetric_composition(cell.sp_name), cell.eps)
    lie = obj.lie  # type: ignore[attr-defined]
    jacobi = certify_jacobi(lie)
    killing = killing_form(lie)
    sig = sylvester_signature(killing)
    expected = cell.signature
    if expected is not None and (sig[0] - sig[1] != expected or sig[2]):
        raise VerificationError(
            f"{what}: Killing signature {sig} does not match expected {expected}",
            witness={"signature": list(sig), "expected": expected},
        )
    return obj, jacobi, killing, sig


@dataclass(eq=False)
class ModelBuild:
    spec: ModelSpec
    obj: object  # MagicSquareAlgebra or DerivationModel
    jacobi: Dict[str, object]
    killing: SparseMatrix
    signature: Tuple[int, int, int]

    @property
    def lie(self) -> LieAlgebra:
        return self.obj.lie  # type: ignore[attr-defined]

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
    spec = MODELS[model_key(key)]
    return ModelBuild(spec, *build_cell(spec.cell, spec.key))


def signature_table() -> List[Dict[str, object]]:
    """All twelve (S, S', eps) Killing signatures, certified and compared."""
    rows = []
    for cell in SIGNATURE_CELLS:
        what = f"signature cell ({cell.s_name},{cell.sp_name},{cell.eps})"
        sig = build_cell(cell, what)[3]
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
    black = [s for s in simple if s in delta0]
    verify_simple_basis(delta0, black)
    return len(delta0), classify_cartan_matrix(cartan_matrix(black, delta0))


def run_satake(key: str, build: Optional[ModelBuild] = None) -> SatakeResult:
    """Satake data of the sigma-order simple system of the root
    decomposition under the model's hs = a + t_h."""
    if build is None:
        build = build_model(key)
    key = build.spec.key
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
    if delta_type != build.spec.cell.root_type:
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
    top = highest_root(roots, simple)
    # every nonzero restriction of a root is a restricted root; at real rank 0
    # the highest root restricts to 0, which is none, and its multiplicity is 0
    top_mult = restricted_multiplicities(datum, a_idx).get(restrict_covector(top, a_idx), 0)
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
        "highest_root_coords": simple_coords(top, simple),
        "highest_root_restricted_mult": top_mult,
    }
    return SatakeResult(
        build, datum, a_idx, simple, delta_type, diagram, table, checks
    )


# ---------------------------------------------------------------------------
# Cartan decompositions: t and p are the +1 and -1 eigenspaces of theta

# theta on g(S, S', eps) is induced (`constructions.induced_automorphism`)
# by a signed permutation phi of each composition algebra, by label, and by
# the signs c_i = eps_{i+1} eps_{i+2} on the iota blocks.  phi is the
# identity on the definite pO, pC and R; on pOs it fixes the unit e1 + e2
# and swaps the u_i with the v_i, and on pRR it sends u to -u: its +1
# eigenspace is norm-positive and its -1 eigenspace norm-negative.  The
# derivation model takes theta of its square on Der and -1 on A0.
_SWAP_OS = {"e1": "e2", "e2": "e1", "u1": "v1", "v1": "u1",
            "u2": "v2", "v2": "u2", "u3": "v3", "v3": "u3"}
_CARTAN_PHI: Dict[str, Dict[str, str]] = {
    "pO": {}, "pC": {}, "R": {}, "pOs": _SWAP_OS, "pRR": {"u": "-u"},
}


def cartan_involution(build: ModelBuild) -> SparseMatrix:
    """Row k: theta(b_k), from the cell (S, S', eps) of the model's square."""
    sq = build.square
    e0, e1, e2 = sq.eps
    missing = [c.name for c in (sq.s, sq.sp) if c.name not in _CARTAN_PHI]
    if missing:
        raise ConstructionError(
            f"no Cartan decomposition recipe for the composition algebra "
            f"{missing[0]!r}; known: {', '.join(sorted(_CARTAN_PHI))}"
        )
    phi, phi_p = _CARTAN_PHI[sq.s.name], _CARTAN_PHI[sq.sp.name]
    rows = induced_automorphism(sq, phi, phi_p, (e1 * e2, e2 * e0, e0 * e1))
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
    if build is None:
        build = build_model(key)
    key = build.spec.key
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
    all_keys = [k for k, m in MODELS.items() if m.satake_preset]
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

