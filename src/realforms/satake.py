"""Satake diagrams and restricted-root tables, with renderers.

A diagram is the Dynkin graph of a verified simple system, decorated with
filled nodes (simple roots vanishing on the split part) and arrows (white
nodes with equal restriction).  Bonds and directions come from root-string
Cartan integers only.  Node k is labelled a(k+1): the Satake pass hands
the simple system over in Bourbaki order, read off the classification match
(`rootspace.bourbaki_orders`), so the E6 renderer and the compact template
share one fixed Bourbaki layout.  Canonical forms minimize over node
permutations, so two diagrams compare equal exactly when they are
isomorphic as decorated graphs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import IOFormatError, VerificationError
from .rootspace import (
    Covector,
    RootDatum,
    cartan_matrix,
    classify_restricted,
    cov_is_zero,
    cov_scale,
    indivisible_roots,
    restrict_covector,
    restricted_multiplicities,
    verify_simple_basis,
)
from .scalars import Scalar


# the Bourbaki E6 diagram on nodes a1..a6 (0-based): the chain a1 a3 a4 a5 a6
# and a2 on a4
_E6_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]


@dataclass
class SatakeNode:
    label: str
    filled: bool


@dataclass
class SatakeEdge:
    a: int
    b: int
    bond: int
    arrow_to: Optional[int] = None  # short-root side when bond >= 2


@dataclass
class SatakeDiagram:
    nodes: List[SatakeNode]
    edges: List[SatakeEdge]
    arrows: List[Tuple[int, int]]
    meta: Dict[str, int] = field(default_factory=dict)

    # -- structure ---------------------------------------------------------

    def filled_indices(self) -> List[int]:
        return [k for k, n in enumerate(self.nodes) if n.filled]

    def canonical_key(self, decorations: Optional[Sequence[tuple]] = None):
        n = len(self.nodes)
        best = None
        for perm in itertools.permutations(range(n)):
            edges = []
            for e in self.edges:
                lo, hi = sorted((perm[e.a], perm[e.b]))
                if e.arrow_to is None:
                    point = 0
                else:
                    point = 1 if perm[e.arrow_to] == lo else 2
                edges.append((lo, hi, e.bond, point))
            edges.sort()
            filled = tuple(sorted(perm[k] for k in self.filled_indices()))
            arrows = tuple(
                sorted(tuple(sorted((perm[a], perm[b]))) for a, b in self.arrows)
            )
            if decorations is None:
                dec = ()
            else:
                slot = [None] * n
                for k in range(n):
                    slot[perm[k]] = tuple(decorations[k])
                dec = tuple(slot)
            key = (tuple(edges), filled, arrows, dec)
            if best is None or key < best:
                best = key
        return best

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"label": n.label, "filled": n.filled} for n in self.nodes],
            "edges": [
                {"a": e.a, "b": e.b, "bond": e.bond}
                | ({"arrow_to": e.arrow_to} if e.arrow_to is not None else {})
                for e in self.edges
            ],
            "arrows": [list(p) for p in self.arrows],
            "meta": dict(self.meta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    # -- renderers ---------------------------------------------------------

    def _adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {k: [] for k in range(len(self.nodes))}
        for e in self.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        return adj

    def _mark(self, k: int) -> str:
        return "*" if self.nodes[k].filled else "o"

    def _edge_glyph(self, a: int, b: int) -> str:
        for e in self.edges:
            if {e.a, e.b} == {a, b}:
                if e.bond == 1:
                    return "---"
                core = "=" * 3 if e.bond == 2 else "#" * 3
                if e.arrow_to == b:
                    return core[:-1] + ">"
                if e.arrow_to == a:
                    return "<" + core[1:]
                return core
        return "   "

    def _chain_lines(self, chain: List[int]) -> List[str]:
        """The nodes of a chain in one row, bonded, over their labels."""
        row = labels = ""
        for k, idx in enumerate(chain):
            if k:
                row += " " + self._edge_glyph(chain[k - 1], idx) + " "
            row += self._mark(idx)
            labels = labels.ljust(6 * k) + self.nodes[idx].label
        return [row, labels]

    def render_ascii(self) -> str:
        edges = sorted((e.a, e.b) for e in self.edges)
        if len(self.nodes) == 6 and edges == sorted(_E6_EDGES):
            # the chain a1 a3 a4 a5 a6, with a2 over a4 (column 12)
            top = " " * 12 + self._mark(1) + "  " + self.nodes[1].label
            lines = [top, " " * 12 + "|"] + self._chain_lines([0, 2, 3, 4, 5])
        elif (chain := _path_order(self)) is not None:
            lines = self._chain_lines(chain)
        else:
            lines = [
                f"{self.nodes[e.a].label}({self._mark(e.a)}) "
                f"{self._edge_glyph(e.a, e.b)} "
                f"{self.nodes[e.b].label}({self._mark(e.b)})"
                for e in self.edges
            ]
        for a, b in self.arrows:
            lines.append(f"arrow: {self.nodes[a].label} <--> {self.nodes[b].label}")
        return "\n".join(lines) + "\n"

    def render_dot(self) -> str:
        out = ["graph satake {", "  node [shape=circle];"]
        for n in self.nodes:
            attrs = f'label="{n.label}"'
            if n.filled:
                attrs += ", style=filled, fillcolor=black, fontcolor=white"
            out.append(f"  {n.label} [{attrs}];")
        for e in self.edges:
            attrs = []
            if e.bond > 1:
                attrs.append(f'label="{e.bond}"')
            if e.arrow_to is not None:
                attrs.append("dir=forward" if e.arrow_to == e.b else "dir=back")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            out.append(f"  {self.nodes[e.a].label} -- {self.nodes[e.b].label}{suffix};")
        for a, b in self.arrows:
            out.append(
                f"  {self.nodes[a].label} -- {self.nodes[b].label} "
                "[dir=both, style=dashed, constraint=false];"
            )
        out.append("}")
        return "\n".join(out) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "ascii":
            return self.render_ascii()
        if fmt == "dot":
            return self.render_dot()
        if fmt == "json":
            return self.to_json()
        raise IOFormatError(f"unknown format {fmt!r} (expected ascii|dot|json)")


def _path_order(diag: SatakeDiagram) -> Optional[List[int]]:
    n = len(diag.nodes)
    adj = diag._adjacency()
    if len(diag.edges) != n - 1:
        return None
    degs = sorted(len(v) for v in adj.values())
    if n > 1 and (degs[0] != 1 or degs[-1] > 2):
        return None
    ends = [k for k in range(n) if len(adj[k]) <= 1]
    start = min(ends) if ends else 0
    order = [start]
    prev = None
    cur = start
    while len(order) < n:
        nxts = [w for w in adj[cur] if w != prev]
        if not nxts:
            return None
        prev, cur = cur, nxts[0]
        order.append(cur)
    return order


# ---------------------------------------------------------------------------
# builders


def _bonds(cm: List[List[int]]) -> List[SatakeEdge]:
    """The Dynkin edges of a Cartan matrix, each arrow on the short root."""
    n = len(cm)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            bond = cm[i][j] * cm[j][i]
            if not bond:
                continue
            if bond not in (1, 2, 3):
                raise VerificationError(
                    f"bond multiplicity {bond}", witness={"pair": [i, j], "bond": bond}
                )
            arrow_to = None
            if bond > 1:
                # larger |<a_j, a_i^vee>| means a_i is the shorter root
                arrow_to = i if abs(cm[i][j]) > abs(cm[j][i]) else j
            edges.append(SatakeEdge(i, j, bond, arrow_to))
    return edges


def build_satake(
    datum: RootDatum,
    a_idx: Sequence[int],
    simple: List[Covector],
    meta: Optional[Dict[str, int]] = None,
) -> SatakeDiagram:
    """The diagram of `simple`, first certified a simple system of the roots."""
    roots = datum.root_set()
    verify_simple_basis(roots, simple)
    n = len(simple)
    labels = [f"a{k + 1}" for k in range(n)]
    cm = cartan_matrix(simple, roots)
    for i, row in enumerate(cm):
        for j, v in enumerate(row):
            if v not in (2, 0, -1, -2, -3):
                raise VerificationError(
                    f"Cartan integer {v} out of range",
                    witness={"entry": [i, j], "value": v},
                )
    restrictions = [restrict_covector(s, a_idx) for s in simple]
    nodes = [
        SatakeNode(labels[k], cov_is_zero(restrictions[k])) for k in range(n)
    ]
    edges = _bonds(cm)
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            if nodes[i].filled or nodes[j].filled:
                continue
            if restrictions[i] == restrictions[j]:
                arrows.append((i, j))
    black = sum(1 for nd in nodes if nd.filled)
    real_rank = len(a_idx)
    if n != real_rank + len(arrows) + black:
        raise VerificationError(
            f"rank identity fails: {n} != {real_rank} + {len(arrows)} + {black}",
            witness={"rank": n, "real_rank": real_rank,
                     "arrows": len(arrows), "black": black},
        )
    full_meta = {"real_rank": real_rank}
    if meta:
        full_meta.update(meta)
    return SatakeDiagram(nodes, edges, arrows, full_meta)


def compact_satake(diagram_type: str, meta: Optional[Dict[str, int]] = None) -> SatakeDiagram:
    """All-black diagram of the given type (compact-form convention)."""
    shapes = {
        "E6": (_E6_EDGES, 6, [1] * 5, [None] * 5),
        "F4": ([(0, 1), (1, 2), (2, 3)], 4, [1, 2, 1], [None, 2, None]),
    }
    if diagram_type not in shapes:
        raise VerificationError(
            f"no compact template for {diagram_type}", witness={"type": diagram_type}
        )
    pairs, n, bonds, arrow_to = shapes[diagram_type]
    nodes = [SatakeNode(f"a{k + 1}", True) for k in range(n)]
    edges = [
        SatakeEdge(a, b, bonds[k], arrow_to[k]) for k, (a, b) in enumerate(pairs)
    ]
    return SatakeDiagram(nodes, edges, [], {"real_rank": 0, **(meta or {})})


@dataclass
class RestrictedRow:
    label: str
    members: List[str]
    restriction: Covector
    m: int
    m2: int


@dataclass
class RestrictedTable:
    rows: List[RestrictedRow]
    bonds: List[SatakeEdge]
    sigma_type: str
    mult_sum: int

    def canonical_key(self):
        diag = SatakeDiagram(
            [SatakeNode(r.label, False) for r in self.rows], self.bonds, [], {}
        )
        dec = [(r.m, r.m2) for r in self.rows]
        return (self.sigma_type, self.mult_sum, diag.canonical_key(dec))

    def to_json_dict(self) -> dict:
        return {
            "sigma_type": self.sigma_type,
            "mult_sum": self.mult_sum,
            "rows": [
                {
                    "label": r.label,
                    "members": list(r.members),
                    "restriction": [x.to_str() for x in r.restriction],
                    "m": r.m,
                    "m2": r.m2,
                }
                for r in self.rows
            ],
            "bonds": [
                {"a": e.a, "b": e.b, "bond": e.bond}
                | ({"arrow_to": e.arrow_to} if e.arrow_to is not None else {})
                for e in self.bonds
            ],
        }

    def render_ascii(self) -> str:
        diag = SatakeDiagram(
            [SatakeNode(r.label, False) for r in self.rows], self.bonds, [], {}
        )
        lines = [f"restricted system: {self.sigma_type} (mult sum {self.mult_sum})"]
        lines.append(diag.render_ascii().rstrip("\n"))
        for r in self.rows:
            mem = "~".join(r.members)
            lines.append(f"  {r.label} ({mem}): m={r.m} m2={r.m2}")
        return "\n".join(lines) + "\n"


def build_restricted_table(
    datum: RootDatum,
    a_idx: Sequence[int],
    simple: List[Covector],
) -> RestrictedTable:
    n = len(simple)
    labels = [f"a{k + 1}" for k in range(n)]
    rmult = restricted_multiplicities(datum, a_idx)
    sigma = set(rmult)
    # group white simple roots by equal restriction, ordered by first member
    classes: List[Tuple[Covector, List[int]]] = []
    for k in range(n):
        r = restrict_covector(simple[k], a_idx)
        if cov_is_zero(r):
            continue
        for r0, members in classes:
            if r0 == r:
                members.append(k)
                break
        else:
            classes.append((r, [k]))
    bbar = [r for r, _ in classes]
    # a certified base: each r in bbar is a restricted root, so it has a
    # multiplicity, and is indivisible, since r/2 would have the simple
    # coordinate 1/2
    verify_simple_basis(sigma, bbar)
    two = Scalar(2)
    rows = [
        RestrictedRow(
            label=labels[members[0]],
            members=[labels[k] for k in members],
            restriction=r,
            m=rmult[r],
            m2=rmult.get(cov_scale(two, r), 0),
        )
        for r, members in classes
    ]
    bonds = _bonds(cartan_matrix(bbar, indivisible_roots(sigma)))
    sigma_type = classify_restricted(sigma, bbar)
    return RestrictedTable(rows, bonds, sigma_type, sum(rmult.values()))

