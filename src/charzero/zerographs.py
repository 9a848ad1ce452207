"""The three zero graphs: common-zero graph on characters (Gamma_v), the
vanishing-class graph (Delta_v), and the bipartite character-class graph
(Theta), with exact independence numbers and the metadata-gated bound checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartable import CharacterTable
from .vanishing import ZeroPattern

__all__ = [
    "SimpleGraph",
    "BipartiteGraph",
    "GraphTooLargeError",
    "gamma_v",
    "delta_v",
    "theta",
    "components",
    "independence_number",
    "BOUND_FLAGS",
    "bound_checks",
    "to_dot",
    "bipartite_to_dot",
    "MAX_EXACT_VERTICES",
]

# Practical exact-solver bound; the largest corpus instance (Delta_v of the
# dihedral group of order 256) has 65 vertices.
MAX_EXACT_VERTICES = 96


class GraphTooLargeError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimpleGraph:
    vertices: tuple[str, ...]
    adjacency: tuple[tuple[bool, ...], ...]  # symmetric, loop-free

    def __post_init__(self):
        n = len(self.vertices)
        for i in range(n):
            if self.adjacency[i][i]:
                raise ValueError("no loops allowed")
            for j in range(i):
                if self.adjacency[i][j] != self.adjacency[j][i]:
                    raise ValueError("adjacency must be symmetric")


@dataclass(frozen=True)
class BipartiteGraph:
    left: tuple[str, ...]  # nonlinear characters
    right: tuple[str, ...]  # non-central classes
    edges: tuple[tuple[bool, ...], ...]  # left x right


def _simple_graph(labels, adjacency) -> SimpleGraph:
    return SimpleGraph(tuple(labels), tuple(tuple(row) for row in adjacency))


def gamma_v(p: ZeroPattern) -> SimpleGraph:
    """Vertices: nonlinear characters; edge iff the two rows share a zero class."""
    rows = [frozenset(c for c in range(p.n_cols) if row[c]) for row in p.zeros]
    n = len(rows)
    adj = [[i != j and not rows[i].isdisjoint(rows[j]) for j in range(n)] for i in range(n)]
    return _simple_graph(p.row_names, adj)


def delta_v(p: ZeroPattern) -> SimpleGraph:
    """Vertices: vanishing classes; edge iff some character vanishes on both."""
    cols = sorted(c for c in range(p.n_cols) if any(row[c] for row in p.zeros))
    colsets = [frozenset(r for r, row in enumerate(p.zeros) if row[c]) for c in cols]
    n = len(cols)
    adj = [
        [i != j and not colsets[i].isdisjoint(colsets[j]) for j in range(n)]
        for i in range(n)
    ]
    return _simple_graph((p.col_names[c] for c in cols), adj)


def theta(t: CharacterTable, p: ZeroPattern) -> BipartiteGraph:
    """Bipartite graph: nonlinear characters vs non-central classes, edges at
    zeros.  Isolated right vertices (non-vanishing classes) are kept."""
    right_cols = [c for c in range(p.n_cols) if p.class_sizes[c] > 1]
    edges = tuple(tuple(row[c] for c in right_cols) for row in p.zeros)
    return BipartiteGraph(
        left=p.row_names,
        right=tuple(p.col_names[c] for c in right_cols),
        edges=edges,
    )


def components(g: SimpleGraph) -> list[list[int]]:
    """Connected components as sorted vertex-index lists, ordered by their
    smallest vertex."""
    n = len(g.vertices)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if g.adjacency[v][w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def independence_number(
    g: SimpleGraph, limit: int = MAX_EXACT_VERTICES
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set: max clique on the complement via
    branch-and-bound with a greedy coloring bound.  Deterministic witness."""
    n = len(g.vertices)
    if n > limit:
        raise GraphTooLargeError(f"{n} vertices exceeds the exact-solver bound {limit}")
    if n == 0:
        return 0, ()

    full = (1 << n) - 1
    # complement-graph neighborhoods as bitmasks
    comp = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and not g.adjacency[i][j]:
                mask |= 1 << j
        comp.append(mask)

    best_size = 0

    def color_order(cand: int):
        # greedy coloring of the candidate set; returns vertices with their
        # color numbers, colors ascending
        order, colors = [], []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v)
                avail &= ~comp[v]
                left &= ~(1 << v)
                order.append(v)
                colors.append(color)
        return order, colors

    def expand(depth: int, cand: int):
        nonlocal best_size
        order, colors = color_order(cand)
        for idx in range(len(order) - 1, -1, -1):
            if depth + colors[idx] <= best_size:
                return
            v = order[idx]
            nxt = cand & comp[v]
            if nxt:
                expand(depth + 1, nxt)
            elif depth + 1 > best_size:
                best_size = depth + 1
            cand &= ~(1 << v)

    def clique_at_least(cand: int, need: int) -> bool:
        if need <= 0:
            return True
        order, colors = color_order(cand)
        if not order or colors[-1] < need:
            return False
        for idx in range(len(order) - 1, -1, -1):
            if colors[idx] < need:
                return False
            v = order[idx]
            if clique_at_least(cand & comp[v], need - 1):
                return True
            cand &= ~(1 << v)
        return False

    expand(0, full)

    # lexicographically smallest witness of the optimal size
    witness: list[int] = []
    cand = full
    for v in range(n):
        if len(witness) == best_size:
            break
        if cand & (1 << v) and clique_at_least(cand & comp[v], best_size - len(witness) - 1):
            witness.append(v)
            cand &= comp[v]
    return best_size, tuple(witness)


# The Gamma_v flags: (id, predicate on (metadata, alpha(Gamma_v), number of
# components of Gamma_v)).
BOUND_FLAGS = (
    ("fitting-height-bound-violated-bad-data",
     lambda m, alpha, ncomp: m.fitting_height is not None and alpha > m.fitting_height),
    ("abelian-by-metanilpotent-bound-violated-bad-data",
     lambda m, alpha, ncomp: m.abelian_by_metanilpotent and alpha > 2),
    ("conjecture-2a-counterexample", lambda m, alpha, ncomp: alpha > 3),
    ("conjecture-2b-counterexample", lambda m, alpha, ncomp: m.solvable and alpha > 2),
    ("components-conjecture-counterexample", lambda m, alpha, ncomp: ncomp > 3),
    ("solvable-components-bound-violated", lambda m, alpha, ncomp: m.solvable and ncomp > 2),
)


def bound_checks(t: CharacterTable, p: ZeroPattern) -> list[str]:
    """The BOUND_FLAGS ids a table raises: solvable bounds, the
    abelian-by-metanilpotent bound, the fitting-height bound, and the
    at-most-three-components conjecture.  Empty list = nothing flagged."""
    m = t.metadata
    if m.fitting_height is not None and m.fitting_height < 1:
        return ["metadata-invalid:fitting_height"]
    g = gamma_v(p)
    alpha, _ = independence_number(g)
    ncomp = len(components(g))
    return [name for name, holds in BOUND_FLAGS if holds(m, alpha, ncomp)]


def to_dot(g: SimpleGraph, name: str, annotations: dict[str, str] | None = None) -> str:
    """DOT text with deterministic vertex ordering (table order)."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        note = annotations.get(v) if annotations else None
        if note:
            lines.append(f'  "{v}" [label="{v} {note}"];')
        else:
            lines.append(f'  "{v}";')
    n = len(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if g.adjacency[i][j]:
                lines.append(f'  "{g.vertices[i]}" -- "{g.vertices[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def bipartite_to_dot(
    g: BipartiteGraph, name: str, annotations: dict[str, str] | None = None
) -> str:
    lines = [f"graph {name} {{"]
    for v in list(g.left) + list(g.right):
        note = annotations.get(v) if annotations else None
        if note:
            lines.append(f'  "{v}" [label="{v} {note}"];')
        else:
            lines.append(f'  "{v}";')
    for i, l in enumerate(g.left):
        for j, r in enumerate(g.right):
            if g.edges[i][j]:
                lines.append(f'  "{l}" -- "{r}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
