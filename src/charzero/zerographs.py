"""The three zero graphs: common-zero graph on characters (Gamma_v), the
vanishing-class graph (Delta_v), and the bipartite character-class graph
(Theta), with the metadata-gated bound checks and exact independence numbers,
each with the independent set its own search found.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import or_

from .chartable import CharacterTable, metadata_invalid
from .vanishing import ZeroPattern, bits, transpose

__all__ = [
    "SimpleGraph",
    "BipartiteGraph",
    "GraphTooLargeError",
    "gamma_v",
    "delta_v",
    "theta",
    "components",
    "independence_number",
    "bound_flags",
    "bound_checks",
    "to_dot",
    "bipartite_to_dot",
]


class GraphTooLargeError(RuntimeError):
    pass


class SimpleGraph(namedtuple("SimpleGraph", "vertices adjacency")):
    """adjacency: neighbour masks, bit j of adjacency[i] iff i -- j.  __new__
    checks them, and _make, hence _replace, goes through __new__."""

    __slots__ = ()

    def __new__(cls, vertices, adjacency):
        n = len(vertices)
        for i, nbrs in enumerate(adjacency):
            if nbrs >> n:
                raise ValueError("adjacency has a bit beyond the last vertex")
            if nbrs >> i & 1:
                raise ValueError("no loops allowed")
        if len(adjacency) != n or transpose(adjacency, n) != tuple(adjacency):
            raise ValueError("adjacency must be symmetric, one mask per vertex")
        return super().__new__(cls, vertices, adjacency)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


BipartiteGraph = namedtuple("BipartiteGraph", "left right edges")
BipartiteGraph.__doc__ = """left: nonlinear characters; right: non-central classes;
edges: left x right."""


def _common_zero_graph(names, masks, transposed) -> SimpleGraph:
    """Vertex i -- j iff masks[i] & masks[j]; transposed[b] holds the
    vertices whose mask has bit b."""
    column = transposed.__getitem__
    adjacency = [reduce(or_, map(column, bits(m)), 0) & ~(1 << i) for i, m in enumerate(masks)]
    return SimpleGraph(tuple(names), tuple(adjacency))


def gamma_v(p: ZeroPattern) -> SimpleGraph:
    """Vertices: nonlinear characters; edge iff the two rows share a zero class."""
    return _common_zero_graph(p.row_names, p.rows, p.cols)


def delta_v(p: ZeroPattern) -> SimpleGraph:
    """Vertices: vanishing classes; edge iff some character vanishes on both."""
    cols = bits(p.vanishing)
    masks = [p.cols[c] for c in cols]
    return _common_zero_graph([p.col_names[c] for c in cols], masks, transpose(masks, p.n_rows))


def theta(t: CharacterTable, p: ZeroPattern) -> BipartiteGraph:
    """Bipartite graph: nonlinear characters vs non-central classes, edges at
    zeros.  Isolated right vertices (non-vanishing classes) are kept."""
    right_cols = bits(p.noncentral)
    return BipartiteGraph(
        left=p.row_names,
        right=tuple(p.col_names[c] for c in right_cols),
        edges=tuple(tuple(map(zeros.__contains__, right_cols)) for zeros in map(set, map(bits, p.rows))),
    )


def components(g: SimpleGraph) -> list[list[int]]:
    """Connected components as sorted vertex-index lists, ordered by their
    smallest vertex."""
    comps = []
    unseen = (1 << len(g.vertices)) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            frontier = reduce(or_, map(g.adjacency.__getitem__, bits(frontier)), 0) & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(bits(comp))
    return comps


def _color_order(comp: list[int], cand: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set in the graph of neighbour masks
    comp: the vertices with their color numbers, colors ascending."""
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


def _clique_at_least(comp: list[int], cand: int, need: int) -> list[int] | None:
    """A clique of `need` vertices inside cand in the graph of neighbour masks
    comp, as a vertex list, or None.  A module-level function, not a closure
    that calls itself, so a call leaves no reference cycle."""
    if need <= 0:
        return []
    order, colors = _color_order(comp, cand)
    for idx in range(len(order) - 1, -1, -1):
        if colors[idx] < need:
            return None
        v = order[idx]
        clique = _clique_at_least(comp, cand & comp[v], need - 1)
        if clique is not None:
            return clique + [v]
        cand &= ~(1 << v)
    return None


def independence_number(
    g: SimpleGraph, limit: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set: max clique on the complement via
    branch-and-bound with a greedy coloring bound.  The witness, sorted, is
    the set the last successful decision search returned, or the greedy set
    if none succeeded; only the greedy set is sure to be lexicographically least.
    `limit` and GraphTooLargeError are kept only because bench/make_golden.py
    passes limit=10**6; nothing in charzero passes a limit."""
    n = len(g.vertices)
    if limit is not None and n > limit:
        raise GraphTooLargeError(f"{n} vertices exceeds the exact-solver bound {limit}")

    full = (1 << n) - 1
    # complement-graph neighbourhoods
    comp = [full & ~nbrs & ~(1 << i) for i, nbrs in enumerate(g.adjacency)]

    # the greedy independent set (lowest vertex first, drop its neighbours)
    # is the first witness; each search for one vertex more may replace it
    best, cand = [], full
    while cand:
        v = (cand & -cand).bit_length() - 1
        best.append(v)
        cand &= comp[v]
    while (larger := _clique_at_least(comp, full, len(best) + 1)) is not None:
        best = larger
    return len(best), tuple(sorted(best))


def bound_flags(m, alpha: int, ncomp: int) -> list[str]:
    """The Gamma_v flag ids a table with metadata m raises, in a fixed
    order, given alpha(Gamma_v) and the number of components of Gamma_v.
    Metadata that validate refuses raises only chartable.metadata_invalid(m)."""
    flags = (
        ("fitting-height-bound-violated-bad-data",
         m.fitting_height is not None and alpha > m.fitting_height),
        ("abelian-by-metanilpotent-bound-violated-bad-data",
         m.abelian_by_metanilpotent and alpha > 2),
        ("conjecture-2a-counterexample", alpha > 3),
        ("conjecture-2b-counterexample", m.solvable and alpha > 2),
        ("components-conjecture-counterexample", ncomp > 3),
        ("solvable-components-bound-violated", m.solvable and ncomp > 2),
    )
    return metadata_invalid(m) or [name for name, holds in flags if holds]


def bound_checks(t: CharacterTable, p: ZeroPattern) -> list[str]:
    """The bound_flags ids a table raises: solvable bounds, the
    abelian-by-metanilpotent bound, the fitting-height bound, and the
    at-most-three-components conjecture.  Empty list = nothing flagged."""
    g = gamma_v(p)
    return bound_flags(t.metadata, independence_number(g)[0], len(components(g)))


def _quote(name: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, vertices, edges, annotations: dict[str, str] | None) -> str:
    """DOT text; edges are index pairs into vertices."""
    quoted = [_quote(v) for v in vertices]
    lines = [f"graph {name} {{"]
    for v, q in zip(vertices, quoted):
        note = annotations.get(v) if annotations else None
        label = f" [label={_quote(f'{v} {note}')}]" if note else ""
        lines.append(f"  {q}{label};")
    lines += [f"  {quoted[a]} -- {quoted[b]};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(g: SimpleGraph, name: str, annotations: dict[str, str] | None = None) -> str:
    """DOT text with deterministic vertex ordering (table order)."""
    edges = [(i, i + 1 + j) for i, nbrs in enumerate(g.adjacency) for j in bits(nbrs >> i + 1)]
    return _dot(name, g.vertices, edges, annotations)


def bipartite_to_dot(
    g: BipartiteGraph, name: str, annotations: dict[str, str] | None = None
) -> str:
    n = len(g.left)
    edges = [(i, n + j) for i, row in enumerate(g.edges) for j, e in enumerate(row) if e]
    return _dot(name, g.left + g.right, edges, annotations)
