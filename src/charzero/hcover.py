"""Minimum class covers: the exact optimization behind the H_k property.

Each nonlinear character is the set of classes it vanishes on; a cover is a
hitting set.  The solver is exact branch-and-bound with a greedy upper bound
and a pairwise-disjoint-rows lower bound, with deterministic tie-breaking so
witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartable import CharacterTable
from .vanishing import ZeroPattern, zero_pattern

__all__ = [
    "CoverResult",
    "NoCoverError",
    "min_cover",
    "check_cover",
    "pair_cover_product",
    "COVER_FLAGS",
    "conjecture_report",
]


class NoCoverError(RuntimeError):
    """Some nonlinear character vanishes nowhere; no cover exists."""


@dataclass(frozen=True)
class CoverResult:
    k_min: int
    witness: tuple[int, ...]  # class indices, sorted
    explored_nodes: int
    proof_lb: int


def _rows_as_sets(p: ZeroPattern) -> list[frozenset[int]]:
    return [frozenset(c for c in range(p.n_cols) if row[c]) for row in p.zeros]


def _greedy_cover(rows: list[frozenset[int]], n_cols: int) -> list[int]:
    chosen: list[int] = []
    left = list(rows)
    while left:
        counts = [0] * n_cols
        for r in left:
            for c in r:
                counts[c] += 1
        best = max(range(n_cols), key=lambda c: (counts[c], -c))
        chosen.append(best)
        left = [r for r in left if best not in r]
    return chosen


def _disjoint_lower_bound(rows: list[frozenset[int]]) -> int:
    # A family of pairwise-disjoint rows needs one class each.
    picked: list[frozenset[int]] = []
    used: set[int] = set()
    for r in sorted(rows, key=lambda s: (len(s), sorted(s))):
        if used.isdisjoint(r):
            picked.append(r)
            used |= r
    return len(picked)


def min_cover(p: ZeroPattern) -> CoverResult:
    """Exact minimum set of classes hitting every nonlinear character's zero
    set, with a certified-optimal witness."""
    rows = _rows_as_sets(p)
    if not rows:
        return CoverResult(0, (), 0, 0)
    if any(not r for r in rows):
        raise NoCoverError(f"a nonlinear character of {p.table_ref} never vanishes")

    n_cols = p.n_cols
    best = _greedy_cover(rows, n_cols)
    root_lb = _disjoint_lower_bound(rows)
    nodes = 0

    coverage = [0] * n_cols
    for r in rows:
        for c in r:
            coverage[c] += 1

    def branch(left: list[frozenset[int]], chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if not left:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + _disjoint_lower_bound(left) >= len(best):
            return
        # branch on the row with fewest options, columns by coverage count
        row = min(left, key=lambda r: (len(r), sorted(r)))
        for c in sorted(row, key=lambda c: (-coverage[c], c)):
            branch([r for r in left if c not in r], chosen + [c])

    branch(rows, [])
    return CoverResult(len(best), tuple(sorted(best)), nodes, root_lb)


def check_cover(p: ZeroPattern, cover) -> tuple[bool, list[int]]:
    """True iff every nonlinear character vanishes on some class in `cover`;
    also returns the character indices left uncovered."""
    cols = set(cover)
    uncovered = [
        p.nonlinear_idx[r]
        for r, row in enumerate(p.zeros)
        if not any(row[c] for c in cols)
    ]
    return (not uncovered, uncovered)


def pair_cover_product(
    cover_a,
    cover_b,
    a: CharacterTable,
    b: CharacterTable,
) -> list[int]:
    """Pair covers of the factors into a cover of the direct product: class
    (i, j) of A x B has index i * #classes(B) + j.  The smaller cover is
    padded by repeating its last element."""
    ca, cb = sorted(cover_a), sorted(cover_b)
    if not ca or not cb:
        if a.nonlinear_indices() or b.nonlinear_indices():
            raise ValueError(
                "cannot pair an empty cover when the product has nonlinear characters"
            )
        return []
    k = max(len(ca), len(cb))
    ca = ca + [ca[-1]] * (k - len(ca))
    cb = cb + [cb[-1]] * (k - len(cb))
    width = len(b.classes)
    return [ia * width + ib for ia, ib in zip(ca, cb)]


# The k_min flags: (report id, verify text, predicate on (metadata, k_min)).
# The verify text is formatted with k = k_min and m = the metadata.
COVER_FLAGS = (
    ("conjecture-1a-counterexample", "k_min={k}>3 (conjecture 1a counterexample)",
     lambda m, k: k > 3),
    ("conjecture-1b-counterexample", "solvable with k_min={k}>2 (conjecture 1b)",
     lambda m, k: m.solvable and k > 2),
    ("r-bound-violated-bad-data", "k_min={k} exceeds r(G)={m.r_value}",
     lambda m, k: m.r_value is not None and k > m.r_value),
    ("simple-h3-violated-bad-data", "simple group with k_min={k}>3",
     lambda m, k: m.simple and k > 3),
)


def conjecture_report(corpus: list[CharacterTable]) -> dict:
    """Per-table minimum covers with the COVER_FLAGS ids they raise.  The
    report only ever records the absence of counterexamples in the corpus."""
    entries = []
    for t in corpus:
        p = zero_pattern(t)
        result = min_cover(p)
        entries.append(
            {
                "group": t.group_name,
                "order": t.order,
                "n_classes": len(t.classes),
                "n_nonlinear": p.n_rows,
                "k_min": result.k_min,
                "witness": [t.classes[c].name for c in result.witness],
                "flags": [
                    name for name, _, holds in COVER_FLAGS if holds(t.metadata, result.k_min)
                ],
            }
        )
    return {"tables": entries, "clean": not any(e["flags"] for e in entries)}
