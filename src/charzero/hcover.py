"""Minimum class covers: the exact optimization behind the H_k property.

Each nonlinear character is the row mask of the classes it vanishes on; a
cover is a hitting set.  The solver is exact branch-and-bound with a greedy
upper bound and a pairwise-disjoint-rows lower bound, with deterministic
tie-breaking so witnesses are reproducible.
"""

from __future__ import annotations

from collections import namedtuple

from .chartable import CharacterTable
from .vanishing import ZeroPattern, bits, zero_pattern

__all__ = [
    "CoverResult",
    "NoCoverError",
    "min_cover",
    "check_cover",
    "pair_cover_product",
    "cover_flags",
    "conjecture_report",
]


class NoCoverError(RuntimeError):
    """Some nonlinear character vanishes nowhere; no cover exists."""


CoverResult = namedtuple("CoverResult", "k_min witness explored_nodes proof_lb")
CoverResult.__doc__ = "witness: the class indices of a minimum cover, sorted."


def _greedy_cover(p: ZeroPattern) -> list[int]:
    chosen: list[int] = []
    left = (1 << p.n_rows) - 1  # the rows not yet hit
    while left:
        best = max(range(p.n_cols), key=lambda c: ((p.cols[c] & left).bit_count(), -c))
        chosen.append(best)
        left &= ~p.cols[best]
    return chosen


def _disjoint_lower_bound(rows: list[int]) -> int:
    # A family of pairwise-disjoint rows needs one class each; rows come
    # sorted by (popcount, bit list), the order the greedy packing takes.
    picked = used = 0
    for r in rows:
        if not r & used:
            picked += 1
            used |= r
    return picked


def min_cover(p: ZeroPattern) -> CoverResult:
    """Exact minimum set of classes hitting every nonlinear character's zero
    set, with a certified-optimal witness."""
    if not p.rows:
        return CoverResult(0, (), 0, 0)
    if not all(p.rows):
        raise NoCoverError(f"a nonlinear character of {p.table_ref} never vanishes")

    # Every filtered list keeps this order, so the row with fewest options
    # is always the first.
    rows = sorted(p.rows, key=lambda r: (r.bit_count(), bits(r)))
    best = _greedy_cover(p)
    root_lb = _disjoint_lower_bound(rows)
    nodes = 0
    coverage = [col.bit_count() for col in p.cols]

    def branch(left: list[int], chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if not left:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + _disjoint_lower_bound(left) >= len(best):
            return
        # branch on the row with fewest options, columns by coverage count
        for c in sorted(bits(left[0]), key=lambda c: (-coverage[c], c)):
            bit = 1 << c
            branch([r for r in left if not r & bit], chosen + [c])

    branch(rows, [])
    return CoverResult(len(best), tuple(sorted(best)), nodes, root_lb)


def check_cover(p: ZeroPattern, cover) -> tuple[bool, list[int]]:
    """True iff every nonlinear character vanishes on some class in `cover`;
    also returns the character indices left uncovered."""
    mask = sum(1 << c for c in set(cover))
    uncovered = [p.nonlinear_idx[r] for r, row in enumerate(p.rows) if not row & mask]
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


def cover_flags(m, k_min: int) -> list[tuple[str, str]]:
    """The k_min flags a table with metadata m raises, as (report id,
    verify text) pairs in a fixed order."""
    k = k_min
    flags = (
        ("conjecture-1a-counterexample", f"k_min={k}>3 (conjecture 1a counterexample)", k > 3),
        ("conjecture-1b-counterexample", f"solvable with k_min={k}>2 (conjecture 1b)",
         m.solvable and k > 2),
        ("r-bound-violated-bad-data", f"k_min={k} exceeds r(G)={m.r_value}",
         m.r_value is not None and k > m.r_value),
        ("simple-h3-violated-bad-data", f"simple group with k_min={k}>3", m.simple and k > 3),
    )
    return [(name, text) for name, text, holds in flags if holds]


def conjecture_report(corpus: list[CharacterTable]) -> dict:
    """Per-table minimum covers with the cover_flags ids they raise.  The
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
                "flags": [name for name, _ in cover_flags(t.metadata, result.k_min)],
            }
        )
    return {"tables": entries, "clean": not any(e["flags"] for e in entries)}
