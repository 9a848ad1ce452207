"""Minimum class covers: the exact optimization behind the H_k property.

Each nonlinear character is the row mask of the classes it vanishes on; a
cover is a hitting set.  The solver is exact branch-and-bound with a greedy
upper bound and a pairwise-disjoint-rows lower bound, with deterministic
tie-breaking so witnesses are reproducible.
"""

from __future__ import annotations

from collections import namedtuple

from .chartable import metadata_invalid
from .vanishing import ZeroPattern, bits

__all__ = ["CoverResult", "NoCoverError", "min_cover", "check_cover", "cover_flags"]


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

    # depth first from a stack of (rows left, classes chosen), so no
    # function refers to itself and a call leaves no reference cycle
    stack = [(rows, [])]
    while stack:
        left, chosen = stack.pop()
        nodes += 1
        if not left:
            if len(chosen) < len(best):
                best = sorted(chosen)
            continue
        if len(chosen) + _disjoint_lower_bound(left) >= len(best):
            continue
        # branch on the row with fewest options, columns by coverage count;
        # pushed in reverse so that the first column is explored first
        order = sorted(bits(left[0]), key=lambda c: (-coverage[c], c))
        stack += [([r for r in left if not r & 1 << c], chosen + [c]) for c in reversed(order)]
    return CoverResult(len(best), tuple(sorted(best)), nodes, root_lb)


def check_cover(p: ZeroPattern, cover) -> tuple[bool, list[int]]:
    """True iff every nonlinear character vanishes on some class in `cover`;
    also returns the character indices left uncovered."""
    mask = sum(1 << c for c in set(cover))
    uncovered = [p.nonlinear_idx[r] for r, row in enumerate(p.rows) if not row & mask]
    return (not uncovered, uncovered)


def cover_flags(m, k_min: int) -> list[str]:
    """The verify texts of the k_min flags a table with metadata m raises,
    in a fixed order.  Metadata that validate refuses raises only
    chartable.metadata_invalid(m)."""
    flags = (
        (f"k_min={k_min}>3 (conjecture 1a counterexample)", k_min > 3),
        (f"solvable with k_min={k_min}>2 (conjecture 1b)", m.solvable and k_min > 2),
        (f"k_min={k_min} exceeds r(G)={m.r_value}", m.r_value is not None and k_min > m.r_value),
        (f"simple group with k_min={k_min}>3", m.simple and k_min > 3),
    )
    return metadata_invalid(m) or [text for text, holds in flags if holds]
