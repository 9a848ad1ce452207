"""Integer-partition combinatorics and symmetric-group character values.

Partitions are plain tuples of weakly decreasing positive integers.  Rim-hook
removal runs on beta sets as int masks (James-Kerber 2.7), and the
Murnaghan-Nakayama recursion gives each class's column of exact integer
character values from the column of the class with its first part removed.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate, islice
from operator import lt, sub

from .cyclotomic import check_int

__all__ = ["partitions_of", "remove_rim_hooks", "mn_value", "z_order", "class_column"]

PartitionT = tuple[int, ...]


def _parts(parts) -> PartitionT:
    """parts as a tuple, in the given order, each an int >= 1."""
    parts = tuple(parts)
    if {*map(type, parts)} - {int}:
        check_int(next(p for p in parts if type(p) is not int), "part")
    if parts and min(parts) < 1:
        raise ValueError(f"parts must be positive: {parts}")
    return parts


def check_partition(lam) -> PartitionT:
    lam = _parts(lam)
    if any(map(lt, lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def partitions_of(n: int) -> list[PartitionT]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last."""
    if check_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    out: list[PartitionT] = [()] if n == 0 else []
    lam = [n] if n else []
    while lam:
        out.append(tuple(lam))
        # the next one: lower the last part above 1 by one, then refill the
        # parts after it (the 1s and the unit taken) greedily below that part
        rest = 1
        while lam[-1] == 1 and len(lam) > 1:
            rest += lam.pop()
        if lam[-1] == 1:
            break
        lam[-1] -= 1
        part = lam[-1]
        lam += [part] * (rest // part) + ([rest % part] if rest % part else [])
    return out


def _beta(lam: PartitionT) -> int:
    # bit lam_i + m - 1 - i for each of the m parts
    return sum(1 << (p + len(lam) - 1 - i) for i, p in enumerate(lam))


def _strips(mask: int, l: int):
    """(new mask, leg length) for each l-rim-hook of a beta mask: a bead b
    moves to an empty b - l and the leg is the number of beads between."""
    between = (1 << (l - 1)) - 1
    movable = mask & ~(mask << l) & -(1 << l)
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        new = mask ^ (1 << b) ^ (1 << (b - l))
        while new & 1:  # a bead at 0 is a part that became zero
            new >>= 1
        yield new, (mask >> (b - l + 1) & between).bit_count()


@lru_cache(maxsize=None)
def _index(k: int) -> dict[int, int]:
    """Beta mask -> position in partitions_of(k)."""
    return {_beta(lam): i for i, lam in enumerate(partitions_of(k))}


@lru_cache(maxsize=None)
def _hooks(k: int, l: int) -> tuple[tuple[int, ...], ...]:
    """Flat tables of the l-rim-hooks of every lam of k, in partitions_of order:
    the positions in partitions_of(k - l) of lam minus a hook of even leg, the
    run boundaries of each lam in them (starting at 0, p(k) + 1 of them), and
    the same two for odd legs."""
    at = _index(k - l)
    flat, ends = ([], []), ([0], [0])
    for mask in _index(k):
        for new, leg in _strips(mask, l):
            flat[leg & 1].append(at[new])
        for run, end in zip(flat, ends):
            end.append(len(run))
    return tuple(flat[0]), tuple(ends[0]), tuple(flat[1]), tuple(ends[1])


# mu -> _column(mu), for every mu a column was asked for or built from;
# build_symmetric asks for class_column, so a build caches only the suffixes
_columns: dict[PartitionT, tuple[int, ...]] = {(): (1,)}


def class_column(mu: PartitionT) -> tuple[int, ...]:
    """chi^lam(mu) for every lam of |mu| in partitions_of order; mu canonical
    and nonempty.  Built from the cached column of mu[1:] and not cached
    itself.  With E and O the prefix sums of that column over the even- and
    odd-leg positions of _hooks, the i-th lam's value is net[i + 1] - net[i],
    where net[i] = E[even_ends[i]] - O[odd_ends[i]]."""
    col = _column(mu[1:]).__getitem__
    even, even_ends, odd, odd_ends = _hooks(sum(mu), mu[0])
    plus = list(accumulate(map(col, even), initial=0)).__getitem__
    minus = list(accumulate(map(col, odd), initial=0)).__getitem__
    net = list(map(sub, map(plus, even_ends), map(minus, odd_ends)))
    return tuple(map(sub, islice(net, 1, None), net))


def _column(mu: PartitionT) -> tuple[int, ...]:
    """class_column(mu), cached in _columns."""
    column = _columns.get(mu)
    if column is None:
        column = _columns[mu] = class_column(mu)
    return column


def remove_rim_hooks(lam, l: int) -> list[tuple[PartitionT, int]]:
    """All removals of a size-l rim hook from lam, as (resulting partition,
    leg length) pairs; empty if no such strip exists."""
    if check_int(l, "strip size") < 1:
        raise ValueError("strip size must be >= 1")
    out = []
    for new, leg in _strips(_beta(check_partition(lam)), l):
        # the part at bead b is the number of empty positions below b
        beads = [b for b in range(new.bit_length()) if new >> b & 1]
        out.append((tuple(b - i for i, b in enumerate(beads))[::-1], leg))
    return out


def mn_value(lam, mu) -> int:
    """Exact symmetric-group character value chi^lam at cycle type mu.

    One query builds and caches the whole column of mu (p(|mu|) values), the
    columns of its suffixes and the hook tables behind them: the rest of the
    column is then free, but one value of a large S_n costs whole columns
    (n = 40: about 2 s and 93 MB)."""
    lam = check_partition(lam)
    # mu may arrive in any part order (class functions do not care); sort it
    mu = tuple(sorted(_parts(mu), reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError(f"lam and mu must partition the same n: {lam} vs {mu}")
    return _column(mu)[_index(sum(lam))[_beta(lam)]]


def z_order(mu) -> int:
    """Centralizer order of a permutation of cycle type mu: prod i^m_i * m_i!."""
    return math.prod(i**m * math.factorial(m) for i, m in Counter(check_partition(mu)).items())
