"""Zero-pattern extraction and element-level classifications.

The ZeroPattern is the incidence of zeros (nonlinear characters x all
classes) that everything downstream -- covers, graphs, Camina/central-type
detection -- works from.  Each nonlinear character is one int row mask: bit
c is set iff its exact value on class c is zero.  `cols` holds the
transposed masks, bit r of column c set iff row r vanishes on class c;
`vanishing` and `noncentral` are the class masks the checks and graphs read.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import compress, count
from operator import and_, or_

from .chartable import CharacterTable
from .cyclotomic import is_prime_power

__all__ = [
    "ZeroPattern",
    "DataIntegrityError",
    "zero_pattern",
    "vanishing_classes",
    "nonvanishing_classes",
    "burnside_check",
    "prime_power_check",
    "camina_classes",
    "central_type_characters",
    "pattern_to_json",
]


class DataIntegrityError(RuntimeError):
    """A theorem-level equivalence failed on supposedly validated data."""


# bin() digits as selector bytes for compress: b"0" -> 0, b"1" -> 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative mask, ascending."""
    if mask < 0:
        raise ValueError(f"bits needs a nonnegative mask, got {mask}")
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def transpose(masks, width: int) -> tuple[int, ...]:
    """width masks, bit i of mask j set iff bit j of masks[i] is: each mask
    becomes one bit string (character j is bit j) and zip reads the columns."""
    if not masks:
        return (0,) * width
    rows = [format(mask, f"0{width}b")[::-1] for mask in masks]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*rows))


class ZeroPattern(
    namedtuple("ZeroPattern", "table_ref nonlinear_idx class_sizes rows row_names col_names")
):
    """rows: one mask per nonlinear character, bit c = zero at class c.  No
    __slots__: the cached masks live in the instance __dict__."""

    def __setattr__(self, name, value):
        raise AttributeError(f"ZeroPattern is immutable; cannot set {name!r}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """One mask per class: bit r is set iff row r vanishes there."""
        return transpose(self.rows, self.n_cols)

    @cached_property
    def vanishing(self) -> int:
        """Bit c is set iff some row vanishes on class c."""
        return reduce(or_, self.rows, 0)

    @cached_property
    def noncentral(self) -> int:
        """Bit c is set iff class c has more than one element."""
        return sum(1 << c for c, size in enumerate(self.class_sizes) if size > 1)


def zero_pattern(t: CharacterTable) -> ZeroPattern:
    # zero iff no coefficient is nonzero, as in Cyclotomic.is_zero, without its call
    nonlin = tuple(t.nonlinear_indices())
    return ZeroPattern(
        table_ref=t.group_name,
        nonlinear_idx=nonlin,
        class_sizes=tuple(c.size for c in t.classes),
        rows=tuple(
            sum(1 << c for c, v in enumerate(t.characters[r].values) if not any(v.coeffs))
            for r in nonlin
        ),
        row_names=tuple(t.characters[r].name for r in nonlin),
        col_names=tuple(c.name for c in t.classes),
    )


def vanishing_classes(p: ZeroPattern) -> set[int]:
    """Classes on which at least one nonlinear character vanishes."""
    return set(bits(p.vanishing))


def nonvanishing_classes(p: ZeroPattern) -> set[int]:
    """Non-central classes (size > 1) on which no nonlinear character vanishes."""
    return set(bits(p.noncentral & ~p.vanishing))


def burnside_check(p: ZeroPattern) -> tuple[bool, list[int]]:
    """Every nonlinear character must vanish somewhere (Burnside); returns
    (ok, character indices of violating rows)."""
    violations = [p.nonlinear_idx[r] for r, row in enumerate(p.rows) if not row]
    return (not violations, violations)


def prime_power_check(t: CharacterTable, p: ZeroPattern) -> tuple[bool, list[int]]:
    """Every nonlinear character must vanish on some class of prime-power
    element order (the MNO property)."""
    pp = sum(1 << c for c in range(p.n_cols) if is_prime_power(t.classes[c].element_order))
    violations = [p.nonlinear_idx[r] for r, row in enumerate(p.rows) if not row & pp]
    return (not violations, violations)


def camina_classes(t: CharacterTable, p: ZeroPattern) -> set[int]:
    """Classes where every nonlinear character vanishes.  The equivalent
    centralizer-size criterion |C_G(g)| = |G:G'| (class size = |G'|) is
    asserted against the column test; disagreement means corrupt data."""
    if p.n_rows == 0:
        return set()
    by_column = set(bits(reduce(and_, p.rows)))
    derived = t.derived_order
    by_size = {c for c in range(p.n_cols) if t.classes[c].size == derived}
    if by_column != by_size:
        raise DataIntegrityError(
            f"Camina definitions disagree on {t.group_name}: "
            f"column test {sorted(by_column)} vs size test {sorted(by_size)}"
        )
    return by_column


def central_type_characters(t: CharacterTable, p: ZeroPattern) -> set[int]:
    """Nonlinear characters vanishing on every non-central class."""
    return {p.nonlinear_idx[r] for r, row in enumerate(p.rows) if row & p.noncentral == p.noncentral}


def pattern_to_json(p: ZeroPattern) -> dict:
    return {
        "rows": list(p.row_names),
        "cols": list(p.col_names),
        "zeros": [[row >> c & 1 for c in range(p.n_cols)] for row in p.rows],
    }
