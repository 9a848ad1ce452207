"""One analysis per table: the facts every report gives about a table.

`TableAnalysis(t)` computes each fact on first use and at most once: the
zero pattern, the minimum cover, Gamma_v, Delta_v and Theta, the component
counts and independence numbers of Gamma_v and Delta_v, the vanishing,
non-vanishing, Camina and central-type sets, and the flag texts of `verify`.

Every layer function is called through its module (`vanishing.zero_pattern`,
not a name imported from it), so a tracer or a test that rebinds a module's
function sees every call made from here.
"""

from __future__ import annotations

from functools import cached_property

from . import hcover, vanishing, zerographs
from .chartable import CharacterTable

__all__ = ["ALL_CHECKS", "TableAnalysis"]

ALL_CHECKS = ("burnside", "mno", "camina", "hmm-components", "covers", "bounds", "witnesses")


class TableAnalysis:
    """The facts of one table, each computed on first use and at most once.
    Class and character sets are index sets into the table."""

    def __init__(self, table: CharacterTable):
        self.table = table

    @cached_property
    def pattern(self):
        return vanishing.zero_pattern(self.table)

    @cached_property
    def cover(self):
        """Raises NoCoverError when a nonlinear character never vanishes."""
        return hcover.min_cover(self.pattern)

    @cached_property
    def gamma(self):
        return zerographs.gamma_v(self.pattern)

    @cached_property
    def delta(self):
        return zerographs.delta_v(self.pattern)

    @cached_property
    def theta(self):
        return zerographs.theta(self.table, self.pattern)

    @cached_property
    def gamma_components(self) -> int:
        return len(zerographs.components(self.gamma))

    @cached_property
    def delta_components(self) -> int:
        return len(zerographs.components(self.delta))

    @cached_property
    def gamma_alpha(self) -> int:
        return zerographs.independence_number(self.gamma)[0]

    @cached_property
    def delta_alpha(self) -> int:
        return zerographs.independence_number(self.delta)[0]

    @cached_property
    def vanishing_classes(self) -> set[int]:
        return vanishing.vanishing_classes(self.pattern)

    @cached_property
    def nonvanishing_classes(self) -> set[int]:
        return vanishing.nonvanishing_classes(self.pattern)

    @cached_property
    def camina_classes(self) -> set[int]:
        """Raises DataIntegrityError when the two Camina tests disagree."""
        return vanishing.camina_classes(self.table, self.pattern)

    @cached_property
    def central_type_characters(self) -> set[int]:
        return vanishing.central_type_characters(self.table, self.pattern)

    def flags(self, checks=ALL_CHECKS) -> list[str]:
        """`check:text` for every flag the selected checks raise, in a fixed
        order: burnside, mno, camina, hmm-components, covers, witnesses,
        bounds."""
        t, p, m = self.table, self.pattern, self.table.metadata
        flags: list[str] = []
        if "burnside" in checks:
            ok, bad = vanishing.burnside_check(p)
            if not ok:
                flags.append(f"burnside:characters {bad} never vanish")
        if "mno" in checks:
            ok, bad = vanishing.prime_power_check(t, p)
            if not ok:
                flags.append(f"mno:characters {bad} have no prime-power-order zero")
        if "camina" in checks:
            try:
                self.camina_classes
            except vanishing.DataIntegrityError as exc:
                flags.append(f"camina:{exc}")
        if "hmm-components" in checks:
            ng, nd = self.gamma_components, self.delta_components
            if ng != nd:
                flags.append(f"hmm-components:Gamma_v has {ng}, Delta_v has {nd}")
        cover = None
        if "covers" in checks or "witnesses" in checks:
            try:
                cover = self.cover
            except hcover.NoCoverError as exc:  # no cover leaves no witness to check
                if "covers" in checks:
                    flags.append(f"covers:{exc}")
        if "covers" in checks and cover is not None:
            flags += [f"covers:{text}" for text in hcover.cover_flags(m, cover.k_min)]
        if "witnesses" in checks and cover is not None:
            ok, bad = hcover.check_cover(p, cover.witness)
            if not ok:
                flags.append(f"witnesses:solver witness leaves characters {bad} uncovered")
        if "bounds" in checks:
            flags += [
                f"bounds:{name}"
                for name in zerographs.bound_flags(m, self.gamma_alpha, self.gamma_components)
            ]
        return flags
