import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charzero import partitions
from charzero.chartable import (
    build_abelian,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    load_table,
    save_table,
)
from charzero.partitions import (
    class_column,
    mn_value,
    partitions_of,
    remove_rim_hooks,
    z_order,
)


ABELIAN_FACTOR_LISTS = [[], [2], [3], [4], [12], [2, 2], [2, 4], [2, 4, 6], [3, 3, 3], [5, 7]]


def partition_count(n):
    # Euler's pentagonal-number recurrence, independent of partitions_of
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sgn = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sgn * p[m - g1]
            if g2 <= m:
                total += sgn * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


# Oracles for mn_value: hook lengths, the hook length formula and the sign
# twist, on the Young diagram and without beta sets.


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def hook_lengths(lam):
    conj = conjugate(lam)
    return [[lam[i] - j + conj[j] - i - 1 for j in range(lam[i])] for i in range(len(lam))]


def has_hook(lam, l):
    return any(l in row for row in hook_lengths(lam))


def degree(lam):
    """Character degree by the hook length formula n!/prod(hooks)."""
    return math.factorial(sum(lam)) // math.prod(h for row in hook_lengths(lam) for h in row)


def sign_of(mu):
    """Sign of a permutation of cycle type mu: (-1)^(n - #parts)."""
    return -1 if (sum(mu) - len(mu)) & 1 else 1


def naive_rim_hooks(lam, l):
    """Oracle: enumerate sub-partitions mu with |lam/mu| = l and check the
    skew shape is a connected border strip (no 2x2 square)."""

    def cells(p):
        return {(i, j) for i, part in enumerate(p) for j in range(part)}

    lam_cells = cells(lam)
    results = []
    for mu in partitions_of(sum(lam) - l):
        mu_cells = cells(mu)
        if not mu_cells <= lam_cells:
            continue
        skew = lam_cells - mu_cells
        # no 2x2 square
        if any({(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew for i, j in skew):
            continue
        # edgewise connected
        start = next(iter(skew))
        seen, stack = {start}, [start]
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in skew and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != l:
            continue
        leg = len({i for i, _ in skew}) - 1
        results.append((tuple(p for p in mu if p > 0), leg))
    return sorted(results)


@lru_cache(maxsize=None)
def naive_mn(lam, mu):
    """Oracle: the Murnaghan-Nakayama recursion over naive_rim_hooks, which
    shares no code with charzero's beta-set masks."""
    if not mu:
        return 1
    return sum((-1) ** leg * naive_mn(nl, mu[1:]) for nl, leg in naive_rim_hooks(lam, mu[0]))


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [()]

    def test_four(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("n", range(0, 13))
    def test_count_matches_pentagonal_recurrence(self, n):
        assert len(partitions_of(n)) == partition_count(n)

    def test_ten_has_42(self):
        assert len(partitions_of(10)) == 42

    def test_distinct_and_valid(self):
        parts = partitions_of(9)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == 9
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


class TestHooks:
    def test_single_row(self):
        assert hook_lengths((6,)) == [[6, 5, 4, 3, 2, 1]]

    def test_staircase(self):
        assert hook_lengths((3, 2, 1)) == [[5, 3, 1], [3, 1], [1]]

    def test_square(self):
        assert hook_lengths((2, 2)) == [[3, 2], [2, 1]]

    def test_has_hook_full_row(self):
        assert has_hook((7,), 7)

    def test_has_hook_false(self):
        assert not has_hook((3, 2, 1), 4)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_only_hooks_with_n_and_n_minus_1(self, n):
        # the only partitions with both an n- and an (n-1)-hook are (n), (1^n)
        for lam in partitions_of(n):
            both = has_hook(lam, n) and has_hook(lam, n - 1)
            assert both == (lam in ((n,), (1,) * n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_has_hook_iff_rim_hook_removable(self, n):
        for lam in partitions_of(n):
            for l in range(1, n + 1):
                assert has_hook(lam, l) == bool(remove_rim_hooks(lam, l))


class TestRimHooks:
    def test_whole_row(self):
        assert remove_rim_hooks((5,), 5) == [((), 0)]

    def test_two_by_two(self):
        # derived from the border-strip oracle
        assert sorted(remove_rim_hooks((2, 2), 2)) == [((1, 1), 1), ((2,), 0)]
        assert naive_rim_hooks((2, 2), 2) == [((1, 1), 1), ((2,), 0)]

    def test_no_size_6_strip_in_staircase(self):
        assert remove_rim_hooks((3, 2, 1), 6) == []
        assert mn_value((3, 2, 1), (6,)) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_naive_enumeration(self, n):
        for lam in partitions_of(n):
            for l in range(1, n + 1):
                assert sorted(remove_rim_hooks(lam, l)) == naive_rim_hooks(lam, l)

    @pytest.mark.parametrize("n", [9, 10])
    def test_against_naive_enumeration_to_ten(self, n):
        for lam in partitions_of(n):
            for l in range(1, n + 1):
                assert sorted(remove_rim_hooks(lam, l)) == naive_rim_hooks(lam, l)

    def test_removals_that_empty_rows(self):
        # a bead pushed to position 0 is a part that became zero
        assert remove_rim_hooks((2, 1, 1), 2) == [((2,), 1)]
        assert remove_rim_hooks((1, 1), 2) == [((), 1)]
        assert remove_rim_hooks((1, 1, 1), 3) == [((), 2)]
        assert sorted(remove_rim_hooks((2, 1, 1), 1)) == [((1, 1, 1), 0), ((2, 1), 0)]
        assert remove_rim_hooks((2, 2, 1), 3) == [((2,), 1)]
        assert naive_rim_hooks((2, 2, 1), 3) == [((2,), 1)]

    @pytest.mark.parametrize("n", range(0, 8))
    def test_strip_longer_than_partition(self, n):
        for lam in partitions_of(n):
            for l in range(n + 1, n + 4):
                assert remove_rim_hooks(lam, l) == []
                assert not has_hook(lam, l)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="strip size must be >= 1"):
            remove_rim_hooks((2, 1), 0)
        with pytest.raises(ValueError, match="parts must be positive"):
            remove_rim_hooks((2, 0), 1)
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            remove_rim_hooks((1, 2), 1)
        with pytest.raises(ValueError, match="part must be an int: 2.0"):
            remove_rim_hooks((2.0, 1), 1)
        with pytest.raises(ValueError, match="strip size must be an int: 1.0"):
            remove_rim_hooks((2, 1), 1.0)
        with pytest.raises(ValueError, match="strip size must be an int: True"):
            remove_rim_hooks((2, 1), True)
        with pytest.raises(ValueError, match="strip size must be an int: '1'"):
            remove_rim_hooks((2, 1), "1")


class TestMnValue:
    def test_trivial_character(self):
        for mu in partitions_of(6):
            assert mn_value((6,), mu) == 1

    def test_s3_standard(self):
        assert mn_value((2, 1), (3,)) == -1
        assert mn_value((2, 1), (2, 1)) == 0
        assert mn_value((2, 1), (1, 1, 1)) == 2

    @pytest.mark.parametrize("n", [8, 10])
    def test_known_zero_values(self, n):
        assert mn_value((n - 3, 2, 1), (n - 4, 2, 1, 1)) == 0

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            mn_value((2, 1), (4,))

    def test_empty_partition(self):
        assert mn_value((), ()) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="must partition the same n"):
            mn_value((2, 1), (2, 2))
        with pytest.raises(ValueError, match="must partition the same n"):
            mn_value((), (1,))
        with pytest.raises(ValueError, match="parts must be positive"):
            mn_value((2, 1), (3, 0))
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            mn_value((1, 2), (3,))
        with pytest.raises(ValueError, match="part must be an int: 1.5"):
            mn_value((1.5, 1.5), (3,))
        with pytest.raises(ValueError, match="part must be an int: 2.0"):
            mn_value((2.0, 1), (3,))
        with pytest.raises(ValueError, match="part must be an int: True"):
            mn_value((True, True), (2,))
        with pytest.raises(ValueError, match="part must be an int: 2.0"):
            mn_value((2, 1), (1, 2.0))
        with pytest.raises(ValueError, match="part must be an int: '2'"):
            mn_value((2, 1), ("2", 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_part_order(self, n):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                value = naive_mn(lam, mu)
                for order in set(permutations(mu)):
                    assert mn_value(lam, order) == value
                    assert mn_value(list(lam), list(order)) == value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    def test_part_order_irrelevant(self, n, rng):
        # character values are class functions: processing the parts of mu in
        # any order must give the same value as the canonical recursion
        def mn_in_given_order(lam, mu):
            if not mu:
                return 1
            return sum(
                (-1) ** leg * mn_in_given_order(nl, mu[1:])
                for nl, leg in remove_rim_hooks(lam, mu[0])
            )

        parts = partitions_of(n)
        lam = rng.choice(parts)
        mu = list(rng.choice(parts))
        rng.shuffle(mu)
        assert mn_in_given_order(lam, tuple(mu)) == mn_value(lam, mu)


class TestBuildSymmetricOracle:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_table_matches_naive_recursion(self, n):
        t = build_symmetric(n)
        parts = partitions_of(n)
        assert [ch.name for ch in t.characters] == [f"chi{lam}" for lam in parts]
        assert [[v.as_integer() for v in ch.values] for ch in t.characters] == [
            [naive_mn(lam, c.label) for c in t.classes] for lam in parts
        ]

    def test_s12_file_is_pinned(self, tmp_path):
        save_table(build_symmetric(12), tmp_path / "s12.json")
        assert hashlib.sha256((tmp_path / "s12.json").read_bytes()).hexdigest() == (
            "2c2a3b4bb79e7f55e8cbf6edd640a1c83bc12f219f5ba510116ba9513b3bdb2a"
        )

    def test_s18_file_is_pinned(self, tmp_path):
        save_table(build_symmetric(18), tmp_path / "s18.json")
        assert hashlib.sha256((tmp_path / "s18.json").read_bytes()).hexdigest() == (
            "14541d7e3a9042b1b60e3f051c23ed650461688e47747ba55e89d16dffb2ddaf"
        )

    def test_mn_caches_after_s16_stay_small(self):
        # the rim-hook tables and suffix columns that build_symmetric(16) leaves
        # cached are flat tuples of ints, and the columns of S_16's own classes
        # are dropped; a fresh process, so no earlier test's caches count
        code = (
            "import gc, tracemalloc\n"
            "from charzero import chartable, partitions\n"
            "tracemalloc.start()\n"
            "t = chartable.build_symmetric(16)\n"
            "del t\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert int(run.stdout) < 600_000, run.stdout

    def test_dihedral_cyclic_and_abelian_files_are_pinned(self, tmp_path):
        # the saved texts of D_6..D_128, C_1..C_24 and ten abelian groups,
        # concatenated in that order
        builds = [(build_dihedral, m) for m in range(3, 65)]
        builds += [(build_cyclic, n) for n in range(1, 25)]
        builds += [(build_abelian, f) for f in ABELIAN_FACTOR_LISTS]
        digest = hashlib.sha256()
        for build, arg in builds:
            t = build(arg)
            save_table(t, tmp_path / "t.json")
            digest.update((tmp_path / "t.json").read_bytes())
            assert load_table(tmp_path / "t.json") == t
        assert digest.hexdigest() == (
            "e777ecba407381a8ca04f40d4a03562fbb688cf76bc59120d8cd30daa5aeb783"
        )


class TestClassColumn:
    @pytest.mark.parametrize("n", [9, 13])
    def test_build_caches_suffix_columns_only(self, n, monkeypatch):
        monkeypatch.setattr(partitions, "_columns", {(): (1,)})
        build_symmetric(n)
        assert partitions._columns.keys().isdisjoint(partitions_of(n))
        assert {mu[1:] for mu in partitions_of(n)} <= partitions._columns.keys()

    def test_class_column_is_the_cached_column(self):
        for mu in partitions_of(10):
            assert class_column(mu) == partitions._column(mu)


class TestZOrder:
    def test_rejects_non_int_parts(self):
        with pytest.raises(ValueError, match="part must be an int: 2.0"):
            z_order((2.0, 1))


class TestDegree:
    def test_trivial(self):
        assert degree((9,)) == 1

    def test_standard(self):
        for n in range(2, 10):
            assert degree((n - 1, 1)) == n - 1

    def test_staircase(self):
        assert degree((3, 2, 1)) == 16

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hook_formula_matches_mn(self, n):
        for lam in partitions_of(n):
            assert mn_value(lam, (1,) * n) == degree(lam)


class TestConjugate:
    def test_row_to_column(self):
        assert conjugate((5,)) == (1, 1, 1, 1, 1)

    def test_self_conjugate(self):
        assert conjugate((3, 2, 1)) == (3, 2, 1)

    def test_explicit(self):
        assert conjugate((4, 2)) == (2, 2, 1, 1)

    def test_involution(self):
        for lam in partitions_of(8):
            assert conjugate(conjugate(lam)) == lam


class TestCharacterIdentities:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_orthogonality(self, n):
        parts = partitions_of(n)
        nfact = math.factorial(n)
        for a, lam1 in enumerate(parts):
            for lam2 in parts[a:]:
                total = sum(
                    Fraction(nfact, z_order(mu)) * mn_value(lam1, mu) * mn_value(lam2, mu)
                    for mu in parts
                )
                assert total == (nfact if lam1 == lam2 else 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_twist(self, n):
        parts = partitions_of(n)
        for lam in parts:
            lamc = conjugate(lam)
            for mu in parts:
                assert mn_value(lamc, mu) == sign_of(mu) * mn_value(lam, mu)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_linear_iff_row_or_column(self, n):
        parts = partitions_of(n)
        for lam in parts:
            all_units = all(mn_value(lam, mu) in (1, -1) for mu in parts)
            assert all_units == (lam in ((n,), (1,) * n))
