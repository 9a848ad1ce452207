from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from charzero.chartable import build_abelian, build_dihedral, build_symmetric
from charzero.vanishing import (
    DataIntegrityError,
    bits,
    burnside_check,
    camina_classes,
    central_type_characters,
    is_prime_power,
    nonvanishing_classes,
    pattern_to_json,
    prime_power_check,
    vanishing_classes,
    zero_pattern,
)


def flip(pattern, r, c):
    rows = list(pattern.rows)
    rows[r] ^= 1 << c
    return pattern._replace(rows=tuple(rows))


def bits_by_lowest_bit(mask):
    """The set-bit loop bits() replaced: it peels off the lowest set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# dense masks of any width up to 1100 bits, and sparse ones as sets of positions
MASKS = st.integers(min_value=0, max_value=2**1100) | st.sets(
    st.integers(min_value=0, max_value=1100)
).map(lambda positions: sum(1 << b for b in positions))


class TestBits:
    @settings(max_examples=300, deadline=None)
    @given(MASKS)
    @example(0)
    @example(1)
    @example(2**700 - 1)
    @example(1 << 700)
    @example(1 << 1023 | 1)
    def test_matches_lowest_bit_loop(self, mask):
        assert bits(mask) == bits_by_lowest_bit(mask)

    def test_wide_masks_are_covered(self):
        assert bits(2**700 - 1) == list(range(700))
        assert bits(1 << 700 | 5) == [0, 2, 700]

    @given(st.integers(max_value=-1))
    @example(-1)
    @example(-(2**700))
    def test_negative_mask_is_a_value_error(self, mask):
        with pytest.raises(ValueError, match="nonnegative"):
            bits(mask)


class TestZeroPattern:
    def test_abelian_has_no_rows(self):
        p = zero_pattern(build_abelian([2, 4]))
        assert p.n_rows == 0

    def test_s3_single_zero(self):
        t = build_symmetric(3)
        p = zero_pattern(t)
        assert p.n_rows == 1
        (row,) = pattern_to_json(p)["zeros"]
        assert sum(row) == 1
        ci = row.index(True)
        assert t.classes[ci].label == (2, 1)

    def test_d16_reflection_columns_all_true(self):
        t = build_dihedral(8)
        p = zero_pattern(t)
        refl = [i for i, c in enumerate(t.classes) if c.name.startswith("refl")]
        assert len(refl) == 2
        for row in pattern_to_json(p)["zeros"]:
            assert all(row[c] for c in refl)

    def test_identity_and_central_columns_all_false(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            zeros = pattern_to_json(p)["zeros"]
            for c in range(p.n_cols):
                if p.class_sizes[c] == 1:
                    assert not any(row[c] for row in zeros)

    def test_row_bits_are_exact_zeros(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            for row, r in zip(p.rows, p.nonlinear_idx):
                values = t.characters[r].values
                assert [row >> c & 1 == 1 for c in range(p.n_cols)] == [
                    v.is_zero() for v in values
                ]
                assert row >> len(values) == 0

    def test_cols_transpose_rows(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            assert len(p.cols) == p.n_cols
            for r, row in enumerate(p.rows):
                for c, col in enumerate(p.cols):
                    assert row >> c & 1 == col >> r & 1, (t.group_name, r, c)
            assert all(col >> p.n_rows == 0 for col in p.cols)

    def test_export(self):
        t = build_symmetric(3)
        doc = pattern_to_json(zero_pattern(t))
        assert doc["rows"] == ["chi(2, 1)"]
        assert len(doc["cols"]) == 3
        assert all(v in (0, 1) for row in doc["zeros"] for v in row)


class TestVanishingClasses:
    def test_abelian_empty(self):
        assert vanishing_classes(zero_pattern(build_abelian([6]))) == set()

    def test_s3(self):
        t = build_symmetric(3)
        p = zero_pattern(t)
        v = vanishing_classes(p)
        assert {t.classes[c].label for c in v} == {(2, 1)}
        assert {t.classes[c].label for c in nonvanishing_classes(p)} == {(3,)}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dihedral_2_power_all_noncentral_vanish(self, n):
        t = build_dihedral(2**n)
        p = zero_pattern(t)
        noncentral = {c for c in range(p.n_cols) if p.class_sizes[c] > 1}
        assert vanishing_classes(p) == noncentral
        assert nonvanishing_classes(p) == set()

    def test_vanishing_never_central(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            for c in vanishing_classes(p):
                assert p.class_sizes[c] > 1


class TestBurnside:
    def test_corpus(self, corpus):
        for t in corpus:
            ok, bad = burnside_check(zero_pattern(t))
            assert ok, (t.group_name, bad)

    def test_abelian_vacuous(self):
        ok, bad = burnside_check(zero_pattern(build_abelian([2, 2])))
        assert ok and not bad

    def test_forced_violation_reported(self):
        t = build_symmetric(3)
        p = zero_pattern(t)
        broken = flip(p, 0, pattern_to_json(p)["zeros"][0].index(True))
        ok, bad = burnside_check(broken)
        assert not ok
        assert bad == [p.nonlinear_idx[0]]


class TestPrimePower:
    def test_is_prime_power(self):
        assert [n for n in range(1, 20) if is_prime_power(n)] == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
        ]

    def test_is_prime_power_against_brute_force(self):
        limit = 5000
        primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, isqrt(p) + 1))]
        powers = {p**k for p in primes for k in range(1, limit.bit_length()) if p**k <= limit}
        assert {n for n in range(-1, limit + 1) if is_prime_power(n)} == powers

    @pytest.mark.parametrize("n", range(2, 11))
    def test_symmetric(self, n, symmetric_tables):
        t = symmetric_tables[n]
        ok, bad = prime_power_check(t, zero_pattern(t))
        assert ok, bad

    def test_dihedral_2_power_trivial(self):
        t = build_dihedral(16)
        assert all(is_prime_power(c.element_order) or c.element_order == 1 for c in t.classes)
        assert prime_power_check(t, zero_pattern(t))[0]

    def test_fixtures(self, fixture_tables):
        for t in fixture_tables:
            assert prime_power_check(t, zero_pattern(t))[0], t.group_name


class TestCamina:
    def test_abelian_convention(self):
        assert camina_classes(build_abelian([4]), zero_pattern(build_abelian([4]))) == set()

    def test_d8(self):
        t = build_dihedral(4)
        got = camina_classes(t, zero_pattern(t))
        # |G'| = 2; exactly the three classes of size 2
        assert {t.classes[c].name for c in got} == {"x^1", "refl_even", "refl_odd"}

    def test_s3_transposition_is_camina(self):
        t = build_symmetric(3)
        got = camina_classes(t, zero_pattern(t))
        assert {t.classes[c].label for c in got} == {(2, 1)}

    def test_equivalence_on_corpus(self, corpus):
        for t in corpus:
            camina_classes(t, zero_pattern(t))  # raises on any disagreement

    def test_corrupted_data_detected(self):
        t = build_dihedral(4)
        p = zero_pattern(t)
        refl = next(i for i, c in enumerate(t.classes) if c.name == "refl_even")
        with pytest.raises(DataIntegrityError):
            camina_classes(t, flip(p, 0, refl))


class TestCentralType:
    def test_d8_degree_2_character(self):
        t = build_dihedral(4)
        got = central_type_characters(t, zero_pattern(t))
        assert {t.characters[r].name for r in got} == {"chi_1"}

    @pytest.mark.parametrize("n", [3, 5])
    def test_symmetric_empty(self, n):
        t = build_symmetric(n)
        assert central_type_characters(t, zero_pattern(t)) == set()
