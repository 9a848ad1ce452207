import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charzero.chartable import (
    Character,
    CharacterTable,
    SchemaError,
    TableMetadata,
    _gram_modulus,
    build_abelian,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
    save_table,
    table_from_json,
    table_to_json,
    validate,
)
from charzero.cyclotomic import Cyclotomic, cyc_to_json, root_of_unity
from charzero.partitions import mn_value, partitions_of

from conftest import FIXTURE_DIR, FIXTURE_NAMES


class TestIntegerCoefficients:
    """Character values are algebraic integers, so every coefficient of every
    value a constructor or the loader makes is a plain int, never a Fraction."""

    @staticmethod
    def assert_int_coefficients(t):
        bad = [
            (ch.name, c, v.coeffs)
            for ch in t.characters
            for c, v in enumerate(ch.values)
            if any(type(q) is not int for q in v.coeffs)
        ]
        assert not bad, (t.group_name, bad[:3])

    def test_symmetric(self, symmetric_tables):
        for t in symmetric_tables.values():
            self.assert_int_coefficients(t)

    def test_dihedral(self, dihedral_tables):
        for t in dihedral_tables.values():
            self.assert_int_coefficients(t)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 60])
    def test_cyclic(self, n):
        self.assert_int_coefficients(build_cyclic(n))

    @pytest.mark.parametrize("factors", [[2, 2], [4], [2, 4], [6], [3, 5], [2, 3, 4]])
    def test_abelian(self, factors):
        self.assert_int_coefficients(build_abelian(factors))

    def test_products(self, random_products, tmp_path):
        for _, _, t in random_products:
            self.assert_int_coefficients(t)
            save_table(t, tmp_path / "product.json")
            self.assert_int_coefficients(load_table(tmp_path / "product.json"))

    def test_fixtures(self, fixture_tables):
        for t in fixture_tables:
            self.assert_int_coefficients(t)


class TestBuildSymmetric:
    def test_trivial(self):
        t = build_symmetric(1)
        assert len(t.classes) == 1 and len(t.characters) == 1
        assert validate(t) == []

    def test_s3(self):
        t = build_symmetric(3)
        assert sorted(c.size for c in t.classes) == [1, 2, 3]
        assert sorted(ch.degree for ch in t.characters) == [1, 1, 2]
        assert validate(t) == []

    def test_s5_nonlinear_count(self):
        t = build_symmetric(5)
        assert validate(t) == []
        assert len(t.characters) == 7
        assert len(t.nonlinear_indices()) == 5

    @pytest.mark.parametrize("n", range(2, 9))
    def test_two_linear_characters(self, n):
        assert build_symmetric(n).n_linear == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_entries_match_mn_value(self, n):
        # oracle: the validated public entry point, entry by entry
        t = build_symmetric(n)
        assert [ch.name for ch in t.characters] == [f"chi{lam}" for lam in partitions_of(n)]
        for lam, ch in zip(partitions_of(n), t.characters):
            assert [(v.conductor, v.coeffs) for v in ch.values] == [
                (1, (Fraction(mn_value(lam, c.label)),)) for c in t.classes
            ]

    def test_identity_class_first(self):
        t = build_symmetric(6)
        assert t.classes[0].element_order == 1 and t.classes[0].size == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_symmetric(0)
        with pytest.raises(ValueError):
            build_symmetric(-3)

    def test_s15_above_the_old_cap(self):
        t = build_symmetric(15)
        assert len(t.classes) == 176 and validate(t) == []


class TestBuildDihedral:
    def test_d8(self):
        t = build_dihedral(4)
        assert len(t.classes) == 5
        assert sorted(ch.degree for ch in t.characters) == [1, 1, 1, 1, 2]
        assert validate(t) == []

    def test_odd_m(self):
        t = build_dihedral(5)
        assert t.order == 10
        assert t.n_linear == 2
        assert len(t.nonlinear_indices()) == 2
        assert validate(t) == []

    @pytest.mark.parametrize("m", [3, 4, 6, 7, 8, 12, 16, 27, 32])
    def test_validates(self, m):
        assert validate(build_dihedral(m)) == []

    @pytest.mark.parametrize("n", range(2, 8))
    def test_zero_congruence_for_2_power(self, n):
        # chi_i(x^j) = 0 exactly when ij = 2^(n-2) mod 2^(n-1)
        m = 2**n
        t = build_dihedral(m)
        rot_of = {c.name: c for c in t.classes}
        for i in range(1, m // 2):
            chi = next(ch for ch in t.characters if ch.name == f"chi_{i}")
            for ci, cls in enumerate(t.classes):
                if not cls.name.startswith(("e", "x^")):
                    continue
                j = 0 if cls.name == "e" else int(cls.name[2:])
                expected = (i * j) % (m // 2) == m // 4
                assert chi.values[ci].is_zero() == expected, (i, j)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rotation_zeros_have_order_4d(self, n):
        # all rotation-class zeros of chi_i lie in classes of order 4d,
        # d = 2-part of i
        m = 2**n
        t = build_dihedral(m)
        for i in range(1, m // 2):
            d = i & (-i)
            chi = next(ch for ch in t.characters if ch.name == f"chi_{i}")
            for ci, cls in enumerate(t.classes):
                if cls.name.startswith(("e", "x^")) and chi.values[ci].is_zero():
                    assert cls.element_order == 4 * d

    def test_metadata(self):
        t = build_dihedral(8)
        assert t.metadata.nilpotent and t.metadata.fitting_height == 1
        t = build_dihedral(6)
        assert t.metadata.solvable and not t.metadata.nilpotent
        assert t.metadata.fitting_height is None

    def test_m_below_3(self):
        with pytest.raises(ValueError):
            build_dihedral(2)


class TestCyclicAbelian:
    def test_trivial(self):
        t = build_cyclic(1)
        assert t.order == 1 and validate(t) == []

    def test_c4_values_are_powers_of_i(self):
        t = build_cyclic(4)
        i = root_of_unity(4, 1)
        assert t.characters[1].values[1] == i
        assert t.characters[1].values[2] == i * i
        assert validate(t) == []

    def test_klein_four(self):
        t = build_abelian([2, 2])
        assert t.order == 4
        for ch in t.characters:
            for v in ch.values:
                assert v == 1 or v == -1
        assert validate(t) == []

    def test_bad_invariant_factor(self):
        with pytest.raises(ValueError):
            build_abelian([2, 1])

    def test_simple_claims(self):
        # S_2 = C_2 and C_p are simple; no other S_n (n <= 6), cyclic or
        # abelian group here is
        assert [n for n in range(1, 7) if build_symmetric(n).metadata.simple] == [2]
        assert [n for n in range(1, 13) if build_cyclic(n).metadata.simple] == [2, 3, 5, 7, 11]
        factor_lists = ([2], [7], [4], [6], [2, 2], [3, 5], [2, 4, 6])
        assert [f for f in factor_lists if build_abelian(f).metadata.simple] == [[2], [7]]

    @pytest.mark.parametrize(
        "factors, name, r_value, simple",
        [([], "C1", None, False), ([7], "C7", 1, True), ([4], "C4", 1, False),
         ([2, 4, 6], "C2xC4xC6", 3, False)],
    )
    def test_abelian_metadata(self, factors, name, r_value, simple):
        t = build_abelian(factors)
        m = t.metadata
        assert (t.group_name, m.r_value, m.simple) == (name, r_value, simple)
        assert (m.solvable, m.nilpotent) == (True, True)
        assert m.fitting_height == (1 if factors else None)
        if len(factors) < 2:
            assert table_to_json(t) == table_to_json(build_cyclic(factors[0] if factors else 1))


class TestProductMetadata:
    """A x B is solvable (nilpotent) iff A and B both are; a fact of a
    factor may be true, false or unknown (None)."""

    @pytest.mark.parametrize("heights", [(1, 3), (2, None), (None, 1), (None, None)])
    @pytest.mark.parametrize("y", [True, False, None])
    @pytest.mark.parametrize("x", [True, False, None])
    @pytest.mark.parametrize("fact", ["solvable", "nilpotent"])
    def test_fact_and_fitting_height(self, fact, x, y, heights):
        a, b = (
            build_cyclic(n)._replace(metadata=TableMetadata(**{fact: v}, fitting_height=h))
            for n, v, h in zip((2, 3), (x, y), heights)
        )
        m = direct_product(a, b).metadata
        # known false beats unknown: A x B is not solvable if A is not
        expect = False if False in (x, y) else None if None in (x, y) else True
        assert getattr(m, fact) is expect
        other = "nilpotent" if fact == "solvable" else "solvable"
        assert getattr(m, other) is None
        known = m.solvable is True and None not in heights
        assert m.fitting_height == (max(heights) if known else None)
        assert (m.abelian_by_metanilpotent, m.r_value, m.simple, m.notes) == (None,) * 4

    def test_nonsolvable_factor_beside_unknown(self):
        p = direct_product(fixture_table("a5"), build_dihedral(5)._replace(metadata=TableMetadata()))
        assert p.metadata.solvable is False and p.metadata.nilpotent is None


@pytest.mark.parametrize(
    "call,text",
    [
        (lambda: build_cyclic(0), "build_cyclic requires n >= 1"),
        (lambda: partitions_of(-1), "n must be nonnegative"),
        (lambda: partitions_of(3.0), "n must be an int: 3.0"),
        (lambda: Character("chi", (root_of_unity(3, 1),)).degree,
         "character chi has non-integer identity value"),
        # the builders take only ints: True would name a group "CTrue", 2.0 fail in range
        (lambda: build_cyclic(True), "n must be an int: True"),
        (lambda: build_cyclic(2.0), "n must be an int: 2.0"),
        (lambda: build_dihedral(4.0), "m must be an int: 4.0"),
        (lambda: build_dihedral(True), "m must be an int: True"),
        (lambda: build_abelian([2.0]), "invariant factor must be an int: 2.0"),
        (lambda: build_abelian([3, True]), "invariant factor must be an int: True"),
        (lambda: build_symmetric(2.0), "n must be an int: 2.0"),
        (lambda: build_symmetric(True), "n must be an int: True"),
    ],
    ids=["cyclic-0", "partitions-of-minus-1", "partitions-of-float", "degree-zeta3",
         "cyclic-true", "cyclic-float", "dihedral-float", "dihedral-true", "abelian-float",
         "abelian-true", "symmetric-float", "symmetric-true"],
)
def test_value_error_texts(call, text):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text


class TestDirectProduct:
    def test_with_trivial_factor(self):
        a = build_symmetric(4)
        p = direct_product(a, build_cyclic(1))
        assert p.order == a.order
        assert [c.size for c in p.classes] == [c.size for c in a.classes]
        assert [ch.degree for ch in p.characters] == [ch.degree for ch in a.characters]

    def test_s3_times_c2(self):
        p = direct_product(build_symmetric(3), build_cyclic(2))
        assert p.order == 12 and len(p.classes) == 6
        assert sorted(ch.degree for ch in p.characters) == [1, 1, 1, 1, 2, 2]
        assert validate(p) == []

    def test_zero_iff_factor_zero(self):
        a, b = build_symmetric(4), build_dihedral(5)
        p = direct_product(a, b)
        nb = len(b.classes)
        for ia, xa in enumerate(a.characters):
            for ib, xb in enumerate(b.characters):
                row = p.characters[ia * len(b.characters) + ib]
                for ca in range(len(a.classes)):
                    for cb in range(nb):
                        lhs = row.values[ca * nb + cb].is_zero()
                        rhs = xa.values[ca].is_zero() or xb.values[cb].is_zero()
                        assert lhs == rhs

    def test_associative_up_to_reindexing(self):
        a, b, c = build_symmetric(3), build_cyclic(2), build_dihedral(4)

        def key(t):
            return sorted(
                (cls.size, cls.element_order) for cls in t.classes
            ), sorted(ch.degree for ch in t.characters)

        assert key(direct_product(direct_product(a, b), c)) == key(
            direct_product(a, direct_product(b, c))
        )


def rotation_exponent(cls):
    """j for the dihedral class of x^j (0 for e), None for a reflection class."""
    return 0 if cls.name == "e" else int(cls.name[2:]) if cls.name.startswith("x^") else None


def assert_one_object_per_value(t):
    """Distinct value objects of t differ: as values where they share a
    conductor, and every rational integer is stored at conductor 1."""
    objects = list({id(v): v for ch in t.characters for v in ch.values}.values())
    assert all(v.conductor == 1 for v in objects if v.as_integer() is not None)
    assert all(a.conductor != b.conductor or a != b for a, b in combinations(objects, 2))


def fixture_table(name):
    return load_table(FIXTURE_DIR / f"{name}.json")


def unshared_copy(t):
    """t with every entry its own Cyclotomic object."""
    return t._replace(
        characters=tuple(
            ch._replace(values=tuple(Cyclotomic(v.conductor, v.coeffs) for v in ch.values))
            for ch in t.characters
        )
    )


PRODUCT_PAIRS = {
    "a5xpsl2_7": lambda: (fixture_table("a5"), fixture_table("psl2_7")),
    "a5xd20": lambda: (fixture_table("a5"), build_dihedral(10)),
    "m11xc6": lambda: (fixture_table("m11"), build_cyclic(6)),
    "d14xd16": lambda: (build_dihedral(7), build_dihedral(8)),
    "d20xc8": lambda: (build_dihedral(10), build_cyclic(8)),
    "c5xc12": lambda: (build_cyclic(5), build_cyclic(12)),
    "s5xd18": lambda: (build_symmetric(5), build_dihedral(9)),
    "s4xs5": lambda: (build_symmetric(4), build_symmetric(5)),
    "c2xc4xa5": lambda: (build_abelian([2, 4]), fixture_table("a5")),
}


class TestSharedValues:
    """The constructors and the loader share one object per distinct value
    and compute each distinct value once; the per-entry formulas they
    replaced are the oracles here."""

    @pytest.mark.parametrize("m", range(3, 41))
    def test_dihedral_matches_per_entry_formula(self, m):
        t = build_dihedral(m)
        for ch in t.characters:
            for cls, v in zip(t.classes, ch.values):
                j = rotation_exponent(cls)
                if ch.name.startswith("chi_"):
                    i = int(ch.name[4:])
                    expect = 0 if j is None else root_of_unity(m, i * j) + root_of_unity(m, -i * j)
                else:
                    # lin[a,b] for even m, lin[b] for odd m
                    signs = [int(x) for x in ch.name[4:-1].split(",")]
                    a, b = signs if m % 2 == 0 else (1, signs[0])
                    expect = a**j if j is not None else b if cls.name != "refl_odd" else a * b
                assert v == expect, (ch.name, cls.name)
        assert_one_object_per_value(t)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_cyclic_matches_per_entry_formula(self, n):
        t = build_cyclic(n)
        for j, ch in enumerate(t.characters):
            assert list(ch.values) == [root_of_unity(n, j * k) for k in range(n)]
        assert_one_object_per_value(t)

    @pytest.mark.parametrize("make", PRODUCT_PAIRS.values(), ids=PRODUCT_PAIRS.keys())
    def test_direct_product_matches_per_entry_product(self, make):
        a, b = make()
        p = direct_product(a, b)
        expect = [
            va * vb
            for xa in a.characters
            for xb in b.characters
            for va in xa.values
            for vb in xb.values
        ]
        assert [v for ch in p.characters for v in ch.values] == expect
        assert_one_object_per_value(p)

    @pytest.mark.parametrize(
        "make",
        [*PRODUCT_PAIRS.values(), lambda: (unshared_copy(fixture_table("a5")), fixture_table("a5"))],
        ids=[*PRODUCT_PAIRS.keys(), "a5-unsharedxa5"],
    )
    def test_direct_product_multiplies_each_distinct_pair_once(self, make, monkeypatch):
        a, b = make()
        calls = []
        mul = Cyclotomic.__mul__

        def counted(x, y):
            calls.append(None)
            return mul(x, y)

        monkeypatch.setattr(Cyclotomic, "__mul__", counted)
        p = direct_product(a, b)
        monkeypatch.undo()
        objects = [len({id(v) for ch in t.characters for v in ch.values}) for t in (a, b)]
        assert len(calls) == objects[0] * objects[1]
        assert_one_object_per_value(p)

    @pytest.mark.parametrize("make", PRODUCT_PAIRS.values(), ids=PRODUCT_PAIRS.keys())
    def test_loaded_table_shares_its_values(self, make, tmp_path):
        p = direct_product(*make())
        save_table(p, tmp_path / "p.json")
        loaded = load_table(tmp_path / "p.json")
        assert loaded == p
        assert_one_object_per_value(loaded)

    def test_fixtures_share_their_values(self, fixture_tables):
        for t in fixture_tables:
            assert_one_object_per_value(t)

    def test_symmetric_shares_its_values(self, symmetric_tables):
        for t in symmetric_tables.values():
            assert_one_object_per_value(t)


# at most 6 classes each, so a product of three has at most 216
HYPOTHESIS_FACTORS = [
    build_symmetric(3),
    build_symmetric(4),
    build_dihedral(4),
    build_dihedral(5),
    build_dihedral(6),
    build_cyclic(3),
    build_cyclic(5),
    build_abelian([2, 2]),
    fixture_table("a5"),
]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(HYPOTHESIS_FACTORS), min_size=2, max_size=3))
def test_save_and_load_keep_table_to_json_on_products(factors):
    t = factors[0]
    for f in factors[1:]:
        t = direct_product(t, f)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "product.json"
        save_table(t, path)
        loaded = load_table(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
    assert table_to_json(loaded) == table_to_json(t)
    assert_one_object_per_value(loaded)
    # each distinct irrational value's record once, and each reference after
    # the record it names
    records = []
    for v in (v for ch in doc["characters"] for v in ch["values"]):
        if type(v) is dict:
            records.append(json.dumps(v))
        elif type(v) is str:
            assert int(v.removeprefix("#")) < len(records)
    assert len(set(records)) == len(records)
    assert len(records) == len({
        (v.conductor, v.coeffs) for ch in t.characters for v in ch.values if v.as_integer() is None
    })


def reference_save_text(t):
    """The saved text as json.dumps writes each row of table_to_json(t)."""
    doc = table_to_json(t)

    def field(key, value):
        if key in ("classes", "characters"):
            value = "[" + ",".join(f"\n  {json.dumps(row)}" for row in value) + "\n ]"
        else:
            value = json.dumps(value)
        return f"{json.dumps(key)}: {value}"

    return "{\n " + ",\n ".join(field(k, v) for k, v in doc.items()) + "\n}\n"


def saved_text(t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        save_table(t, path)
        return path.read_text()


def assert_same_text(got, want):
    """Fail at the first differing line: pytest's own diff of two long,
    similar texts can run for minutes."""
    if got != want:
        pairs = zip(got.splitlines(keepends=True) + [""], want.splitlines(keepends=True) + [""])
        n, (a, b) = next((n, pair) for n, pair in enumerate(pairs) if pair[0] != pair[1])
        pytest.fail(f"line {n} differs: {a[:200]!r} != {b[:200]!r}")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(HYPOTHESIS_FACTORS), min_size=2, max_size=3))
def test_saved_text_is_json_dumps_of_each_row_on_products(factors):
    t = factors[0]
    for f in factors[1:]:
        t = direct_product(t, f)
    assert_same_text(saved_text(t), reference_save_text(t))


def with_class(t, i, **fields):
    cls = t.classes[i]._replace(**fields)
    return t._replace(classes=t.classes[:i] + (cls,) + t.classes[i + 1 :])


def with_row(t, r, values):
    row = t.characters[r]._replace(values=values)
    return t._replace(characters=t.characters[:r] + (row,) + t.characters[r + 1 :])


class TestValidate:
    def test_rational_value_at_a_huge_conductor_is_quick(self):
        # a zero stored at conductor 1009 must not make validate build Phi_N
        # at the lcm of every conductor
        t = fixture_table("a5")
        chi5 = t.characters[4]
        assert chi5.values[3].is_zero()
        values = chi5.values[:3] + (Cyclotomic(1009, [0] * 1008),) + chi5.values[4:]
        bad = t._replace(characters=t.characters[:4] + (chi5._replace(values=values),))
        assert _gram_modulus(bad, [v for ch in bad.characters for v in ch.values])[0] == 5
        start = time.perf_counter()
        assert validate(bad) == []
        assert time.perf_counter() - start < 1

    @staticmethod
    def a5_with_zeta_1009():
        # chi3a's value at 5a replaced by zeta_1009
        t = fixture_table("a5")
        chi = t.characters[1]
        values = chi.values[:3] + (root_of_unity(1009, 1),) + chi.values[4:]
        characters = (t.characters[0], chi._replace(values=values), *t.characters[2:])
        return t._replace(characters=characters)

    def test_irrational_value_at_an_unjustified_conductor_fails_by_name(self):
        # chi(g) lies in Q(zeta_o(g)); A5 has exponent 30, so zeta_1009 cannot
        # be a value, and validate must say so before building Phi_5045
        start = time.perf_counter()
        assert validate(self.a5_with_zeta_1009()) == [
            "character 1 value at class 3 has conductor 1009, which does not divide 60 = 2 * exp(G)"
        ]
        assert time.perf_counter() - start < 1

    def test_conductor_may_be_twice_the_exponent(self):
        # Q(zeta_3) = Q(zeta_6): C_3 stored at conductor 6 is clean, at 12 it is not
        t = build_cyclic(3)
        for n, clean in ((6, True), (12, False)):
            chars = tuple(
                ch._replace(values=tuple(v.embed(n) for v in ch.values)) for ch in t.characters
            )
            fails = validate(t._replace(characters=chars))
            assert (fails == []) == clean, fails
            assert clean or all("conductor 12, which does not divide 6" in f for f in fails)

    def test_conductor_rule_ignores_invalid_element_orders(self):
        # the conductor rule and the Gram check wait for the class claims:
        # element orders 0 and -5 are the only failures, zeta_1009 is not named
        t = self.a5_with_zeta_1009()
        classes = (t.classes[0], t.classes[1]._replace(element_order=0),
                   t.classes[2]._replace(element_order=-5), *t.classes[3:])
        assert validate(t._replace(classes=classes)) == [
            "class 1 element order 0 does not divide order",
            "class 2 element order -5 does not divide order",
        ]

    @pytest.mark.parametrize(
        "cls,order,fails",
        [
            # 2a: 15 elements, centraliser order 4; 6 divides 60 but not 4
            (1, 6, ["class 1 element order 6 does not divide centraliser order 4"]),
            (1, 4, []),
            # 3a: 20 elements, centraliser order 3
            (2, 5, ["class 2 element order 5 does not divide centraliser order 3"]),
            # an order that does not divide |G| gets one text, not two
            (2, 7, ["class 2 element order 7 does not divide order"]),
        ],
        ids=["2a-order-6", "2a-order-4", "3a-order-5", "3a-order-7"],
    )
    def test_element_order_divides_centraliser_order(self, cls, order, fails):
        t = fixture_table("a5")
        classes = list(t.classes)
        classes[cls] = classes[cls]._replace(element_order=order)
        assert validate(t._replace(classes=tuple(classes))) == fails

    def test_centraliser_rule_skips_a_size_that_does_not_divide(self):
        # 2a given 14 elements: its size fails, the sizes no longer sum to 60,
        # and no centraliser order is computed from it
        t = fixture_table("a5")
        classes = (t.classes[0], t.classes[1]._replace(size=14), *t.classes[2:])
        assert validate(t._replace(classes=classes)) == [
            "class sizes do not sum to the group order",
            "class 1 size 14 does not divide order",
        ]

    @pytest.mark.parametrize(
        "mutate,fails",
        [
            (lambda t: with_class(t, 1, element_order=1),
             ["expected exactly one identity class, found 2"]),
            (lambda t: t._replace(classes=(t.classes[1], t.classes[0], *t.classes[2:])),
             ["identity class must be first, found at index 1"]),
            (lambda t: with_class(t, 0, size=2),
             ["identity class has size 2", "class sizes do not sum to the group order"]),
            # the four rows left are still orthogonal
            (lambda t: t._replace(characters=t.characters[:4]),
             ["4 characters vs 5 classes",
              "sum of squared degrees does not equal the group order"]),
            (lambda t: with_row(t, 2, t.characters[2].values[:4]),
             ["character 2 has 4 values, expected 5"]),
            (lambda t: t._replace(metadata=TableMetadata(nilpotent=True, fitting_height=2)),
             ["nilpotent table must have fitting_height 1"]),
            (lambda t: t._replace(metadata=TableMetadata(fitting_height=0)),
             ["fitting_height must be a positive integer"]),
            (lambda t: t._replace(metadata=TableMetadata(r_value=0)),
             ["r_value must be a positive integer"]),
        ],
        ids=[
            "two-identity-classes", "identity-second", "identity-size-2", "four-characters",
            "short-row", "nilpotent-fitting-height-2", "fitting-height-0", "r-value-0",
        ],
    )
    def test_failure_texts(self, mutate, fails):
        assert validate(mutate(fixture_table("a5"))) == fails

    def test_perturbed_value_fails_orthogonality(self):
        t = build_symmetric(4)
        ch = t.characters[2]
        vals = list(ch.values)
        vals[1] = vals[1] + 1
        chars = list(t.characters)
        chars[2] = Character(ch.name, tuple(vals))
        bad = t._replace(characters=tuple(chars))
        fails = validate(bad)
        assert any("row orthogonality" in f for f in fails)

    def test_bad_metadata(self):
        t = build_dihedral(4)
        bad = t._replace(metadata=TableMetadata(solvable=False, fitting_height=2))
        assert any("fitting_height" in f or "solvable" in f for f in validate(bad))

    def test_central_classes_are_exactly_full_norm_classes(self):
        # size-1 classes are exactly those where |chi(c)|^2 = degree^2 for all chi
        for t in [build_dihedral(8), build_symmetric(4), build_abelian([2, 4])]:
            for ci, cls in enumerate(t.classes):
                full_norm = all(
                    ch.values[ci] * ch.values[ci].conj()
                    == Cyclotomic.from_rational(ch.degree**2)
                    for ch in t.characters
                )
                assert full_norm == (cls.size == 1)


SAVED_TABLES = {
    "s1": lambda: build_symmetric(1),
    "s6": lambda: build_symmetric(6),
    "d10": lambda: build_dihedral(5),
    "d24": lambda: build_dihedral(12),
    "c1": lambda: build_cyclic(1),
    "c2xc4": lambda: build_abelian([2, 4]),
    "s3xd8": lambda: direct_product(build_symmetric(3), build_dihedral(4)),
    "a5xd10": lambda: direct_product(load_table(FIXTURE_DIR / "a5.json"), build_dihedral(5)),
    **{name: lambda name=name: load_table(FIXTURE_DIR / f"{name}.json") for name in FIXTURE_NAMES},
}


class TestSerialization:
    @pytest.mark.parametrize("make", SAVED_TABLES.values(), ids=SAVED_TABLES.keys())
    def test_saved_file_is_table_to_json(self, tmp_path, make):
        t = make()
        path = tmp_path / "t.json"
        save_table(t, path)
        doc = table_to_json(t)
        text = path.read_text()
        assert json.loads(text) == doc
        assert list(json.loads(text)) == list(doc)
        assert table_to_json(load_table(path)) == doc
        # one class and one character per line
        lines = text.splitlines()
        nc, nk = len(t.classes), len(t.characters)
        assert len(lines) == nc + nk + 9
        rows = [json.loads(line.rstrip(",")) for line in lines[4 : 4 + nc] + lines[6 + nc : 6 + nc + nk]]
        assert rows == doc["classes"] + doc["characters"]

    @pytest.mark.parametrize("make", SAVED_TABLES.values(), ids=SAVED_TABLES.keys())
    def test_saved_text_is_json_dumps_of_each_row(self, make):
        t = make()
        assert_same_text(saved_text(t), reference_save_text(t))

    def test_saved_text_with_non_ascii_names(self):
        t = build_symmetric(3)
        chars = (t.characters[0]._replace(name="\u03c7\u2081 \"triv\""),) + t.characters[1:]
        classes = (t.classes[0]._replace(name="\u00e9"),) + t.classes[1:]
        t = t._replace(group_name="\U0001d516\u2083", classes=classes, characters=chars)
        text = saved_text(t)
        assert_same_text(text, reference_save_text(t))
        assert text.isascii()
        assert table_from_json(json.loads(text)) == t

    def test_saved_text_with_unshared_equal_values(self):
        # every entry its own object, and the zeros stored at conductor 5
        t = fixture_table("a5")
        chars = tuple(
            ch._replace(values=tuple(
                Cyclotomic(5, [0, 0, 0, 0]) if v.is_zero() else Cyclotomic(v.conductor, v.coeffs)
                for v in ch.values
            ))
            for ch in t.characters
        )
        copy = t._replace(characters=chars)
        assert len({id(v) for ch in chars for v in ch.values}) == len(t.classes) ** 2
        assert table_to_json(copy) == table_to_json(t)
        assert_same_text(saved_text(copy), reference_save_text(copy))
        assert_same_text(saved_text(copy), saved_text(t))

    def test_inline_records_with_coeffs_first_load(self, tmp_path):
        # a record at every irrational entry, each written "coeffs" first: the
        # loader shares none of them and decodes each one where it stands
        t = build_dihedral(5)

        def entry(v):
            obj = cyc_to_json(v)
            return obj if isinstance(obj, int) else {"coeffs": obj["coeffs"], "conductor": obj["conductor"]}

        rows = [{"name": ch.name, "values": list(map(entry, ch.values))} for ch in t.characters]
        path = tmp_path / "d10.json"
        path.write_text(json.dumps({**table_to_json(t), "characters": rows}), encoding="utf-8")
        assert path.read_text(encoding="utf-8").count('{"coeffs"') == 4
        loaded = load_table(path)
        assert loaded == build_dihedral(5)
        assert_one_object_per_value(loaded)

    def test_round_trip(self, tmp_path):
        t = build_dihedral(8)
        path = tmp_path / "d16.json"
        save_table(t, path)
        assert load_table(path) == t

    def test_round_trip_symmetric(self, tmp_path):
        t = build_symmetric(5)
        path = tmp_path / "s5.json"
        save_table(t, path)
        loaded = load_table(path)
        assert loaded == t
        assert validate(loaded) == []

    def test_missing_order_field(self):
        doc = table_to_json(build_cyclic(2))
        del doc["order"]
        with pytest.raises(SchemaError, match="order"):
            table_from_json(doc)

    def test_wrong_value_arity(self):
        doc = table_to_json(build_cyclic(2))
        doc["characters"][0]["values"].append(1)
        with pytest.raises(SchemaError):
            table_from_json(doc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_table(path)

    @pytest.mark.parametrize(
        "mutate,text",
        [
            (lambda doc: [doc], "table document must be a JSON object"),
            (lambda doc: doc["classes"].__setitem__(1, 5), "class 1 must be an object"),
            (lambda doc: doc["characters"].__setitem__(1, 5), "character 1 must be an object"),
            (lambda doc: doc.update(metadata=[]), "metadata must be an object"),
            (lambda doc: doc["metadata"].update(color="red"), "unknown metadata fields: ['color']"),
            (lambda doc: doc["characters"][1]["values"].__setitem__(
                0, cyc_to_json(root_of_unity(5, 1))),
             "character 1 identity value is not a rational integer"),
            # row 1 holds the records #0 and #1 at entries 3 and 4; row 2 refers to both
            (lambda doc: doc["characters"][1]["values"][4].update(conductor=5.0),
             "character 1 has a malformed value: conductor must be an int: 5.0"),
            (lambda doc: doc["characters"][2]["values"].__setitem__(3, "#2"),
             "character 2 has a malformed value: unknown value reference '#2'"),
            (lambda doc: doc["characters"][1]["values"].__setitem__(3, "#0"),
             "character 1 has a malformed value: unknown value reference '#0'"),
            (lambda doc: doc["characters"][2]["values"].__setitem__(3, "5a"),
             "character 2 has a malformed value: unknown value reference '5a'"),
            (lambda doc: doc["characters"][2]["values"].__setitem__(1, True),
             "character 2 has a malformed value: booleans are not cyclotomic values"),
            # a class's label is checked first, then name, size and element_order
            (lambda doc: doc["classes"].__setitem__(1, {"label": "x"}),
             "field 'label' in class 1 must be a list of integers"),
            (lambda doc: doc["classes"][1].update(size=True),
             "field 'size' in class 1 has wrong type"),
            (lambda doc: doc["classes"][1].__delitem__("element_order"),
             "missing field 'element_order' in class 1"),
        ],
        ids=["document-list", "class-int", "character-int", "metadata-list", "unknown-metadata",
             "zeta5-degree", "record-conductor", "unknown-reference",
             "reference-before-record", "string-value", "bool-beside-references",
             "label-before-name", "bool-size", "missing-element-order"],
    )
    def test_schema_error_texts(self, mutate, text):
        doc = table_to_json(fixture_table("a5"))
        doc = mutate(doc) or doc
        with pytest.raises(SchemaError) as info:
            table_from_json(doc)
        assert str(info.value) == text

    @pytest.mark.parametrize(
        "place,text",
        [
            (lambda doc, rec: rec, "missing field 'group_name' in table"),
            (lambda doc, rec: doc["classes"].__setitem__(1, rec), "missing field 'name' in class 1"),
            (lambda doc, rec: doc["characters"].__setitem__(1, rec),
             "missing field 'values' in character 1"),
            (lambda doc, rec: doc.update(metadata=rec),
             "unknown metadata fields: ['coeffs', 'conductor']"),
            (lambda doc, rec: doc["characters"][1]["values"].__setitem__(
                1, {"conductor": 5, "coeffs": [rec] * 4}),
             "character 1 has a malformed value: coefficients are pairs of integers, "
             "got ['conductor', 'coeffs']"),
            (lambda doc, rec: doc["characters"][1]["values"].__setitem__(
                1, {"conductor": rec, "coeffs": [[0, 1], [1, 1]]}),
             "character 1 has a malformed value: conductor must be an int: "
             "{'conductor': 3, 'coeffs': [[0, 1], [1, 1]]}"),
        ],
        ids=["document", "class", "character", "metadata", "coefficient", "conductor"],
    )
    def test_value_record_out_of_value_position(self, tmp_path, place, text):
        # a record that decodes as a value, where no value stands: the loader
        # gives the text that table_from_json gives on the plain document
        doc = table_to_json(fixture_table("a5"))
        doc = place(doc, {"conductor": 3, "coeffs": [[0, 1], [1, 1]]}) or doc
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        for load in (lambda: load_table(path), lambda: table_from_json(json.loads(path.read_text()))):
            with pytest.raises(SchemaError) as info:
                load()
            assert str(info.value) == text

    @pytest.mark.parametrize(
        "make,digest",
        [
            (lambda: direct_product(fixture_table("a7"), fixture_table("m11")),
             "83e4dfac8fd65b5b7e3cb0eda5fe8d6ca1167b70b60aff27095dd2816e7c102e"),
            (lambda: direct_product(build_dihedral(10), build_cyclic(8)),
             "816f8815fa2f9dcc6797eaca87133aeb710d9c76b06ec5c5cb2bdf72ed60f6a9"),
            (lambda: build_dihedral(256),
             "d49ce05ed4811f2c470a1115658144e01f59773597d5d58177c1bf241a84c9ac"),
        ],
        ids=["a7xm11", "d20xc8", "d512"],
    )
    def test_irrational_files_are_pinned(self, tmp_path, make, digest):
        t = make()
        save_table(t, tmp_path / "t.json")
        assert hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest() == digest
        assert load_table(tmp_path / "t.json") == t

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(
                Cyclotomic(5, [0, 0, 0, 10**5000]),
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.10 writes any int"
                ),
            ),
            5,
        ],
        ids=["5000-digit-coefficient", "int-for-a-value"],
    )
    def test_unencodable_table_leaves_no_file(self, tmp_path, value):
        # the value is the last of the last row, after every line a writer
        # that opened the file first would already have written
        t = build_dihedral(5)
        t = with_row(t, len(t.characters) - 1, t.characters[-1].values[:-1] + (value,))
        path = tmp_path / "t.json"
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises((ValueError, AttributeError)):
                save_table(t, path)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert not path.exists()

    @pytest.mark.parametrize(
        "setup,call,bound",
        [
            ("save_table(build_dihedral(128), path)", "load_table(path)", 8_000_000),
            # a record at every irrational entry, as files were written before
            # references: one json.dumps per row of cyc_to_json records
            ("t = build_dihedral(128)\n"
             "rows = [{'name': ch.name, 'values': list(map(cyc_to_json, ch.values))}"
             " for ch in t.characters]\n"
             "doc = {**table_to_json(t), 'characters': rows}\n"
             "with open(path, 'w', encoding='utf-8') as f: f.write(json.dumps(doc))",
             "load_table(path)", 8_000_000),
            ("t = build_dihedral(128)", "save_table(t, path)", 1_000_000),
        ],
        ids=["load-d256", "load-d256-inline", "save-d256"],
    )
    def test_codec_peak_memory(self, tmp_path, setup, call, bound):
        # traced peak of one call in a fresh process: the loader keeps one
        # dict per distinct value record, whether the file writes each once or
        # at every entry, and the writer forms one row text at a time
        code = (
            "import json, sys, tracemalloc\n"
            "from charzero.chartable import build_dihedral, load_table, save_table, table_to_json\n"
            "from charzero.cyclotomic import cyc_to_json\n"
            "path = sys.argv[1]\n"
            f"{setup}\n"
            "tracemalloc.start()\n"
            f"{call}\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "d256.json")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert int(run.stdout) < bound, run.stdout

    def test_identity_reordered_on_ingest(self):
        doc = table_to_json(build_cyclic(3))
        doc["classes"] = doc["classes"][1:] + doc["classes"][:1]
        for ch in doc["characters"]:
            ch["values"] = ch["values"][1:] + ch["values"][:1]
        t = table_from_json(doc)
        assert t.classes[0].element_order == 1
        assert validate(t) == []


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_loads_and_validates(self, name):
        t = load_table(FIXTURE_DIR / f"{name}.json")
        assert validate(t) == []
        assert t.metadata.simple and t.metadata.solvable is False

    def test_a5_shape(self):
        t = load_table(FIXTURE_DIR / "a5.json")
        assert t.order == 60
        assert sorted(ch.degree for ch in t.characters) == [1, 3, 3, 4, 5]
