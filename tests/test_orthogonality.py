"""Row orthogonality in `validate` (one check in Z/Phi_N(2^s)) against the
exact Cyclotomic sums it replaced, plus the soundness cases of its bound."""

import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charzero.chartable import (
    Character,
    SchemaError,
    _gram_modulus,
    build_abelian,
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
    save_table,
    validate,
)
from charzero.cli import main
from charzero.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi

from conftest import FIXTURE_DIR, FIXTURE_NAMES

ROW_FAIL = re.compile(r"row orthogonality fails for characters (\d+),(\d+)")


def cyclotomic_orthogonality(t):
    """Oracle: (failing row pairs, failing column pairs) of t, both relations
    summed in exact Cyclotomic arithmetic."""
    conj_rows = [[v.conj() for v in ch.values] for ch in t.characters]
    rows = set()
    for r1, ch1 in enumerate(t.characters):
        for r2 in range(r1, len(t.characters)):
            acc = Cyclotomic.zero()
            for c, cls in enumerate(t.classes):
                acc = acc + cls.size * (ch1.values[c] * conj_rows[r2][c])
            if acc != (t.order if r1 == r2 else 0):
                rows.add((r1, r2))
    cols = set()
    for c1 in range(len(t.classes)):
        for c2 in range(c1, len(t.classes)):
            acc = Cyclotomic.zero()
            for r in range(len(t.characters)):
                acc = acc + t.characters[r].values[c1] * conj_rows[r][c2]
            expect = Fraction(t.order, t.classes[c1].size) if c1 == c2 else 0
            if acc != expect:
                cols.add((c1, c2))
    return rows, cols


def failing_rows(t):
    return {(int(a), int(b)) for f in validate(t) for a, b in ROW_FAIL.findall(f)}


def with_value(t, r, c, value):
    ch = t.characters[r]
    values = ch.values[:c] + (value,) + ch.values[c + 1 :]
    chars = t.characters[:r] + (Character(ch.name, values),) + t.characters[r + 1 :]
    return t._replace(characters=chars)


def add_to_coefficient(t, r, c, e, delta):
    v = t.characters[r].values[c]
    coeffs = list(v.coeffs)
    coeffs[e % len(coeffs)] += delta
    return with_value(t, r, c, Cyclotomic(v.conductor, coeffs))


def fixture(name):
    return load_table(FIXTURE_DIR / f"{name}.json")


AGREEMENT_TABLES = {
    **{f"D{2 * m}": (lambda m=m: build_dihedral(m)) for m in range(3, 21)},
    **{f"S{n}": (lambda n=n: build_symmetric(n)) for n in range(2, 8)},
    **{name: (lambda name=name: fixture(name)) for name in FIXTURE_NAMES},
    "D6xD10": lambda: direct_product(build_dihedral(3), build_dihedral(5)),
    "C2xC4": lambda: build_abelian([2, 4]),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_TABLES))
def test_single_coefficient_corruptions_agree_with_oracle(name):
    t = AGREEMENT_TABLES[name]()
    assert validate(t) == []
    rng = random.Random(name)
    for _ in range(6):
        r, c = rng.randrange(len(t.characters)), rng.randrange(len(t.classes))
        e = rng.randrange(len(t.characters[r].values[c].coeffs))
        bad = add_to_coefficient(t, r, c, e, rng.choice((1, -1, 2)))
        rows, cols = cyclotomic_orthogonality(bad)
        assert rows, (r, c, e)
        assert failing_rows(bad) == rows, (r, c, e)
        # on a square table the column relations hold exactly when the rows do
        assert bool(cols) == bool(rows)


def test_half_coefficient_is_rejected(tmp_path, capsys):
    # D8 with 1/2 added to one value, written as the pair [2v + 1, 2]
    path = tmp_path / "d8_half.json"
    save_table(build_dihedral(4), path)
    doc = json.loads(path.read_text())
    values = doc["characters"][4]["values"]
    values[2] = {"conductor": 1, "coeffs": [[2 * values[2] + 1, 2]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="not an algebraic integer"):
        load_table(path)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == f"{path},,load-error"
    [line] = err.splitlines()
    assert line.startswith("error:") and "not an algebraic integer" in line


def conductor_lcm(t):
    return math.lcm(*(v.conductor for ch in t.characters for v in ch.values))


@pytest.mark.parametrize("name", ["D8", "m11"])
def test_adding_phi_n_of_a_power_of_two_is_flagged(name):
    # Adding Phi_N(2^s) leaves the image mod Phi_N(2^s) unchanged, so a
    # modulus picked without looking at the values (say from the degrees)
    # misses it for one s.  The L1 bound moves the modulus past every s.
    t = build_dihedral(4) if name == "D8" else fixture(name)
    poly = cyclotomic_polynomial(conductor_lcm(t))
    v = t.characters[1].values[1]
    for s in range(1, 65):
        k = sum(coef << (s * i) for i, coef in enumerate(poly))
        fails = validate(with_value(t, 1, 1, v + k))
        assert any(f.startswith("row orthogonality fails") for f in fails), s


def test_huge_modulus_validates_in_small_memory():
    # M11 plus Phi_88(2^64) has M of about 205 000 bits (25 KB); each distinct
    # value and its conjugate map to one integer of at most that size, so the
    # Gram check holds a few dozen of them and no table of powers of x
    t = fixture("m11")
    poly = cyclotomic_polynomial(conductor_lcm(t))
    k = sum(coef << (64 * i) for i, coef in enumerate(poly))
    bad = with_value(t, 1, 1, t.characters[1].values[1] + k)
    tracemalloc.start()
    try:
        fails = validate(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(f.startswith("row orthogonality fails") for f in fails)
    assert peak < 1_500_000, peak


def assert_modulus_beats_norm_bound(t):
    n, x, modulus = _gram_modulus(t, [v for ch in t.characters for v in ch.values])
    assert n == conductor_lcm(t)
    l1 = max(sum(abs(q) for q in v.coeffs) for ch in t.characters for v in ch.values)
    bound = sum(c.size for c in t.classes) * l1 * l1 + t.order
    assert x > bound + 1 and x & (x - 1) == 0
    assert modulus == sum(coef * x**i for i, coef in enumerate(cyclotomic_polynomial(n)))
    assert modulus > bound ** euler_phi(n)


def test_modulus_beats_norm_bound_on_corpus(corpus):
    for t in corpus:
        assert_modulus_beats_norm_bound(t)


PERTURBED_TABLES = [
    build_dihedral(4), build_symmetric(4), build_abelian([2, 4]), fixture("a5"), fixture("m11")
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PERTURBED_TABLES),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=-(2**80), max_value=2**80),
)
def test_modulus_beats_norm_bound_under_perturbation(t, r, c, e, delta):
    r, c = r % len(t.characters), c % len(t.classes)
    assert_modulus_beats_norm_bound(add_to_coefficient(t, r, c, e, delta))
