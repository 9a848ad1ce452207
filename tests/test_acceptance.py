"""Acceptance suite: twelve end-to-end criteria, one test each.

Run with -v to get one pass/fail line per criterion.
"""

import itertools
import random
import shutil
import time

from charzero.chartable import build_symmetric, save_table, validate
from charzero.hcover import check_cover, min_cover
from charzero.partitions import mn_value, partitions_of
from charzero.vanishing import camina_classes, pattern_to_json, zero_pattern
from charzero.zerographs import components, delta_v, gamma_v, independence_number
from charzero.chartable import build_dihedral
from charzero.cli import main

from conftest import FIXTURE_DIR, FIXTURE_NAMES
from test_hcover import brute_force_k_min, make_pattern, pair_cover_product
from test_partitions import conjugate, degree, has_hook, sign_of
from test_zerographs import brute_force_alpha


def test_criterion_01_symmetric_tables_exact_orthogonality():
    """S_n for n <= 10: exact orthogonality and sum deg^2 = n!."""
    start = time.monotonic()
    fact = 1
    for n in range(1, 11):
        fact *= n
        t = build_symmetric(n)
        assert validate(t) == [], f"S_{n}: {validate(t)}"
        assert sum(ch.degree**2 for ch in t.characters) == fact
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_mn_matches_hook_formula_and_sign_twist():
    """mn_value(lam, (1^n)) equals the hook-length degree, and the conjugate
    partition's character is the sign twist, for all lam, mu with n <= 8."""
    for n in range(1, 9):
        parts = partitions_of(n)
        ones = (1,) * n
        for lam in parts:
            assert mn_value(lam, ones) == degree(lam)
            lam_c = conjugate(lam)
            for mu in parts:
                assert mn_value(lam_c, mu) == sign_of(mu) * mn_value(lam, mu)


def test_criterion_03_even_n_triple_covers():
    """n in {8, 10, 12}: each nonlinear character of S_n vanishes on one of
    the classes (n-1,1), (n-3,3), (n-4,2,1,1)."""
    for n in (8, 10, 12):
        triple = [(n - 1, 1), (n - 3, 3), (n - 4, 2, 1, 1)]
        for lam in partitions_of(n):
            if lam in ((n,), (1,) * n):
                continue
            assert any(mn_value(lam, mu) == 0 for mu in triple), (n, lam)


def test_criterion_04_odd_n_triple_covers():
    """n in {9, 11, 13}: the classes (n), (n-4,2,2), (n-5,4,1) cover."""
    for n in (9, 11, 13):
        triple = [(n,), (n - 4, 2, 2), (n - 5, 4, 1)]
        for lam in partitions_of(n):
            if lam in ((n,), (1,) * n):
                continue
            assert any(mn_value(lam, mu) == 0 for mu in triple), (n, lam)


def test_criterion_05_symmetric_h2_pair_and_hook_lemma():
    """2 <= n <= 12: the pair {(n), (n-1,1)} covers, and only (n) and (1^n)
    have both an n-hook and an (n-1)-hook."""
    for n in range(2, 13):
        both_hooks = [
            lam for lam in partitions_of(n) if has_hook(lam, n) and has_hook(lam, n - 1)
        ]
        assert sorted(both_hooks) == sorted({(n,), (1,) * n}), (n, both_hooks)
        pair = [(n,), (n - 1, 1)]
        for lam in partitions_of(n):
            if lam in ((n,), (1,) * n):
                continue
            assert any(mn_value(lam, mu) == 0 for mu in pair), (n, lam)


def test_criterion_06_dihedral_zero_congruence_and_independence():
    """D_{2^{n+1}} for 2 <= n <= 7: chi_i(x^j) = 0 exactly when
    i*j = 2^{n-2} (mod 2^{n-1}), and Delta_v has independence number n-1."""
    start = time.monotonic()
    for n in range(2, 8):
        m = 2**n
        t = build_dihedral(m)
        p = zero_pattern(t)
        rows = {name: r for r, name in enumerate(p.row_names)}
        cols = {name: c for c, name in enumerate(p.col_names)}
        zeros = pattern_to_json(p)["zeros"]
        for i in range(1, m // 2):
            for j in range(1, m // 2 + 1):
                want = (i * j) % 2 ** (n - 1) == 2 ** (n - 2)
                got = zeros[rows[f"chi_{i}"]][cols[f"x^{j}"]]
                assert got == want, (n, i, j)
        alpha, _ = independence_number(delta_v(p))
        assert alpha == n - 1, (n, alpha)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_07_component_counts_agree(corpus):
    """#components(Gamma_v) == #components(Delta_v) on every corpus table."""
    for t in corpus:
        p = zero_pattern(t)
        assert len(components(gamma_v(p))) == len(components(delta_v(p))), t.group_name


def test_criterion_08_simple_fixtures_h3_certified(fixture_tables):
    """All simple-group fixtures validate exactly and have k_min <= 3, with
    optimality certified by exhaustive search below k_min."""
    for t in fixture_tables:
        assert validate(t) == [], t.group_name
        p = zero_pattern(t)
        r = min_cover(p)
        assert r.k_min <= 3, (t.group_name, r.k_min)
        assert check_cover(p, r.witness)[0]
        for smaller in itertools.combinations(range(p.n_cols), r.k_min - 1):
            assert not check_cover(p, smaller)[0], (t.group_name, smaller)


def test_criterion_09_solver_brute_force_oracles(corpus):
    """min_cover and independence_number match brute force on small corpus
    instances and on 100 random boolean matrices."""
    for t in corpus:
        p = zero_pattern(t)
        if 0 < p.n_rows and p.n_cols <= 14:
            zeros = pattern_to_json(p)["zeros"]
            assert min_cover(p).k_min == brute_force_k_min(zeros), t.group_name
        for g in (gamma_v(p), delta_v(p)):
            if len(g.vertices) <= 20:
                assert independence_number(g)[0] == brute_force_alpha(g), t.group_name
    rng = random.Random(987654)
    for _ in range(100):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 14)
        zeros = [[rng.random() < 0.3 for _ in range(n_cols)] for _ in range(n_rows)]
        for row in zeros:
            if not any(row):
                row[rng.randrange(n_cols)] = True
        assert min_cover(make_pattern(zeros)).k_min == brute_force_k_min(zeros)


def test_criterion_10_camina_definitions_agree(corpus):
    """Column test and class-size test for Camina classes agree corpus-wide
    (camina_classes raises DataIntegrityError on any disagreement)."""
    for t in corpus:
        camina_classes(t, zero_pattern(t))


def test_criterion_11_product_covers_verify(random_products):
    """pair_cover_product witnesses cover on 20 random direct products."""
    for a, b, prod in random_products:
        wa = list(min_cover(zero_pattern(a)).witness)
        wb = list(min_cover(zero_pattern(b)).witness)
        cover = pair_cover_product(wa, wb, a, b)
        assert check_cover(zero_pattern(prod), cover)[0], prod.group_name


def test_criterion_12_cli_verify_full_corpus_clean(tmp_path, random_products, capsys):
    """`charzero verify` over the full generated-plus-fixture corpus exits 0:
    no conjecture counterexamples or bad-data flags."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in range(2, 11):
        assert main(["gen", "sym", str(n), "-o", str(corpus / f"s{n:02d}.json")]) == 0
    for m in range(3, 65):
        assert main(["gen", "dihedral", str(m), "-o", str(corpus / f"d{2 * m:03d}.json")]) == 0
    for i, invariants in enumerate(([2, 2], [4], [2, 4], [6])):
        assert main(
            ["gen", "abelian", *map(str, invariants), "-o", str(corpus / f"ab{i}.json")]
        ) == 0
    for i, (_, _, prod) in enumerate(random_products):
        save_table(prod, corpus / f"prod{i:02d}.json")
    for name in FIXTURE_NAMES:
        shutil.copy(FIXTURE_DIR / f"{name}.json", corpus / f"{name}.json")
    code = main(["verify", str(corpus)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("file,group,flags")
