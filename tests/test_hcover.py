import itertools
import random

import pytest

from charzero.chartable import build_abelian, build_dihedral, build_symmetric, direct_product
from charzero.hcover import NoCoverError, check_cover, min_cover
from charzero.vanishing import ZeroPattern, pattern_to_json, zero_pattern


def brute_force_k_min(zeros):
    """Exhaustive minimum hitting set for patterns with few columns."""
    rows = [frozenset(c for c, z in enumerate(row) if z) for row in zeros]
    if not rows:
        return 0
    n_cols = len(zeros[0])
    for k in range(0, n_cols + 1):
        for subset in itertools.combinations(range(n_cols), k):
            s = set(subset)
            if all(s & r for r in rows):
                return k
    raise AssertionError("no cover exists")


def pair_cover_product(cover_a, cover_b, a, b):
    """Oracle for product covers: pair covers of the factors into a cover of
    the direct product, whose class (i, j) has index i * #classes(B) + j.
    The smaller cover is padded by repeating its last element."""
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


def make_pattern(zeros):
    n_cols = len(zeros[0]) if zeros else 0
    return ZeroPattern(
        table_ref="synthetic",
        nonlinear_idx=tuple(range(len(zeros))),
        class_sizes=(2,) * n_cols,
        rows=tuple(sum(1 << c for c, z in enumerate(row) if z) for row in zeros),
        row_names=tuple(f"r{i}" for i in range(len(zeros))),
        col_names=tuple(f"c{j}" for j in range(n_cols)),
    )


class TestMinCover:
    def test_abelian_vacuous(self):
        r = min_cover(zero_pattern(build_abelian([2, 2])))
        assert r.k_min == 0 and r.witness == ()

    def test_s3_single_class(self):
        t = build_symmetric(3)
        r = min_cover(zero_pattern(t))
        assert r.k_min == 1
        assert t.classes[r.witness[0]].label == (2, 1)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_symmetric_h2(self, n, symmetric_tables):
        assert min_cover(zero_pattern(symmetric_tables[n])).k_min <= 2

    def test_no_cover_raises(self):
        p = make_pattern([[True, False], [False, False]])
        with pytest.raises(NoCoverError):
            min_cover(p)

    def test_witness_always_covers(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            r = min_cover(p)
            ok, uncovered = check_cover(p, r.witness)
            assert ok and not uncovered, t.group_name

    def test_deterministic(self):
        p = zero_pattern(build_symmetric(7))
        assert min_cover(p) == min_cover(p)

    def test_oracle_on_random_matrices(self):
        rng = random.Random(1234)
        for _ in range(100):
            n_rows = rng.randint(1, 8)
            n_cols = rng.randint(1, 14)
            zeros = [
                [rng.random() < 0.3 for _ in range(n_cols)] for _ in range(n_rows)
            ]
            for row in zeros:  # every row must have a cover candidate
                if not any(row):
                    row[rng.randrange(n_cols)] = True
            p = make_pattern(zeros)
            assert min_cover(p).k_min == brute_force_k_min(zeros)

    def test_oracle_on_small_corpus_patterns(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            if p.n_cols <= 14 and p.n_rows:
                assert min_cover(p).k_min == brute_force_k_min(pattern_to_json(p)["zeros"])

    def test_monotonicity(self):
        rng = random.Random(99)
        for _ in range(30):
            n_rows, n_cols = rng.randint(2, 6), rng.randint(2, 10)
            zeros = [[rng.random() < 0.4 for _ in range(n_cols)] for _ in range(n_rows)]
            for row in zeros:
                if not any(row):
                    row[rng.randrange(n_cols)] = True
            k_full = min_cover(make_pattern(zeros)).k_min
            # dropping a row never increases k_min
            sub = zeros[:-1]
            if sub:
                assert min_cover(make_pattern(sub)).k_min <= k_full
            # dropping a column never decreases it (when still coverable)
            col = rng.randrange(n_cols)
            shrunk = [[z for c, z in enumerate(row) if c != col] for row in zeros]
            if all(any(row) for row in shrunk):
                assert min_cover(make_pattern(shrunk)).k_min >= k_full


class TestCheckCover:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_h2_witness_pair(self, n, symmetric_tables):
        t = symmetric_tables[n]
        p = zero_pattern(t)
        idx = {c.label: i for i, c in enumerate(t.classes)}
        pair = {idx[(n,)], idx[(n - 1, 1)]} if n >= 2 else set()
        ok, uncovered = check_cover(p, pair)
        assert ok, uncovered

    @pytest.mark.parametrize("n", [8, 10])
    def test_even_witness_triple(self, n, symmetric_tables):
        t = symmetric_tables[n]
        p = zero_pattern(t)
        idx = {c.label: i for i, c in enumerate(t.classes)}
        triple = {idx[(n - 1, 1)], idx[(n - 3, 3)], idx[(n - 4, 2, 1, 1)]}
        assert check_cover(p, triple)[0]

    @pytest.mark.parametrize("n", [9])
    def test_odd_witness_triple(self, n, symmetric_tables):
        t = symmetric_tables[n]
        p = zero_pattern(t)
        idx = {c.label: i for i, c in enumerate(t.classes)}
        triple = {idx[(n,)], idx[(n - 4, 2, 2)], idx[(n - 5, 4, 1)]}
        assert check_cover(p, triple)[0]

    def test_reports_uncovered(self):
        t = build_symmetric(5)
        p = zero_pattern(t)
        ok, uncovered = check_cover(p, [])
        assert not ok and len(uncovered) == p.n_rows


class TestPairCoverProduct:
    def test_both_abelian(self):
        a = build_abelian([2, 2])
        assert pair_cover_product([], [], a, a) == []

    def test_s3_squared(self):
        a = build_symmetric(3)
        pa = zero_pattern(a)
        wa = list(min_cover(pa).witness)
        prod = direct_product(a, a)
        cover = pair_cover_product(wa, wa, a, a)
        assert len(cover) == 1
        assert check_cover(zero_pattern(prod), cover)[0]

    def test_padding(self):
        a, b = build_symmetric(5), build_dihedral(4)
        wa = list(min_cover(zero_pattern(a)).witness)  # size 2
        wb = list(min_cover(zero_pattern(b)).witness)  # size 1
        prod = direct_product(a, b)
        cover = pair_cover_product(wa, wb, a, b)
        assert len(cover) == 2
        assert check_cover(zero_pattern(prod), cover)[0]

    def test_random_products(self, random_products):
        for a, b, prod in random_products:
            wa = list(min_cover(zero_pattern(a)).witness)
            wb = list(min_cover(zero_pattern(b)).witness)
            cover = pair_cover_product(wa, wb, a, b)
            assert check_cover(zero_pattern(prod), cover)[0], prod.group_name

    def test_empty_cover_with_nonlinear_product_rejected(self):
        a, b = build_abelian([2, 2]), build_symmetric(3)
        wb = list(min_cover(zero_pattern(b)).witness)
        with pytest.raises(ValueError):
            pair_cover_product([], wb, a, b)
