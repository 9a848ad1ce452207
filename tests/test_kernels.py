"""The mask kernels against per-entry definitions, at their edges: tables
without nonlinear rows, patterns with no or one non-central class, S_20 and
a table whose equal values (zeros included) are distinct objects.  Also: the
search functions leave no reference cycles behind."""

import gc
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from charzero.chartable import build_abelian, build_cyclic, build_symmetric, load_table
from charzero.cyclotomic import Cyclotomic
from charzero.hcover import min_cover
from charzero.partitions import partitions_of
from charzero.vanishing import ZeroPattern, bits, pattern_to_json, zero_pattern
from charzero.zerographs import delta_v, gamma_v, independence_number, theta

from conftest import FIXTURE_DIR


def brute_rows(t):
    return tuple(
        sum(1 << c for c, v in enumerate(t.characters[r].values) if v.is_zero())
        for r in t.nonlinear_indices()
    )


def brute_cols(p):
    return tuple(
        sum(1 << r for r, row in enumerate(p.rows) if row >> c & 1) for c in range(p.n_cols)
    )


def brute_gamma(p):
    n = p.n_rows
    return tuple(
        sum(1 << j for j in range(n) if j != i and p.rows[i] & p.rows[j]) for i in range(n)
    )


def brute_delta(p):
    """(vertices, adjacency): c -- d iff some row vanishes on both."""
    cols = brute_cols(p)
    verts = [c for c in range(p.n_cols) if any(row >> c & 1 for row in p.rows)]
    adjacency = tuple(
        sum(1 << j for j, d in enumerate(verts) if d != c and cols[c] & cols[d]) for c in verts
    )
    return tuple(p.col_names[c] for c in verts), adjacency


def brute_theta(p):
    right = [c for c in range(p.n_cols) if p.class_sizes[c] > 1]
    edges = tuple(tuple(row >> c & 1 == 1 for c in right) for row in p.rows)
    return tuple(p.col_names[c] for c in right), edges


def assert_kernels_match(p):
    assert p.cols == brute_cols(p)
    g = gamma_v(p)
    assert g.vertices == p.row_names and g.adjacency == brute_gamma(p)
    d = delta_v(p)
    assert (d.vertices, d.adjacency) == brute_delta(p)
    th = theta(None, p)
    assert th.left == p.row_names and (th.right, th.edges) == brute_theta(p)
    assert all(type(e) is bool for row in th.edges for e in row)
    assert pattern_to_json(p)["zeros"] == [
        [row >> c & 1 for c in range(p.n_cols)] for row in p.rows
    ]


def hand_pattern(class_sizes, rows):
    return ZeroPattern(
        table_ref="hand",
        nonlinear_idx=tuple(range(len(rows))),
        class_sizes=tuple(class_sizes),
        rows=tuple(rows),
        row_names=tuple(f"chi{r}" for r in range(len(rows))),
        col_names=tuple(f"g{c}" for c in range(len(class_sizes))),
    )


@pytest.mark.parametrize("make", [lambda: build_cyclic(1), lambda: build_abelian([2, 4])])
def test_tables_without_nonlinear_rows(make):
    t = make()
    p = zero_pattern(t)
    assert p.rows == brute_rows(t) == ()
    assert p.cols == (0,) * len(t.classes)
    assert_kernels_match(p)
    assert gamma_v(p).vertices == delta_v(p).vertices == ()
    assert theta(t, p).edges == ()


HAND_CASES = [
    ((1,), ()),
    ((1,), (0, 0)),
    ((1, 1, 1), (0b110, 0b010, 0)),
    ((1, 3), (0b10, 0b10, 0)),
    ((1, 3), (0, 0)),
    ((1, 1, 3), (0b100, 0b001)),
    ((5, 1), (0b01,)),
]


@pytest.mark.parametrize("class_sizes, rows", HAND_CASES)
def test_hand_patterns_with_no_or_one_noncentral_class(class_sizes, rows):
    p = hand_pattern(class_sizes, rows)
    assert_kernels_match(p)
    assert len(theta(None, p).right) == sum(size > 1 for size in class_sizes)


def assert_class_masks(p):
    assert p.vanishing == reduce(or_, p.rows, 0)
    assert p.noncentral == sum(1 << c for c, size in enumerate(p.class_sizes) if size > 1)
    assert delta_v(p).vertices == tuple(p.col_names[c] for c in bits(p.vanishing))


@pytest.mark.parametrize("class_sizes, rows", HAND_CASES)
def test_class_masks_of_hand_patterns(class_sizes, rows):
    assert_class_masks(hand_pattern(class_sizes, rows))


def test_class_masks_of_the_corpus(corpus):
    for t in corpus:
        assert_class_masks(zero_pattern(t))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=70).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.lists(st.integers(min_value=0, max_value=2 ** len(sizes) - 1), max_size=70),
        )
    )
)
def test_random_hand_patterns(sizes_and_rows):
    assert_kernels_match(hand_pattern(*sizes_and_rows))


@pytest.fixture(scope="module")
def s20():
    return build_symmetric(20)


def test_s20(s20):
    assert len(s20.classes) == 627
    p = zero_pattern(s20)
    assert p.rows == brute_rows(s20)
    assert_kernels_match(p)


def test_unshared_values_and_zeros():
    """A zero stored as Cyclotomic(5, [0, 0, 0, 0]), fresh per entry, and
    every other entry its own object too: no kernel may rely on sharing."""
    t = load_table(FIXTURE_DIR / "a5.json")
    copy = t._replace(
        characters=tuple(
            ch._replace(values=tuple(
                Cyclotomic(5, [0, 0, 0, 0]) if v.is_zero() else Cyclotomic(v.conductor, v.coeffs)
                for v in ch.values
            ))
            for ch in t.characters
        )
    )
    assert len({id(v) for ch in copy.characters for v in ch.values}) == len(t.classes) ** 2
    assert any(v.conductor == 5 and v.is_zero() for ch in copy.characters for v in ch.values)
    p = zero_pattern(copy)
    assert p.rows == brute_rows(copy) == zero_pattern(t).rows
    assert_kernels_match(p)


@pytest.mark.parametrize("search", ["independence_number", "min_cover", "partitions_of"])
def test_one_call_leaves_no_garbage(search):
    # a closure that calls itself is a reference cycle, which only the cyclic
    # collector frees; each call on S_8 must leave nothing for it
    p = zero_pattern(build_symmetric(8))
    g = gamma_v(p)
    call = {
        "independence_number": lambda: independence_number(g),
        "min_cover": lambda: min_cover(p),
        "partitions_of": lambda: partitions_of(8),
    }[search]
    call()  # caches filled on first use are not garbage
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
