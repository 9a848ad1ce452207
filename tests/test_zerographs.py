import itertools
import random

import pytest

from charzero import zerographs
from charzero.chartable import TableMetadata, build_abelian, build_dihedral, build_symmetric
from charzero.vanishing import zero_pattern
from charzero.zerographs import (
    GraphTooLargeError,
    SimpleGraph,
    bipartite_to_dot,
    bound_checks,
    components,
    delta_v,
    gamma_v,
    independence_number,
    theta,
    to_dot,
)


def graph_from_edges(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return SimpleGraph(tuple(f"v{i}" for i in range(n)), tuple(adj))


def adjacent(g, i, j):
    return bool(g.adjacency[i] >> j & 1)


def greedy_set(g):
    """Lowest vertex first, then drop its neighbours."""
    chosen = []
    for v in range(len(g.vertices)):
        if not any(adjacent(g, v, u) for u in chosen):
            chosen.append(v)
    return tuple(chosen)


def brute_force_alpha(g):
    n = len(g.vertices)

    def rec(i, chosen):
        if i == n:
            return len(chosen)
        best = rec(i + 1, chosen)
        if all(not adjacent(g, i, j) for j in chosen):
            best = max(best, rec(i + 1, chosen + [i]))
        return best

    return rec(0, [])


class TestSimpleGraph:
    @pytest.mark.parametrize(
        "adjacency",
        [
            (0b01, 0b00),  # loop at vertex 0
            (0b10, 0b00),  # 0 -- 1 without 1 -- 0
            (0b00, 0b01),  # 1 -- 0 without 0 -- 1
            (0b100, 0b000),  # bit 2 on a 2-vertex graph
            (-1, 0b00),  # a negative mask sets every bit
            (0b0,),  # one mask for two vertices
        ],
    )
    def test_rejects_malformed_adjacency(self, adjacency):
        with pytest.raises(ValueError):
            SimpleGraph(("a", "b"), adjacency)

    def test_accepts_symmetric(self):
        g = SimpleGraph(("a", "b", "c"), (0b110, 0b001, 0b001))
        assert adjacent(g, 0, 2) and adjacent(g, 2, 0) and not adjacent(g, 1, 2)

    @pytest.mark.parametrize("adjacency", [(0b01, 0b00), (0b10, 0b00)], ids=["loop", "asymmetric"])
    def test_replace_and_make_check_too(self, adjacency):
        g = SimpleGraph(("a", "b"), (0b10, 0b01))
        with pytest.raises(ValueError):
            g._replace(adjacency=adjacency)
        with pytest.raises(ValueError):
            SimpleGraph._make((("a", "b"), adjacency))
        assert g._replace(adjacency=(0, 0)) == SimpleGraph._make((("a", "b"), (0, 0)))


class TestGammaV:
    def test_single_nonlinear_edgeless(self):
        g = gamma_v(zero_pattern(build_symmetric(3)))
        assert len(g.vertices) == 1 and components(g) == [[0]]

    def test_d16_complete(self):
        g = gamma_v(zero_pattern(build_dihedral(8)))
        n = len(g.vertices)
        assert all(adjacent(g, i, j) for i in range(n) for j in range(n) if i != j)

    def test_s5_component_structure(self):
        # chi(3,2) and chi(2,2,1) vanish only on the 5-cycle class, giving a
        # second component; Delta_v must match the count
        p = zero_pattern(build_symmetric(5))
        g = gamma_v(p)
        assert len(components(g)) == 2
        assert len(components(delta_v(p))) == 2


class TestDeltaV:
    def test_s3_single_vertex(self):
        d = delta_v(zero_pattern(build_symmetric(3)))
        assert len(d.vertices) == 1
        assert not any(d.adjacency)

    def test_abelian_empty(self):
        d = delta_v(zero_pattern(build_abelian([2, 2])))
        assert d.vertices == ()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dihedral_reflection_pair_adjacent(self, n):
        t = build_dihedral(2**n)
        d = delta_v(zero_pattern(t))
        names = list(d.vertices)
        i, j = names.index("refl_even"), names.index("refl_odd")
        assert adjacent(d, i, j)


class TestTheta:
    def test_no_isolated_left_vertex(self, corpus):
        for t in corpus:
            th = theta(t, zero_pattern(t))
            for i in range(len(th.left)):
                assert any(th.edges[i]), (t.group_name, th.left[i])

    def test_s3_isolated_class(self):
        t = build_symmetric(3)
        th = theta(t, zero_pattern(t))
        j = list(th.right).index("g(3,)")
        assert not any(th.edges[i][j] for i in range(len(th.left)))

    def test_camina_iff_adjacent_to_all_characters(self, corpus):
        from charzero.vanishing import camina_classes

        for t in corpus:
            p = zero_pattern(t)
            if p.n_rows == 0:
                continue
            th = theta(t, p)
            camina_names = {t.classes[c].name for c in camina_classes(t, p)}
            for j, cname in enumerate(th.right):
                all_adjacent = all(th.edges[i][j] for i in range(len(th.left)))
                assert all_adjacent == (cname in camina_names), t.group_name

    def test_projections_match_gamma_and_delta(self, corpus):
        # Gamma_v and Delta_v are the two one-mode projections of Theta
        for t in corpus:
            p = zero_pattern(t)
            th = theta(t, p)
            g, d = gamma_v(p), delta_v(p)
            ln = len(th.left)
            for i in range(ln):
                for j in range(ln):
                    shared = any(th.edges[i][c] and th.edges[j][c] for c in range(len(th.right)))
                    assert adjacent(g, i, j) == (i != j and shared)
            dn = {name: k for k, name in enumerate(d.vertices)}
            for ci, cname in enumerate(th.right):
                for cj, cname2 in enumerate(th.right):
                    shared = any(th.edges[r][ci] and th.edges[r][cj] for r in range(ln))
                    if cname in dn and cname2 in dn and ci != cj:
                        assert adjacent(d, dn[cname], dn[cname2]) == shared


class TestComponents:
    def test_edgeless(self):
        g = graph_from_edges(4, [])
        assert components(g) == [[0], [1], [2], [3]]

    def test_complete(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert components(g) == [[0, 1, 2, 3]]

    def test_gamma_delta_component_equality(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            assert len(components(gamma_v(p))) == len(components(delta_v(p))), t.group_name


class TestIndependenceNumber:
    def test_empty_graph(self):
        assert independence_number(graph_from_edges(0, [])) == (0, ())
        # an abelian table has no nonlinear characters, so Gamma_v is empty
        assert independence_number(gamma_v(zero_pattern(build_abelian([2, 4])))) == (0, ())

    def test_edgeless(self):
        a, w = independence_number(graph_from_edges(5, []))
        assert a == 5 and w == (0, 1, 2, 3, 4)

    def test_complete(self):
        g = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        a, w = independence_number(g)
        assert a == 1 and w == (0,)

    def test_witness_is_independent(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 15)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            g = graph_from_edges(n, edges)
            a, w = independence_number(g)
            assert len(w) == a
            assert all(not adjacent(g, i, j) for i in w for j in w if i != j)

    def test_brute_force_oracle_random(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 14)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
            ]
            g = graph_from_edges(n, edges)
            assert independence_number(g)[0] == brute_force_alpha(g)

    def test_brute_force_oracle_corpus(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            for g in (gamma_v(p), delta_v(p)):
                if len(g.vertices) <= 20:
                    assert independence_number(g)[0] == brute_force_alpha(g), t.group_name

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dihedral_delta_v_value(self, n):
        t = build_dihedral(2**n)
        d = delta_v(zero_pattern(t))
        assert independence_number(d)[0] == n - 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dihedral_gamma_v_value(self, n):
        g = gamma_v(zero_pattern(build_dihedral(2**n)))
        assert independence_number(g)[0] == 1

    def test_witness_is_the_greedy_set_when_that_is_maximum(self):
        # the witness is the set the search found: independent, sorted and of
        # size alpha, and the greedy set (lowest vertex first) if that is maximum
        rng = random.Random(11)
        greedy_maximum = 0
        for _ in range(150):
            n = rng.randint(1, 13)
            density = rng.choice((0.2, 0.4, 0.6))
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
            ]
            g = graph_from_edges(n, edges)
            alpha, w = independence_number(g)
            assert alpha == brute_force_alpha(g) and len(w) == alpha, edges
            assert list(w) == sorted(set(w)), edges
            assert not any(adjacent(g, i, j) for i, j in itertools.combinations(w, 2)), edges
            if len(greedy_set(g)) == alpha:
                greedy_maximum += 1
                assert w == greedy_set(g), edges
        assert 0 < greedy_maximum < 150

    def test_corpus_witnesses(self, corpus):
        for t in corpus:
            p = zero_pattern(t)
            for g in (gamma_v(p), delta_v(p)):
                alpha, w = independence_number(g)
                assert len(w) == alpha and list(w) == sorted(set(w)), t.group_name
                assert not any(adjacent(g, i, j) for i, j in itertools.combinations(w, 2))
                if len(greedy_set(g)) == alpha:
                    assert w == greedy_set(g), t.group_name

    def test_one_decision_search_per_vertex_above_the_greedy_set(self, monkeypatch):
        # the searches independence_number starts itself, not their recursive
        # calls: each succeeds but the last, and nothing searches after it
        searches = []
        depth = 0
        search = zerographs._clique_at_least

        def counted(comp, cand, need):
            nonlocal depth
            if depth == 0:
                searches.append(need)
            depth += 1
            try:
                return search(comp, cand, need)
            finally:
                depth -= 1

        monkeypatch.setattr(zerographs, "_clique_at_least", counted)
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 13)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = graph_from_edges(n, edges)
            searches.clear()
            alpha, _ = independence_number(g)
            assert searches == list(range(len(greedy_set(g)) + 1, alpha + 2)), edges

    def test_disjoint_cliques_above_96_vertices(self):
        edges = [
            (30 * c + i, 30 * c + j) for c in range(5) for i in range(30) for j in range(i + 1, 30)
        ]
        g = graph_from_edges(150, edges)
        assert independence_number(g) == (5, (0, 30, 60, 90, 120))

    def test_complete_graph_above_96_vertices(self):
        g = graph_from_edges(120, [(i, j) for i in range(120) for j in range(i + 1, 120)])
        assert independence_number(g) == (1, (0,))

    def test_size_limit(self):
        g = graph_from_edges(10, [])
        with pytest.raises(GraphTooLargeError):
            independence_number(g, limit=9)


class TestBoundChecks:
    def test_dihedral_2_powers_clean(self):
        for n in range(2, 7):
            t = build_dihedral(2**n)
            assert bound_checks(t, zero_pattern(t)) == []

    @pytest.mark.parametrize("n", range(2, 11))
    def test_symmetric_clean(self, n, symmetric_tables):
        t = symmetric_tables[n]
        assert bound_checks(t, zero_pattern(t)) == []

    def test_corpus_clean(self, corpus):
        for t in corpus:
            assert bound_checks(t, zero_pattern(t)) == [], t.group_name

    def test_invalid_fitting_height_flagged(self):
        t = build_dihedral(4)
        bad = t._replace(metadata=TableMetadata(solvable=True, fitting_height=0))
        assert bound_checks(bad, zero_pattern(bad)) == ["metadata-invalid:fitting_height"]

    def test_fabricated_low_fitting_height_flagged(self):
        # S5 x S5 has Gamma_v independence > 1; a fake h(G)=1 must be caught
        t = build_symmetric(4)
        p = zero_pattern(t)
        alpha, _ = independence_number(gamma_v(p))
        if alpha > 1:
            bad = t._replace(metadata=TableMetadata(solvable=True, fitting_height=1))
            assert "fitting-height-bound-violated-bad-data" in bound_checks(bad, p)


class TestDot:
    def test_deterministic_and_well_formed(self):
        t = build_dihedral(8)
        p = zero_pattern(t)
        g = gamma_v(p)
        dot = to_dot(g, "gamma_v", {v: "x" for v in g.vertices})
        assert dot == to_dot(g, "gamma_v", {v: "x" for v in g.vertices})
        assert dot.startswith("graph gamma_v {")
        assert '"chi_1" -- "chi_2";' in dot

    def test_bipartite(self):
        t = build_symmetric(3)
        p = zero_pattern(t)
        dot = bipartite_to_dot(theta(t, p), "theta")
        assert '"chi(2, 1)" -- "g(2, 1)";' in dot
