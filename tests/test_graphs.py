"""Conflict graph, degree bound, and coloring tests.

The blocking oracle here is built directly from the per-round reception
rule, so it is independent of the pairwise case analysis in the package.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from radiosched import graphs
from radiosched.errors import FormatError, ParameterError, SizeError


def reception_oracle(g, transmitting_links):
    """Delivered links per the round rule, with no case analysis."""
    tx_nodes = {g.links[i][0] for i in transmitting_links}
    delivered = set()
    for i in transmitting_links:
        u, v = g.links[i]
        if v in tx_nodes:
            continue
        if [w for w in g.in_neighbors(v) if w in tx_nodes] != [u]:
            continue
        if sum(1 for j in transmitting_links if g.links[j][0] == u) != 1:
            continue
        delivered.add(i)
    return delivered


def oracle_blocks(g):
    """Link a blocks link b iff b alone succeeds but fails alongside a."""
    m = g.link_count
    out = [set() for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            assert b in reception_oracle(g, {b})
            if b not in reception_oracle(g, {a, b}):
                out[a].add(b)
    return out


def networks_strategy():
    return st.builds(
        graphs.random_network,
        st.integers(2, 8),
        st.integers(1, 10),
        st.integers(0, 10**6),
    )


class TestConflictGraph:
    def test_two_node_network(self):
        g = graphs.path_graph(2)
        h = graphs.build_conflict_graph(g)
        assert g.links == ((0, 1), (1, 0))
        assert h.blocks == ((1,), (0,))
        assert h.max_in_degree == 1

    def test_three_node_path(self):
        g = graphs.path_graph(3)
        h = graphs.build_conflict_graph(g)
        assert g.link_count == 4
        in_degrees = sorted(len(h.blocked_by(v)) for v in range(4))
        assert in_degrees == [2, 2, 3, 3]
        # every pair conflicts in at least one direction
        for u, v in itertools.combinations(range(4), 2):
            assert v in h.conflict_neighbors(u)

    def test_clique_conflicts_are_complete(self):
        for n in (2, 3, 4):
            g = graphs.clique_graph(n)
            h = graphs.build_conflict_graph(g)
            m = n * n - n
            assert h.link_count == m
            assert all(len(h.conflict_neighbors(v)) == m - 1 for v in range(m))

    @settings(max_examples=120, deadline=None)
    @given(networks_strategy())
    def test_matches_reception_oracle(self, g):
        h = graphs.build_conflict_graph(g)
        expected = oracle_blocks(g)
        assert [set(v) for v in h.blocks] == expected

    @settings(max_examples=60, deadline=None)
    @given(networks_strategy(), st.integers(0, 10**6))
    def test_successful_links_matches_rule(self, g, seed):
        import random

        rng = random.Random(seed)
        cand = [i for i in range(g.link_count) if rng.random() < 0.5]
        got = set(graphs.successful_links(g, cand))
        assert got == reception_oracle(g, set(cand))

    def test_successes_are_conflict_independent(self):
        g = graphs.random_network(7, 9, seed=5)
        h = graphs.build_conflict_graph(g)
        for r in range(64):
            cand = [i for i in range(g.link_count) if (r >> (i % 6)) & 1 or (i * 7 + r) % 3 == 0]
            succ = graphs.successful_links(g, cand)
            for a, b in itertools.combinations(succ, 2):
                assert b not in h.conflict_neighbors(a)


class TestDegreeBound:
    def test_tight_on_single_edge(self):
        rep = graphs.degree_bound_check(graphs.path_graph(2))
        assert rep.bound == 1 and rep.holds and rep.tight

    def test_empty_graph_note(self):
        g = graphs.NetworkGraph((0, 1), ())
        rep = graphs.degree_bound_check(g)
        assert rep.holds and rep.bound is None

    @settings(max_examples=150, deadline=None)
    @given(networks_strategy())
    def test_bound_holds_on_random_networks(self, g):
        rep = graphs.degree_bound_check(g)
        assert rep.holds


def restricted_growth_strings(n):
    """Every partition of range(n) into blocks, once each: s[0] == 0 and
    s[i] <= max(s[:i]) + 1, so block labels appear in first-use order."""
    if n == 0:
        yield ()
        return
    s = [0] * n

    def extend(i, top):
        if i == n:
            yield tuple(s)
            return
        for c in range(top + 2):
            s[i] = c
            yield from extend(i + 1, max(top, c))

    yield from extend(1, 0)


def brute_chromatic(h):
    """Fewest blocks over all partitions of the links into independent
    sets; any proper coloring relabels to one of these partitions."""
    n = h.link_count
    edges = [(u, v) for u in range(n) for v in h.conflict_neighbors(u) if u < v]
    return min(
        max(s, default=-1) + 1
        for s in restricted_growth_strings(n)
        if all(s[u] != s[v] for u, v in edges)
    )


class TestColoring:
    def test_greedy_is_proper_and_bounded(self):
        g = graphs.random_network(10, 14, seed=1)
        h = graphs.build_conflict_graph(g)
        col = graphs.greedy_coloring(h)
        assert graphs.is_proper(h, col)
        degree = max(len(h.conflict_neighbors(a)) for a in range(h.link_count))
        assert col.color_count <= degree + 1

    def test_path_chromatic_is_four(self):
        h = graphs.build_conflict_graph(graphs.path_graph(3))
        assert graphs.exact_chromatic(h).color_count == 4
        assert graphs.greedy_coloring(h).color_count == 4

    def test_clique_chromatic(self):
        for n in (2, 3, 4):
            h = graphs.build_conflict_graph(graphs.clique_graph(n))
            col = graphs.exact_chromatic(h)
            assert col.color_count == n * n - n
            assert graphs.is_proper(h, col)

    def test_partition_enumeration_is_exhaustive(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        assert [len(set(restricted_growth_strings(n))) for n in range(9)] == bell

    @settings(max_examples=40, deadline=None)
    @given(st.builds(graphs.random_network, st.integers(2, 5), st.integers(1, 4), st.integers(0, 10**6)))
    def test_exact_matches_brute_force(self, g):
        h = graphs.build_conflict_graph(g)
        col = graphs.exact_chromatic(h)
        assert graphs.is_proper(h, col)
        assert col.color_count == brute_chromatic(h)

    def test_exact_refuses_large_instances(self):
        g = graphs.clique_graph(6)  # 30 links
        h = graphs.build_conflict_graph(g)
        with pytest.raises(SizeError):
            graphs.exact_chromatic(h)
        assert graphs.exact_chromatic(h, vertex_limit=30).color_count == 30

    def test_coloring_validation(self):
        with pytest.raises(ParameterError):
            graphs.Coloring((0, 2), 2)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            graphs.NetworkGraph((0, 1), ((0, 1),))

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            graphs.NetworkGraph((0,), ((0, 0),))

    def test_duplicate_link_rejected(self):
        with pytest.raises(ParameterError):
            graphs.NetworkGraph((0, 1), ((0, 1), (1, 0), (0, 1)))


class TestGraphFiles:
    def test_roundtrip(self, tmp_path):
        g = graphs.random_network(6, 7, seed=9)
        p = tmp_path / "net.txt"
        graphs.write_graph(g, p)
        assert graphs.read_graph(p).links == g.links

    def test_comments_and_errors(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# demo\nnodes 3\nedge 0 1  # first\nedge 1 2\n")
        g = graphs.read_graph(p)
        assert g.link_count == 4
        p.write_text("edge 0 1\n")
        with pytest.raises(FormatError):
            graphs.read_graph(p)
        p.write_text("nodes 2\nedge 0 5\n")
        with pytest.raises(FormatError):
            graphs.read_graph(p)
