from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiosched.errors import FormatError, ParameterError
from radiosched.graphs import path_graph
from radiosched.traffic import (
    AdversaryConfig,
    Packet,
    check_routes,
    gen_clique_scenario,
    gen_leaky_bucket,
    gen_tree_family,
    random_routes,
    read_trace,
    trace_from_packets,
    validate_trace,
    write_trace,
)


def rows(tr):
    """A trace's horizon and rows, the whole of what it says."""
    return tr.horizon, list(tr.injections)


def naive_admissible(tr, adv, link_count):
    """Direct check of every window on every link."""
    loads = [[0] * (tr.horizon + 1) for _ in range(link_count)]
    for r, pkt in tr.injections:
        for e in set(pkt.route):
            loads[e][r] += 1
    for e in range(link_count):
        for s in range(tr.horizon + 1):
            total = 0
            for end in range(s, tr.horizon + 1):
                total += loads[e][end]
                if total > adv.rho * (end - s + 1) + adv.b:
                    return False
    return True


@st.composite
def traces(draw):
    link_count = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 12))
    rounds = sorted(draw(st.lists(st.integers(0, horizon), max_size=10)))
    injections = []
    for pid, r in enumerate(rounds):
        route = draw(
            st.lists(st.integers(0, link_count - 1), min_size=1, max_size=2, unique=True)
        )
        injections.append((r, Packet(pid, tuple(route))))
    return trace_from_packets(tuple(injections), horizon), link_count


class TestValidateTrace:
    def test_single_packet_admissible(self):
        tr = trace_from_packets(((0, Packet(0, (0,))),), 5)
        assert validate_trace(tr, AdversaryConfig(Fraction(1, 2), 1)).admissible

    def test_burst_violation_witness(self):
        tr = trace_from_packets(
            ((3, Packet(0, (1,))), (3, Packet(1, (1,)))), 5
        )
        rep = validate_trace(tr, AdversaryConfig(Fraction(1, 2), 1), link_count=2)
        assert not rep.admissible
        w = rep.witness
        assert (w.link, w.start, w.length, w.load) == (1, 3, 1, 2)
        assert w.allowed == Fraction(3, 2)

    def test_exact_boundary(self):
        # two packets within a length-10 window meet 10/10 + 1 exactly
        adv = AdversaryConfig(Fraction(1, 10), 1)
        at_bound = trace_from_packets(((0, Packet(0, (0,))), (9, Packet(1, (0,)))), 9)
        over = trace_from_packets(((0, Packet(0, (0,))), (8, Packet(1, (0,)))), 9)
        assert validate_trace(at_bound, adv).admissible
        assert not validate_trace(over, adv).admissible

    def test_route_charges_every_link(self):
        # link 2 carries both packets; link 0, twice on one route, is charged once
        tr = trace_from_packets(((0, Packet(0, (0, 2, 0))), (0, Packet(1, (2,)))), 0)
        rep = validate_trace(tr, AdversaryConfig(Fraction(1), 0))
        assert rep.witness == (2, 0, 1, 2, 1)

    def test_link_out_of_range(self):
        tr = trace_from_packets(((0, Packet(0, (0,))), (1, Packet(1, (1, 5)))), 2)
        adv = AdversaryConfig(Fraction(1, 2), 1)
        with pytest.raises(ParameterError, match="packet 1: link 5 out of range"):
            validate_trace(tr, adv, link_count=2)
        assert validate_trace(tr, adv).admissible

    def test_memory_follows_injections_not_horizon(self):
        # 100 links, one packet per link every 1000 rounds: any 1001-round
        # window from round 0 holds 2 > 1001/5000 + 1
        tr = trace_from_packets(
            tuple((r, Packet(r, (r // 10 % 100,))) for r in range(0, 20_000, 10)), 20_000
        )
        adv = AdversaryConfig(Fraction(1, 5000), 1)
        tracemalloc.start()
        try:
            rep = validate_trace(tr, adv, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = 100 * (tr.horizon + 1) * 8
        assert peak < dense_bytes / 4
        assert rep.witness == (0, 0, 1001, 2, Fraction(1001, 5000) + 1)
        longer = trace_from_packets(tr.injections, 10 * tr.horizon)
        assert validate_trace(longer, adv, 100) == rep

    def test_huge_denominator_not_wrapped(self):
        # den * load reaches 1.001e19, past int64
        tr = trace_from_packets(tuple((r, Packet(r, (0,))) for r in range(1001)), 1000)
        rep = validate_trace(tr, AdversaryConfig(Fraction(1, 10**16), 999))
        assert not rep.admissible
        assert rep.witness == (0, 0, 1000, 1000, Fraction(1000, 10**16) + 999)
        assert validate_trace(tr, AdversaryConfig(Fraction(1, 10**16), 1001)).admissible

    @settings(max_examples=120, deadline=None)
    @given(
        traces(),
        st.one_of(
            st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
            # near k/8 with a denominator of 10^15..10^30, past int64
            st.builds(
                lambda k, e: Fraction(k * 10**e + 1, 8 * 10**e),
                st.integers(1, 8),
                st.integers(15, 30),
            ),
        ),
        st.integers(0, 2),
    )
    def test_matches_naive_oracle(self, tr_lc, rho, b):
        tr, link_count = tr_lc
        adv = AdversaryConfig(rho, b)
        rep = validate_trace(tr, adv, link_count)
        assert rep.admissible == naive_admissible(tr, adv, link_count)
        if not rep.admissible:
            w = rep.witness
            window = sum(
                w.link in p.route for r, p in tr.injections if w.start <= r < w.start + w.length
            )
            assert window == w.load
            assert w.load > adv.rho * w.length + adv.b
            assert w.allowed == adv.rho * w.length + adv.b


class TestTraceInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError, match="sorted"):
            trace_from_packets(((4, Packet(0, (0,))), (1, Packet(1, (0,)))), 5)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ParameterError, match="duplicate"):
            trace_from_packets(((0, Packet(7, (0,))), (1, Packet(7, (0,)))), 5)

    def test_rejects_short_horizon(self):
        with pytest.raises(ParameterError, match="horizon"):
            trace_from_packets(((4, Packet(0, (0,))),), 3)

    def test_packet_validation(self):
        # a packet is refused when a trace is built from it, also when it
        # follows a valid packet
        refusals = [
            ((0, Packet(4, ())), "packet 4: empty route"),
            ((0, Packet(4, (1, -2, -3))), "packet 4: negative link -3"),
            ((-1, Packet(4, (0,))), "packet 4: negative injection round"),
        ]
        for pair, message in refusals:
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                trace_from_packets(((0, Packet(2, (0,))), pair), 5)
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                trace_from_packets((pair,), 5)

    def test_packet_route_is_int_tuple_and_slotted(self):
        tr = trace_from_packets(((5, Packet(3, [np.int64(2), np.int64(0)])),), 5)
        (r, pkt), = tr.injections
        assert type(pkt.route) is tuple and pkt.route == (2, 0)
        assert all(type(i) is int for i in (r, pkt.id, *pkt.route))
        assert tr.routes == ((2, 0),)
        with pytest.raises(AttributeError):
            pkt.hops = 1
        with pytest.raises(AttributeError):
            pkt.id = 4

    def test_columns_are_int64_and_read_only(self):
        tr = trace_from_packets(((0, Packet(9, (0,))), (2, Packet(4, (1, 0))), (2, Packet(5, (0,)))), 3)
        assert tr.rounds.tolist() == [0, 2, 2] and tr.ids.tolist() == [9, 4, 5]
        assert tr.route_of.tolist() == [0, 1, 0] and tr.routes == ((0,), (1, 0))
        for column in (tr.rounds, tr.ids, tr.route_of):
            assert column.dtype == np.int64 and not column.flags.writeable
        assert len(tr) == 3

    @pytest.mark.parametrize("pid", [2**63, -(2**63) - 1, 10**30])
    def test_rejects_id_outside_int64(self, pid):
        with pytest.raises(ParameterError, match="packet ids must fit in int64"):
            trace_from_packets(((0, Packet(0, (0,))), (0, Packet(pid, (0,)))), 0)
        edge = trace_from_packets(((0, Packet(2**63 - 1, (0,))), (0, Packet(-(2**63), (0,)))), 0)
        assert edge.ids.tolist() == [2**63 - 1, -(2**63)]

    def test_names_first_duplicate_in_trace_order(self):
        pairs = ((0, Packet(9, (0,))), (0, Packet(3, (0,))), (1, Packet(3, (0,))), (2, Packet(9, (0,))))
        with pytest.raises(ParameterError, match="^duplicate packet id 3$"):
            trace_from_packets(pairs, 2)

    def test_check_routes(self):
        g = path_graph(3)  # links: 0->1, 1->0, 1->2, 2->1
        good = trace_from_packets(((0, Packet(0, (0, 2))),), 0)
        check_routes(good, g)
        broken = trace_from_packets(((0, Packet(0, (0, 3))),), 0)
        with pytest.raises(ParameterError, match="share an endpoint"):
            check_routes(broken, g)
        out = trace_from_packets(((0, Packet(0, (9,))),), 0)
        with pytest.raises(ParameterError, match="out of range"):
            check_routes(out, g)


class TestLeakyBucket:
    def test_full_intensity_prefix(self):
        g = path_graph(2)
        adv = AdversaryConfig(Fraction(1, 2), 2)
        tr = gen_leaky_bucket(g, [(0,)], adv, 8, seed=1, intensity=1.0)
        assert [r for r, _ in tr.injections] == [0, 1, 2, 4, 6, 8]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_traces_admissible(self, seed):
        g = path_graph(4)
        routes = [(0, 2), (2, 4), (5, 3), (4,)]
        adv = AdversaryConfig(Fraction(1, 3), 2)
        tr = gen_leaky_bucket(g, routes, adv, 60, seed=seed)
        assert len(tr) > 0
        check_routes(tr, g)
        assert validate_trace(tr, adv, g.link_count).admissible

    def test_deterministic(self):
        g = path_graph(3)
        adv = AdversaryConfig(Fraction(1, 2), 1)
        a = gen_leaky_bucket(g, [(0, 2)], adv, 30, seed=9)
        b = gen_leaky_bucket(g, [(0, 2)], adv, 30, seed=9)
        assert rows(a) == rows(b)

    @pytest.mark.parametrize(
        "route, fault",
        [
            ((-1,), "link -1 out of range"),
            ((7,), "link 7 out of range"),
            ((7, 0), "link 7 out of range"),
            ((0, 3), "links 0 and 3 do not share an endpoint"),
            ((), "empty route"),
        ],
    )
    def test_rejects_non_path_route(self, route, fault):
        g = path_graph(3)  # links: 0->1, 1->0, 1->2, 2->1
        adv = AdversaryConfig(Fraction(1, 2), 1)
        with pytest.raises(ParameterError, match=re.escape(f"route {route}: {fault}")):
            gen_leaky_bucket(g, [(0, 2), route], adv, 10, seed=0)

    def test_rejects_zero_burst(self):
        g = path_graph(2)
        with pytest.raises(ParameterError, match="burst"):
            gen_leaky_bucket(g, [(0,)], AdversaryConfig(Fraction(1, 2), 0), 10, seed=0)

    @pytest.mark.parametrize("intensity", [1.5, math.nan, 0.0, -0.5])
    def test_rejects_intensity_outside_unit_interval(self, intensity):
        g = path_graph(2)
        with pytest.raises(ParameterError, match="intensity"):
            gen_leaky_bucket(g, [(0,)], AdversaryConfig(Fraction(1, 2), 1), 10, seed=0, intensity=intensity)


class TestCliqueScenario:
    def test_trace_memory_per_packet(self):
        # three int64 columns per packet and a six-route table; a tuple of
        # (round, Packet) pairs kept about 210 bytes per packet
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sc = gen_clique_scenario(3, Fraction(1, 31), 2400)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sc.trace) == 479 * 6
        assert kept / len(sc.trace) < 32

    def test_three_node_counts(self):
        sc = gen_clique_scenario(3, Fraction(1, 32), 300)
        assert sc.chi == 6 and sc.secondary_period == 32
        assert sc.g.link_count == 6
        per_link = sum(1 for _, p in sc.trace.injections if p.route == (0,))
        assert per_link == 51 + 10
        assert len(sc.trace) == 61 * 6
        assert sc.predicted_backlog(300) == 66

    def test_round_zero_double_wave(self):
        sc = gen_clique_scenario(3, Fraction(1, 32), 40)
        first = [p for r, p in sc.trace.injections if r == 0]
        assert len(first) == 12

    def test_admissible_at_declared_rate(self):
        sc = gen_clique_scenario(3, Fraction(1, 32), 300)
        adv = AdversaryConfig(Fraction(1, 6) + Fraction(1, 32), 2)
        assert validate_trace(sc.trace, adv, 6).admissible
        starved = AdversaryConfig(Fraction(1, 6), 2)
        assert not validate_trace(sc.trace, starved, 6).admissible

    def test_predicted_backlog_guards(self):
        sc = gen_clique_scenario(3, Fraction(1, 32), 300)
        with pytest.raises(ParameterError):
            sc.predicted_backlog(7)
        with pytest.raises(ParameterError):
            sc.predicted_backlog(0)
        with pytest.raises(ParameterError):
            sc.predicted_backlog(600)


class TestTreeFamily:
    def test_family_shape(self):
        fam = gen_tree_family(3, Fraction(1, 4), 40)
        assert len(fam.trees) == 1 + 3 * 2
        assert fam.shared_links == (0, 2, 4, 6, 8, 10)
        for t in fam.trees:
            assert t.node_count == 10
            assert t.link_count == 18  # 9 undirected edges, a tree on 10 nodes

    def test_shared_links_agree(self):
        fam = gen_tree_family(3, Fraction(1, 4), 40)
        base = fam.trees[0]
        for t in fam.trees[1:]:
            for e in fam.shared_links:
                assert t.links[e] == base.links[e]

    def test_shared_links_avoid_root(self):
        fam = gen_tree_family(4, Fraction(1, 4), 20)
        for t in fam.trees:
            for e in fam.shared_links:
                assert 0 not in t.links[e]

    def test_trace_admissible_on_every_tree(self):
        fam = gen_tree_family(3, Fraction(1, 4), 40)
        adv = AdversaryConfig(Fraction(1, 4), 1)
        for t in fam.trees:
            check_routes(fam.trace, t)
            assert validate_trace(fam.trace, adv, t.link_count).admissible

    def test_connected_trees(self):
        fam = gen_tree_family(3, Fraction(1, 4), 10)
        for t in fam.trees:
            seen = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for i in t.out_links(u):
                    v = t.links[i][1]
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            assert seen == set(range(t.node_count))

    def test_exact_injections(self):
        # delta 2: shared links 0 and 2; rho 2/5 injects every ceil(5/2) = 3
        # rounds, both links in order, ids counting up
        fam = gen_tree_family(2, Fraction(2, 5), 7)
        assert fam.shared_links == (0, 2)
        assert fam.trace.horizon == 7
        assert tuple(fam.trace.injections) == tuple(
            (r, Packet(i, (e,))) for i, (r, e) in enumerate((r, e) for r in (0, 3, 6) for e in (0, 2))
        )


class TestRandomRoutes:
    def test_valid_and_deterministic(self):
        g = path_graph(6)
        a = random_routes(g, 8, 4, seed=3)
        b = random_routes(g, 8, 4, seed=3)
        assert a == b
        for rt in a:
            assert 1 <= len(rt) <= 4
            nodes = [g.links[rt[0]][0]] + [g.links[i][1] for i in rt]
            assert len(nodes) == len(set(nodes))
            for x, y in zip(rt, rt[1:]):
                assert g.links[x][1] == g.links[y][0]


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        g = path_graph(3)
        tr = gen_leaky_bucket(g, [(0, 2), (3, 1)], AdversaryConfig(Fraction(1, 2), 1), 20, seed=4)
        p = tmp_path / "trace.txt"
        write_trace(tr, p)
        back = read_trace(p)
        assert rows(back) == rows(tr)
        assert back.routes == tr.routes == ((0, 2), (3, 1))

    def test_horizon_override(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("inject 2 0 1\n")
        assert read_trace(p).horizon == 2
        # a stored horizon overrides the one inferred from the injections
        p.write_text("# horizon 50\ninject 2 0 1\n")
        assert read_trace(p).horizon == 50

    def test_format_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("deliver 0 0 1\n")
        with pytest.raises(FormatError, match="expected"):
            read_trace(p)
        p.write_text("inject 0 x 1\n")
        with pytest.raises(FormatError, match="non-integer"):
            read_trace(p)
        p.write_text("inject 0 5 1\ninject 1 5 1\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_trace(p)
