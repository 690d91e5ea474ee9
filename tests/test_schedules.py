"""Schedule construction and frequency verification tests."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiosched import graphs, schedules, selectors as sel, traffic
from radiosched.errors import FormatError, ParameterError
from radiosched.sim import run

from dense_selector import selector


def path3_setup():
    g = graphs.path_graph(3)
    h = graphs.build_conflict_graph(g)
    return g, h, graphs.exact_chromatic(h)


class TestFromColoring:
    def test_two_node(self):
        g = graphs.path_graph(2)
        col = graphs.exact_chromatic(graphs.build_conflict_graph(g))
        s = schedules.schedule_from_coloring(col)
        assert s.period == 2 and s.claimed_frequency == (Fraction(1, 2), 2)
        assert sorted(s.rows(s.period)) == [(0,), (1,)]
        rep = schedules.verify_frequent(s, g)
        assert rep.ok and rep.per_link_min == (1, 1) and rep.per_link_max == (1, 1)
        assert rep.witness is None

    def test_path3_exact(self):
        g, _, col = path3_setup()
        s = schedules.schedule_from_coloring(col)
        assert s.period == 4
        rep = schedules.verify_frequent(s, g)
        assert rep.ok
        assert rep.per_link_min == (1, 1, 1, 1) and rep.per_link_max == (1, 1, 1, 1)

    def test_empty(self):
        s = schedules.schedule_from_coloring(graphs.Coloring(()))
        assert s.period == 0 and s.rows(0) == [] and s.round_of.size == 0


class TestFromSelector:
    def test_identity_alternation(self):
        g = graphs.path_graph(2)
        plain = selector(np.eye(2, dtype=np.uint8))
        ident = replace(plain, claimed_k=2, claimed_eps=sel.uss_min_count(plain, 2).eps)
        s = schedules.schedule_from_selector(ident, g)
        assert s.period == 2 and s.rows(2) == [(0,), (1,)]
        assert s.claimed_frequency == (Fraction(1, 2), 2)
        assert schedules.verify_frequent(s, g).ok

    def test_poly_selector_schedule(self):
        g = graphs.path_graph(3)  # conflict in-degree 3
        m = sel.poly_uss(4, 4)
        s = schedules.schedule_from_selector(m, g)
        assert s.claimed_frequency == (m.claimed_eps / 4, m.t)
        rep = schedules.verify_frequent(s, g)
        assert rep.ok

    def test_rejects_unverified(self):
        g = graphs.path_graph(2)
        bare = selector(np.eye(2, dtype=np.uint8))
        with pytest.raises(ParameterError, match="claim"):
            schedules.schedule_from_selector(bare, g)

    def test_rejects_small_k(self):
        g = graphs.path_graph(3)
        m = sel.poly_uss(4, 2)  # k=2 < in-degree+1
        with pytest.raises(ParameterError, match="in-degree"):
            schedules.schedule_from_selector(m, g)

    def test_rejects_narrow_selector(self):
        g = graphs.path_graph(3)
        m = sel.poly_uss(2, 2)
        with pytest.raises(ParameterError, match="columns"):
            schedules.schedule_from_selector(m, g)

    def test_trusted_bound_quiet_when_valid(self):
        # the selector's k is the in-degree bound; k = in-degree + 1 is accepted silently
        import warnings

        g = graphs.path_graph(3)
        m = sel.poly_uss(4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = schedules.schedule_from_selector(m, g)
        assert s.period == m.t


class TestVerifyFrequent:
    def test_idle_link_fails(self):
        g = graphs.path_graph(2)
        s = schedules.schedule_from_rows(((0,), (0,)), 2, (Fraction(1, 2), 2))
        rep = schedules.verify_frequent(s, g)
        assert not rep.ok and rep.per_link_min[1] == 0
        assert rep.witness == schedules.ServiceWindow(1, 0, 0)

    def test_colliding_schedule_fails(self):
        g = graphs.path_graph(2)
        s = schedules.schedule_from_rows(((0, 1),), 2, (Fraction(1, 2), 2))
        assert not schedules.verify_frequent(s, g).ok

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 50))
    def test_cyclic_shift_preserves_frequency(self, seed, offset):
        g = graphs.random_network(6, 7, seed=seed)
        if g.link_count == 0:
            return
        col = graphs.greedy_coloring(graphs.build_conflict_graph(g))
        s = schedules.schedule_from_coloring(col)
        base = schedules.verify_frequent(s, g)
        rot = schedules.verify_frequent(s.rotated(offset), g)
        assert base.ok and rot.ok
        assert base.per_link_min == rot.per_link_min

    def test_checks_every_cyclic_window(self):
        # rounds 4-5 serve no link; 2*T rounds would only see starts 0..2
        g = graphs.path_graph(2)
        s = schedules.schedule_from_rows(((0,), (1,), (0,), (1,), (), ()), 2, (Fraction(1, 2), 2))
        rep = schedules.verify_frequent(s, g)
        assert not rep.ok
        assert rep.rounds == 7 and rep.per_link_min == (0, 0)
        # link 0 wins in rounds 0 and 2, so the window of rounds 3-4 is its first empty one
        assert rep.witness == schedules.ServiceWindow(0, 3, 0)

    def test_requires_claim(self):
        g = graphs.path_graph(2)
        s = schedules.schedule_from_rows(((0,),), 2, None)
        with pytest.raises(ParameterError):
            schedules.verify_frequent(s, g)


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        g, _, col = path3_setup()
        s = schedules.schedule_from_coloring(col)
        p = tmp_path / "sched.txt"
        schedules.write_schedule(s, p)
        back = schedules.read_schedule(p)
        assert back.rows(back.period) == s.rows(s.period)
        assert back.claimed_frequency == s.claimed_frequency

    def test_idle_round_roundtrip(self, tmp_path):
        s = schedules.schedule_from_rows(((0,), (), (1,)), 2, None)
        p = tmp_path / "sched.txt"
        schedules.write_schedule(s, p)
        assert schedules.read_schedule(p).rows(3) == [(0,), (), (1,)]

    def test_format_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("schedule period=2 links=1\n0\n")
        with pytest.raises(FormatError):
            schedules.read_schedule(p)
        p.write_text("schedule period=1 links=1\n5\n")
        with pytest.raises(FormatError):
            schedules.read_schedule(p)
        p.write_text("bogus\n")
        with pytest.raises(FormatError):
            schedules.read_schedule(p)


class TestFlatActivations:
    def test_selector_rows_never_built(self):
        # verify_frequent and run read the activations, never the row tuples
        g = graphs.random_network(12, 18, seed=1, max_degree=3)
        m = sel.poly_uss(g.link_count, graphs.conflict_in_degree(g) + 1)
        s = schedules.schedule_from_selector(m, g)
        assert schedules.verify_frequent(s, g).ok
        routes = traffic.random_routes(g, 6, 3, seed=1)
        trace = traffic.gen_leaky_bucket(g, routes, traffic.AdversaryConfig(Fraction(1, 50), 2), 300, seed=1)
        metrics = run(g, s, "lis", trace, 300)
        assert metrics.delivered_count > 0

    def test_arrays_are_sorted_and_read_only(self):
        s = schedules.TransmissionSchedule(np.array([2, 0, 2, 0]), [1, 3, 0, 3], 3, 4)
        assert s.round_of.tolist() == [0, 2, 2] and s.link_of.tolist() == [3, 0, 1]
        assert s.rows(3) == [(3,), (), (0, 1)]
        with pytest.raises(ValueError):
            s.round_of[0] = 1

    def test_rows_within_the_period(self):
        s = schedules.TransmissionSchedule([2, 0, 2, 0], [1, 3, 0, 3], 3, 4)
        assert s.rows(0) == [] and s.rows(2) == [(3,), ()] and s.rows(3) == [(3,), (), (0, 1)]
        for count in (-1, 4):
            with pytest.raises(ParameterError, match=f"row count {count} outside"):
                s.rows(count)

    def test_strictly_sorted_activations_held_as_given(self):
        # schedule_from_selector passes its ones in strict (round, link)
        # order; they are neither sorted again nor copied
        rounds, links = np.array([0, 0, 2]), np.array([1, 3, 0])
        s = schedules.TransmissionSchedule(rounds, links, 3, 4)
        assert s.round_of is rounds and s.link_of is links and not rounds.flags.writeable
        assert s.rows(3) == [(1, 3), (), (0,)]
        # a repeat is not strict order: it is sorted and dropped
        s = schedules.TransmissionSchedule(np.array([0, 0, 2]), np.array([1, 1, 0]), 3, 4)
        assert s.rows(3) == [(1,), (), (0,)]

    def test_equality(self):
        # a schedule is its period, link count, claim and activations
        def fields(s):
            return (s.period, s.link_count, s.claimed_frequency, s.round_of.tolist(), s.link_of.tolist())

        a = fields(schedules.schedule_from_rows(((1, 0), (0,)), 2, (Fraction(1, 2), 2)))
        assert a == fields(schedules.TransmissionSchedule([1, 0, 0], [0, 1, 0], 2, 2, (Fraction(1, 2), 2)))
        assert a != fields(schedules.schedule_from_rows(((1, 0), (0,)), 2, None))
        assert a != fields(schedules.schedule_from_rows(((1, 0), (0,), ()), 2, (Fraction(1, 2), 2)))
        assert a != fields(schedules.schedule_from_rows(((1, 0), (1,)), 2, (Fraction(1, 2), 2)))
        assert a != fields(schedules.schedule_from_rows(((1, 0), (0,)), 3, (Fraction(1, 2), 2)))

    def test_refuses_bad_rounds_and_shapes(self):
        with pytest.raises(ParameterError, match="scheduled round 3 out of range"):
            schedules.TransmissionSchedule([0, 3], [0, 0], 3, 1)
        with pytest.raises(ParameterError, match="scheduled round -1 out of range"):
            schedules.TransmissionSchedule([-1], [0], 3, 1)
        with pytest.raises(ParameterError, match="of one length"):
            schedules.TransmissionSchedule([0, 1], [0], 3, 1)
        with pytest.raises(ParameterError, match="period, link_count >= 0"):
            schedules.TransmissionSchedule([], [], -1, 1)
