"""Schedule construction and frequency verification tests."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiosched import graphs, schedules, selectors as sel
from radiosched.errors import FormatError, ParameterError


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
        assert sorted(s.active) == [(0,), (1,)]
        rep = schedules.verify_frequent(s, g)
        assert rep.ok and rep.per_link_min == (1, 1) and rep.per_link_max == (1, 1)

    def test_path3_exact(self):
        g, _, col = path3_setup()
        s = schedules.schedule_from_coloring(col)
        assert s.period == 4
        rep = schedules.verify_frequent(s, g)
        assert rep.ok
        assert rep.per_link_min == (1, 1, 1, 1) and rep.per_link_max == (1, 1, 1, 1)

    def test_empty(self):
        s = schedules.schedule_from_coloring(graphs.Coloring(()))
        assert s.period == 0 and s.active_at(17) == ()


class TestFromSelector:
    def test_identity_alternation(self):
        g = graphs.path_graph(2)
        plain = sel.SelectorMatrix(np.eye(2, dtype=np.uint8))
        ident = replace(plain, claimed_k=2, claimed_eps=sel.uss_min_count(plain, 2).eps)
        s = schedules.schedule_from_selector(ident, g)
        assert s.period == 2 and s.active == ((0,), (1,))
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
        bare = sel.SelectorMatrix(np.eye(2, dtype=np.uint8))
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
        s = schedules.TransmissionSchedule(((0,), (0,)), 2, claimed_frequency=(Fraction(1, 2), 2))
        rep = schedules.verify_frequent(s, g)
        assert not rep.ok and rep.per_link_min[1] == 0

    def test_colliding_schedule_fails(self):
        g = graphs.path_graph(2)
        s = schedules.TransmissionSchedule(((0, 1),), 2, claimed_frequency=(Fraction(1, 2), 2))
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
        s = schedules.TransmissionSchedule(
            ((0,), (1,), (0,), (1,), (), ()), 2, claimed_frequency=(Fraction(1, 2), 2)
        )
        rep = schedules.verify_frequent(s, g)
        assert not rep.ok
        assert rep.rounds == 7 and rep.per_link_min == (0, 0)

    def test_requires_claim(self):
        g = graphs.path_graph(2)
        s = schedules.TransmissionSchedule(((0,),), 2)
        with pytest.raises(ParameterError):
            schedules.verify_frequent(s, g)


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        g, _, col = path3_setup()
        s = schedules.schedule_from_coloring(col)
        p = tmp_path / "sched.txt"
        schedules.write_schedule(s, p)
        back = schedules.read_schedule(p)
        assert back.active == s.active
        assert back.claimed_frequency == s.claimed_frequency

    def test_idle_round_roundtrip(self, tmp_path):
        s = schedules.TransmissionSchedule(((0,), (), (1,)), 2)
        p = tmp_path / "sched.txt"
        schedules.write_schedule(s, p)
        assert schedules.read_schedule(p).active == ((0,), (), (1,))

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
