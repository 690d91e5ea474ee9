from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiosched.bounds import coloring_threshold
from radiosched.errors import ParameterError
from radiosched.graphs import (
    build_conflict_graph,
    clique_graph,
    exact_chromatic,
    greedy_coloring,
    path_graph,
    random_network,
)
from radiosched.schedules import TransmissionSchedule, schedule_from_coloring
from radiosched.sim import failure_accounting, run, stability_verdict
from radiosched.traffic import (
    AdversaryConfig,
    InjectionTrace,
    Packet,
    gen_clique_scenario,
    gen_leaky_bucket,
    random_routes,
)


def trace_of(entries, horizon):
    """entries: (round, id, route) triples."""
    return InjectionTrace(tuple((r, Packet(i, r, rt)) for r, i, rt in entries), horizon)


def path3_round_robin():
    g = path_graph(3)
    h = build_conflict_graph(g)
    sched = schedule_from_coloring(greedy_coloring(h))
    assert sched.period == 4
    return g, sched


class TestStepSemantics:
    def test_single_packet_walks_the_path(self):
        g, sched = path3_round_robin()
        tr = trace_of([(0, 0, (0, 2))], 0)
        metrics = run(g, sched, "lis", tr, 4)
        assert metrics.delivered == ((0, 0, 2),)
        assert metrics.max_latency == 2
        assert metrics.undelivered_count == 0
        assert metrics.success[0, 0] and metrics.success[2, 2]
        assert metrics.success.sum() == 2
        assert np.array_equal(metrics.attempted, metrics.success)
        assert metrics.backlogged[0, 0] and metrics.backlogged[2, 1] and metrics.backlogged[2, 2]
        assert metrics.per_round_backlog.tolist() == [1, 1, 0, 0]

    def test_head_on_collision(self):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0, 1),), link_count=2)
        tr = trace_of([(0, 0, (0,)), (0, 1, (1,))], 0)
        metrics = run(g, sched, "lis", tr, 3)
        assert metrics.delivered == ()
        assert metrics.attempted.all()
        assert not metrics.success.any()
        assert metrics.collided.all()
        assert metrics.undelivered_count == 2

    def test_forwarded_packet_waits_a_round(self):
        # link 2 is active every round, yet the packet hopping onto it at
        # round 0 can only move at round 1
        g = path_graph(3)
        sched = TransmissionSchedule(period=1, active=((0, 2),), link_count=4)
        tr = trace_of([(0, 0, (0, 2))], 0)
        metrics = run(g, sched, "lis", tr, 2)
        assert metrics.delivered == ((0, 0, 1),)
        assert metrics.success[0, 0] and metrics.success[2, 1]
        assert not metrics.success[2, 0]

    def test_late_injections_never_enter(self):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0,),), link_count=2)
        tr = trace_of([(0, 0, (0,)), (5, 1, (0,))], 5)
        metrics = run(g, sched, "lis", tr, 3)
        assert metrics.delivered_count == 1
        assert metrics.undelivered_count == 1
        assert metrics.per_round_backlog.tolist() == [0, 0, 0]


class TestPolicies:
    def one_link_runs(self, policy):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0,),), link_count=2)
        tr = trace_of([(0, 0, (0,)), (0, 1, (0,)), (1, 2, (0,))], 1)
        return run(g, sched, policy, tr, 5)

    def test_lis_oldest_first(self):
        assert [d.id for d in self.one_link_runs("lis").delivered] == [0, 1, 2]

    def test_sis_newest_first(self):
        assert [d.id for d in self.one_link_runs("sis").delivered] == [0, 2, 1]

    def test_ftg_prefers_longer_route(self):
        g = path_graph(4)
        sched = TransmissionSchedule(period=1, active=((2,),), link_count=6)
        tr = trace_of([(0, 0, (2,)), (0, 1, (2, 4))], 0)
        short_first = run(g, sched, "nfs", tr, 3)
        long_first = run(g, sched, "ftg", tr, 3)
        # nfs ties on completed hops and falls back to id; ftg picks two-hop id 1
        assert short_first.delivered[0].id == 0 and short_first.delivered[0].delivered_round == 0
        assert long_first.delivered[0].id == 0 and long_first.delivered[0].delivered_round == 1
        assert long_first.backlogged[4, 1]

    def test_final_queues_in_arrival_order(self):
        # sis serves newest first, but the leftovers are listed in the order
        # they joined the queue: 2 went at round 1, 3 arrived at round 2
        g = path_graph(2)
        sched = TransmissionSchedule(period=3, active=((), (0,), ()), link_count=2)
        tr = trace_of([(0, 0, (0,)), (0, 1, (0,)), (1, 2, (0,)), (2, 3, (0,))], 2)
        metrics = run(g, sched, "sis", tr, 3)
        assert [d.id for d in metrics.delivered] == [2]
        assert metrics.final_queues == ((0, 1, 3), ())

    def test_unknown_policy(self):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0,),), link_count=2)
        with pytest.raises(ParameterError, match="policy"):
            run(g, sched, "fifo", trace_of([(0, 0, (0,))], 0), 2)


@st.composite
def sim_cases(draw):
    n = draw(st.integers(3, 6))
    g = random_network(n, draw(st.integers(2, 6)), seed=draw(st.integers(0, 50)))
    if g.link_count == 0:
        g = path_graph(n)
    period = draw(st.integers(1, 4))
    active = tuple(
        tuple(
            sorted(
                draw(
                    st.sets(st.integers(0, g.link_count - 1), max_size=g.link_count)
                )
            )
        )
        for _ in range(period)
    )
    sched = TransmissionSchedule(period=period, active=active, link_count=g.link_count)
    routes = random_routes(g, draw(st.integers(1, 4)), 3, seed=draw(st.integers(0, 50)))
    tr = gen_leaky_bucket(
        g, routes, AdversaryConfig(Fraction(1, 2), 2), draw(st.integers(5, 25)), seed=7
    )
    policy = draw(st.sampled_from(["lis", "sis", "nfs", "ftg"]))
    return g, sched, tr, policy


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(sim_cases(), st.integers(5, 30))
    def test_conservation_and_independence(self, case, rounds):
        g, sched, tr, policy = case
        metrics = run(g, sched, policy, tr, rounds)
        entered = sum(1 for r, _ in tr.injections if r < rounds)
        queued_now = sum(len(q) for q in metrics.final_queues)
        assert entered == metrics.delivered_count + queued_now
        assert metrics.undelivered_count == len(tr) - metrics.delivered_count
        assert metrics.per_round_backlog[-1] == queued_now

        h = build_conflict_graph(g)
        for r in range(rounds):
            winners = np.nonzero(metrics.success[:, r])[0]
            for a in winners:
                assert metrics.attempted[a, r]
                for b in winners:
                    if a != b:
                        assert b not in h.blocks[a] and a not in h.blocks[b]

    @settings(max_examples=20, deadline=None)
    @given(sim_cases())
    def test_deterministic_replay(self, case):
        # run reads the trace's packets and never moves them along their
        # routes, so a second run of the same trace starts from scratch
        g, sched, tr, policy = case
        before = [dataclasses.astuple(p) for _, p in tr.injections]
        first = run(g, sched, policy, tr, 12)
        second = run(g, sched, policy, tr, 12)
        assert [dataclasses.astuple(p) for _, p in tr.injections] == before
        for f in dataclasses.fields(first):
            a, b = getattr(first, f.name), getattr(second, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100))
    def test_lis_single_link_is_fifo(self, seed):
        g = path_graph(2)
        sched = TransmissionSchedule(period=2, active=((0,), ()), link_count=2)
        tr = gen_leaky_bucket(g, [(0,)], AdversaryConfig(Fraction(1, 3), 2), 20, seed=seed)
        metrics = run(g, sched, "lis", tr, 60)
        ids = [d.id for d in metrics.delivered]
        assert ids == sorted(ids)
        assert metrics.undelivered_count == 0


class TestFailureAccounting:
    def starved_metrics(self, rounds):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((),), link_count=2)
        return run(g, sched, "lis", trace_of([(0, 0, (0,))], 0), rounds)

    def test_bound_holds(self):
        metrics = self.starved_metrics(4)
        rep = failure_accounting(metrics, AdversaryConfig(Fraction(1, 2), 1), Fraction(1, 2), 4)
        assert rep.holds and rep.witness is None
        assert rep.bound == Fraction(5) and rep.max_count == 4
        assert Fraction(rep.max_count) / rep.bound == Fraction(4, 5)

    def test_bound_violated_with_witness(self):
        metrics = self.starved_metrics(4)
        rep = failure_accounting(metrics, AdversaryConfig(Fraction(1, 2), 1), Fraction(1), 4)
        assert not rep.holds
        assert rep.bound == Fraction(3)
        assert rep.witness == (0, 0, 4)

    def test_no_links(self):
        g = random_network(1, 0, seed=0)
        sched = TransmissionSchedule(period=1, active=((),), link_count=0)
        metrics = run(g, sched, "lis", InjectionTrace((), 0), 5)
        rep = failure_accounting(metrics, AdversaryConfig(Fraction(1, 2), 1), Fraction(1, 2), 2)
        assert rep.holds and rep.max_count == 0 and rep.witness is None
        assert metrics.backlogged.shape == metrics.success.shape == (0, 5)

    def test_window_guards(self):
        metrics = self.starved_metrics(4)
        adv = AdversaryConfig(Fraction(1, 2), 1)
        with pytest.raises(ParameterError, match="window"):
            failure_accounting(metrics, adv, Fraction(1, 2), 0)
        with pytest.raises(ParameterError, match="shorter"):
            failure_accounting(metrics, adv, Fraction(1, 2), 9)
        with pytest.raises(ParameterError, match="rho"):
            failure_accounting(metrics, adv, Fraction(2), 2)


class TestStability:
    def test_drained_run_is_stable(self):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0,),), link_count=2)
        tr = trace_of([(0, 0, (0,))], 0)
        verdict = stability_verdict(run(g, sched, "lis", tr, 40))
        assert verdict.stable and verdict.slope == pytest.approx(0.0, abs=1e-9)
        # delivered within its injection round, so end-of-round backlog stays 0
        assert verdict.max_backlog == 0

    def test_overloaded_clique_is_unstable(self):
        sc = gen_clique_scenario(3, Fraction(1, 4), 240)
        h = build_conflict_graph(sc.g)
        sched = schedule_from_coloring(greedy_coloring(h))
        metrics = run(sc.g, sched, "lis", sc.trace, 240)
        verdict = stability_verdict(metrics)
        assert not verdict.stable
        assert verdict.slope > 0.05

    def test_needs_enough_rounds(self):
        g = path_graph(2)
        sched = TransmissionSchedule(period=1, active=((0,),), link_count=2)
        metrics = run(g, sched, "lis", trace_of([(0, 0, (0,))], 0), 5)
        with pytest.raises(ParameterError, match="rounds"):
            stability_verdict(metrics)


class TestCliqueThroughput:
    def test_at_most_one_success_per_round(self):
        sc = gen_clique_scenario(3, Fraction(1, 4), 120)
        h = build_conflict_graph(sc.g)
        assert exact_chromatic(h).color_count == 6
        sched = schedule_from_coloring(greedy_coloring(h))
        metrics = run(sc.g, sched, "lis", sc.trace, 120)
        assert (metrics.success.sum(axis=0) <= 1).all()
        # a singleton color class always finds its queue backed up
        assert metrics.delivered_count == 120


class TestSparseRecord:
    DENSE_VIEWS = {"active", "attempted", "backlogged", "success"}

    def test_long_run_memory(self):
        # 120 links x 20k rounds with traffic throughout: one dense bool view
        # is 2.4 MB, one int64 links x rounds array 19.2 MB
        g = random_network(50, 60, seed=1)
        sched = schedule_from_coloring(greedy_coloring(build_conflict_graph(g)))
        threshold = coloring_threshold(sched.period)
        adv = AdversaryConfig(threshold * Fraction(3, 4), 2)
        rounds = 20_000
        trace = gen_leaky_bucket(g, random_routes(g, 40, 3, seed=2), adv, rounds, seed=3)
        dense = g.link_count * rounds
        tracemalloc.start()
        try:
            metrics = run(g, sched, "lis", trace, rounds)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rep = failure_accounting(metrics, adv, threshold, sched.period)
            check_peak = tracemalloc.get_traced_memory()[1] - held
            assert not self.DENSE_VIEWS & vars(metrics).keys()
            del metrics
            tracemalloc.reset_peak()
            # the trace ends at round `rounds` and drains soon after, so
            # twice the rounds adds idle rounds only, each of which would
            # add a column to every dense view
            longer = run(g, sched, "lis", trace, 2 * rounds)
            longer_peak = tracemalloc.get_traced_memory()[1]
            assert not self.DENSE_VIEWS & vars(longer).keys()
            held = tracemalloc.get_traced_memory()[0]
            longer.backlogged
            view_bytes = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert rep.max_count > 0 and longer.per_round_backlog[rounds + 1000 :].max() == 0
        assert check_peak < 8 * dense / 4
        assert longer_peak - run_peak < dense / 2
        assert view_bytes >= 2 * dense  # the views are dense once read
