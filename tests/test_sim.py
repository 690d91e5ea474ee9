from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiosched.bounds import coloring_threshold
from radiosched.cli import _write_round_log
from radiosched.errors import ParameterError
from radiosched.graphs import (
    build_conflict_graph,
    clique_graph,
    conflict_in_degree,
    exact_chromatic,
    greedy_coloring,
    path_graph,
    random_network,
)
from radiosched.schedules import schedule_from_coloring, schedule_from_rows, schedule_from_selector
from radiosched.selectors import poly_uss
from radiosched.sim import failure_accounting, run, stability_verdict
from radiosched.traffic import (
    AdversaryConfig,
    InjectionTrace,
    Packet,
    gen_clique_scenario,
    gen_leaky_bucket,
    random_routes,
    trace_from_packets,
)


def trace_of(entries, horizon):
    """entries: (round, id, route) triples."""
    return trace_from_packets(tuple((r, Packet(i, rt)) for r, i, rt in entries), horizon)


def deliveries(metrics):
    """(id, injection round, delivered round) of each delivery, in delivery
    order, read from the three delivery columns."""
    columns = (metrics.delivered_ids, metrics.injection_rounds, metrics.delivered_rounds)
    return list(zip(*(c.tolist() for c in columns)))


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
        assert deliveries(metrics) == [(0, 0, 2)]
        assert metrics.max_latency == 2
        assert metrics.undelivered_count == 0
        assert metrics.success[0, 0] and metrics.success[2, 2]
        assert metrics.success.sum() == 2
        assert np.array_equal(metrics.attempted, metrics.success)
        assert metrics.backlogged[0, 0] and metrics.backlogged[2, 1] and metrics.backlogged[2, 2]
        assert metrics.per_round_backlog.tolist() == [1, 1, 0, 0]

    def test_head_on_collision(self):
        g = path_graph(2)
        sched = schedule_from_rows(((0, 1),), 2, None)
        tr = trace_of([(0, 0, (0,)), (0, 1, (1,))], 0)
        metrics = run(g, sched, "lis", tr, 3)
        assert deliveries(metrics) == []
        assert metrics.attempted.all()
        assert not metrics.success.any()
        assert (metrics.attempted & ~metrics.success).all()
        assert metrics.undelivered_count == 2

    def test_forwarded_packet_waits_a_round(self):
        # link 2 is active every round, yet the packet hopping onto it at
        # round 0 can only move at round 1
        g = path_graph(3)
        sched = schedule_from_rows(((0, 2),), 4, None)
        tr = trace_of([(0, 0, (0, 2))], 0)
        metrics = run(g, sched, "lis", tr, 2)
        assert deliveries(metrics) == [(0, 0, 1)]
        assert metrics.success[0, 0] and metrics.success[2, 1]
        assert not metrics.success[2, 0]

    def test_late_injections_never_enter(self):
        g = path_graph(2)
        sched = schedule_from_rows(((0,),), 2, None)
        tr = trace_of([(0, 0, (0,)), (5, 1, (0,))], 5)
        metrics = run(g, sched, "lis", tr, 3)
        assert metrics.delivered_count == 1
        assert metrics.undelivered_count == 1
        assert metrics.per_round_backlog.tolist() == [0, 0, 0]


class TestPolicies:
    def one_link_runs(self, policy):
        g = path_graph(2)
        sched = schedule_from_rows(((0,),), 2, None)
        tr = trace_of([(0, 0, (0,)), (0, 1, (0,)), (1, 2, (0,))], 1)
        return run(g, sched, policy, tr, 5)

    def test_lis_oldest_first(self):
        assert self.one_link_runs("lis").delivered_ids.tolist() == [0, 1, 2]

    def test_sis_newest_first(self):
        assert self.one_link_runs("sis").delivered_ids.tolist() == [0, 2, 1]

    def test_ftg_prefers_longer_route(self):
        g = path_graph(4)
        sched = schedule_from_rows(((2,),), 6, None)
        tr = trace_of([(0, 0, (2,)), (0, 1, (2, 4))], 0)
        short_first = run(g, sched, "nfs", tr, 3)
        long_first = run(g, sched, "ftg", tr, 3)
        # nfs ties on completed hops and falls back to id; ftg picks two-hop id 1
        assert deliveries(short_first)[0] == (0, 0, 0)
        assert deliveries(long_first)[0] == (0, 0, 1)
        assert long_first.backlogged[4, 1]

    def test_final_queues_in_service_order(self):
        # the leftovers are listed in the order sis would serve them next:
        # newest injection first, then by id; 2 went at round 1
        g = path_graph(2)
        sched = schedule_from_rows(((), (0,), ()), 2, None)
        tr = trace_of([(0, 0, (0,)), (0, 1, (0,)), (1, 2, (0,)), (2, 3, (0,))], 2)
        metrics = run(g, sched, "sis", tr, 3)
        assert metrics.delivered_ids.tolist() == [2]
        assert metrics.final_queues == ((3, 0, 1), ())

    def test_ids_beyond_int64_refused(self):
        # a trace keeps ids in an int64 column, as deliveries do
        g = path_graph(2)
        sched = schedule_from_rows(((0,),), 2, None)
        with pytest.raises(ParameterError, match="int64"):
            trace_of([(0, 2**63, (0,))], 0)
        metrics = run(g, sched, "lis", trace_of([(0, 2**63 - 1, (0,)), (0, -(2**63), (0,))], 0), 3)
        assert deliveries(metrics) == [(-(2**63), 0, 0), (2**63 - 1, 0, 1)]

    def test_unknown_policy(self):
        g = path_graph(2)
        sched = schedule_from_rows(((0,),), 2, None)
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
    sched = schedule_from_rows(active, g.link_count, None)
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
        success, attempted = metrics.success, metrics.attempted
        for r in range(rounds):
            winners = np.nonzero(success[:, r])[0]
            for a in winners:
                assert attempted[a, r]
                for b in winners:
                    if a != b:
                        assert b not in h.blocks[a] and a not in h.blocks[b]

    @settings(max_examples=20, deadline=None)
    @given(sim_cases())
    def test_deterministic_replay(self, case):
        # run reads the trace's packets and never moves them along their
        # routes, so a second run of the same trace starts from scratch
        g, sched, tr, policy = case
        before = list(tr.injections)
        first = run(g, sched, policy, tr, 12)
        second = run(g, sched, policy, tr, 12)
        assert list(tr.injections) == before
        for f in dataclasses.fields(first):
            a, b = getattr(first, f.name), getattr(second, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    def test_records_compare_by_identity(self):
        # a record holds arrays, so field-wise == has no single truth value;
        # two runs of the same inputs are two records
        g = path_graph(2)
        sched = schedule_from_rows(((0,), (1,)), 2, None)
        tr = trace_of([(0, 0, (0,)), (1, 1, (1,))], 1)
        first, second = run(g, sched, "lis", tr, 4), run(g, sched, "lis", tr, 4)
        assert first == first and first != second
        assert first in {first} and second not in {first}
        assert hash(first) != hash(second)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100))
    def test_lis_single_link_is_fifo(self, seed):
        g = path_graph(2)
        sched = schedule_from_rows(((0,), ()), 2, None)
        tr = gen_leaky_bucket(g, [(0,)], AdversaryConfig(Fraction(1, 3), 2), 20, seed=seed)
        metrics = run(g, sched, "lis", tr, 60)
        ids = metrics.delivered_ids.tolist()
        assert ids == sorted(ids)
        assert metrics.undelivered_count == 0


class TestFailureAccounting:
    def starved_metrics(self, rounds):
        g = path_graph(2)
        sched = schedule_from_rows(((),), 2, None)
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
        sched = schedule_from_rows(((),), 0, None)
        metrics = run(g, sched, "lis", trace_from_packets((), 0), 5)
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
        sched = schedule_from_rows(((0,),), 2, None)
        tr = trace_of([(0, 0, (0,))], 0)
        metrics = run(g, sched, "lis", tr, 40)
        verdict = stability_verdict(metrics)
        assert verdict.stable and verdict.slope == pytest.approx(0.0, abs=1e-9)
        # delivered within its injection round, so end-of-round backlog stays 0
        assert metrics.max_backlog == 0

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
        sched = schedule_from_rows(((0,),), 2, None)
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

    def test_delivery_columns(self):
        sc = gen_clique_scenario(3, Fraction(1, 31), 600)
        sched = schedule_from_coloring(exact_chromatic(build_conflict_graph(sc.g)))
        metrics = run(sc.g, sched, "sis", sc.trace, 600)
        columns = (metrics.delivered_ids, metrics.injection_rounds, metrics.delivered_rounds)
        assert all(c.dtype == np.int64 and c.shape == (metrics.delivered_count,) for c in columns)
        assert metrics.max_latency == max(end - start for _, start, end in deliveries(metrics))

    def test_bytes_per_delivery(self):
        # An overloaded clique delivers one packet a round, so each extra
        # delivery comes with one extra round and one success.  The kept
        # record then gains 32 bytes of int64 entries (two delivery
        # columns, one success event, the backlog series), plus buffer
        # over-allocation and the final queue slots of the extra backlog:
        # about 39 bytes in all.  A record of Python objects per delivery
        # (namedtuple, list slot, round int) costs about 90 bytes more.
        sc = gen_clique_scenario(3, Fraction(1, 31), 2400)
        sched = schedule_from_coloring(exact_chromatic(build_conflict_graph(sc.g)))
        run(sc.g, sched, "lis", sc.trace, 12)  # any one-time cost falls outside the trace
        kept = {}
        tracemalloc.start()
        try:
            for rounds in (1200, 2400):
                before = tracemalloc.get_traced_memory()[0]
                metrics = run(sc.g, sched, "lis", sc.trace, rounds)
                kept[rounds] = (tracemalloc.get_traced_memory()[0] - before, metrics.delivered_count)
                del metrics
        finally:
            tracemalloc.stop()
        (short_bytes, short_count), (long_bytes, long_count) = kept[1200], kept[2400]
        assert long_count - short_count >= 1000
        assert (long_bytes - short_bytes) / (long_count - short_count) < 56

    def test_run_peak(self):
        # one run of the benchmark's overloaded clique: about 182 kB at peak,
        # reached after the loop, with the per-packet columns and the queues
        # freed, while the stretches are derived: the record's int64 columns
        # and backlog series take about 77 kB, and the sorted steps up and
        # down of the queues, with a searchsorted rank array and an index
        # range of the same length, about 92 kB
        sc = gen_clique_scenario(3, Fraction(1, 31), 2400)
        sched = schedule_from_coloring(exact_chromatic(build_conflict_graph(sc.g)))
        run(sc.g, sched, "lis", sc.trace, 12)  # any one-time cost falls outside the trace
        tracemalloc.start()
        try:
            metrics = run(sc.g, sched, "lis", sc.trace, 2400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.delivered_count == 2400 and peak < 222_000

    @staticmethod
    def selector_probe():
        # 240 links under poly_uss(240, 20), whose period of 6,889 rounds a
        # 7,000-round run outlasts: a links x period bool array alone would
        # be 1.65 MB
        g = random_network(60, 120, seed=1, max_degree=4)
        sched = schedule_from_selector(poly_uss(g.link_count, conflict_in_degree(g) + 1), g)
        adv = AdversaryConfig(sched.claimed_frequency[0] * Fraction(15, 16), 2)
        rounds = 7_000
        trace = gen_leaky_bucket(g, random_routes(g, 30, 3, seed=1), adv, rounds, seed=1)
        return g, sched, trace, rounds

    def test_selector_record_size(self):
        # the record holds the schedule by reference and its own columns grow
        # with rounds and events
        g, sched, trace, rounds = self.selector_probe()
        run(g, sched, "lis", trace, 12)  # any one-time cost falls outside the trace
        tracemalloc.start()
        try:
            metrics = run(g, sched, "lis", trace, rounds)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sched.period < rounds and metrics.delivered_count > 900
        assert held < 1_000_000

    def test_attempted_peak(self):
        # the benchmark's mesh: reading `attempted` holds its one bool output
        # and the attempt events, about 1.05 x links x rounds bytes at peak;
        # building `active`, `backlogged` and their AND takes it past 3 x
        g = random_network(100, 250, seed=1)
        sched = schedule_from_coloring(greedy_coloring(build_conflict_graph(g)))
        adv = AdversaryConfig(coloring_threshold(sched.period) * Fraction(3, 4), 2)
        rounds = 300
        trace = gen_leaky_bucket(g, random_routes(g, 64, 3, seed=1), adv, rounds, seed=1)
        metrics = run(g, sched, "lis", trace, rounds)
        metrics.attempted  # any one-time cost falls outside the trace
        tracemalloc.start()
        try:
            attempted = metrics.attempted
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert attempted.sum() > 0
        assert peak < 2 * g.link_count * rounds

    def test_round_log_peak(self, tmp_path):
        # the selector probe's round log streams one round at a time from the
        # schedule's activations and the record's events, about 0.3 MB at
        # peak; one links x rounds bool array is 1.68 MB
        g, sched, trace, rounds = self.selector_probe()
        metrics = run(g, sched, "lis", trace, rounds)
        log = tmp_path / "rounds.log"
        _write_round_log(metrics, log)  # any one-time cost falls outside the trace
        tracemalloc.start()
        try:
            _write_round_log(metrics, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = log.read_text().splitlines()
        assert len(lines) == rounds and any(not line.endswith(" collided -") for line in lines)
        assert peak < 1_000_000

    def test_keys_past_int64_refused_before_allocation(self):
        # one packet of one hop: (rounds + 2) * 2 reaches 2**63 at rounds =
        # 2**62 - 2, refused before any array sized by the rounds; one round
        # fewer passes the guard, and its rounds-long series cannot be held
        g = path_graph(2)
        sched = schedule_from_rows(((0,),), 2, None)
        tr = trace_of([(0, 0, (0,))], 0)
        # one packet on the 4th route of a 4-route table: its queue keys,
        # below (2**61 + 3) * 2, fit, but its success keys, place * rounds +
        # round at place 7 of the flat table, would not
        fourth = InjectionTrace([0], [0], [3], ((0,), (1,), (1, 0), (0, 1)), 0)
        tracemalloc.start()
        try:
            for trace, rounds in ((tr, 2**62), (tr, 2**62 - 2), (fourth, 2**61)):
                with pytest.raises(ParameterError, match="int64"):
                    run(g, sched, "lis", trace, rounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(MemoryError):
            run(g, sched, "lis", tr, 2**62 - 3)

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
            # the max-queue series is derived from the events, with no
            # links x rounds array: about 20 bytes an event
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            series = metrics.per_round_max_queue
            read_peak = tracemalloc.get_traced_memory()[1] - held
            events = len(trace) + metrics.forward_events.size + metrics.success_events.size
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
            assert longer.attempted.sum() >= longer.success.sum() > 0
            # each view is built for its read and kept by nothing
            assert not self.DENSE_VIEWS & vars(longer).keys()
            kept_bytes = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert rep.max_count > 0 and longer.per_round_backlog[rounds + 1000 :].max() == 0
        # the loop keeps the queues and the success log, and the record is
        # derived after it: about 33 bytes an event at peak
        assert run_peak < 56 * events
        assert check_peak < 8 * dense / 4
        assert series.max() > 0 and read_peak < 48 * events + 32 * rounds < 8 * dense / 4
        assert longer_peak - run_peak < dense / 2
        assert kept_bytes < dense / 100
