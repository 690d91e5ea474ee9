"""Differential tests: the integer token buckets, the per-link trace
admissibility check, the neighbourhood-built
conflict graph and its validation, round resolution, the heap-ordered
simulation kernel and its sparse record, the event-based failure
accounting, the cyclic-window frequency check, the selector to schedule
extraction and the packing of selector column sets against the direct
implementations they replaced, kept here as reference oracles.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiosched.errors import ParameterError
from radiosched.graphs import (
    ConflictGraph,
    NetworkGraph,
    build_conflict_graph,
    clique_graph,
    greedy_coloring,
    path_graph,
    random_network,
    successful_links,
)
from radiosched.schedules import (
    FrequencyReport,
    TransmissionSchedule,
    schedule_from_coloring,
    schedule_from_selector,
    verify_frequent,
)
from radiosched.selectors import SelectorMatrix, _pack_combos
from radiosched.sim import (
    POLICIES,
    DeliveryRecord,
    FailureReport,
    FailureWindow,
    RunMetrics,
    failure_accounting,
    run,
)
from radiosched.traffic import (
    AdmissibilityReport,
    AdversaryConfig,
    InjectionTrace,
    Packet,
    Violation,
    gen_clique_scenario,
    gen_leaky_bucket,
    random_routes,
    validate_trace,
)

# ---------------------------------------------------------------------------
# reference implementations


def ref_gen_leaky_bucket(g, routes, adv, horizon, seed, intensity=0.9):
    """Fraction token buckets, every bucket refilled every round."""
    routes = [tuple(rt) for rt in routes]
    rng = random.Random(seed)
    tokens = {e: Fraction(adv.b) for rt in routes for e in rt}
    injections = []
    next_id = 0
    for r in range(horizon + 1):
        for e in tokens:
            tokens[e] = min(Fraction(adv.b), tokens[e] + adv.rho)
        for rt in routes:
            if intensity < 1.0 and rng.random() >= intensity:
                continue
            needed = set(rt)
            if all(tokens[e] >= 1 for e in needed):
                for e in needed:
                    tokens[e] -= 1
                injections.append((r, Packet(next_id, r, rt)))
                next_id += 1
    return InjectionTrace(tuple(injections), horizon)


def link_loads(tr: InjectionTrace, link_count: int) -> np.ndarray:
    """Per-link, per-round injected load; a packet loads every link of its
    route at its injection round.  Shape (link_count, horizon + 1)."""
    loads = np.zeros((link_count, tr.horizon + 1), dtype=np.int64)
    for r, pkt in tr.injections:
        for i in set(pkt.route):
            loads[i, r] += 1
    return loads


def ref_validate_trace(tr: InjectionTrace, adv: AdversaryConfig, link_count: int | None = None) -> AdmissibilityReport:
    """Check every window of every length on every link against rho*T + b.

    Equivalent to a per-link token filter, computed exactly with integers:
    window load L over length T violates iff den*L - num*T > den*b.  Every
    intermediate lies within den*(b + load) + num*(horizon + 1) of zero;
    a link whose bound exceeds int64 is computed with Python ints instead.
    """
    if link_count is None:
        link_count = 1 + max((max(p.route) for _, p in tr.injections), default=0)
    loads = link_loads(tr, link_count)
    num, den = adv.rho.numerator, adv.rho.denominator
    cap = den * adv.b
    lengths = np.arange(1, tr.horizon + 2, dtype=np.int64)
    int64_max = np.iinfo(np.int64).max
    for e_link in range(link_count):
        row = loads[e_link]
        if not row.any():
            continue
        cum = np.cumsum(row)
        if cap + den * int(cum[-1]) + num * (tr.horizon + 1) > int64_max:
            d = den * cum.astype(object) - num * lengths.astype(object)
        else:
            d = den * cum - num * lengths
        d_pre = np.concatenate(([0], d[:-1]))
        runmin = np.minimum.accumulate(d_pre)
        excess = d - runmin
        bad = np.nonzero(excess > cap)[0]
        if bad.size:
            end = int(bad[0])
            start = int(np.argmin(d_pre[: end + 1]))
            load = int(cum[end] - (cum[start - 1] if start else 0))
            length = end - start + 1
            return AdmissibilityReport(
                False, Violation(e_link, start, length, load, adv.rho * length + adv.b)
            )
    return AdmissibilityReport(True, None)


def ref_blocks(g: NetworkGraph):
    """Pairwise blocking rule over all m^2 link pairs."""
    out = []
    for a, (ta, ha) in enumerate(g.links):
        row = []
        for b, (tb, hb) in enumerate(g.links):
            if a == b:
                continue
            if ta == tb or ta == hb or (ta != tb and ta in g.in_neighbors(hb)):
                row.append(b)
        out.append(tuple(row))
    return tuple(out)


def ref_conflict_closure(link_count, blocks):
    """ConflictGraph's checks, one element at a time, and its in-link and
    undirected tables built one edge end at a time; returns the first
    error message instead of raising."""
    blocks = tuple(tuple(sorted(set(v))) for v in blocks)
    if len(blocks) != link_count:
        return "blocks adjacency must have one entry per link"
    for u, out in enumerate(blocks):
        for v in out:
            if not (0 <= v < link_count):
                return "blocked link index out of range"
            if v == u:
                return "a link does not block itself"
    blocked_by = [[] for _ in range(link_count)]
    und = [set() for _ in range(link_count)]
    for u, out in enumerate(blocks):
        for v in out:
            blocked_by[v].append(u)
            und[u].add(v)
            und[v].add(u)
    return tuple(map(tuple, blocked_by)), tuple(map(frozenset, und))


def ref_successful_links(g, candidates):
    """Round resolution with a Counter of transmitting tails."""
    cand = sorted(set(candidates))
    tail_mult = Counter(g.links[i][0] for i in cand)
    out = []
    for i in cand:
        u, v = g.links[i]
        if tail_mult[u] != 1 or v in tail_mult:
            continue
        if any(w in tail_mult and w != u for w in g.in_neighbors(v)):
            continue
        out.append(i)
    return tuple(out)


# the tuple-valued keys of the list-and-min kernel's (hops, packet) entries
REF_KEYS = {
    "lis": lambda hops, p: (p.injection_round, p.id),
    "sis": lambda hops, p: (-p.injection_round, p.id),
    "nfs": lambda hops, p: (hops, p.id),
    "ftg": lambda hops, p: (hops - len(p.route), p.id),
}


def ref_run(g, schedule, policy, trace, rounds) -> SimpleNamespace:
    """Simulation loop that rescans every link every round and picks each
    winner's packet with a linear min over its queue, recording every
    round of every link in dense (links, rounds) arrays.  A queue holds
    (completed hops, packet) entries."""
    key = REF_KEYS[policy]
    m = g.link_count
    by_round: dict[int, list[Packet]] = {}
    for r, pkt in trace.injections:
        by_round.setdefault(r, []).append(pkt)
    queues: list[list[tuple[int, Packet]]] = [[] for _ in range(m)]
    active = np.zeros((m, rounds), dtype=bool)
    attempted = np.zeros((m, rounds), dtype=bool)
    success = np.zeros((m, rounds), dtype=bool)
    backlogged = np.zeros((m, rounds), dtype=bool)
    per_round_backlog = np.zeros(rounds, dtype=np.int64)
    per_round_max_queue = np.zeros(rounds, dtype=np.int64)
    delivered = []
    queued = 0
    for r in range(rounds):
        for pkt in by_round.get(r, ()):
            queues[pkt.route[0]].append((0, pkt))
            queued += 1
        for e in range(m):
            if queues[e]:
                backlogged[e, r] = True
        act = schedule.active_at(r)
        active[list(act), r] = True
        candidates = [e for e in act if queues[e]]
        attempted[candidates, r] = True
        winners = ref_successful_links(g, candidates)
        success[list(winners), r] = True
        moves = [(e, min(range(len(queues[e])), key=lambda i: key(*queues[e][i]))) for e in winners]
        for e, i in moves:
            hops, pkt = queues[e].pop(i)
            hops += 1
            if hops == len(pkt.route):
                delivered.append(DeliveryRecord(pkt.id, pkt.injection_round, r))
                queued -= 1
            else:
                queues[pkt.route[hops]].append((hops, pkt))
        per_round_backlog[r] = queued
        per_round_max_queue[r] = max(map(len, queues), default=0)
    return SimpleNamespace(
        rounds=rounds,
        active=active,
        attempted=attempted,
        success=success,
        backlogged=backlogged,
        collided=attempted & ~success,
        per_round_backlog=per_round_backlog,
        per_round_max_queue=per_round_max_queue,
        delivered=tuple(delivered),
        undelivered_count=len(trace) - len(delivered),
        final_queues=tuple(tuple(p.id for _, p in q) for q in queues),
    )


def ref_failure_accounting(dense, adv, rho_prime, window) -> FailureReport:
    """Window failure counts from cumulative sums over the dense
    backlogged-without-success mask; the witness is numpy's first argmax."""
    rho_prime = Fraction(rho_prime)
    bound = (1 + adv.rho - rho_prime) * window + adv.b
    fails = (dense.backlogged & ~dense.success).astype(np.int64)
    cum = np.cumsum(fails, axis=1)
    padded = np.concatenate([np.zeros((fails.shape[0], 1), dtype=np.int64), cum], axis=1)
    counts = padded[:, window:] - padded[:, :-window]
    flat = int(np.argmax(counts))
    link, start = divmod(flat, counts.shape[1])
    max_count = int(counts[link, start])
    holds = Fraction(max_count) <= bound
    witness = None if holds else FailureWindow(link, start, max_count)
    return FailureReport(holds, bound, window, max_count, witness)


def ref_verify_frequent(schedule, g, windows=2):
    """Round-by-round replay of max(windows*T, period + T - 1) rounds with a
    cumsum over every replayed round."""
    rho, T = schedule.claimed_frequency
    m = g.link_count
    total = max(windows * T, schedule.period + T - 1)
    per_period = {}
    succ = np.zeros((total, m), dtype=bool)
    for r in range(total):
        key = r % schedule.period if schedule.period else 0
        if key not in per_period:
            per_period[key] = successful_links(g, schedule.active_at(r))
        for i in per_period[key]:
            succ[r, i] = True
    cum = np.zeros((total + 1, m), dtype=np.int64)
    np.cumsum(succ, axis=0, out=cum[1:])
    window_counts = cum[T:] - cum[:-T]
    per_min = window_counts.min(axis=0) if m else np.zeros(0, dtype=np.int64)
    per_max = window_counts.max(axis=0) if m else np.zeros(0, dtype=np.int64)
    ok = all(Fraction(int(v)) >= rho * T for v in per_min)
    return FrequencyReport(ok, rho, T, total, tuple(int(v) for v in per_min), tuple(int(v) for v in per_max))


def ref_schedule_active(period, active, link_count):
    """Per-element canonicalisation and range check of a schedule's rows:
    the rows, or the message of the first error."""
    rows = tuple(tuple(sorted(set(int(i) for i in row))) for row in active)
    if period != len(rows):
        return "period must equal the number of active sets"
    for row in rows:
        for i in row:
            if not 0 <= i < link_count:
                return f"scheduled link {i} out of range"
    return rows


def ref_selector_active(sel, m):
    """Per-row flatnonzero extraction of a selector's active sets."""
    return tuple(tuple(int(z) for z in np.flatnonzero(sel.rows[r, :m])) for r in range(sel.t))


def ref_pack_combos(combos, n):
    """One uint64 OR per member of every column set."""
    words = np.zeros((len(combos), (n + 63) // 64), dtype=np.uint64)
    for i, combo in enumerate(combos):
        for j in combo:
            words[i, j // 64] |= np.uint64(1 << (j % 64))
    return words


METRIC_VIEWS = (
    "rounds",
    "active",
    "attempted",
    "success",
    "backlogged",
    "collided",
    "per_round_backlog",
    "per_round_max_queue",
    "delivered",
    "undelivered_count",
    "final_queues",
)


def assert_record_canonical(metrics):
    """The sparse record's documented order: stretches nonempty, disjoint and
    sorted by link then start; success events strictly increasing."""
    link, start, end = metrics.stretches.T
    assert metrics.stretches.dtype == metrics.success_events.dtype == np.int64
    assert (0 <= start).all() and (start < end).all() and (end <= metrics.rounds).all()
    assert (link[:-1] * metrics.rounds + end[:-1] <= link[1:] * metrics.rounds + start[1:]).all()
    assert (np.diff(metrics.success_events) > 0).all()


def assert_metrics_equal(got, want):
    assert_record_canonical(got)
    for name in METRIC_VIEWS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        else:
            assert a == b, name


# ---------------------------------------------------------------------------
# strategies


@st.composite
def networks(draw, max_nodes=10):
    n = draw(st.integers(2, max_nodes))
    return random_network(
        n,
        draw(st.integers(1, n * (n - 1) // 2)),
        seed=draw(st.integers(0, 10**6)),
        max_degree=draw(st.none() | st.integers(1, 4)),
    )


@st.composite
def walks(draw, g: NetworkGraph):
    """Link paths that may revisit nodes and repeat links."""
    route = [draw(st.integers(0, g.link_count - 1))]
    for _ in range(draw(st.integers(0, 4))):
        nxt = g.out_links(g.links[route[-1]][1])
        route.append(draw(st.sampled_from(nxt)))
    return tuple(route)


@st.composite
def route_sets(draw, g: NetworkGraph):
    if draw(st.booleans()):
        return random_routes(g, draw(st.integers(1, 8)), 4, seed=draw(st.integers(0, 10**6)))
    return draw(st.lists(walks(g), min_size=1, max_size=8))


rates = st.one_of(
    st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=50),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(lambda p, q: Fraction(p, q), st.integers(1, 5), st.integers(10**5, 10**6)),
)

intensities = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([0.3, 0.5, 0.9]))


# ---------------------------------------------------------------------------
# traffic


class TestLeakyBucketMatchesFraction:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_trace(self, data):
        g = data.draw(networks())
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 4)))
        horizon = data.draw(st.integers(0, 80))
        seed = data.draw(st.integers(0, 10**6))
        intensity = data.draw(intensities)
        got = gen_leaky_bucket(g, routes, adv, horizon, seed, intensity)
        want = ref_gen_leaky_bucket(g, routes, adv, horizon, seed, intensity)
        assert got == want

    def test_long_horizon_low_rate(self):
        g = random_network(12, 20, seed=3)
        routes = random_routes(g, 10, 3, seed=4)
        adv = AdversaryConfig(Fraction(7, 999983), 3)
        for intensity in (1.0, 0.6):
            got = gen_leaky_bucket(g, routes, adv, 2000, 5, intensity)
            assert got == ref_gen_leaky_bucket(g, routes, adv, 2000, 5, intensity)


@st.composite
def admissibility_cases(draw):
    """A trace with several packets per round, routes that may repeat a
    link and a horizon up to far past the last injection, and the
    link_count to pass: none (inferred), exact, or with unused links."""
    links = draw(st.integers(1, 5))
    last = draw(st.integers(0, 30))
    routes = st.lists(st.integers(0, links - 1), min_size=1, max_size=4).map(tuple)
    sent = [(r, draw(routes)) for r in draw(st.lists(st.integers(0, last), max_size=30))]
    # link 0 served every `step` rounds meets rho = 1/step exactly, so
    # d(s - 1) ties and the witness must start at the first minimum
    step = draw(st.sampled_from([None, 1, 2, 3]))
    if step:
        sent += [(r, (0,)) for r in range(0, last + 1, step)]
    sent.sort(key=lambda pair: pair[0])
    injections = tuple((r, Packet(pid, r, route)) for pid, (r, route) in enumerate(sent))
    horizon = max((r for r, _ in sent), default=0) + draw(st.sampled_from([0, 1, 5, 40, 10**4]))
    link_count = draw(st.sampled_from([None, links, links + 3]))
    return InjectionTrace(injections, horizon), link_count


admissibility_rates = st.one_of(
    # small denominators make d(s - 1) tie, so the first minimum matters
    st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]),
    st.fractions(min_value=Fraction(1, 16), max_value=3, max_denominator=16),
    # near k/8 with a denominator of 10^15..10^30, past int64
    st.builds(lambda k, e: Fraction(k * 10**e + 1, 8 * 10**e), st.integers(1, 16), st.integers(15, 30)),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
)


class TestValidateTraceMatchesDense:
    @settings(max_examples=400, deadline=None)
    @given(admissibility_cases(), admissibility_rates, st.integers(0, 3))
    # d(s - 1) is 0 before rounds 0 and 2: the witness starts at round 0
    @example(
        (InjectionTrace(tuple((r, Packet(i, r, (0,))) for i, r in enumerate((0, 2, 2))), 2), None),
        Fraction(1, 2),
        1,
    )
    def test_same_report(self, case, rho, b):
        tr, link_count = case
        adv = AdversaryConfig(rho, b)
        got = validate_trace(tr, adv, link_count)
        want = ref_validate_trace(tr, adv, link_count)
        assert got == want and repr(got) == repr(want)

    def test_huge_denominator(self):
        # den * load reaches 1.001e19, past int64
        tr = InjectionTrace(tuple((r, Packet(r, r, (0,))) for r in range(1001)), 1000)
        for b in (999, 1000, 1001):
            adv = AdversaryConfig(Fraction(1, 10**16), b)
            assert validate_trace(tr, adv) == ref_validate_trace(tr, adv)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_generated_traces_at_other_rates(self, b):
        # workload-shaped traces checked at rates and bursts around their own
        g = random_network(30, 60, seed=b)
        routes = random_routes(g, 12, 3, seed=b)
        tr = gen_leaky_bucket(g, routes, AdversaryConfig(Fraction(1, 8), b), 300, seed=b)
        for rho in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 8) + Fraction(1, 10**20)):
            for burst in (b - 1, b):
                adv = AdversaryConfig(rho, burst)
                want = ref_validate_trace(tr, adv, g.link_count)
                assert validate_trace(tr, adv, g.link_count) == want


# ---------------------------------------------------------------------------
# graphs


class TestConflictGraphMatchesPairwise:
    @settings(max_examples=150, deadline=None)
    @given(networks(max_nodes=14))
    def test_same_blocks(self, g):
        h = build_conflict_graph(g)
        assert h.blocks == ref_blocks(g)
        blocked_by, undirected = ref_conflict_closure(h.link_count, h.blocks)
        assert tuple(map(h.blocked_by, range(h.link_count))) == blocked_by
        assert tuple(map(h.conflict_neighbors, range(h.link_count))) == undirected

    def test_fixed_shapes(self):
        for g in (path_graph(2), path_graph(5), clique_graph(4), NetworkGraph((0, 1, 2), ())):
            assert build_conflict_graph(g).blocks == ref_blocks(g)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.lists(st.integers(-2, m + 1), max_size=2 * m),
                    min_size=max(m - 1, 0),
                    max_size=m + 1,
                ),
            )
        )
    )
    # each error at the edge of its range, and the self-loop between them
    @example((1, [[1]]))
    @example((2, [[-1, 0]]))
    @example((2, [[0, 2]]))
    @example((2, [[1], [0]]))
    def test_same_checks_and_closure(self, case):
        m, rows = case
        want = ref_conflict_closure(m, rows)
        if isinstance(want, str):
            with pytest.raises(ParameterError) as err:
                ConflictGraph(m, rows)
            assert str(err.value) == want
        else:
            h = ConflictGraph(m, rows)
            assert tuple(map(h.blocked_by, range(m))) == want[0]
            assert tuple(map(h.conflict_neighbors, range(m))) == want[1]


class TestSuccessfulLinksMatchesCounter:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_winners(self, data):
        g = data.draw(networks(max_nodes=12))
        cands = data.draw(st.lists(st.integers(0, g.link_count - 1), max_size=2 * g.link_count))
        assert successful_links(g, cands) == ref_successful_links(g, cands)


# ---------------------------------------------------------------------------
# schedules and selectors


@st.composite
def claimed_schedules(draw, g: NetworkGraph):
    """Schedules with a (rho, T) claim: period 0 to 7, rows that repeat links,
    and T below, at, a multiple of, or off a multiple of the period."""
    m = g.link_count
    period = draw(st.integers(0, 7))
    rows = tuple(
        tuple(draw(st.lists(st.integers(0, m - 1), max_size=2 * m))) for _ in range(period)
    )
    if period:
        T = draw(
            st.one_of(
                st.integers(1, period),
                st.integers(1, 4).map(lambda j: j * period),
                st.integers(1, 4 * period + 3),
            )
        )
    else:
        T = draw(st.integers(1, 6))
    rho = Fraction(draw(st.integers(1, 2 * T)), 2 * T)
    return TransmissionSchedule(period, rows, m, claimed_frequency=(rho, T))


def outcome(build):
    try:
        return build()
    except ParameterError as exc:
        return str(exc)


class TestVerifyFrequentMatchesReplay:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_report(self, data):
        g = data.draw(networks(max_nodes=8))
        sched = data.draw(claimed_schedules(g))
        windows = data.draw(st.integers(1, 4))
        assert verify_frequent(sched, g, windows) == ref_verify_frequent(sched, g, windows)

    def test_partial_window_at_every_start(self):
        # link 0 wins in rounds 0 and 3 of 5, link 1 in rounds 1 and 4: with
        # T = 7 the stretch beyond one whole period is 2 rounds long
        g = path_graph(2)
        rows = ((0,), (1,), (), (0,), (1,))
        for T in range(1, 13):
            sched = TransmissionSchedule(5, rows, 2, claimed_frequency=(Fraction(1, 5), T))
            for windows in (1, 2, 3):
                assert verify_frequent(sched, g, windows) == ref_verify_frequent(sched, g, windows)

    def test_no_links(self):
        g = NetworkGraph((0, 1), ())
        for period, T in ((0, 3), (2, 2), (2, 3)):
            sched = TransmissionSchedule(period, ((),) * period, 0, claimed_frequency=(Fraction(1, 2), T))
            assert verify_frequent(sched, g) == ref_verify_frequent(sched, g)


class TestScheduleRowsMatchPerElement:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_rows_and_errors(self, data):
        m = data.draw(st.integers(0, 6))
        period = data.draw(st.integers(0, 5))
        element = st.integers(-2, m + 2) | st.integers(-2, m + 2).map(np.int64)
        rows = data.draw(
            st.lists(st.lists(element, max_size=8), min_size=max(period - 1, 0), max_size=period + 1)
        )
        want = ref_schedule_active(period, rows, m)
        got = outcome(lambda: TransmissionSchedule(period, rows, m).active)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_selector_extraction(self, data):
        g = data.draw(networks(max_nodes=8))
        m = g.link_count
        n = data.draw(st.integers(m, m + 5))
        t = data.draw(st.integers(0, 12))
        zero_rows = data.draw(st.sets(st.integers(0, max(t - 1, 0))))
        rows = np.array(
            [[0 if r in zero_rows else data.draw(st.integers(0, 1)) for _ in range(n)] for r in range(t)],
            dtype=np.uint8,
        ).reshape(t, n)
        sel = SelectorMatrix(n, t, rows, claimed_k=n, claimed_eps=Fraction(1, 2))
        want = outcome(
            lambda: TransmissionSchedule(
                t, ref_selector_active(sel, m), m, "selector", (Fraction(1, 2 * n), t)
            )
        )
        assert outcome(lambda: schedule_from_selector(sel, g)) == want


class TestPackCombosMatchesPerElement:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_words(self, data):
        n = data.draw(st.integers(60, 130))
        size = data.draw(st.integers(0, 5))
        combos = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
                .map(lambda c: tuple(sorted(c))),
                max_size=20,
            )
        )
        got = _pack_combos(combos, size, n)
        assert got.dtype == np.uint64 and np.array_equal(got, ref_pack_combos(combos, n))

    def test_word_edges(self):
        for n in (64, 65, 128, 130):
            singles = [(j,) for j in range(n)]
            pairs = [(0, n - 1), (62, 63), (n - 2, n - 1)]
            assert np.array_equal(_pack_combos(singles, 1, n), ref_pack_combos(singles, n))
            assert np.array_equal(_pack_combos(pairs, 2, n), ref_pack_combos(pairs, n))


# ---------------------------------------------------------------------------
# sim


@st.composite
def schedules_for(draw, g: NetworkGraph):
    period = draw(st.integers(1, 6))
    rows = tuple(
        tuple(draw(st.sets(st.integers(0, g.link_count - 1), max_size=g.link_count)))
        for _ in range(period)
    )
    return TransmissionSchedule(period=period, active=rows, link_count=g.link_count)


class TestRunMatchesRescan:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_same_metrics(self, data):
        g = data.draw(networks(max_nodes=8))
        sched = data.draw(schedules_for(g))
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 5)))
        trace = gen_leaky_bucket(
            g, routes, adv, data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10**6)),
            data.draw(intensities),
        )
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        rounds = data.draw(st.integers(1, 50))
        assert_metrics_equal(run(g, sched, policy, trace, rounds), ref_run(g, sched, policy, trace, rounds))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(2, 12),
        st.integers(0, 5),
        st.sampled_from(sorted(POLICIES)),
    )
    def test_deep_queues(self, n, d, offset, policy):
        # overloaded clique: queues grow and shrink across many lengths
        sc = gen_clique_scenario(n, Fraction(1, d), 150)
        m = sc.g.link_count
        rows = tuple((e,) for e in range(m)) + ((),) * offset
        sched = TransmissionSchedule(len(rows), rows, m)
        assert_metrics_equal(run(sc.g, sched, policy, sc.trace, 200), ref_run(sc.g, sched, policy, sc.trace, 200))


# every window length, against a bound loose enough to hold and one no
# failure fits under, so each nonzero maximum also yields a witness
ACCOUNTING_ADVERSARIES = (
    (AdversaryConfig(Fraction(1, 2), 3), Fraction(1, 2)),
    (AdversaryConfig(Fraction(1, 1000), 0), Fraction(1)),
)


def assert_accounting_equal(metrics, dense):
    for window in range(1, min(dense.rounds, 40) + 1):
        for adv, rho_prime in ACCOUNTING_ADVERSARIES:
            got = failure_accounting(metrics, adv, rho_prime, window)
            assert got == ref_failure_accounting(dense, adv, rho_prime, window), window


class TestFailureAccountingMatchesDense:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_mesh(self, data):
        g = data.draw(networks(max_nodes=8))
        if data.draw(st.booleans()):
            sched = data.draw(schedules_for(g))
        else:
            coloring = greedy_coloring(build_conflict_graph(g))
            sched = schedule_from_coloring(coloring).rotated(data.draw(st.integers(0, 20)))
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 5)))
        trace = gen_leaky_bucket(
            g, routes, adv, data.draw(st.integers(0, 60)), data.draw(st.integers(0, 10**6)),
            data.draw(intensities),
        )
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        rounds = data.draw(st.integers(1, 70))
        metrics = run(g, sched, policy, trace, rounds)
        dense = ref_run(g, sched, policy, trace, rounds)
        assert_metrics_equal(metrics, dense)
        assert_accounting_equal(metrics, dense)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(2, 12),
        st.integers(0, 11),
        st.integers(40, 160),
        st.sampled_from(sorted(POLICIES)),
    )
    def test_overloaded_clique(self, n, d, offset, rounds, policy):
        sc = gen_clique_scenario(n, Fraction(1, d), 150)
        sched = schedule_from_coloring(greedy_coloring(build_conflict_graph(sc.g))).rotated(offset)
        metrics = run(sc.g, sched, policy, sc.trace, rounds)
        dense = ref_run(sc.g, sched, policy, sc.trace, rounds)
        assert_metrics_equal(metrics, dense)
        assert_accounting_equal(metrics, dense)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_stretches_and_successes(self, data):
        # a record built directly: its stretches may touch, and may end
        # before the last round without a success, which `run`'s never do
        m = data.draw(st.integers(1, 4))
        rounds = data.draw(st.integers(1, 40))
        cells = st.lists(st.booleans(), min_size=m * rounds, max_size=m * rounds)
        backlogged = np.array(data.draw(cells), dtype=bool).reshape(m, rounds)
        success = backlogged & np.array(data.draw(cells), dtype=bool).reshape(m, rounds)
        rows = []
        for e in range(m):
            # each maximal backlogged run, cut into touching stretches
            edges = np.flatnonzero(np.diff(backlogged[e], prepend=False, append=False)).tolist()
            for a, b in zip(edges[::2], edges[1::2]):
                cuts = sorted(data.draw(st.sets(st.integers(a + 1, b - 1)))) if b - a > 1 else []
                ends = [a, *cuts, b]
                rows += [(e, lo, hi) for lo, hi in zip(ends, ends[1:])]
        metrics = RunMetrics(
            rounds=rounds,
            pattern=np.zeros((m, 1), dtype=bool),
            stretches=np.array(rows, dtype=np.int64).reshape(-1, 3),
            success_events=np.flatnonzero(success),
            per_round_backlog=np.zeros(rounds, dtype=np.int64),
            per_round_max_queue=np.zeros(rounds, dtype=np.int64),
            delivered=(),
            undelivered_count=0,
            final_queues=((),) * m,
        )
        assert np.array_equal(metrics.backlogged, backlogged)
        assert np.array_equal(metrics.success, success)
        assert_accounting_equal(metrics, SimpleNamespace(rounds=rounds, backlogged=backlogged, success=success))
