"""Differential tests: the integer token buckets, the per-link trace
admissibility check, the neighbourhood-built
conflict graph, first-fit coloring from the directed
rows, round resolution, the heap-ordered
simulation kernel and its sparse record, the event-based failure
accounting, the cyclic-window frequency check, the selector to schedule
extraction, the packing of selector column sets and the selector sample
check against the direct implementations they replaced, kept here as
reference oracles; the exhaustive selector count against a brute-force
count; and the schedule builders against the rows adapter.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter
from itertools import combinations
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiosched import sim, traffic
from radiosched.cli import _write_round_log
from radiosched.errors import ParameterError
from radiosched.graphs import (
    Coloring,
    ConflictGraph,
    NetworkGraph,
    build_conflict_graph,
    clique_graph,
    conflict_in_degree,
    exact_chromatic,
    greedy_coloring,
    path_graph,
    random_network,
    resolve_rows,
)
from radiosched.schedules import (
    FrequencyReport,
    ServiceWindow,
    TransmissionSchedule,
    schedule_from_coloring,
    schedule_from_rows,
    schedule_from_selector,
    verify_frequent,
)
from radiosched.selectors import (
    MinCountResult,
    SampleCheck,
    _pack,
    poly_uss,
    uss_min_count,
    uss_sample_check,
)
from radiosched.sim import (
    POLICIES,
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
    gen_tree_family,
    gen_clique_scenario,
    gen_leaky_bucket,
    random_routes,
    trace_from_packets,
    validate_trace,
    write_trace,
)

from dense_selector import dense, selector

# ---------------------------------------------------------------------------
# reference implementations


def trace_bytes(tr) -> bytes:
    """The trace as `write_trace` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        write_trace(tr, path)
        return path.read_bytes()


def ref_trace_bytes(injections, horizon) -> bytes:
    """(round, Packet) pairs in `write_trace`'s format."""
    lines = [f"# horizon {horizon}"]
    lines += [f"inject {r} {pkt.id} " + " ".join(map(str, pkt.route)) for r, pkt in injections]
    return ("\n".join(lines) + "\n").encode()


def ref_gen_leaky_bucket(g, routes, adv, horizon, seed, intensity=0.9) -> bytes:
    """Fraction token buckets, every bucket refilled and every route drawn
    for every round; the trace's `write_trace` bytes."""
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
                injections.append((r, Packet(next_id, rt)))
                next_id += 1
    return ref_trace_bytes(injections, horizon)


def ref_periodic_trace(links, periods, horizon) -> bytes:
    """One packet per link at each multiple of each period, as tuples; the
    trace's `write_trace` bytes."""
    waves = ((r, e) for r in range(horizon + 1) for p in periods if r % p == 0 for e in links)
    return ref_trace_bytes(((r, Packet(i, (e,))) for i, (r, e) in enumerate(waves)), horizon)


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


def ref_conflict_closure(blocks):
    """The rows' in-link and undirected tables, built one edge end at a
    time."""
    link_count = len(blocks)
    blocked_by = [[] for _ in range(link_count)]
    und = [set() for _ in range(link_count)]
    for u, out in enumerate(blocks):
        for v in out:
            blocked_by[v].append(u)
            und[u].add(v)
            und[v].add(u)
    return tuple(map(tuple, blocked_by)), tuple(map(frozenset, und))


def ref_greedy_coloring(h: ConflictGraph) -> Coloring:
    """First-fit in link index order on the undirected conflict closure."""
    undirected = ref_conflict_closure(h.blocks)[1]
    colors = [-1] * h.link_count
    for v in range(h.link_count):
        taken = {colors[u] for u in undirected[v] if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors))


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


# the tuple-valued keys of the list-and-min kernel's (hops, round, packet) entries
REF_KEYS = {
    "lis": lambda hops, r, p: (r, p.id),
    "sis": lambda hops, r, p: (-r, p.id),
    "nfs": lambda hops, r, p: (hops, p.id),
    "ftg": lambda hops, r, p: (hops - len(p.route), p.id),
}


def ref_run(g, schedule, policy, trace, rounds) -> SimpleNamespace:
    """Simulation loop that rescans every link every round and picks each
    winner's packet with a linear min over its queue, recording every
    round of every link in dense (links, rounds) arrays.  A queue holds
    (completed hops, injection round, packet) entries."""
    key = REF_KEYS[policy]
    m = g.link_count
    by_round: dict[int, list[Packet]] = {}
    for r, pkt in trace.injections:
        by_round.setdefault(r, []).append(pkt)
    queues: list[list[tuple[int, int, Packet]]] = [[] for _ in range(m)]
    active = np.zeros((m, rounds), dtype=bool)
    attempted = np.zeros((m, rounds), dtype=bool)
    success = np.zeros((m, rounds), dtype=bool)
    backlogged = np.zeros((m, rounds), dtype=bool)
    per_round_backlog = np.zeros(rounds, dtype=np.int64)
    per_round_max_queue = np.zeros(rounds, dtype=np.int64)
    delivered = []
    queued = 0
    rows = schedule.rows(schedule.period)
    for r in range(rounds):
        for pkt in by_round.get(r, ()):
            queues[pkt.route[0]].append((0, r, pkt))
            queued += 1
        for e in range(m):
            if queues[e]:
                backlogged[e, r] = True
        act = ref_row(rows, r)
        active[list(act), r] = True
        candidates = [e for e in act if queues[e]]
        attempted[candidates, r] = True
        winners = ref_successful_links(g, candidates)
        success[list(winners), r] = True
        moves = [(e, min(range(len(queues[e])), key=lambda i: key(*queues[e][i]))) for e in winners]
        for e, i in moves:
            hops, injected, pkt = queues[e].pop(i)
            hops += 1
            if hops == len(pkt.route):
                delivered.append((pkt.id, injected, r))
                queued -= 1
            else:
                queues[pkt.route[hops]].append((hops, injected, pkt))
        per_round_backlog[r] = queued
        per_round_max_queue[r] = max(map(len, queues), default=0)
    return SimpleNamespace(
        rounds=rounds,
        active=active,
        attempted=attempted,
        success=success,
        backlogged=backlogged,
        per_round_backlog=per_round_backlog,
        per_round_max_queue=per_round_max_queue,
        delivered_ids=np.array([d[0] for d in delivered], dtype=np.int64),
        injection_rounds=np.array([d[1] for d in delivered], dtype=np.int64),
        delivered_rounds=np.array([d[2] for d in delivered], dtype=np.int64),
        undelivered_count=len(trace) - len(delivered),
        final_queues=tuple(tuple(p.id for _, _, p in sorted(q, key=lambda entry: key(*entry))) for q in queues),
    )


def ref_round_log(dense) -> bytes:
    """The round log from ref_run's dense views, one column per round: the
    scheduled links, the successful ones, and the collided ones, which were
    active and backlogged and did not succeed."""

    def group(mask, r):
        links = np.nonzero(mask[:, r])[0]
        return ",".join(map(str, links)) if links.size else "-"

    collided = dense.active & dense.backlogged & ~dense.success
    return "".join(
        f"round {r} scheduled {group(dense.active, r)}"
        f" successful {group(dense.success, r)}"
        f" collided {group(collided, r)}\n"
        for r in range(dense.rounds)
    ).encode()


def round_log_bytes(metrics) -> bytes:
    """The round log as `simulate --log` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.log"
        _write_round_log(metrics, path)
        return path.read_bytes()


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


def ref_row(rows, r):
    """The links round r activates, from a schedule's rows over its period."""
    return rows[r % len(rows)] if rows else ()


def all_rows(schedule):
    """A schedule's rows over its whole period, as a tuple."""
    return tuple(schedule.rows(schedule.period))


def ref_verify_frequent(schedule, g):
    """Round-by-round replay of max(2*T, period + T - 1) rounds with a
    cumsum over every replayed round; the witness is numpy's first argmin
    of the per-link minima, then of that link's window counts."""
    rho, T = schedule.claimed_frequency
    m = g.link_count
    total = max(2 * T, schedule.period + T - 1)
    per_period = {}
    rows = schedule.rows(schedule.period)
    succ = np.zeros((total, m), dtype=bool)
    for r in range(total):
        key = r % schedule.period if schedule.period else 0
        if key not in per_period:
            per_period[key] = ref_successful_links(g, ref_row(rows, r))
        for i in per_period[key]:
            succ[r, i] = True
    cum = np.zeros((total + 1, m), dtype=np.int64)
    np.cumsum(succ, axis=0, out=cum[1:])
    window_counts = cum[T:] - cum[:-T]
    per_min = window_counts.min(axis=0) if m else np.zeros(0, dtype=np.int64)
    per_max = window_counts.max(axis=0) if m else np.zeros(0, dtype=np.int64)
    ok = all(Fraction(int(v)) >= rho * T for v in per_min)
    witness = None
    if not ok:
        link = int(np.argmin(per_min))
        start = int(np.argmin(window_counts[:, link]))
        witness = ServiceWindow(link, start, int(window_counts[start, link]))
    per_min, per_max = tuple(int(v) for v in per_min), tuple(int(v) for v in per_max)
    return FrequencyReport(ok, rho, T, total, per_min, per_max, witness)


def ref_schedule_active(active, link_count):
    """Per-element canonicalisation and range check of a schedule's rows:
    the rows, or the message of the first error."""
    rows = tuple(tuple(sorted(set(int(i) for i in row))) for row in active)
    for row in rows:
        for i in row:
            if not 0 <= i < link_count:
                return f"scheduled link {i} out of range"
    return rows


def ref_selector_active(sel, m):
    """Per-row flatnonzero extraction of a selector's active sets."""
    rows = dense(sel)
    return tuple(tuple(int(z) for z in np.flatnonzero(rows[r, :m])) for r in range(sel.t))


def ref_uss_sample_check(m, k, eps, trials, seed):
    """Sample check that counts isolating rows over the whole matrix."""
    threshold = math.ceil(Fraction(eps) * m.t / k)
    rng = random.Random(seed)
    rows = dense(m)
    for _ in range(trials):
        combo = tuple(sorted(rng.sample(range(m.n), k)))
        a = rng.choice(combo)
        hits = rows[:, combo].sum(axis=1)
        count = int(((hits == 1) & (rows[:, a] == 1)).sum())
        if count < threshold:
            return SampleCheck(False, trials, threshold, (combo, a, count))
    return SampleCheck(True, trials, threshold, None)


def ref_uss_min_count(m, k):
    """Every (A, a) with |A| = k counted on Python-int row masks: for each a
    in turn, the (k - 1)-sets avoiding a in lexicographic order, keeping the
    first strict minimum as the witness."""
    masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in dense(m)]
    best, witness = None, None
    for a in range(m.n):
        own = [mask for mask in masks if mask >> a & 1]
        for rest in combinations([j for j in range(m.n) if j != a], k - 1):
            rest_mask = sum(1 << j for j in rest)
            count = sum(1 for mask in own if not mask & rest_mask)
            if best is None or count < best:
                best, witness = count, (tuple(sorted(rest + (a,))), a)
    return MinCountResult(best, Fraction(k * best, m.t) if m.t else Fraction(0), witness)


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
    "per_round_backlog",
    "per_round_max_queue",
    "delivered_ids",
    "injection_rounds",
    "delivered_rounds",
    "undelivered_count",
    "final_queues",
)


def assert_record_canonical(metrics):
    """The sparse record's documented order: stretches nonempty, disjoint and
    sorted by link then start; success events strictly increasing; and no
    link both succeeds and receives a forward in one round, the premise of
    the half-round clock on which `run` times its queue steps."""
    link, start, end = metrics.stretches.T
    assert metrics.stretches.dtype == metrics.success_events.dtype == np.int64
    assert (0 <= start).all() and (start < end).all() and (end <= metrics.rounds).all()
    assert (link[:-1] * metrics.rounds + end[:-1] <= link[1:] * metrics.rounds + start[1:]).all()
    assert (np.diff(metrics.success_events) > 0).all()
    assert not np.isin(metrics.forward_events, metrics.success_events).any()


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
        assert trace_bytes(got) == ref_gen_leaky_bucket(g, routes, adv, horizon, seed, intensity)

    def test_long_horizon_low_rate(self):
        g = random_network(12, 20, seed=3)
        routes = random_routes(g, 10, 3, seed=4)
        adv = AdversaryConfig(Fraction(7, 999983), 3)
        for intensity in (1.0, 0.6):
            got = gen_leaky_bucket(g, routes, adv, 2000, 5, intensity)
            assert trace_bytes(got) == ref_gen_leaky_bucket(g, routes, adv, 2000, 5, intensity)

    @pytest.mark.parametrize("extra_rounds", [-1, 0, 1, traffic.COIN_BLOCK // 2])
    def test_horizons_across_coin_blocks(self, extra_rounds):
        # four routes draw four coins a round, so the draws end a round short
        # of a block's end, at it, a round past it, and at a third block's end
        g = path_graph(4)
        routes = [(0, 2), (2,), (5, 3), (4,)]
        horizon = traffic.COIN_BLOCK // 4 - 1 + extra_rounds
        for intensity in (0.5, 0.97):
            adv = AdversaryConfig(Fraction(2, 5), 2)
            got = gen_leaky_bucket(g, routes, adv, horizon, 8, intensity)
            assert trace_bytes(got) == ref_gen_leaky_bucket(g, routes, adv, horizon, 8, intensity)

    def test_routes_that_repeat_a_link(self):
        # a walk charges each link once however often it crosses it, and a
        # route listed twice draws its own coin and keeps one table entry
        g = path_graph(3)  # links: 0->1, 1->0, 1->2, 2->1
        routes = [(0, 1, 0, 2), (1, 0), (2, 3, 2), (0, 1, 0, 2), (3,)]
        for rho, b, intensity in ((Fraction(1, 3), 1, 0.8), (Fraction(3, 4), 3, 1.0), (Fraction(1, 2), 2, 0.4)):
            adv = AdversaryConfig(rho, b)
            got = gen_leaky_bucket(g, routes, adv, 60, 2, intensity)
            assert trace_bytes(got) == ref_gen_leaky_bucket(g, routes, adv, 60, 2, intensity)
            assert len(got.routes) == 4

    def test_full_intensity_draws_no_coin(self):
        g = random_network(8, 12, seed=1)
        routes = random_routes(g, 6, 3, seed=1)
        adv = AdversaryConfig(Fraction(1, 4), 2)
        want = ref_gen_leaky_bucket(g, routes, adv, 200, 3, 1.0)
        with mock.patch.object(random.Random, "random", side_effect=AssertionError), \
                mock.patch.object(random.Random, "getrandbits", side_effect=AssertionError):
            got = gen_leaky_bucket(g, routes, adv, 200, 3, 1.0)
        assert trace_bytes(got) == want

    def test_coins_match_random(self):
        # the block-converted coins are the draws of random(), and leave the
        # generator where those draws would
        for draws, intensity in ((0, 0.5), (1, 0.5), (traffic.COIN_BLOCK + 3, 0.3), (19_264, 0.9)):
            rng, want_rng = random.Random(draws), random.Random(draws)
            mask = traffic._coin_mask(rng, draws, intensity)
            assert list(mask) == [want_rng.random() < intensity for _ in range(draws)]
            assert rng.getstate() == want_rng.getstate()


class TestPeriodicTraceMatchesTuples:
    @pytest.mark.parametrize("n, eps, horizon", [(2, Fraction(1, 2), 30), (3, Fraction(1, 32), 300), (3, Fraction(1, 6), 61), (4, Fraction(1, 1), 5), (3, Fraction(1, 31), 0)])
    def test_clique_scenario(self, n, eps, horizon):
        # chi = 6 waves collide with the secondary ones at eps 1/6 and 1/1
        sc = gen_clique_scenario(n, eps, horizon)
        assert trace_bytes(sc.trace) == ref_periodic_trace(range(sc.g.link_count), (sc.chi, sc.secondary_period), horizon)

    @pytest.mark.parametrize("delta, rho, horizon", [(2, Fraction(2, 5), 7), (3, Fraction(1, 4), 40), (4, Fraction(1, 1), 9)])
    def test_tree_family(self, delta, rho, horizon):
        fam = gen_tree_family(delta, rho, horizon)
        want = ref_periodic_trace(fam.shared_links, (math.ceil(1 / rho),), horizon)
        assert trace_bytes(fam.trace) == want


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
    injections = tuple((r, Packet(pid, route)) for pid, (r, route) in enumerate(sent))
    horizon = max((r for r, _ in sent), default=0) + draw(st.sampled_from([0, 1, 5, 40, 10**4]))
    link_count = draw(st.sampled_from([None, links, links + 3]))
    return trace_from_packets(injections, horizon), link_count


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
        (trace_from_packets(tuple((r, Packet(i, (0,))) for i, r in enumerate((0, 2, 2))), 2), None),
        Fraction(1, 2),
        1,
    )
    # the window 4..4 turns bad at round 4's second packet: its load is the
    # whole round, three packets, not the two seen so far
    @example(
        (trace_from_packets(tuple((r, Packet(i, (0,))) for i, r in enumerate((0, 4, 4, 4))), 4), None),
        Fraction(1, 2),
        1,
    )
    # a denominator of 10^19 puts d past int64, so the witness, on link 1
    # and starting after its first packet, is read from Python ints
    @example(
        (
            trace_from_packets(
                tuple(
                    (r, Packet(i, rt))
                    for i, (r, rt) in enumerate(((0, (0,)), (1, (0, 1)), (4, (1,)), (6, (1,)), (6, (1,))))
                ),
                8,
            ),
            None,
        ),
        Fraction(1, 2) + Fraction(1, 10**19),
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
        tr = trace_from_packets(tuple((r, Packet(r, (0,))) for r in range(1001)), 1000)
        for b in (999, 1000, 1001):
            adv = AdversaryConfig(Fraction(1, 10**16), b)
            assert validate_trace(tr, adv) == ref_validate_trace(tr, adv)

    @settings(max_examples=200, deadline=None)
    @given(
        admissibility_cases(),
        st.builds(Fraction, st.integers(1, 2**62), st.integers(2**56, 2**62 + 2**60)),
        st.integers(0, 3) | st.integers(2**62 - 3, 2**62 + 3),
    )
    def test_rates_and_bursts_near_int64(self, case, rho, b):
        # den * count and num * round straddle int64, so the columns are
        # checked with int64 arrays or with Python ints, or not at all when
        # the burst covers every window
        tr, link_count = case
        adv = AdversaryConfig(rho, b)
        got = validate_trace(tr, adv, link_count)
        want = ref_validate_trace(tr, adv, link_count)
        assert got == want and repr(got) == repr(want)

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
        assert type(h.blocks) is tuple
        assert all(type(row) is tuple and all(type(i) is int for i in row) for row in h.blocks)
        blocked_by = ref_conflict_closure(h.blocks)[0]
        assert h.max_in_degree == max(map(len, blocked_by), default=0)

    @settings(max_examples=150, deadline=None)
    @given(networks(max_nodes=14))
    @example(NetworkGraph(3, ()))
    def test_in_degree_closed_form(self, g):
        counted = Counter(v for row in ref_blocks(g) for v in row)
        assert conflict_in_degree(g) == max(counted.values(), default=0)

    def test_fixed_shapes(self):
        for g in (path_graph(2), path_graph(5), clique_graph(4), NetworkGraph(3, ())):
            assert build_conflict_graph(g).blocks == ref_blocks(g)


@st.composite
def conflict_rows(draw, max_links=10):
    """Rows of any other links, repeats allowed, with no symmetry and
    possibly empty."""
    m = draw(st.integers(0, max_links))
    others = [[v for v in range(m) if v != u] for u in range(m)]
    return [draw(st.lists(st.sampled_from(o), max_size=2 * m)) if o else [] for o in others]


class TestGreedyColoringMatchesClosure:
    # clique_graph(9) has 72 mutually conflicting links, so 72 colors and a
    # forbidden-color mask wider than one machine word
    @settings(max_examples=150, deadline=None)
    @given(networks(max_nodes=14))
    @example(clique_graph(9))
    def test_built_graphs(self, g):
        h = build_conflict_graph(g)
        assert greedy_coloring(h) == ref_greedy_coloring(h)

    @settings(max_examples=200, deadline=None)
    @given(conflict_rows())
    @example([[v for v in range(72) if v != u] for u in range(72)])
    @example([[], [0], []])
    def test_public_rows(self, rows):
        # the record `build_conflict_graph` produces: sorted rows without
        # repeats, and their largest in-degree
        blocks = tuple(tuple(sorted(set(row))) for row in rows)
        h = ConflictGraph(blocks, max(map(len, ref_conflict_closure(blocks)[0]), default=0))
        got = greedy_coloring(h)
        assert got == ref_greedy_coloring(h)
        assert all(type(c) is int for c in got.colors)


class TestResolveRowsMatchesCounter:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_row(self, data):
        # the call `run` makes on a contended round: one row of sorted,
        # distinct links
        g = data.draw(networks(max_nodes=12))
        cands = data.draw(st.lists(st.integers(0, g.link_count - 1), max_size=2 * g.link_count))
        row = sorted(set(cands))
        won = resolve_rows(g, [0] * len(row), row, 1).tolist()
        assert tuple(i for i, w in zip(row, won) if w) == ref_successful_links(g, cands)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_at_once(self, data):
        # empty, singleton, full, drawn and repeated rows in one call, with
        # the activations in any order
        g = data.draw(networks(max_nodes=10))
        m = g.link_count
        drawn = st.sets(st.integers(0, m - 1)).map(lambda s: tuple(sorted(s)))
        rows = data.draw(st.lists(drawn | st.sampled_from([(), (0,), tuple(range(m))]), max_size=8))
        rows += rows[: data.draw(st.integers(0, len(rows)))]
        sched = schedule_from_rows(rows, m, None)
        row_of, link_of = sched.round_of, sched.link_of
        order = np.array(data.draw(st.permutations(range(row_of.size))), dtype=np.intp)
        won = np.empty(row_of.size, dtype=bool)
        won[order] = resolve_rows(g, row_of[order], link_of[order], len(rows))
        for r, row in enumerate(rows):
            assert tuple(link_of[(row_of == r) & won].tolist()) == ref_successful_links(g, row)

    def test_huge_node_ids_every_subset(self):
        # the path 0 - 1 - 2: all 16 sets of its 4 links, one per round
        g = path_graph(3)
        rows = [tuple(i for i in range(4) if bits >> i & 1) for bits in range(16)]
        sched = schedule_from_rows(rows, 4, None)
        row_of, link_of = sched.round_of, sched.link_of
        won = resolve_rows(g, row_of, link_of, len(rows))
        for r, row in enumerate(rows):
            assert tuple(link_of[(row_of == r) & won].tolist()) == ref_successful_links(g, row)

    def test_key_overflow_refused(self):
        g = path_graph(3)
        with pytest.raises(ParameterError, match="overflow"):
            resolve_rows(g, [0], [0], 2**62)


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
    return schedule_from_rows(rows, m, (rho, T))


def outcome(build):
    try:
        return build()
    except ParameterError as exc:
        return str(exc)


def schedule_fields(s: TransmissionSchedule) -> tuple:
    """What two schedules must share to be the same schedule."""
    return (s.period, s.link_count, s.claimed_frequency, s.round_of.tolist(), s.link_of.tolist())


class TestVerifyFrequentMatchesReplay:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_report(self, data):
        g = data.draw(networks(max_nodes=8))
        sched = data.draw(claimed_schedules(g))
        assert verify_frequent(sched, g) == ref_verify_frequent(sched, g)

    def test_partial_window_at_every_start(self):
        # link 0 wins in rounds 0 and 3 of 5, link 1 in rounds 1 and 4: with
        # T = 7 the stretch beyond one whole period is 2 rounds long
        g = path_graph(2)
        rows = ((0,), (1,), (), (0,), (1,))
        for T in range(1, 13):
            sched = schedule_from_rows(rows, 2, (Fraction(1, 5), T))
            assert verify_frequent(sched, g) == ref_verify_frequent(sched, g)

    def test_no_links(self):
        g = NetworkGraph(2, ())
        for period, T in ((0, 3), (2, 2), (2, 3)):
            sched = schedule_from_rows(((),) * period, 0, (Fraction(1, 2), T))
            assert verify_frequent(sched, g) == ref_verify_frequent(sched, g)


class TestScheduleRowsMatchPerElement:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_rows_and_errors(self, data):
        m = data.draw(st.integers(0, 6))
        element = st.integers(-2, m + 2) | st.integers(-2, m + 2).map(np.int64)
        rows = data.draw(st.lists(st.lists(element, max_size=8), max_size=6))
        want = ref_schedule_active(rows, m)
        got = outcome(lambda: all_rows(schedule_from_rows(rows, m, None)))
        assert got == want
        if not isinstance(want, str):
            sched = schedule_from_rows(rows, m, None)
            assert [sched.rows(c) for c in range(len(rows) + 1)] == [list(want[:c]) for c in range(len(rows) + 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_constructor_takes_any_activations(self, data):
        # (round, link) pairs handed over directly: unsorted, repeated, and
        # a mix of Python ints and np.int64
        m = data.draw(st.integers(0, 6))
        period = data.draw(st.integers(0, 5))
        element = st.integers(-2, m + 2) | st.integers(-2, m + 2).map(np.int64)
        rounds = st.integers(0, period - 1) | st.integers(0, period - 1).map(np.int64)
        pairs = data.draw(st.lists(st.tuples(rounds, element), max_size=20)) if period else []
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
        rows = [[link for r, link in pairs if r == at] for at in range(period)]
        want = ref_schedule_active(rows, m)
        round_of, link_of = [r for r, _ in pairs], [link for _, link in pairs]
        assert outcome(lambda: all_rows(TransmissionSchedule(round_of, link_of, period, m))) == want
        if not isinstance(want, str):
            sched = TransmissionSchedule(round_of, link_of, period, m)
            assert schedule_fields(sched) == schedule_fields(schedule_from_rows(want, m, None))
            assert sched.round_of.dtype == sched.link_of.dtype == np.int64

    def test_sort_key_does_not_wrap(self):
        # period * link_count is 2**65: a round * link_count + link key would
        # wrap around int64 and put the last round first
        last = 2**62 - 1
        sched = TransmissionSchedule([last, 0, last, 5, last], [0, 7, 3, 0, 0], 2**62, 8)
        assert sched.round_of.tolist() == [0, 5, last, last]
        assert sched.link_of.tolist() == [7, 0, 0, 3]
        rot = sched.rotated(-1)
        assert rot.round_of.tolist() == [0, 0, 1, 6] and rot.link_of.tolist() == [0, 3, 7, 0]

    def test_links_beyond_int64(self):
        for rows in ([[0], [2**70, -(2**70), 1]], [[3, 2**64]], [[], [1, -(2**63) - 1]]):
            want = ref_schedule_active(rows, 2)
            assert outcome(lambda: all_rows(schedule_from_rows(rows, 2, None))) == want

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
        sel = selector(rows, claimed_k=n, claimed_eps=Fraction(1, 2))
        want = outcome(
            lambda: schedule_fields(schedule_from_rows(ref_selector_active(sel, m), m, (Fraction(1, 2 * n), t)))
        )
        assert outcome(lambda: schedule_fields(schedule_from_selector(sel, g))) == want


def assert_canonical_schedule(got: TransmissionSchedule):
    """`got` equals the rows adapter applied to its own rows, and those rows
    are tuples of Python ints."""
    rows = got.rows(got.period)
    want = schedule_from_rows(rows, got.link_count, got.claimed_frequency)
    assert schedule_fields(got) == schedule_fields(want)
    assert all(type(row) is tuple and all(type(i) is int for i in row) for row in rows)


@st.composite
def colorings(draw, m: int):
    return Coloring(draw(st.lists(st.integers(0, m), min_size=m, max_size=m)))


class TestTrustedConstructionMatchesPublic:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8).flatmap(colorings))
    def test_schedule_from_coloring(self, coloring):
        got = schedule_from_coloring(coloring)
        x = coloring.color_count
        rows = [[link for link, c in enumerate(coloring.colors) if c == color] for color in range(x)]
        claim = (Fraction(1, x), x) if x else None
        assert schedule_fields(got) == schedule_fields(schedule_from_rows(rows, len(coloring.colors), claim))
        assert_canonical_schedule(got)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rotated(self, data):
        g = data.draw(networks(max_nodes=8))
        sched = data.draw(claimed_schedules(g))
        offset = data.draw(st.integers(-20, 20))
        got = sched.rotated(offset)
        shift = offset % sched.period if sched.period else 0
        rows = sched.rows(sched.period)
        rows = rows[shift:] + rows[:shift]
        want = schedule_from_rows(rows, sched.link_count, sched.claimed_frequency)
        assert schedule_fields(got) == schedule_fields(want)
        assert_canonical_schedule(got)

    def test_refuses_bad_claims(self):
        for claim in ((Fraction(1, 2), 0), (Fraction(0), 3), (Fraction(3, 2), 3)):
            with pytest.raises(ParameterError) as err:
                schedule_from_rows(((0,),), 1, claim)
            assert str(err.value) == "claimed frequency needs 0 < rho <= 1 and T >= 1"


@st.composite
def sample_cases(draw):
    """A 0/1 matrix with some all-zero columns, a k anywhere in [1, n] and
    an eps whose threshold may be out of reach."""
    n = draw(st.integers(1, 10))
    t = draw(st.integers(0, 16))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    rows = np.array(
        [[0 if j in zero_cols else draw(st.integers(0, 1)) for j in range(n)] for _ in range(t)],
        dtype=np.uint8,
    ).reshape(t, n)
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    eps = draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
    return selector(rows), k, eps, draw(st.integers(1, 30)), draw(st.integers(0, 10**6))


class TestSampleCheckMatchesFullMatrix:
    @settings(max_examples=300, deadline=None)
    @given(sample_cases())
    def test_same_check(self, case):
        assert uss_sample_check(*case) == ref_uss_sample_check(*case)

    def test_selector_of_the_benchmark_size(self):
        sel = poly_uss(100, 20)
        for eps in (sel.claimed_eps, Fraction(1)):
            case = (sel, 20, eps, 20, 5)
            assert uss_sample_check(*case) == ref_uss_sample_check(*case)


@st.composite
def min_count_cases(draw, n, t, k):
    """A 0/1 matrix of n columns and t rows, some columns all zero, and a k
    in [1, n] drawn from k."""
    n, t = draw(n), draw(t)
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    rows = np.array(
        [[0 if j in zero_cols else draw(st.integers(0, 1)) for j in range(n)] for _ in range(t)],
        dtype=np.uint8,
    ).reshape(t, n)
    return selector(rows), draw(k(n))


class TestMinCountMatchesBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(min_count_cases(st.integers(1, 10), st.integers(0, 12), lambda n: st.integers(1, n)))
    def test_small_matrices(self, case):
        assert uss_min_count(*case) == ref_uss_min_count(*case)

    @settings(max_examples=25, deadline=None)
    @given(min_count_cases(st.integers(60, 130), st.integers(0, 8), lambda n: st.integers(1, 2)))
    def test_several_words(self, case):
        assert uss_min_count(*case) == ref_uss_min_count(*case)

    @pytest.mark.parametrize("n, k", [(5, 3), (130, 2)])
    def test_no_rows(self, n, k):
        m = selector(np.zeros((0, n), dtype=np.uint8))
        assert uss_min_count(m, k) == ref_uss_min_count(m, k) == MinCountResult(0, Fraction(0), (tuple(range(k)), 0))

    def test_zero_count_column(self):
        # row j isolates column j alone, and column 129 is never isolated:
        # its first set in the third word is the witness
        m = selector(np.eye(129, 130, dtype=np.uint8))
        assert uss_min_count(m, 2) == ref_uss_min_count(m, 2) == MinCountResult(0, Fraction(0), ((0, 129), 129))


def pack_combos(combos, n):
    """`_pack` of the column sets, as (set, member) ones."""
    set_of = [i for i, combo in enumerate(combos) for _ in combo]
    member = [j for combo in combos for j in combo]
    words = np.zeros((len(combos), (n + 63) // 64), dtype=np.uint64)
    return _pack(np.array(set_of, dtype=np.int64), np.array(member, dtype=np.int64), words)


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
        got = pack_combos(combos, n)
        assert got.dtype == np.uint64 and np.array_equal(got, ref_pack_combos(combos, n))

    def test_word_edges(self):
        for n in (64, 65, 128, 130):
            singles = [(j,) for j in range(n)]
            pairs = [(0, n - 1), (62, 63), (n - 2, n - 1)]
            assert np.array_equal(pack_combos(singles, n), ref_pack_combos(singles, n))
            assert np.array_equal(pack_combos(pairs, n), ref_pack_combos(pairs, n))


# ---------------------------------------------------------------------------
# sim


@st.composite
def selector_schedules(draw, g: NetworkGraph):
    """Schedules read from a drawn selector with one column per link and up
    to three spare ones, whose rows hold several, often conflicting, links."""
    m = g.link_count
    n = draw(st.integers(m, m + 3))
    t = draw(st.integers(1, 8))
    rows = np.array(draw(st.lists(st.integers(0, 1), min_size=t * n, max_size=t * n)), dtype=np.uint8)
    sel = selector(rows.reshape(t, n), claimed_k=n, claimed_eps=Fraction(1, 2))
    return schedule_from_selector(sel, g)


@st.composite
def schedules_for(draw, g: NetworkGraph):
    if draw(st.booleans()):
        return draw(selector_schedules(g))
    # period 0 is the empty schedule: no link is ever active
    period = draw(st.integers(0, 6))
    rows = tuple(
        tuple(draw(st.sets(st.integers(0, g.link_count - 1), max_size=g.link_count)))
        for _ in range(period)
    )
    return schedule_from_rows(rows, g.link_count, None)


def rounds_for(period: int):
    """Run lengths below, at, a multiple of, and off a multiple of the
    period, or any short length."""
    if not period:
        return st.integers(1, 30)
    return st.one_of(
        st.integers(1, period),
        st.integers(1, 4).map(lambda k: k * period),
        st.integers(period + 1, 4 * period + 3),
        st.integers(1, 50),
    )


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
        rounds = data.draw(rounds_for(sched.period))
        assert_metrics_equal(run(g, sched, policy, trace, rounds), ref_run(g, sched, policy, trace, rounds))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_shuffled_ids(self, data):
        # ids drawn apart from injection order and anywhere in int64, so a
        # packet's id rank is not its injection index, key ties go to the
        # smaller id, and the delivery columns and backlog series that run
        # derives after its loop meet the extremes
        g = data.draw(networks(max_nodes=6))
        sched = data.draw(schedules_for(g))
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 5)))
        trace = gen_leaky_bucket(g, routes, adv, data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10**6)))
        extremes = st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
        ids = data.draw(
            st.lists(
                extremes | st.integers(-(2**63), 2**63 - 1), min_size=len(trace), max_size=len(trace), unique=True
            )
        )
        if ids == sorted(ids):
            ids.reverse()
        trace = trace_from_packets(
            tuple((r, Packet(i, pkt.route)) for (r, pkt), i in zip(trace.injections, ids)), trace.horizon
        )
        rounds = data.draw(rounds_for(sched.period))
        for policy in sorted(POLICIES):
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
        sched = schedule_from_rows(rows, m, None)
        assert_metrics_equal(run(sc.g, sched, policy, sc.trace, 200), ref_run(sc.g, sched, policy, sc.trace, 200))

    def test_route_that_repeats_a_link(self):
        # path_graph(2): link 0 = (0, 1), link 1 = (1, 0).  Packets 0 and 1
        # take route (0, 1, 0) from round 0 and packet 2 takes link 0 alone,
        # so the hops read from the success log must count a packet's
        # second visit to link 0 as its hop 2, which delivers it
        g = path_graph(2)
        sched = schedule_from_rows(((0,), (1,)), g.link_count, None)
        trace = trace_from_packets(((0, Packet(0, (0, 1, 0))), (0, Packet(1, (0, 1, 0))), (0, Packet(2, (0,)))), 0)
        rounds = 10
        for policy in sorted(POLICIES):
            got = run(g, sched, policy, trace, rounds)
            assert_metrics_equal(got, ref_run(g, sched, policy, trace, rounds))
            assert got.delivered_count == 3
        # under sis (the last policy) packet 0 crosses link 0 in round 0 and
        # link 1 in round 1, and is delivered by link 0 in round 2; packet 1
        # follows in rounds 4 to 6
        assert got.forward_events.tolist() == [1 * rounds + 0, 0 * rounds + 1, 1 * rounds + 4, 0 * rounds + 5]
        assert got.delivered_ids.tolist() == [0, 1, 2] and got.delivered_rounds.tolist() == [2, 6, 8]

    def test_places_in_a_table_with_unused_routes(self):
        # the table lists the unused routes (3,) and (4,) before the used
        # ones, so a packet's place lies past its route's first entry, and
        # route (0, 1, 0) crosses link 0 = (0, 1) twice (link 1 = (1, 0)),
        # at two places
        g = clique_graph(3)
        sched = schedule_from_coloring(exact_chromatic(build_conflict_graph(g)))
        routes = ((2,), (3,), (4,), (0, 1, 0), (1,), (0,))
        trace = InjectionTrace([0, 0, 1, 1, 3, 9], [9, 4, 7, 1, 2, 8], [3, 5, 4, 3, 5, 0], routes, 9)
        for rounds in (1, 4, 8, 30):
            for policy in sorted(POLICIES):
                assert_metrics_equal(run(g, sched, policy, trace, rounds), ref_run(g, sched, policy, trace, rounds))


class TestQueueTiesMatchRescan:
    """Ties within one round's queue steps (an injection and a forward onto
    one link, a link emptied and refilled) that the stretches and the
    max-queue series must break as the rescan does, on path_graph(3): link
    0 = (0, 1) feeds link 2 = (1, 2)."""

    @staticmethod
    def runs(rows, entries, rounds):
        g = path_graph(3)
        sched = schedule_from_rows(rows, g.link_count, None)
        trace = trace_from_packets(tuple((r, Packet(i, rt)) for r, i, rt in entries), max(r for r, _, _ in entries))
        for policy in sorted(POLICIES):
            got = run(g, sched, policy, trace, rounds)
            assert_metrics_equal(got, ref_run(g, sched, policy, trace, rounds))
        return got

    def test_injection_before_forward_in_one_round(self):
        # packet 0 is forwarded onto link 2 in round 0, the round packet 1 is
        # injected there; under sis (the last policy) link 2 would serve 2,
        # injected in round 1, first, then 0 and 1, tied at round 0, by id
        metrics = self.runs(((0,),), [(0, 0, (0, 2)), (0, 1, (2,)), (1, 2, (2,))], 3)
        assert metrics.final_queues == ((), (), (2, 0, 1), ())
        assert metrics.per_round_max_queue.tolist() == [2, 3, 3]

    def test_emptied_then_refilled(self):
        # link 0 empties in round 1 and refills in round 2: its stretches
        # touch, and the series drops to 0 between them
        metrics = self.runs(((0,),), [(0, 0, (0,)), (0, 1, (0,)), (2, 2, (0,)), (2, 3, (0,))], 5)
        assert metrics.stretches.tolist() == [[0, 0, 2], [0, 2, 4]]
        assert metrics.per_round_max_queue.tolist() == [1, 0, 1, 0, 0]

    def test_tied_links_drain_and_grow(self):
        # links 0 and 2 tie at 2 after round 0; in round 1 link 0 drains and
        # link 2 grows, past the tie and onto it
        past = self.runs(((), (0,)), [(0, 0, (0,)), (0, 1, (0,)), (0, 2, (2,)), (0, 3, (2,)), (1, 4, (2,))], 4)
        assert past.per_round_max_queue.tolist() == [2, 3, 3, 3]
        onto = self.runs(((), (0,)), [(0, 0, (0,)), (0, 1, (0,)), (0, 2, (2,)), (1, 3, (2,))], 4)
        assert onto.per_round_max_queue.tolist() == [2, 2, 2, 2]

    def test_forward_in_the_last_round(self):
        # the forward of round 1 ends the run on link 2, whose stretch would
        # start past the last round
        metrics = self.runs(((0,),), [(0, 0, (0,)), (1, 1, (0, 2))], 2)
        assert metrics.forward_events.tolist() == [2 * 2 + 1]
        assert metrics.final_queues == ((), (), (1,), ())
        assert metrics.per_round_max_queue.tolist() == [0, 1]
        assert metrics.stretches.tolist() == [[0, 0, 1], [0, 1, 2]]
        # one round: the forward of round 0 is also the last round's, at
        # time 1 on the half-round clock, one before link 2's close at 2
        metrics = self.runs(((0,),), [(0, 0, (0, 2))], 1)
        assert metrics.forward_events.tolist() == [2 * 1 + 0]
        assert metrics.final_queues == ((), (), (0,), ())
        assert metrics.per_round_max_queue.tolist() == [1]
        assert metrics.stretches.tolist() == [[0, 0, 1]]


class TestRoundLogMatchesDense:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_same_bytes(self, data):
        g = data.draw(networks(max_nodes=8))
        kind = data.draw(st.sampled_from(["coloring", "selector", "rows", "empty"]))
        if kind == "coloring":
            coloring = greedy_coloring(build_conflict_graph(g))
            sched = schedule_from_coloring(coloring).rotated(data.draw(st.integers(0, 20)))
        elif kind == "selector":
            sched = data.draw(selector_schedules(g))
        elif kind == "rows":
            sched = data.draw(schedules_for(g))
        else:
            sched = schedule_from_rows((), g.link_count, None)
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 5)))
        trace = gen_leaky_bucket(
            g, routes, adv, data.draw(st.integers(0, 60)), data.draw(st.integers(0, 10**6)),
            data.draw(intensities),
        )
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        rounds = data.draw(rounds_for(sched.period))
        metrics = run(g, sched, policy, trace, rounds)
        assert round_log_bytes(metrics) == ref_round_log(ref_run(g, sched, policy, trace, rounds))

    def test_collisions_under_a_selector(self):
        # the clique chain under a selector with two links in some rows, past
        # one period: some rounds collide, and the log still matches
        sc = gen_clique_scenario(3, Fraction(1, 32), 300)
        sel = selector([[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
                       claimed_k=6, claimed_eps=Fraction(1, 2))
        sched = schedule_from_selector(sel, sc.g)
        metrics = run(sc.g, sched, "lis", sc.trace, 301)
        log = round_log_bytes(metrics)
        assert log == ref_round_log(ref_run(sc.g, sched, "lis", sc.trace, 301))
        assert any(not line.endswith(b" collided -") for line in log.splitlines())


class TestRunMemoMatchesRescan:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_repeated_rows(self, data):
        # rows drawn from a pool of two, so candidate sets recur while the
        # backlogs change under them; the rule runs once on the rows the run
        # reaches, then once per round whose row is not clean and has a
        # nonempty candidate set, and never on a clean row
        g = data.draw(networks(max_nodes=8))
        pool = [tuple(data.draw(st.sets(st.integers(0, g.link_count - 1)))) for _ in range(2)]
        rows = tuple(data.draw(st.sampled_from(pool)) for _ in range(data.draw(st.integers(1, 8))))
        sched = schedule_from_rows(rows, g.link_count, None)
        routes = data.draw(route_sets(g))
        adv = AdversaryConfig(data.draw(rates), data.draw(st.integers(1, 5)))
        trace = gen_leaky_bucket(g, routes, adv, data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10**6)))
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        rounds = data.draw(st.integers(1, 60))
        with mock.patch.object(sim, "resolve_rows", wraps=resolve_rows) as rule:
            got = run(g, sched, policy, trace, rounds)
        want = ref_run(g, sched, policy, trace, rounds)
        assert_metrics_equal(got, want)
        active = sched.rows(sched.period)
        clean = [ref_successful_links(g, row) == row for row in active]
        resolved = [r for r, col in enumerate(want.attempted.T) if col.any() and not clean[r % len(active)]]
        assert rule.call_count == 1 + len(resolved)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_radio_rule_is_monotone(self, data):
        # a link that wins with its whole row transmitting wins in every
        # subset of the row that holds it, which lets run take a clean
        # row's candidates as its winners
        g = data.draw(networks(max_nodes=10))
        row = data.draw(st.sets(st.integers(0, g.link_count - 1)))
        subset = data.draw(st.sets(st.sampled_from(sorted(row)))) if row else set()
        assert set(ref_successful_links(g, row)) & subset <= set(ref_successful_links(g, subset))


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

    def test_backlogged_from_touching_stretches(self):
        # link 0's stretches touch at rounds 2 and 3, link 1's last one ends
        # at the last round, and link 2 is never backlogged
        stretches = [(0, 0, 2), (0, 2, 3), (0, 3, 5), (1, 1, 2), (1, 4, 6)]
        metrics = RunMetrics(
            rounds=6,
            schedule=schedule_from_rows(((),), 3, None),
            trace=trace_from_packets((), 0),
            stretches=np.array(stretches, dtype=np.int64),
            success_events=np.zeros(0, dtype=np.int64),
            forward_events=np.zeros(0, dtype=np.int64),
            per_round_backlog=np.zeros(6, dtype=np.int64),
            delivered_rows=np.zeros(0, dtype=np.int64),
            delivered_rounds=np.zeros(0, dtype=np.int64),
            final_queues=((),) * 3,
        )
        assert metrics.backlogged.tolist() == [
            [True, True, True, True, True, False],
            [False, True, False, False, True, True],
            [False] * 6,
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_stretches_and_successes(self, data):
        # a record built directly: its stretches may touch, and may end
        # before the last round without a success, which `run`'s never do;
        # its attempts are the active rounds of the stretches under a drawn
        # schedule
        m = data.draw(st.integers(1, 4))
        rounds = data.draw(st.integers(1, 40))
        period = data.draw(st.integers(0, 6))
        sched = schedule_from_rows(
            tuple(tuple(data.draw(st.sets(st.integers(0, m - 1)))) for _ in range(period)), m, None
        )
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
            schedule=sched,
            trace=trace_from_packets((), 0),
            stretches=np.array(rows, dtype=np.int64).reshape(-1, 3),
            success_events=np.flatnonzero(success),
            forward_events=np.zeros(0, dtype=np.int64),
            per_round_backlog=np.zeros(rounds, dtype=np.int64),
            delivered_rows=np.zeros(0, dtype=np.int64),
            delivered_rounds=np.zeros(0, dtype=np.int64),
            final_queues=((),) * m,
        )
        assert np.array_equal(metrics.backlogged, backlogged)
        assert np.array_equal(metrics.success, success)
        assert np.array_equal(metrics.attempted, metrics.active & backlogged)
        assert_accounting_equal(metrics, SimpleNamespace(rounds=rounds, backlogged=backlogged, success=success))
