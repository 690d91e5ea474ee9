"""Synchronous round simulation of packet routing under a transmission
schedule.

Each round has three phases: the adversary's packets for that round enter
their first link's queue, every active link with a nonempty queue attempts
transmission and the radio rule decides which succeed, then each successful
link forwards one queued packet chosen by the scheduling policy.  Forwarded
packets only become selectable in the next round.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph, resolve_rows
from .schedules import TransmissionSchedule
from .traffic import AdversaryConfig, InjectionTrace, check_routes

# A policy orders each link's queue by a key affine in the packet's injection
# round, its completed hops and its route length, smallest first, and breaks
# ties by the smaller packet id.  POLICIES maps a policy to those three
# coefficients, so `run` computes a key with no call per packet.  A key is
# fixed while the packet waits, and a forward adds the hops coefficient.
POLICIES: dict[str, tuple[int, int, int]] = {
    # longest-in-system: oldest injection first
    "lis": (1, 0, 0),
    # shortest-in-system: newest injection first
    "sis": (-1, 0, 0),
    # nearest-from-source: fewest completed hops first
    "nfs": (0, 1, 0),
    # furthest-to-go: most remaining hops first
    "ftg": (0, 1, -1),
}


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """What one simulation produced, in memory that grows with links,
    rounds and events, not with links x rounds.

    `schedule` is the `TransmissionSchedule` the run used; round r ran its
    round r % period.  `stretches` holds the rounds in which a link's queue
    was nonempty after the injection phase, as int64 rows (link, start, end)
    of half-open stretches [start, end), sorted by link and then start;
    stretches are disjoint and nonempty but may touch.  `success_events` is
    the sorted int64 array of link * rounds + round over every successful
    transmission.  `per_round_backlog` is the total queued packet count at
    the end of each round.  `delivered_ids`, `injection_rounds` and
    `delivered_rounds` are three int64 columns with one entry per delivered
    packet, in delivery order, so a delivery costs 24 bytes and no Python
    object.  `undelivered_count` counts trace packets not delivered within
    the simulated rounds, including any whose injection round was never
    reached.  `final_queues` lists each link's queued packet ids in arrival
    order.

    The dense (link_count, rounds) bool views `active`, `backlogged` and
    `success` are built on each read and kept by nothing.  `attempted` is
    `active & backlogged`, since a link attempts exactly when it is
    scheduled with a nonempty queue.  Records compare and hash by identity.
    """

    rounds: int
    schedule: TransmissionSchedule
    stretches: np.ndarray
    success_events: np.ndarray
    per_round_backlog: np.ndarray
    per_round_max_queue: np.ndarray
    delivered_ids: np.ndarray
    injection_rounds: np.ndarray
    delivered_rounds: np.ndarray
    undelivered_count: int
    final_queues: tuple[tuple[int, ...], ...]

    @property
    def link_count(self) -> int:
        return self.schedule.link_count

    @property
    def active(self) -> np.ndarray:
        span = min(self.schedule.period, self.rounds) or 1  # a period of 0 tiles one idle round
        stop = np.searchsorted(self.schedule.round_of, span)
        pattern = np.zeros((self.link_count, span), dtype=bool)
        pattern[self.schedule.link_of[:stop], self.schedule.round_of[:stop]] = True
        return np.tile(pattern, -(-self.rounds // span))[:, : self.rounds]

    @property
    def backlogged(self) -> np.ndarray:
        # run-length decoding: the flat bounds 0, start, end, start, ...,
        # links * rounds cut the array into alternately idle and backlogged
        # runs, an idle one empty where two stretches touch
        m, n = self.link_count, self.rounds
        flat = (self.stretches[:, :1] * n + self.stretches[:, 1:]).ravel()
        runs = np.diff(flat, prepend=0, append=m * n)
        backlogged = np.zeros(runs.size, dtype=bool)
        backlogged[1::2] = True
        return np.repeat(backlogged, runs).reshape(m, n)

    @property
    def success(self) -> np.ndarray:
        flat = np.zeros(self.link_count * self.rounds, dtype=bool)
        flat[self.success_events] = True
        return flat.reshape(self.link_count, self.rounds)

    @property
    def attempted(self) -> np.ndarray:
        return self.active & self.backlogged

    @property
    def delivered_count(self) -> int:
        return len(self.delivered_ids)

    @property
    def max_backlog(self) -> int:
        return int(self.per_round_backlog.max(initial=0))

    @property
    def max_latency(self) -> int:
        """Largest delivery round less injection round over delivered packets."""
        return int((self.delivered_rounds - self.injection_rounds).max(initial=0))


def run(
    g: NetworkGraph,
    schedule: TransmissionSchedule,
    policy: str,
    trace: InjectionTrace,
    rounds: int,
) -> RunMetrics:
    """Simulate `rounds` rounds of `trace` on `g` under `schedule`, with
    `policy` choosing the packet each successful link forwards.

    This is the package's one simulation kernel; every command and check
    that simulates calls it.  A round costs one pass over its schedule row,
    and each event (an injection, a forward or a delivery) O(log queue).
    Its `min(period, rounds)` rows are read by the schedule's `rows` and
    resolved once by `resolve_rows`.  The radio rule is monotone (a link
    that wins with its whole row wins in every subset holding it), so on a
    clean row, whose links all win together, every backlogged link wins;
    elsewhere `resolve_rows` resolves the backlogged links as one row.  A
    queued packet is one int, with no tuple or record per packet.  Each
    packet's first link and initial heap key are int64 columns built before
    the loop and read through memoryviews, which yield Python ints; a
    delivery appends its packet's rank and round, and the delivery columns
    and the backlog series are derived from those and the trace's columns
    after the loop.  A run whose keys could leave int64, (rounds + longest
    route + 1) * (packets + 1) >= 2**63, is refused before anything is sized
    by `rounds`.
    """
    coef = POLICIES.get(policy.lower())
    if coef is None:
        raise ParameterError(f"unknown policy {policy!r}; choose from {sorted(POLICIES)}")
    if schedule.link_count != g.link_count:
        raise ParameterError("schedule and network disagree on link count")
    if rounds < 1:
        raise ParameterError("need at least one round")
    check_routes(trace, g)

    m = g.link_count
    # the packets injected before `rounds`: the trace is sorted by round,
    # so they are its first `count`, and packet ptr is the next due
    count = int(np.searchsorted(trace.rounds, rounds))
    routes = trace.routes
    lengths = np.array([len(rt) for rt in routes], dtype=np.int64)
    if (rounds + int(lengths.max(initial=0)) + 1) * (count + 1) >= 2**63:
        raise ParameterError(f"{rounds} rounds overflow the int64 queue keys at packet count {count}")
    # Each queued packet is one int, key * count + rank, where rank is the
    # packet id's rank among the run's ids: int order is (key, id) order,
    # negative keys included, so the head of a link's heap is the policy's
    # choice, and a forward adds step to it.  first and key hold each
    # injection's first link and initial int; by_rank maps a rank to its
    # injection index, route_by_rank holds each packet's route tuple from
    # the trace's table, and hops and stamp, indexed by rank, count a
    # packet's completed hops and number its last push, so sorting a queue
    # by stamp restores arrival order.
    at_round, at_hops, at_length = coef
    route_of = trace.route_of[:count]
    order = np.argsort(trace.ids[:count])
    key = at_round * trace.rounds[:count] + at_length * lengths[route_of]
    key *= count
    key[order] += np.arange(count)
    first = np.array([rt[0] for rt in routes], dtype=np.int64)[route_of]
    route_by_rank = [routes[j] for j in route_of[order].tolist()]
    del lengths, route_of
    first, key, by_rank = memoryview(first), memoryview(key), memoryview(order)
    injected_round = memoryview(trace.rounds)
    hops = array("q", [0]) * count
    stamp = array("q", [0]) * count
    step = at_hops * count
    ptr = 0
    due = injected_round[0] if count else -1

    queues: list[list[int]] = [[] for _ in range(m)]
    # the rows of the rounds the run reaches (an empty schedule reads as one
    # empty, clean row); plan[r] is row r itself when every link of it wins
    # with the whole row transmitting, else None
    span = min(schedule.period, rounds)
    stop = np.searchsorted(schedule.round_of, span)
    row_of = schedule.round_of[:stop]
    lost = row_of[~resolve_rows(g, row_of, schedule.link_of[:stop], span)]
    clean = (np.bincount(lost, minlength=span) == 0).tolist() or [True]
    rows = schedule.rows(span) or [()]
    plan = [row if ok else None for row, ok in zip(rows, clean)]
    period = len(rows)
    # (link, start, end) of every closed backlogged stretch, link * rounds +
    # round of every success, and the rank and round of every delivery
    stretches = array("q")
    events = array("q")
    delivered_rank = array("q")
    delivered_at = array("q")
    max_queue_series = array("q", [0]) * rounds
    arrivals = 0
    # Incremental view of the queues, so a round costs O(activity), not
    # O(links): since[e] is the first round of link e's current backlogged
    # stretch (present iff its queue is nonempty), length_count[n] is the
    # number of queues of length n >= 1, and longest is the largest n with
    # length_count[n] > 0, or 0.  Pushes and pops update all three inline.
    since: dict[int, int] = {}
    length_count = [0] * (count + 2)
    longest = 0

    for r in range(rounds):
        if r == due:
            while due == r:
                e = first[ptr]
                q = queues[e]
                n = len(q)
                x = key[ptr]
                heappush(q, x)
                stamp[x % count] = arrivals
                arrivals += 1
                if n:
                    length_count[n] -= 1
                else:
                    since[e] = r
                n += 1
                length_count[n] += 1
                if n > longest:
                    longest = n
                ptr += 1
                due = injected_round[ptr] if ptr < count else -1

        # a clean row's links all win, and none of them is the next link of
        # another's packet (its tail would transmit over that link's head),
        # so the row is read as it stands; elsewhere the candidates are the
        # backlogged links and the radio rule picks the winners.  A winner's
        # head is silent, so a packet forwarded this round never joins the
        # queue of a later winner.
        at = r % period
        winners = plan[at]
        if winners is None:
            winners = [e for e in rows[at] if queues[e]]
            if winners:
                winners = compress(winners, resolve_rows(g, [0] * len(winners), winners, 1).tolist())
        for e in winners:
            q = queues[e]
            n = len(q)
            if not n:
                continue
            events.append(e * rounds + r)
            head = heappop(q)
            length_count[n] -= 1
            if n > 1:
                length_count[n - 1] += 1
            else:
                stretches.extend((e, since.pop(e), r + 1))
            if n == longest and not length_count[n]:
                longest -= 1  # the queue just popped now has length n - 1
            k = head % count
            route = route_by_rank[k]
            h = hops[k] + 1
            if h == len(route):
                delivered_rank.append(k)
                delivered_at.append(r)
                continue
            hops[k] = h
            # a forwarded packet waits at its next link from round r + 1
            nxt = route[h]
            q = queues[nxt]
            n = len(q)
            heappush(q, head + step)
            stamp[k] = arrivals
            arrivals += 1
            if n:
                length_count[n] -= 1
            else:
                since[nxt] = r + 1
            n += 1
            length_count[n] += 1
            if n > longest:
                longest = n
        max_queue_series[r] = longest
    del first, key, hops, route_by_rank, length_count
    for e, start in since.items():
        if start < rounds:  # a packet forwarded in the last round waits past the run
            stretches.extend((e, start, rounds))
    spans = np.frombuffer(stretches, dtype=np.int64).reshape(-1, 3)
    done = order[np.frombuffer(delivered_rank, dtype=np.int64)]
    delivered_rounds = np.frombuffer(delivered_at, dtype=np.int64)
    # the backlog at the end of round r: injections up to r less deliveries
    # up to r
    backlog = np.bincount(trace.rounds[:count], minlength=rounds)
    backlog -= np.bincount(delivered_rounds, minlength=rounds)
    packet_id = memoryview(trace.ids)

    def arrival_order(q):
        return tuple(packet_id[by_rank[k]] for k in sorted((x % count for x in q), key=stamp.__getitem__))

    # views of the array buffers, with no copy, except the sorted and the
    # derived ones
    return RunMetrics(
        rounds=rounds,
        schedule=schedule,
        stretches=spans[np.argsort(spans[:, 0] * rounds + spans[:, 1])],
        success_events=np.sort(np.frombuffer(events, dtype=np.int64)),
        per_round_backlog=np.cumsum(backlog, dtype=np.int64),
        per_round_max_queue=np.frombuffer(max_queue_series, dtype=np.int64),
        delivered_ids=trace.ids[done],
        injection_rounds=trace.rounds[done],
        delivered_rounds=delivered_rounds,
        undelivered_count=len(trace) - len(done),
        final_queues=tuple(arrival_order(q) if q else () for q in queues),
    )


class FailureWindow(NamedTuple):
    link: int
    start: int
    count: int


class FailureReport(NamedTuple):
    holds: bool
    bound: Fraction
    window: int
    max_count: int
    witness: FailureWindow | None


def failure_accounting(
    metrics: RunMetrics, adv: AdversaryConfig, rho_prime: Fraction, window: int
) -> FailureReport:
    """Check that per-link failures stay under (1 + rho - rho') * T + b in
    every window of T consecutive rounds.

    A link fails in a round when its queue is nonempty after injections but
    the link does not succeed.  The witness is the fullest window, the first
    in (link, start) order among equals.

    Let F(s) count a link's failed rounds in the window starting at s.  Then
    F(s) - F(s - 1) = fail(s + T - 1) - fail(s - 1), so at a link's first
    maximum s > 0 round s - 1 does not fail and round s + T - 1 does.
    Either round s fails, and s starts a run of failed rounds, or it does
    not, and then, as F(s + 1) <= F(s) unless s = rounds - T, s + T ends a
    run.  A first maximum at 0 is one of these clipped to 0.  So F is
    evaluated only at each run's start and end - T, clipped to
    [0, rounds - T]: O(stretches + successes) points, no links x rounds
    array.
    """
    rho_prime = Fraction(rho_prime)
    if not 0 < rho_prime <= 1:
        raise ParameterError("service rate rho' must lie in (0, 1]")
    if window < 1:
        raise ParameterError("window must be positive")
    if metrics.rounds < window:
        raise ParameterError("run is shorter than one window")
    bound = (1 + adv.rho - rho_prime) * window + adv.b
    n = metrics.rounds
    starts, ends = _failed_runs(metrics)
    # failed rounds in, and end of the last of, the first i runs
    cum = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=cum[1:])
    last_end = np.concatenate(([0], ends))

    def failed_before(y):
        # whole runs starting at or before flat index y, less the part of
        # the last of them that lies past y
        i = np.searchsorted(starts, y, side="right")
        past = last_end[i]
        past -= y
        np.maximum(past, 0, out=past)
        count = cum[i]
        count -= past
        return count

    first = starts - starts % n  # flat index of round 0 of each run's link
    max_count = best = 0
    for edge, shift in ((starts, 0), (ends, window)):
        if not edge.size:
            break
        x = edge - first
        x -= shift
        np.clip(x, 0, n - window, out=x)
        x += first
        f = failed_before(x + window)
        f -= failed_before(x)
        top = int(f.max())
        if top >= max_count:
            at = int(x[f == top].min())
            best = at if top > max_count else min(best, at)
            max_count = top
    best_link, best_start = divmod(best, n)
    holds = Fraction(max_count) <= bound
    witness = None if holds else FailureWindow(best_link, best_start, max_count)
    return FailureReport(holds, bound, window, max_count, witness)


def _failed_runs(metrics: RunMetrics) -> tuple[np.ndarray, np.ndarray]:
    """Flat starts and ends, link * rounds + round, of the runs of failed
    rounds: each backlogged stretch [a, b) cut by its successes r into
    [a, r), [r + 1, ...), ..., [..., b), empty pieces dropped.  The pieces
    lie in order with nondecreasing starts and ends, so sorting the starts
    and the ends apart pairs them up."""
    n = metrics.rounds
    link, start, end = metrics.stretches.T
    events = metrics.success_events
    starts = np.concatenate((link * n + start, events + 1))
    ends = np.concatenate((link * n + end, events))
    # both are two sorted runs, which a stable sort merges in linear time
    starts.sort(kind="stable")
    ends.sort(kind="stable")
    keep = starts < ends
    return starts[keep], ends[keep]


STABLE_SLOPE = 1e-3
MIN_VERDICT_ROUNDS = 10


class StabilityVerdict(NamedTuple):
    stable: bool
    slope: float


def stability_verdict(metrics: RunMetrics) -> StabilityVerdict:
    """Fit a line to the second half of the backlog curve; a slope under
    STABLE_SLOPE packets per round counts as stable.  Needs at least
    MIN_VERDICT_ROUNDS rounds."""
    series = metrics.per_round_backlog
    if series.size < MIN_VERDICT_ROUNDS:
        raise ParameterError(f"need at least {MIN_VERDICT_ROUNDS} rounds for a stability verdict")
    tail = series[series.size // 2 :]
    slope = float(np.polyfit(np.arange(tail.size), tail.astype(float), 1)[0])
    return StabilityVerdict(slope < STABLE_SLOPE, slope)
