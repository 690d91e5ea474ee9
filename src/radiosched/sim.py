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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph, successful_links
from .schedules import TransmissionSchedule
from .traffic import AdversaryConfig, InjectionTrace, Packet, check_routes

# Primary heap key of a packet waiting at a link after `hops` completed
# hops; the packet id breaks ties.  A packet's key is fixed while it waits.
POLICIES: dict[str, Callable[[Packet, int], int]] = {
    # longest-in-system: oldest injection first
    "lis": lambda p, hops: p.injection_round,
    # shortest-in-system: newest injection first
    "sis": lambda p, hops: -p.injection_round,
    # nearest-from-source: fewest completed hops first
    "nfs": lambda p, hops: hops,
    # furthest-to-go: most remaining hops first
    "ftg": lambda p, hops: hops - len(p.route),
}


class DeliveryRecord(NamedTuple):
    id: int
    injection_round: int
    delivered_round: int


@dataclass(frozen=True)
class RunMetrics:
    """What one simulation produced, in memory that grows with links,
    rounds and events, not with links x rounds.

    `pattern` is the schedule's active sets over its first
    `min(period, rounds)` rounds, a (link_count, span) bool array; round r
    uses column r % span.  `stretches` holds the rounds in which a link's
    queue was nonempty after the injection phase, as int64 rows
    (link, start, end) of half-open stretches [start, end), sorted by link
    and then start; stretches are disjoint and nonempty but may touch.
    `success_events` is the sorted int64 array of link * rounds + round
    over every successful transmission.  `per_round_backlog` is the total
    queued packet count at the end of each round.  `undelivered_count`
    counts trace packets not delivered within the simulated rounds,
    including any whose injection round was never reached.

    The dense (link_count, rounds) bool views `active`, `backlogged` and
    `success` are built on first read and kept.  `attempted` is
    `active & backlogged`, since a link attempts exactly when it is
    scheduled with a nonempty queue; `collided` is attempted without
    success.
    """

    rounds: int
    pattern: np.ndarray
    stretches: np.ndarray
    success_events: np.ndarray
    per_round_backlog: np.ndarray
    per_round_max_queue: np.ndarray
    delivered: tuple[DeliveryRecord, ...]
    undelivered_count: int
    final_queues: tuple[tuple[int, ...], ...]

    @property
    def link_count(self) -> int:
        return self.pattern.shape[0]

    @cached_property
    def active(self) -> np.ndarray:
        span = self.pattern.shape[1]
        if not span:
            return np.zeros((self.link_count, self.rounds), dtype=bool)
        return np.tile(self.pattern, -(-self.rounds // span))[:, : self.rounds]

    @cached_property
    def backlogged(self) -> np.ndarray:
        # +1 at each stretch's first flat index, -1 just past its last; a
        # stretch may start where the previous one ends, so the ends are
        # subtracted after the starts are set.  The running sum is 0 or 1.
        m, n = self.link_count, self.rounds
        first = self.stretches[:, 0] * n + self.stretches[:, 1]
        delta = np.zeros(m * n + 1, dtype=np.int8)
        delta[first] = 1
        delta[first + (self.stretches[:, 2] - self.stretches[:, 1])] -= 1
        return np.cumsum(delta[:-1], dtype=np.int8).view(bool).reshape(m, n)

    @cached_property
    def success(self) -> np.ndarray:
        flat = np.zeros(self.link_count * self.rounds, dtype=bool)
        flat[self.success_events] = True
        return flat.reshape(self.link_count, self.rounds)

    @cached_property
    def attempted(self) -> np.ndarray:
        return self.active & self.backlogged

    @property
    def collided(self) -> np.ndarray:
        return self.attempted & ~self.success

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)

    @property
    def max_backlog(self) -> int:
        return int(self.per_round_backlog.max(initial=0))

    @property
    def max_latency(self) -> int:
        """Largest delivered_round - injection_round over delivered packets."""
        return max((d.delivered_round - d.injection_round for d in self.delivered), default=0)


def run(
    g: NetworkGraph,
    schedule: TransmissionSchedule,
    policy: str,
    trace: InjectionTrace,
    rounds: int,
) -> RunMetrics:
    key = POLICIES.get(policy.lower())
    if key is None:
        raise ParameterError(f"unknown policy {policy!r}; choose from {sorted(POLICIES)}")
    if schedule.link_count > g.link_count:
        raise ParameterError("schedule names more links than the network has")
    if rounds < 1:
        raise ParameterError("need at least one round")
    check_routes(trace, g)

    m = g.link_count
    by_round: dict[int, list[Packet]] = {}
    for r, pkt in trace.injections:
        by_round.setdefault(r, []).append(pkt)

    # queues[e] is a binary heap of (key, id, arrival, hops, packet) entries.
    # Ids are unique, so the head is the policy's choice and comparisons
    # never reach the later fields.  arrival numbers the pushes, so sorting
    # by it restores queue order; hops counts the packet's completed hops,
    # which keeps the trace's packets unmodified.
    queues: list[list[tuple]] = [[] for _ in range(m)]
    span = min(schedule.period, rounds)
    pattern = np.zeros((m, span), dtype=bool)
    for r in range(span):
        pattern[list(schedule.active[r]), r] = True
    # (link, start, end) of every closed backlogged stretch, and
    # link * rounds + round of every success
    stretches = array("q")
    events = array("q")
    per_round_backlog = np.zeros(rounds, dtype=np.int64)
    per_round_max_queue = np.zeros(rounds, dtype=np.int64)
    delivered: list[DeliveryRecord] = []
    queued = 0
    arrivals = 0
    # Incremental view of the queues, so a round costs O(activity), not
    # O(links): since[e] is the first round of link e's current backlogged
    # stretch (present iff its queue is nonempty), length_count[n] is the
    # number of queues of length n >= 1, and longest is the largest n.
    since: dict[int, int] = {}
    length_count: Counter[int] = Counter()
    longest = 0

    def push(pkt: Packet, hops: int, start: int) -> None:
        nonlocal longest, arrivals
        e = pkt.route[hops]
        q = queues[e]
        n = len(q)
        heappush(q, (key(pkt, hops), pkt.id, arrivals, hops, pkt))
        arrivals += 1
        if n:
            length_count[n] -= 1
        else:
            since[e] = start
        length_count[n + 1] += 1
        if n + 1 > longest:
            longest = n + 1

    def pop(e: int, r: int) -> tuple:
        nonlocal longest
        q = queues[e]
        n = len(q)
        entry = heappop(q)
        length_count[n] -= 1
        if n > 1:
            length_count[n - 1] += 1
        else:
            stretches.extend((e, since.pop(e), r + 1))
        if n == longest and not length_count[n]:
            longest -= 1  # the queue just popped now has length n - 1
        return entry

    for r in range(rounds):
        for pkt in by_round.get(r, ()):
            push(pkt, 0, r)
            queued += 1

        candidates = [e for e in schedule.active_at(r) if queues[e]]
        if candidates:
            winners = successful_links(g, candidates)
            # a winner's head is silent, so a packet forwarded this round
            # never joins the queue of a later winner
            for e in winners:
                events.append(e * rounds + r)
                _, pid, _, hops, pkt = pop(e, r)
                hops += 1
                if hops == len(pkt.route):
                    delivered.append(DeliveryRecord(pid, pkt.injection_round, r))
                    queued -= 1
                else:
                    # a forwarded packet waits from the next round on
                    push(pkt, hops, r + 1)
        per_round_backlog[r] = queued
        per_round_max_queue[r] = longest
    for e, start in since.items():
        if start < rounds:  # a packet forwarded in the last round waits past the run
            stretches.extend((e, start, rounds))
    spans = np.frombuffer(stretches, dtype=np.int64).reshape(-1, 3)

    return RunMetrics(
        rounds=rounds,
        pattern=pattern,
        stretches=spans[np.argsort(spans[:, 0] * rounds + spans[:, 1])],
        success_events=np.sort(np.frombuffer(events, dtype=np.int64)),
        per_round_backlog=per_round_backlog,
        per_round_max_queue=per_round_max_queue,
        delivered=tuple(delivered),
        undelivered_count=len(trace) - len(delivered),
        final_queues=tuple(tuple(entry[1] for entry in sorted(q, key=itemgetter(2))) for q in queues),
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


class StabilityVerdict(NamedTuple):
    stable: bool
    slope: float
    max_backlog: int


def stability_verdict(metrics: RunMetrics) -> StabilityVerdict:
    """Fit a line to the second half of the backlog curve; a slope under
    STABLE_SLOPE packets per round counts as stable."""
    series = metrics.per_round_backlog
    if series.size < 10:
        raise ParameterError("need at least 10 rounds for a stability verdict")
    tail = series[series.size // 2 :]
    slope = float(np.polyfit(np.arange(tail.size), tail.astype(float), 1)[0])
    return StabilityVerdict(slope < STABLE_SLOPE, slope, metrics.max_backlog)
