"""Synchronous round simulation of packet routing under a transmission
schedule.

Each round has three phases: the adversary's packets for that round enter
their first link's queue, every active link with a nonempty queue attempts
transmission and the radio rule decides which succeed, then each successful
link forwards one queued packet chosen by the scheduling policy.  Forwarded
packets only become selectable in the next round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    """Per-round telemetry of one simulation.

    Boolean arrays have shape (link_count, rounds).  `attempted` marks
    active links with a nonempty queue; `collided` is attempted without
    success.  `backlogged` marks links whose queue was nonempty after the
    injection phase.  `per_round_backlog` is the total queued packet count
    at the end of each round.  `undelivered_count` counts trace packets
    not delivered within the simulated rounds, including any whose
    injection round was never reached.
    """

    rounds: int
    active: np.ndarray
    attempted: np.ndarray
    success: np.ndarray
    backlogged: np.ndarray
    per_round_backlog: np.ndarray
    per_round_max_queue: np.ndarray
    delivered: tuple[DeliveryRecord, ...]
    undelivered_count: int
    final_queues: tuple[tuple[int, ...], ...]

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
    if span:
        active = np.tile(pattern, -(-rounds // span))[:, :rounds]
    else:
        active = np.zeros((m, rounds), dtype=bool)
    attempted = np.zeros((m, rounds), dtype=bool)
    success = np.zeros((m, rounds), dtype=bool)
    backlogged = np.zeros((m, rounds), dtype=bool)
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
            backlogged[e, since.pop(e) : r + 1] = True
        if n == longest and not length_count[n]:
            longest -= 1  # the queue just popped now has length n - 1
        return entry

    for r in range(rounds):
        for pkt in by_round.get(r, ()):
            push(pkt, 0, r)
            queued += 1

        candidates = [e for e in schedule.active_at(r) if queues[e]]
        if candidates:
            for e in candidates:
                attempted[e, r] = True
            winners = successful_links(g, candidates)
            # a winner's head is silent, so a packet forwarded this round
            # never joins the queue of a later winner
            for e in winners:
                success[e, r] = True
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
        backlogged[e, start:] = True

    return RunMetrics(
        rounds=rounds,
        active=active,
        attempted=attempted,
        success=success,
        backlogged=backlogged,
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
    max_ratio: Fraction
    witness: FailureWindow | None


def failure_accounting(
    metrics: RunMetrics, adv: AdversaryConfig, rho_prime: Fraction, window: int
) -> FailureReport:
    """Check that per-link failures stay under (1 + rho - rho') * T + b in
    every window of T consecutive rounds.

    A link fails in a round when its queue is nonempty after injections but
    the link does not succeed.  The witness is the fullest window.
    """
    rho_prime = Fraction(rho_prime)
    if not 0 < rho_prime <= 1:
        raise ParameterError("service rate rho' must lie in (0, 1]")
    if window < 1:
        raise ParameterError("window must be positive")
    if metrics.rounds < window:
        raise ParameterError("run is shorter than one window")
    bound = (1 + adv.rho - rho_prime) * window + adv.b
    fails = (metrics.backlogged & ~metrics.success).astype(np.int64)
    cum = np.cumsum(fails, axis=1)
    padded = np.concatenate([np.zeros((fails.shape[0], 1), dtype=np.int64), cum], axis=1)
    counts = padded[:, window:] - padded[:, :-window]
    flat = int(np.argmax(counts))
    link, start = divmod(flat, counts.shape[1])
    max_count = int(counts[link, start])
    holds = Fraction(max_count) <= bound
    witness = None if holds else FailureWindow(link, start, max_count)
    return FailureReport(holds, bound, window, max_count, Fraction(max_count) / bound, witness)


class StabilityVerdict(NamedTuple):
    stable: bool
    slope: float
    mean_backlog: float
    max_backlog: int


def stability_verdict(metrics: RunMetrics, threshold: float = 1e-3) -> StabilityVerdict:
    """Fit a line to the second half of the backlog curve; a slope under
    `threshold` packets per round counts as stable."""
    series = metrics.per_round_backlog
    if series.size < 10:
        raise ParameterError("need at least 10 rounds for a stability verdict")
    tail = series[series.size // 2 :]
    slope = float(np.polyfit(np.arange(tail.size), tail.astype(float), 1)[0])
    return StabilityVerdict(slope < threshold, slope, float(tail.mean()), metrics.max_backlog)
