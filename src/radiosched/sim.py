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
from itertools import accumulate, chain, compress
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
    round r % period, and `trace` is the `InjectionTrace` it ran.
    `stretches` holds the rounds in which a link's queue was nonempty after
    the injection phase, as int64 rows (link, start, end) of half-open
    stretches [start, end), sorted by link and then start; stretches are
    disjoint and nonempty but may touch.  `success_events` is the sorted
    int64 array of link * rounds + round over every successful
    transmission, and `forward_events`, the forward log, holds next link *
    rounds + round of every forward, in the order of the run.
    `per_round_backlog` is the total queued packet count at the end of each
    round.  `delivered_rows` (each delivered packet's index in `trace`) and
    `delivered_rounds` are two int64 columns with one entry per delivered
    packet, in delivery order, so a delivery costs 16 bytes and no Python
    object; `delivered_ids` and `injection_rounds` read the trace through
    the first, and `undelivered_count` counts the trace's other packets,
    including any whose injection round was never reached.  `final_queues`
    lists each link's queued packet ids in the order its policy would serve
    them next: by policy key, then by packet id.  `run` derives all of
    these after its loop from its success and delivery logs and the final
    queues (see `run`).

    The stretches and `per_round_max_queue`, the longest queue at the end
    of each round, read the queues' steps on one clock of half rounds:
    round r's injections at time 2r, its successes and forwards at 2r + 1.
    The series is derived on each read, in O(E log E) time and O(E +
    rounds) memory for E events.  The dense (link_count, rounds) bool
    views `active`, `backlogged`, `success` and `attempted` are built on
    each read and kept by nothing.  A link attempts exactly when it is
    scheduled with a nonempty queue, so `attempted` equals `active &
    backlogged`; it is scattered from the attempt events, the active rounds
    inside each stretch, with no other links x rounds array.  Records
    compare and hash by identity.
    """

    rounds: int
    schedule: TransmissionSchedule
    trace: InjectionTrace
    stretches: np.ndarray
    success_events: np.ndarray
    forward_events: np.ndarray
    per_round_backlog: np.ndarray
    delivered_rows: np.ndarray
    delivered_rounds: np.ndarray
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
        events = self._attempt_events()  # before the output, so their peaks do not add
        flat = np.zeros(self.link_count * self.rounds, dtype=bool)
        flat[events] = True
        return flat.reshape(self.link_count, self.rounds)

    def _attempt_events(self) -> np.ndarray:
        """The sorted int64 link * rounds + round of every attempt, that is of
        every active round inside a backlogged stretch.

        Let link e have c activations in the span = min(period, rounds)
        rounds the run reads, at offsets o[0] < ... < o[c - 1].  Its j-th
        active round is (j // c) * span + o[j % c], and rounds [0, x) hold
        F(x) = (x // span) * c + #{o < x % span} of them, so a stretch
        [a, b) holds its activations F(a) .. F(b) - 1.  The cost is
        O(stretches + activations in the span + attempts), never links x
        rounds; an empty schedule activates nothing.
        """
        n, span = self.rounds, min(self.schedule.period, self.rounds)
        if not span or not self.stretches.size:
            return np.empty(0, dtype=np.int64)
        stop = np.searchsorted(self.schedule.round_of, span)
        # the span's activations as flat link * rounds + offset, sorted, so
        # link e's are keys[first[e] : first[e] + count[e]]
        links = self.schedule.link_of[:stop]
        keys = links * n
        keys += self.schedule.round_of[:stop]
        keys.sort()
        count = np.bincount(links, minlength=self.link_count)
        first = np.cumsum(count)
        first -= count
        # per stretch: its link's activation count, first key and row start
        link, start, end = self.stretches.T
        count, first, base = count[link], first[link], link * n

        def active_before(x):  # F(x) + first of each stretch's link
            q, rest = np.divmod(x, span)
            rest += base
            q *= count
            q += np.searchsorted(keys, rest)
            return q

        lo = active_before(start)
        per = active_before(end)
        per -= lo
        ends = np.cumsum(per)
        total = int(ends[-1])
        if not total:
            return np.empty(0, dtype=np.int64)
        # j of each attempt: its stretch's F(a) plus its place in the stretch
        lo -= first
        lo -= ends
        lo += per
        del ends
        j = np.repeat(lo, per)
        j += np.arange(total, dtype=np.int64)
        q, i = np.divmod(j, np.repeat(count, per), out=(j, None))
        i += np.repeat(first, per)
        q *= span
        q += keys[i]  # link * rounds + o[j % c]
        return q

    @property
    def per_round_max_queue(self) -> np.ndarray:
        """The longest queue at the end of each round.

        A step up of a link's queue to length l opens level l, and a step
        down from l closes it (see `_queue_steps`).  The links open at a
        level shrink as the level grows, so the longest queue is the number
        of levels some link has open.  Sorted by level * (rounds + 1) +
        round, a time t falling in round t // 2, a level's count of open
        links leaves 0 in a round that adds 1 to the series and returns to
        0 in one that takes it away.  The series reads this sweep at odd
        times, the ends of rounds, so the order of one round's steps does
        not change it.  A level is at most the packet count, so `run`'s
        guard keeps the level keys in int64.  The cost is O(E log E) time
        and O(E + rounds) memory for E events, no links x rounds array.
        """
        n = self.rounds
        held = [len(q) for q in self.final_queues]
        ups, downs = _queue_steps(self.trace, n, self.success_events, self.forward_events, held)
        at = np.arange(max(ups.size, downs.size) + 1)
        # each step's level as level * (rounds + 1) + round
        opens = np.searchsorted(downs, ups)
        np.subtract(at[1 : ups.size + 1], opens, out=opens)
        closes = np.searchsorted(ups, downs)
        closes -= at[: downs.size]
        width = n + 1
        for level, steps in ((opens, ups), (closes, downs)):
            steps %= 2 * n + 1
            steps //= 2
            level *= width
            level += steps
        del ups, downs, steps
        opens.sort()
        closes.sort()
        # a level's first open link, and the close that leaves none
        first = opens[at[: opens.size] == np.searchsorted(closes, opens)]
        last = np.searchsorted(opens, closes, "right")
        last -= at[: closes.size]
        last = closes[last == 1]
        first %= width
        last %= width
        series = np.bincount(first, minlength=width)
        series -= np.bincount(last, minlength=width)
        return np.cumsum(series[:n])

    @property
    def delivered_ids(self) -> np.ndarray:
        return self.trace.ids[self.delivered_rows]

    @property
    def injection_rounds(self) -> np.ndarray:
        return self.trace.rounds[self.delivered_rows]

    @property
    def delivered_count(self) -> int:
        return len(self.delivered_rows)

    @property
    def undelivered_count(self) -> int:
        return len(self.trace) - self.delivered_rows.size

    @property
    def max_backlog(self) -> int:
        return int(self.per_round_backlog.max(initial=0))

    @property
    def max_latency(self) -> int:
        """Largest delivery round less injection round over delivered packets."""
        latency = self.injection_rounds
        np.subtract(self.delivered_rounds, latency, out=latency)
        return int(latency.max(initial=0))


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
    the loop and read through memoryviews, which yield Python ints.

    The loop keeps only the queues, each packet's place in the flat route
    table (each route's links, then -1, so the entry after a packet's place
    is its next link, or -1 at its delivery) and two logs in the order of
    the loop: place * rounds + round of every success, and the rank of every
    delivered packet.  After it each heap, sorted, lists its link's queued
    ranks in service order.  With the per-packet columns and the queues
    freed, numpy derives every field of the record from the logs, the trace
    and those ranks, reading a success's link and next link from the table.
    From these come the success events, the delivery columns in delivery
    order, the forward log in loop order and the backlog series.  The
    backlogged stretches come from each link's steps up and down on one
    clock of half rounds, round r's injections at time 2r and its successes
    and forwards at 2r + 1.  The derivation costs O(E log E) time and O(E +
    rounds) memory for E events, with no links x rounds array.  It holds a
    few int64 arrays of the events at once and frees each when read; it
    peaks while the stretches are found, holding the record's columns and
    every step up and down with their ranks.

    A run whose keys could leave int64, (rounds + longest route + 1) *
    (packets + 1) >= 2**63 or (route table entries) * rounds >= 2**63, is
    refused before anything is sized by `rounds`.
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
    lengths = np.array([len(rt) for rt in trace.routes], dtype=np.int64)
    # the flat route table: each route's links, then -1
    flat = np.fromiter(chain.from_iterable(rt + (-1,) for rt in trace.routes), np.int64, lengths.sum() + len(lengths))
    if (rounds + int(lengths.max(initial=0)) + 1) * (count + 1) >= 2**63:
        raise ParameterError(f"{rounds} rounds overflow the int64 queue keys at packet count {count}")
    if flat.size * rounds >= 2**63:
        raise ParameterError(f"{rounds} rounds overflow the int64 success keys at route table size {flat.size}")
    # the backlog at the end of round r: injections up to r less deliveries
    # up to r.  The first array sized by `rounds`, it counts the injections
    # before the loop; an array('q') refuses a size past the address space
    # with MemoryError, where numpy raises ValueError
    backlog = np.frombuffer(array("q", [0]) * rounds, dtype=np.int64)
    injected = np.bincount(trace.rounds[:count])
    backlog[: injected.size] = injected
    # Each queued packet is one int, key * count + rank, where rank is the
    # packet id's rank among the run's ids: int order is (key, id) order,
    # negative keys included, so the head of a link's heap is the policy's
    # choice, and a forward adds step to it.  first and key hold each
    # injection's first link and initial int, order maps a rank to its
    # injection index, and at, indexed by rank, holds a packet's place: its
    # link is flat[at[k]], and its next link flat[at[k] + 1].
    per_round, per_hop, per_length = coef
    route_of = trace.route_of[:count]
    order = np.argsort(trace.ids[:count])
    key = per_round * trace.rounds[:count] + per_length * lengths[route_of]
    key *= count
    key[order] += np.arange(count)
    place = (np.cumsum(lengths + 1) - lengths - 1)[route_of]  # each injection's first place
    first = flat[place]
    at = array("q", place[order].tobytes())
    del route_of, injected, lengths, place
    first, key, table = memoryview(first), memoryview(key), memoryview(flat)
    injected_round = memoryview(trace.rounds)
    step = per_hop * count
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
    # the success log, place * rounds + round of every success, and the
    # delivery log, the rank of every delivered packet, both in the order of
    # the loop, from which every other field is derived after it
    log = array("q")
    done = array("q")

    for r in range(rounds):
        if r == due:
            while due == r:
                heappush(queues[first[ptr]], key[ptr])
                ptr += 1
                due = injected_round[ptr] if ptr < count else -1

        # a clean row's links all win, and none of them is the next link of
        # another's packet (its tail would transmit over that link's head),
        # so the row is read as it stands; elsewhere the candidates are the
        # backlogged links and the radio rule picks the winners.  A winner's
        # head is silent, so a packet forwarded this round never joins the
        # queue of a later winner.
        i = r % period
        winners = plan[i]
        if winners is None:
            winners = [e for e in rows[i] if queues[e]]
            if winners:
                winners = compress(winners, resolve_rows(g, [0] * len(winners), winners, 1).tolist())
        for e in winners:
            q = queues[e]
            if not q:
                continue
            head = heappop(q)
            k = head % count
            p = at[k]
            log.append(p * rounds + r)
            p += 1
            after = table[p]
            if after < 0:
                done.append(k)
                continue
            at[k] = p
            # a forwarded packet waits at its next link from round r + 1
            heappush(queues[after], head + step)
    del first, key, table, at
    # the links still holding packets, their queue lengths and the ranks
    # they hold, each heap sorted: int order is (key, id) order, the order
    # the policy serves them in
    busy = [e for e, q in enumerate(queues) if q]
    held = [len(queues[e]) for e in busy]
    queued = np.fromiter(chain.from_iterable(sorted(queues[e]) for e in busy), dtype=np.int64, count=sum(held))
    queued %= count or 1
    del queues
    delivered_rows = order[np.frombuffer(done, dtype=np.int64)]
    del done
    # a success's place holds its link, and the next one its next link or -1
    log = np.frombuffer(log, dtype=np.int64)
    place = log // rounds
    np.remainder(log, rounds, out=log)
    link = flat[place]
    place += 1
    after = flat[place]
    del place, flat
    delivery = after < 0
    delivered_rounds = log[delivery]
    np.logical_not(delivery, out=delivery)
    forwards = after[delivery]
    forwards *= rounds
    forwards += log[delivery]
    del after, delivery
    link *= rounds
    link += log
    link.sort()
    queued = order[queued]  # ranks to injection indices
    del log, order
    # A stretch runs from a step up to level 1 at time t to the next step
    # down to 0 at time u, rounds [(t + 1) // 2, (u + 1) // 2); a forward of
    # the last round, at 2 * rounds - 1, starts an empty one, dropped here.
    per_link = np.zeros(m, dtype=np.int64)
    per_link[busy] = held
    ups, downs = _queue_steps(trace, rounds, link, forwards, per_link)
    at = np.arange(max(ups.size, downs.size) + 1)
    starts = ups[np.searchsorted(downs, ups) == at[: ups.size]]
    ends = downs[np.searchsorted(ups, downs) == at[1 : downs.size + 1]]
    del ups, downs, at, per_link
    width = 2 * rounds + 1
    kept = starts % width != 2 * rounds - 1
    starts, ends = starts[kept], ends[kept]
    stretches = np.empty((starts.size, 3), dtype=np.int64)
    np.divmod(starts, width, out=(stretches[:, 0], stretches[:, 1]))
    np.remainder(ends, width, out=stretches[:, 2])
    del starts, ends, kept
    stretches[:, 1:] += 1
    stretches[:, 1:] //= 2
    backlog -= np.bincount(delivered_rounds, minlength=rounds)
    # the final queues' ids, read last, past the peak of the stretches
    final_queues = [()] * m
    ids = trace.ids[queued].tolist()
    for e, end, n in zip(busy, accumulate(held), held):
        final_queues[e] = tuple(ids[end - n : end])
    return RunMetrics(
        rounds=rounds,
        schedule=schedule,
        trace=trace,
        stretches=stretches,
        success_events=link,
        forward_events=forwards,
        per_round_backlog=np.cumsum(backlog, dtype=np.int64),
        delivered_rows=delivered_rows,
        delivered_rounds=delivered_rounds,
        final_queues=tuple(final_queues),
    )


def _queue_steps(trace, rounds, successes, forwards, held):
    """The queues' steps up and down, as two sorted int64 arrays keyed
    link * (2 * rounds + 1) + time on one clock of half rounds.

    Round r's injections step up at time 2r, its forwards step up and its
    successes step down at 2r + 1, so event e = link * rounds + round keys
    2e + e // rounds + 1, and each of the held[e] packets that link e holds
    at the end steps down at 2 * rounds.  No link both succeeds and receives a forward in a round, so
    one link's steps up and down never share a time: the level after the
    i-th step up is i + 1 less the steps down before it, and before the j-th
    step down the steps up before it less j.  Each link's steps cancel, so
    no level leaks into the next link's.  A key is below 2 * links * rounds
    + links."""
    width = 2 * rounds + 1
    count = int(np.searchsorted(trace.rounds, rounds))
    ups = np.empty(count + forwards.size, dtype=np.int64)
    injected = ups[:count]
    np.take(np.array([rt[0] for rt in trace.routes], dtype=np.int64), trace.route_of[:count], out=injected)
    injected *= width
    injected += trace.rounds[:count]
    injected += trace.rounds[:count]
    downs = np.empty(successes.size + sum(held), dtype=np.int64)
    downs[successes.size :] = np.repeat(np.arange(2 * rounds, len(held) * width, width), held)
    for events, out in ((forwards, ups[count:]), (successes, downs[: successes.size])):
        np.floor_divide(events, rounds, out=out)
        out += events
        out += events
        out += 1
    ups.sort()
    downs.sort(kind="stable")  # two sorted runs
    return ups, downs


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
    MIN_VERDICT_ROUNDS rounds.

    The verdict is a least-squares estimate, not a decision, and calls an
    overloaded run stable: the 2-node clique at epsilon 1/2000, exact
    coloring, `lis`, 40,000 rounds fits slope 0.00099 while its backlog (40
    at the end) grows forever.  ROADMAP item 1 replaces the fit."""
    series = metrics.per_round_backlog
    if series.size < MIN_VERDICT_ROUNDS:
        raise ParameterError(f"need at least {MIN_VERDICT_ROUNDS} rounds for a stability verdict")
    tail = series[series.size // 2 :]
    slope = float(np.polyfit(np.arange(tail.size), tail.astype(float), 1)[0])
    return StabilityVerdict(slope < STABLE_SLOPE, slope)
