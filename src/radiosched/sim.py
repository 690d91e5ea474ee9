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
from itertools import chain, compress
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
    the first.  `undelivered_count` counts trace packets not delivered
    within the simulated rounds, including any whose injection round was
    never reached.  `final_queues` lists each link's queued packet ids in
    arrival order.  `run` derives all of these after its loop from one
    success log and the final queues (see `run`).

    `per_round_max_queue`, the longest queue at the end of each round, is
    derived on each read from the injections, the forward log, the
    successes and the final queues, in O(E log E) time and O(E + rounds)
    memory for E events.  The dense (link_count, rounds) bool views
    `active`, `backlogged`, `success` and `attempted` are built on each
    read and kept by nothing.  A link attempts exactly when it is scheduled
    with a nonempty queue, so `attempted` equals `active & backlogged`; it
    is scattered from the attempt events, the active rounds inside each
    stretch, with no other links x rounds array.  Records compare and hash
    by identity.
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

        Link e's queue steps up at each injection into it and each forward
        onto it, and down at each of its successes; in a round its
        injections come first, and no link both succeeds and receives a
        forward.  A step up to length l opens level l of the link, a step
        down from l closes it, and a queue still held at the end closes its
        levels at round `rounds`.  Sorted by link * (rounds + 1) + round,
        a step's level is the steps up less the steps down before it.  The
        links open at level l form a set that shrinks as l grows, so the
        longest queue is the number of levels at which some link is open:
        sorted by level * (rounds + 1) + round, steps up first at ties, a
        level's count of open links leaves 0 at a round that adds 1 to the
        series and returns to 0 at one that takes it away.  A level is at
        most the packet count, so `run`'s guard keeps the level keys in
        int64, and a link key exceeds the largest success event by at most
        the link count.  The cost is O(E log E) time and O(E + rounds)
        memory for E events, with no links x rounds array.
        """
        n, trace = self.rounds, self.trace
        width = n + 1
        count = int(np.searchsorted(trace.rounds, n))
        ups = np.array([rt[0] for rt in trace.routes], dtype=np.int64)[trace.route_of[:count]]
        ups *= width
        ups += trace.rounds[:count]
        # link * rounds + round becomes link * width + round
        forwards = self.forward_events // n
        forwards += self.forward_events
        ups = np.concatenate((ups, forwards))
        ups.sort()
        downs = self.success_events // n
        downs += self.success_events
        held = [len(q) for q in self.final_queues]
        ends = np.arange(n, len(held) * width, width)  # each link's round `rounds`
        downs = np.concatenate((downs, np.repeat(ends, held)))
        downs.sort(kind="stable")  # two sorted runs
        del forwards, ends
        at = np.arange(max(ups.size, downs.size) + 1)
        # each step's level as level * width + round: the length after a
        # step up, the length before a step down
        opens = np.searchsorted(downs, ups)
        np.subtract(at[1 : ups.size + 1], opens, out=opens)
        closes = np.searchsorted(ups, downs, "right")
        closes -= at[: downs.size]
        opens *= width
        opens += ups % width
        closes *= width
        closes += downs % width
        del ups, downs
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

    The loop keeps only the queues, each packet's completed hops and the
    success log: one int64 append per success, rank * rounds + round, in
    the order of the loop.  After it, with the key and first-link columns,
    the routes by rank and the queues freed, numpy derives every field of
    the record from the log, the trace and the final queues.  Sorting the
    log groups each packet's successes in round order, so a success's place
    in its group is its hop, and the hop gives its link and its next link,
    or its delivery, from the packet's route.  From these come the success
    events, the delivery columns in delivery order, the forward log in loop
    order and the backlog series; the backlogged stretches come from each
    link's steps up and down, and the final queues' arrival order from each
    queued packet's injection or last success.  The derivation costs
    O(E log E) time and O(E + rounds) memory for E events, with no links x
    rounds array.  It holds a few int64 arrays of the events at once and
    frees each when read; it peaks while the stretches are found, holding
    the record's columns and every step up and down with their ranks.

    A run whose keys could leave int64, (rounds + longest route + 1) *
    (packets + 1) >= 2**63, is refused before anything is sized by
    `rounds`.
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
    # injection's first link and initial int; order maps a rank to its
    # injection index, route_by_rank holds each packet's route tuple from
    # the trace's table, and hops, indexed by rank, counts a packet's
    # completed hops.
    at_round, at_hops, at_length = coef
    route_of = trace.route_of[:count]
    order = np.argsort(trace.ids[:count])
    key = at_round * trace.rounds[:count] + at_length * lengths[route_of]
    key *= count
    key[order] += np.arange(count)
    first = np.array([rt[0] for rt in routes], dtype=np.int64)[route_of]
    route_by_rank = [routes[j] for j in route_of[order].tolist()]
    del route_of, injected
    first, key = memoryview(first), memoryview(key)
    injected_round = memoryview(trace.rounds)
    hops = array("q", [0]) * count
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
    # the success log: rank * rounds + round of every success, in the order
    # of the loop, from which every other field is derived after it
    log = array("q")

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
        at = r % period
        winners = plan[at]
        if winners is None:
            winners = [e for e in rows[at] if queues[e]]
            if winners:
                winners = compress(winners, resolve_rows(g, [0] * len(winners), winners, 1).tolist())
        for e in winners:
            q = queues[e]
            if not q:
                continue
            head = heappop(q)
            k = head % count
            log.append(k * rounds + r)
            route = route_by_rank[k]
            h = hops[k] + 1
            if h == len(route):
                continue
            hops[k] = h
            # a forwarded packet waits at its next link from round r + 1
            heappush(queues[route[h]], head + step)
    del first, key, route_by_rank
    # the links still holding packets, their queue lengths and the ranks
    # they hold, read in one pass over the queues
    busy = [e for e, q in enumerate(queues) if q]
    held = [len(queues[e]) for e in busy]
    queued = np.fromiter(chain.from_iterable(queues[e] for e in busy), dtype=np.int64, count=sum(held))
    queued %= count or 1
    del queues
    # Group the log by packet: a packet succeeds at most once a round, so
    # the entries are distinct, and sorted they hold each packet's successes
    # together in round order, packet k's i-th, made at its hop i, at
    # begin[k] + i.
    log = np.frombuffer(log, dtype=np.int64)
    perm = np.argsort(log)
    grouped = log[perm]
    grouped //= rounds
    begin = np.bincount(grouped, minlength=count)
    begin = np.cumsum(begin) - begin
    hop = np.arange(log.size)
    hop -= begin[grouped]
    del grouped
    final_queues = _final_queues(m, busy, held, queued, log, perm, begin, hops, order, trace, rounds)
    del queued, begin, hops
    in_order = np.empty_like(hop)
    in_order[perm] = hop
    hop = in_order
    del in_order, perm
    # Back in loop order, a success's packet and hop give its place in the
    # flat route table, which lists each route's links and then -1: the
    # entry there is the success's link, and the next one its packet's next
    # link, or -1 at a delivery.
    rank = log // rounds
    np.remainder(log, rounds, out=log)
    flat = np.fromiter(
        chain.from_iterable(rt + (-1,) for rt in routes), dtype=np.int64, count=int(lengths.sum()) + len(routes)
    )
    lengths += 1
    place = np.cumsum(lengths) - lengths
    place = place[trace.route_of[order]]
    place = place[rank]
    place += hop
    del hop, lengths
    link = flat[place]
    place += 1
    after = flat[place]
    del place
    done = after < 0
    delivered_rows = order[rank[done]]
    delivered_rounds = log[done]
    del rank
    np.logical_not(done, out=done)
    forwards = after[done]
    forwards *= rounds
    forwards += log[done]
    del after, done
    link *= rounds
    link += log
    link.sort()
    del log, order
    backlog -= np.bincount(delivered_rounds, minlength=rounds)
    return RunMetrics(
        rounds=rounds,
        schedule=schedule,
        trace=trace,
        stretches=_stretches(trace, count, link, forwards, busy, held, rounds),
        success_events=link,
        forward_events=forwards,
        per_round_backlog=np.cumsum(backlog, dtype=np.int64),
        delivered_rows=delivered_rows,
        delivered_rounds=delivered_rounds,
        undelivered_count=len(trace) - delivered_rows.size,
        final_queues=final_queues,
    )


def _final_queues(m, busy, held, queued, log, perm, begin, hops, order, trace, rounds):
    """Each of the m links' queued packet ids in arrival order.

    Link busy[j] holds held[j] packets, whose ranks `queued` lists link by
    link.  A packet k that never moved arrived at its injection, any other
    at its last success, the hops[k]-th, at log[perm[begin[k] + hops[k] -
    1]].  A queue is sorted by (arrival round, injection before forward,
    injection index) as one int: injection index i at round r is r *
    stride + i, a forward at round r is r * stride + count (at most one
    reaches a link in a round), and all are below (rounds + 1) * stride,
    which `run`'s guard keeps in int64."""
    final = [()] * m
    if not busy:
        return tuple(final)
    count = order.size
    stride = count + 1
    index = order[queued]
    arrival = trace.rounds[index] * stride
    arrival += index
    moves = np.frombuffer(hops, dtype=np.int64)[queued]
    moved = np.flatnonzero(moves)
    last = begin[queued[moved]]
    last += moves[moved]
    last -= 1
    last = log[perm[last]] % rounds
    last *= stride
    last += count
    arrival[moved] = last
    ids = trace.ids[index[np.lexsort((arrival, np.repeat(np.arange(len(busy)), held)))]].tolist()
    at = 0
    for e, n in zip(busy, held):
        final[e] = tuple(ids[at : at + n])
        at += n
    return tuple(final)


def _stretches(trace, count, successes, forwards, busy, held, rounds):
    """The backlogged stretches as int64 rows (link, start, end).

    A link's queue steps up at round r with an injection of round r or a
    forward of round r - 1, and down at round r + 1 after a success of
    round r; a queue still held steps down at round `rounds`.  Keyed link *
    (rounds + 1) + round, with the steps down first at a tie, so that
    stretches that touch stay apart, the level after the i-th step up is
    i + 1 less the steps down at or before it, and after the j-th step
    down it is the steps up before it less j + 1.  A stretch starts at a
    step up to level 1 and ends at a step down to 0; each link's steps
    cancel, so no level leaks into the next link's.  A forward of the last
    round steps up at round `rounds`, after the held queue's steps down, so
    it starts no stretch.  A key exceeds the link * rounds + round of a
    success event by at most the link count."""
    width = rounds + 1
    ups = np.array([rt[0] for rt in trace.routes], dtype=np.int64)[trace.route_of[:count]]
    ups *= width
    ups += trace.rounds[:count]
    ups = np.concatenate((ups, forwards // rounds + forwards + 1))
    ups.sort()
    downs = successes // rounds
    downs += successes
    downs += 1
    kept = np.array(busy, dtype=np.int64) * width + rounds
    downs = np.concatenate((downs, np.repeat(kept, held)))
    downs.sort(kind="stable")  # two sorted runs
    at = np.arange(max(ups.size, downs.size) + 1)
    starts = ups[np.searchsorted(downs, ups, "right") == at[: ups.size]]
    ends = downs[np.searchsorted(ups, downs) == at[1 : downs.size + 1]]
    del ups, downs, at
    out = np.empty((starts.size, 3), dtype=np.int64)
    np.divmod(starts, width, out=(out[:, 0], out[:, 1]))
    np.remainder(ends, width, out=out[:, 2])
    return out


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
