"""Adversarial packet injection: traces, admissibility, and scenario
generators.

A (rho, b)-adversary may inject, into any single link and any window of T
consecutive rounds, at most rho*T + b packets whose routes traverse that
link.  Traversal is charged at injection time.  All rate arithmetic is
exact rational.

A trace is held as columns, 24 bytes and no Python object per packet, and
the generators cost per injection: `_periodic_trace` builds its columns
with numpy, and `gen_leaky_bucket` visits a route only in the rounds where
its buckets could let it inject.  One function, `_route_fault`, checks a
route for the trace constructor, `check_routes`, `validate_trace` and
`gen_leaky_bucket`, and `validate_trace` decides admissibility and finds
its witness in one numpy pass over the crossings.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ParameterError, reads_format
from .graphs import NetworkGraph, clique_graph, from_undirected_edges
from .selectors import parse_count


class Packet(NamedTuple):
    """One row of a trace: a packet's id and route of link indices.  It
    travels beside its injection round in a `(round, Packet)` pair;
    `InjectionTrace.injections` builds one per read and keeps none, and
    `trace_from_packets` turns such pairs back into a trace."""

    id: int
    route: tuple[int, ...]


def _int64_column(values, what: str) -> np.ndarray:
    """values as a read-only int64 copy, refused if one does not fit."""
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ParameterError(f"{what} must fit in int64") from None
    if column.ndim != 1:
        raise ParameterError(f"{what} must form one column")
    column.flags.writeable = False
    return column


def _route_fault(route, link_count: int | None = None, links=None) -> str | None:
    """Why route is not a path: it is empty, or it holds a negative link
    or, when link_count is given, a link outside 0..link_count-1, or, when
    the links' (tail, head) pairs are given, two consecutive links not
    chained head to tail.  None for a valid route."""
    if not route:
        return "empty route"
    if link_count is None:
        return f"negative link {min(route)}" if min(route) < 0 else None
    for i in route:
        if not 0 <= i < link_count:
            return f"link {i} out of range"
    if links is not None:
        for a, b in zip(route, route[1:]):
            if links[a][1] != links[b][0]:
                return f"links {a} and {b} do not share an endpoint"
    return None


@dataclass(frozen=True, eq=False)
class InjectionTrace:
    """Injections as columns, in trace order, sorted by round.

    `rounds` and `ids` are read-only int64 arrays with one entry per packet,
    `route_of` each packet's index into `routes`, a table of routes of link
    indices that the generators and readers build with no route twice, and
    `horizon` the last round covered.  The constructor copies the columns
    and refuses, with numpy over the columns and once per distinct route: a
    value outside int64, an empty route or a negative link, a negative or
    out-of-order round, a repeated id, and a negative horizon or one before
    the last injection.  A fault in a route names the first packet that
    uses it.

    `injections` yields the `(round, Packet)` pairs, each built as it is
    read and kept by nothing; `trace_from_packets` builds a trace from
    such pairs, and `read_trace` parses a file straight into the columns.
    """

    rounds: np.ndarray
    ids: np.ndarray
    route_of: np.ndarray
    routes: tuple[tuple[int, ...], ...]
    horizon: int

    def __post_init__(self):
        put = object.__setattr__
        put(self, "rounds", _int64_column(self.rounds, "injection rounds"))
        put(self, "ids", _int64_column(self.ids, "packet ids"))
        put(self, "route_of", _int64_column(self.route_of, "route indices"))
        put(self, "routes", tuple(tuple(map(int, rt)) for rt in self.routes))
        rounds, ids, route_of = self.rounds, self.ids, self.route_of
        if not len(rounds) == len(ids) == len(route_of):
            raise ParameterError("trace columns differ in length")
        if self.horizon < 0:
            raise ParameterError(f"horizon {self.horizon} is negative")
        if not ids.size:
            return
        if route_of.min() < 0 or route_of.max() >= len(self.routes):
            raise ParameterError("route index outside the route table")
        _refuse_faulty_routes(self)
        negative = np.flatnonzero(rounds < 0)
        if negative.size:
            raise ParameterError(f"packet {ids[negative[0]]}: negative injection round")
        if (rounds[1:] < rounds[:-1]).any():
            raise ParameterError("injections must be sorted by round")
        if not (ids[1:] > ids[:-1]).all():
            # a stable sort puts each repeat after its first occurrence; name
            # the repeat that comes first in the trace
            order = np.argsort(ids, kind="stable")
            repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
            if repeats.size:
                raise ParameterError(f"duplicate packet id {ids[repeats.min()]}")
        if rounds[-1] > self.horizon:
            raise ParameterError("horizon precedes the last injection")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def injections(self):
        """(round, Packet) pairs in trace order, built as they are read."""
        routes = self.routes
        for r, i, j in zip(memoryview(self.rounds), memoryview(self.ids), memoryview(self.route_of)):
            yield r, Packet(i, routes[j])


def trace_from_packets(injections, horizon: int) -> InjectionTrace:
    """A trace from (round, Packet) pairs in trace order, the form
    `InjectionTrace.injections` yields; for traces built by hand."""
    rounds, ids, route_of, table = [], [], [], {}
    for r, pkt in injections:
        rounds.append(r)
        ids.append(pkt.id)
        route_of.append(table.setdefault(tuple(map(int, pkt.route)), len(table)))
    return InjectionTrace(rounds, ids, route_of, tuple(table), horizon)


def _refuse_faulty_routes(tr: InjectionTrace, link_count: int | None = None, links=None) -> None:
    """Raise for the first packet, in trace order, whose route `_route_fault`
    finds a fault in; each route of the table is looked at once."""
    faults = {}
    for j, route in enumerate(tr.routes):
        fault = _route_fault(route, link_count, links)
        if fault:
            faults[j] = fault
    if faults:
        faulty = np.zeros(len(tr.routes), dtype=bool)
        faulty[list(faults)] = True
        hit = np.flatnonzero(faulty[tr.route_of])
        if hit.size:
            k = hit[0]
            raise ParameterError(f"packet {tr.ids[k]}: {faults[int(tr.route_of[k])]}")


def check_routes(tr: InjectionTrace, g: NetworkGraph) -> None:
    """Routes must be link paths of g: valid indices, consecutive links
    chained head to tail.  Costs one check per distinct route."""
    _refuse_faulty_routes(tr, g.link_count, g.links)


@dataclass(frozen=True)
class AdversaryConfig:
    rho: Fraction
    b: int

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho <= 0:
            raise ParameterError("injection rate must be positive")
        if self.b < 0:
            raise ParameterError("burst allowance must be non-negative")


class Violation(NamedTuple):
    link: int
    start: int
    length: int
    load: int
    allowed: Fraction


class AdmissibilityReport(NamedTuple):
    admissible: bool
    witness: Violation | None


def validate_trace(tr: InjectionTrace, adv: AdversaryConfig, link_count: int | None = None) -> AdmissibilityReport:
    """Check every window of every length on every link against rho*T + b.

    Exact in integers: a window holding load L over T rounds violates iff
    den*L - num*T > den*b.  With d(t) = den*load(0..t) - num*(t + 1) and
    d(-1) = 0, the window s..t violates iff d(t) - d(s - 1) > den*b.  d rises
    only at a link's injection rounds and falls strictly between them, so
    the first violating end, and the earliest start that minimises
    d(s - 1) before it, are both injection rounds (or the start 0).

    A packet crosses each distinct link of its route once.  Those crossings,
    stably sorted by link, list each link's rounds in order, and numpy
    takes every crossing's d before and after it, and the running minimum
    of d(s - 1) within its link, in one pass over all links: each link's
    values are shifted below the previous link's, so one running minimum
    does not cross links.  Where those values could leave int64 they are
    Python ints instead.  The witness comes from the same pass: the first
    bad crossing names the link and the end round, and the first minimum
    of d(s - 1) before it the start.  Memory and time grow with crossings,
    not links x horizon.  A link at or past link_count (inferred from the
    routes when None) is a ParameterError.
    """
    used = np.flatnonzero(np.bincount(tr.route_of, minlength=len(tr.routes))).tolist()
    if link_count is None:
        link_count = 1 + max((max(tr.routes[j]) for j in used), default=0)
    _refuse_faulty_routes(tr, link_count)
    admissible = AdmissibilityReport(True, None)
    # each used route's distinct links, flattened: route j's are
    # flat[first[j] : first[j] + width[j]]
    distinct = [()] * len(tr.routes)
    for j in used:
        distinct[j] = sorted(set(tr.routes[j]))
    width = np.array([len(links) for links in distinct], dtype=np.int64)
    first = np.cumsum(width) - width
    flat = np.array([e for links in distinct for e in links], dtype=np.int64)
    crossings = width[tr.route_of]
    total = int(crossings.sum())
    if not total:
        return admissible
    packet = np.repeat(np.arange(len(tr)), crossings)
    within = np.arange(total) - np.repeat(np.cumsum(crossings) - crossings, crossings)
    link = flat[first[tr.route_of[packet]] + within]
    order = np.argsort(link, kind="stable")
    link, rnd = link[order], tr.rounds[packet[order]]
    starts = np.flatnonzero(np.concatenate(([True], link[1:] != link[:-1])))
    segment = np.repeat(np.arange(starts.size), np.diff(np.append(starts, total)))
    nth = np.arange(1, total + 1) - starts[segment]  # crossings so far on the link

    num, den = adv.rho.numerator, adv.rho.denominator
    cap = den * adv.b
    # d before a crossing lies in [-num*last, den*(most - 1)] and the excess
    # d after it less the running minimum is at most den*most + num*last
    most, last = int(nth.max()), int(rnd.max())
    spread = den * most + num * (last + 1)
    if cap >= spread:
        return admissible
    if (starts.size + 1) * spread >= 2**63:
        nth, rnd, segment = (a.astype(object) for a in (nth, rnd, segment))
    before = den * (nth - 1) - num * rnd
    shift = segment * spread
    runmin = np.minimum(np.minimum.accumulate(before - shift) + shift, 0)
    bad = np.flatnonzero(before + (den - num) - runmin > cap)
    if not bad.size:
        return admissible
    # the first bad crossing j ends the witness in its round, and the first
    # minimum of d(s - 1) before it starts it; a link's first crossing has
    # d = -num * round <= 0, so a minimum of 0 lies at round 0
    j = int(bad[0])
    s = int(segment[j])
    lo = int(starts[s])
    hi = int(starts[s + 1]) if s + 1 < starts.size else total
    low = lo + int(np.argmin(before[lo : j + 1]))
    # the load takes the rest of round rnd[j] on the link
    end = lo + int(np.searchsorted(rnd[lo:hi], rnd[j], side="right"))
    start, length = int(rnd[low]), int(rnd[j] - rnd[low]) + 1
    return AdmissibilityReport(
        False, Violation(int(link[lo]), start, length, end - low, adv.rho * length + adv.b)
    )


# ---------------------------------------------------------------------------
# generators

# draws converted from random words at a time; bounds the transient arrays
COIN_BLOCK = 1 << 12


def _coin_mask(rng: random.Random, draws: int, intensity: float) -> bytearray:
    """One byte per draw, 1 where `rng.random()` would fall below intensity,
    for the next `draws` calls, leaving rng as those calls would.

    `random()` is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 for the next two
    32-bit words a, b of the generator, and `getrandbits(64 * n)` is its next
    2n words, the first in the lowest bits.  So one call per block yields
    the block's words, and numpy computes the same doubles exactly."""
    mask = bytearray(draws)
    view = np.frombuffer(mask, dtype=np.bool_)
    for lo in range(0, draws, COIN_BLOCK):
        n = min(COIN_BLOCK, draws - lo)
        words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
        value = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        view[lo : lo + n] = value < intensity
    return mask


def gen_leaky_bucket(
    g: NetworkGraph,
    routes,
    adv: AdversaryConfig,
    horizon: int,
    seed: int,
    intensity: float = 0.9,
) -> InjectionTrace:
    """Admissible-by-construction trace from per-link token buckets.

    Every link starts with b tokens and gains rho per round, capped at b;
    a route injects only when every link on it holds a full token, so no
    window can exceed rho*T + b on any link.  Each route attempts each
    round with probability `intensity`, which must lie in (0, 1]: routes
    draw in order within a round, one `random()` each, none at intensity 1.
    Deterministic for a given seed.

    Tokens are scaled by den: one token is den, a round adds num.  After the
    refill of round r, link e holds min(cap, num*(r + 1) - debit[e]), and an
    injection raises debit[e] to at least num*(r + 1) - cap, then by den.
    So a route's links all hold a token from the round
    max over its distinct links of ceil((den + debit[e]) / num) - 1 on.  A
    heap holds each route's next candidate round, keyed round * routes +
    route so that routes keep their order within a round; a popped
    candidate is checked again, since other routes' injections only raise
    debits.  The coins are drawn up front, in blocks, as one byte per
    route-round, so time grows with injections and failed draws, not with
    routes x horizon.
    """
    if not 0 < intensity <= 1:
        raise ParameterError(f"intensity {intensity} outside (0, 1]")
    routes = [tuple(map(int, rt)) for rt in routes]
    if not routes:
        raise ParameterError("need at least one route")
    if adv.b < 1:
        raise ParameterError("bucket generation needs burst allowance >= 1")
    for rt in routes:
        fault = _route_fault(rt, g.link_count, g.links)
        if fault:
            raise ParameterError(f"route {rt}: {fault}")
    num, den = adv.rho.numerator, adv.rho.denominator
    cap = adv.b * den
    width = len(routes)
    end = width * max(horizon + 1, 0)
    passes = None if intensity == 1.0 else _coin_mask(random.Random(seed), end, intensity)
    crossed = [tuple(set(rt)) for rt in routes]
    debit = [-cap] * g.link_count
    heap = list(range(width))  # sorted, so a heap
    sent_at, sent_on = array("q"), array("q")
    while heap[0] < end:
        key = heap[0]
        r, j = divmod(key, width)
        # ceil((den + d) / num) - 1 is (den - 1 + d) // num
        ready = max([(den - 1 + debit[e]) // num for e in crossed[j]])
        if ready > r:
            heapreplace(heap, ready * width + j)
            continue
        if passes is None or passes[key]:
            floor = num * (r + 1) - cap
            for e in crossed[j]:
                d = debit[e]
                debit[e] = (d if d > floor else floor) + den
            sent_at.append(r)
            sent_on.append(j)
        heapreplace(heap, key + width)
    table: dict[tuple[int, ...], int] = {}
    index = np.array([table.setdefault(rt, len(table)) for rt in routes], dtype=np.int64)
    route_of = index[np.frombuffer(sent_on, dtype=np.int64)]
    return InjectionTrace(sent_at, np.arange(len(sent_at)), route_of, tuple(table), horizon)


@dataclass(frozen=True)
class CliqueScenario:
    g: NetworkGraph
    trace: InjectionTrace
    chi: int
    secondary_period: int

    def predicted_backlog(self, rounds: int) -> int:
        """Exact lower bound on undelivered packets after `rounds` rounds,
        when rounds is a multiple of chi: total injected through round
        `rounds` minus the one-per-round delivery ceiling."""
        if rounds % self.chi != 0 or rounds <= 0:
            raise ParameterError("rounds must be a positive multiple of chi")
        if rounds > self.trace.horizon:
            raise ParameterError("prediction exceeds the trace horizon")
        per_link = (rounds // self.chi + 1) + (rounds // self.secondary_period + 1)
        return per_link * self.chi - rounds


def gen_clique_scenario(n: int, epsilon, horizon: int) -> CliqueScenario:
    """Overloaded clique: per-link injections every chi rounds plus extra
    ones every ceil(1/epsilon) rounds, both waves starting at round 0.

    chi = n^2 - n is the chromatic number of the clique's conflict graph
    (all links mutually conflict), and at most one link in the whole
    network can succeed per round, so backlog grows without bound at any
    schedule.  The trace is (1/chi + epsilon, 2)-admissible.
    """
    if n < 2:
        raise ParameterError("need at least two nodes")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ParameterError("epsilon must lie in (0, 1]")
    g = clique_graph(n)
    m = g.link_count
    chi = n * n - n
    secondary = math.ceil(1 / epsilon)
    return CliqueScenario(g, _periodic_trace(range(m), (chi, secondary), horizon), chi, secondary)


@dataclass(frozen=True)
class TreeFamilyScenario:
    """Depth-2 trees that all contain the same hub-to-leaf links.

    trees[0] is the balanced tree; trees[1 + (i-1)*(delta-1) + (j-1)] swaps
    the root with leaf (i, j).  shared_links are link indices valid, with
    identical meaning, in every tree; the trace injects only on those.
    """

    trees: tuple[NetworkGraph, ...]
    shared_links: tuple[int, ...]
    trace: InjectionTrace


def gen_tree_family(delta: int, rho, horizon: int) -> TreeFamilyScenario:
    """Family of depth-2 trees rooted at swapped positions, with a
    (rho, 1)-admissible single-link trace on the shared links.

    Nodes: root 0, hubs 1..delta, then leaves in hub-major order.  Every
    tree lists the shared hub-to-leaf edges first and in the same order,
    so link indices on them agree across the family.
    """
    if delta < 2:
        raise ParameterError("need hub degree at least 2")
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ParameterError("rho must lie in (0, 1]")
    root = 0
    hubs = list(range(1, delta + 1))
    leaf = lambda i, j: delta + (i - 1) * (delta - 1) + j  # i, j are 1-based
    node_count = 1 + delta + delta * (delta - 1)

    shared_edges = [
        (hubs[i - 1], leaf(i, j)) for i in range(1, delta + 1) for j in range(1, delta - 1 + 1)
    ]

    def build(extra):
        return from_undirected_edges(node_count, shared_edges + extra)

    trees = [build([(root, h) for h in hubs])]
    for i in range(1, delta + 1):
        for j in range(1, delta):
            top = leaf(i, j)
            extra = [(top, hubs[k - 1]) for k in range(1, delta + 1) if k != i]
            extra.append((hubs[i - 1], root))
            trees.append(build(extra))

    shared_links = tuple(2 * e for e in range(len(shared_edges)))
    trace = _periodic_trace(shared_links, (math.ceil(1 / rho),), horizon)
    return TreeFamilyScenario(tuple(trees), shared_links, trace)


def _periodic_trace(links, periods, horizon: int) -> InjectionTrace:
    """At each multiple r of each period in [0, horizon], one single-link
    packet per link, in order; ids count up by round, period, then link."""
    links = tuple(links)
    # a stable sort keeps the periods' order among waves of one round
    waves = np.sort(np.concatenate([np.arange(0, horizon + 1, p) for p in periods]), kind="stable")
    rounds = np.repeat(waves, len(links))
    route_of = np.tile(np.arange(len(links)), waves.size)
    return InjectionTrace(rounds, np.arange(rounds.size), route_of, tuple((e,) for e in links), horizon)


def random_routes(g: NetworkGraph, count: int, max_hops: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded random link paths without node repetition."""
    if g.link_count == 0:
        raise ParameterError("network has no links")
    if count < 1 or max_hops < 1:
        raise ParameterError("need count >= 1 and max_hops >= 1")
    rng = random.Random(seed)
    routes = []
    for _ in range(count):
        start = rng.randrange(g.link_count)
        route = [start]
        visited = {g.links[start][0], g.links[start][1]}
        while len(route) < max_hops:
            here = g.links[route[-1]][1]
            nxt = [i for i in g.out_links(here) if g.links[i][1] not in visited]
            if not nxt or rng.random() < 0.3:
                break
            step = rng.choice(nxt)
            route.append(step)
            visited.add(g.links[step][1])
        routes.append(tuple(route))
    return routes


# ---------------------------------------------------------------------------
# on-disk format: "# horizon <h>" then "inject <round> <id> <link> ..." lines


def write_trace(tr: InjectionTrace, path) -> None:
    routes = [" ".join(map(str, rt)) for rt in tr.routes]
    lines = [f"# horizon {tr.horizon}"]
    for r, i, j in zip(memoryview(tr.rounds), memoryview(tr.ids), memoryview(tr.route_of)):
        lines.append(f"inject {r} {i} {routes[j]}")
    Path(path).write_text("\n".join(lines) + "\n")


@reads_format
def read_trace(path) -> InjectionTrace:
    horizon = None
    rounds, ids, route_of, table = [], [], [], {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "horizon":
                if horizon is not None:
                    raise FormatError(f"line {ln}: repeated horizon header")
                horizon = parse_count(parts[1])
            continue
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] != "inject" or len(parts) < 4:
            raise FormatError(f"line {ln}: expected 'inject <round> <id> <links...>'")
        try:
            r, pid = int(parts[1]), int(parts[2])
            route = tuple(int(v) for v in parts[3:])
        except ValueError as exc:
            raise FormatError(f"line {ln}: non-integer field") from exc
        rounds.append(r)
        ids.append(pid)
        route_of.append(table.setdefault(route, len(table)))
    if horizon is None:
        horizon = max(rounds, default=0)
    return InjectionTrace(rounds, ids, route_of, tuple(table), horizon)
