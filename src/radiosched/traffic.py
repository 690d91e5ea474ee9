"""Adversarial packet injection: traces, admissibility, and scenario
generators.

A (rho, b)-adversary may inject, into any single link and any window of T
consecutive rounds, at most rho*T + b packets whose routes traverse that
link.  Traversal is charged at injection time.  All rate arithmetic is
exact rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import FormatError, ParameterError
from .graphs import NetworkGraph, clique_graph, from_undirected_edges
from .selectors import parse_count


@dataclass(slots=True)
class Packet:
    """One packet with a fixed route of link indices.  Slotted: the
    generators build one per injection, and a packet holds no `__dict__`."""

    id: int
    injection_round: int
    route: tuple[int, ...]

    def __post_init__(self):
        self.route = tuple(map(int, self.route))
        if not self.route:
            raise ParameterError(f"packet {self.id}: empty route")
        if min(self.route) < 0:
            raise ParameterError(f"packet {self.id}: negative link {min(self.route)}")
        if self.injection_round < 0:
            raise ParameterError(f"packet {self.id}: negative injection round")


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


@dataclass(frozen=True)
class InjectionTrace:
    """Injections as (round, packet) pairs, sorted by round, with the last
    round covered recorded as the horizon, which is not negative."""

    injections: tuple[tuple[int, Packet], ...]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "injections", tuple(self.injections))
        if self.horizon < 0:
            raise ParameterError(f"horizon {self.horizon} is negative")
        last = -1
        seen_ids = set()
        for r, pkt in self.injections:
            if r != pkt.injection_round:
                raise ParameterError(f"packet {pkt.id}: entry round {r} != injection_round")
            if r < last:
                raise ParameterError("injections must be sorted by round")
            last = r
            if pkt.id in seen_ids:
                raise ParameterError(f"duplicate packet id {pkt.id}")
            seen_ids.add(pkt.id)
        if last > self.horizon:
            raise ParameterError("horizon precedes the last injection")

    def __len__(self) -> int:
        return len(self.injections)


def _route_fault(route, link_count: int, links=None) -> str | None:
    """Why route is not a path of the network: a link index outside
    0..link_count-1 or, when the links' (tail, head) pairs are given, two
    consecutive links not chained head to tail.  None for a valid route."""
    for i in route:
        if not 0 <= i < link_count:
            return f"link {i} out of range"
    if links is not None:
        for a, b in zip(route, route[1:]):
            if links[a][1] != links[b][0]:
                return f"links {a} and {b} do not share an endpoint"
    return None


def check_routes(tr: InjectionTrace, g: NetworkGraph) -> None:
    """Routes must be link paths of g: valid indices, consecutive links
    chained head to tail."""
    checked = set()
    for _, pkt in tr.injections:
        if pkt.route not in checked:
            fault = _route_fault(pkt.route, g.link_count, g.links)
            if fault:
                raise ParameterError(f"packet {pkt.id}: {fault}")
            checked.add(pkt.route)


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

    Exact in Python ints: a window holding load L over T rounds violates iff
    den*L - num*T > den*b.  With d(t) = den*load(0..t) - num*(t + 1) and
    d(-1) = 0, the window s..t violates iff d(t) - d(s - 1) > den*b.  d rises
    only at a link's injection rounds and falls strictly between them, so
    the first violating end, and the earliest start that minimises
    d(s - 1) before it, are both injection rounds (or the start 0).  Each
    link's injection rounds are walked once, lowest link first: memory and
    time grow with link-events, not links x horizon.  A link at or past
    link_count (inferred from the routes when None) is a ParameterError.
    """
    if link_count is None:
        link_count = 1 + max((max(p.route) for _, p in tr.injections), default=0)
    # per link, {round: load} in round order, since the trace is sorted
    loads: dict[int, dict[int, int]] = {}
    checked = set()
    for r, pkt in tr.injections:
        if pkt.route not in checked:
            fault = _route_fault(pkt.route, link_count)
            if fault:
                raise ParameterError(f"packet {pkt.id}: {fault}")
            checked.add(pkt.route)
        for e in set(pkt.route):
            at = loads.get(e)
            if at is None:
                at = loads[e] = {}
            at[r] = at.get(r, 0) + 1
    num, den = adv.rho.numerator, adv.rho.denominator
    cap = den * adv.b
    for link in sorted(loads):
        # low: the first minimum of d(s - 1) over the starts s seen so far,
        # at start low_at, where low_count packets precede it on the link
        low = low_at = low_count = count = 0
        for r, load in loads[link].items():
            pre = den * count - num * r
            if pre < low:
                low, low_at, low_count = pre, r, count
            count += load
            if den * count - num * (r + 1) - low > cap:
                length = r - low_at + 1
                return AdmissibilityReport(
                    False, Violation(link, low_at, length, count - low_count, adv.rho * length + adv.b)
                )
    return AdmissibilityReport(True, None)


# ---------------------------------------------------------------------------
# generators


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
    round with probability `intensity`, which must lie in (0, 1].
    Deterministic for a given seed.
    """
    if not 0 < intensity <= 1:
        raise ParameterError(f"intensity {intensity} outside (0, 1]")
    routes = [tuple(rt) for rt in routes]
    if not routes:
        raise ParameterError("need at least one route")
    if adv.b < 1:
        raise ParameterError("bucket generation needs burst allowance >= 1")
    for rt in routes:
        fault = _route_fault(rt, g.link_count, g.links)
        if fault:
            raise ParameterError(f"route {rt}: {fault}")
    rng = random.Random(seed)
    # Tokens are scaled by den: one token is den, a round adds num.  After
    # the refill of round r, link e holds min(cap, num*(r + 1) - debit[e]).
    # A bucket is only looked at when a route using it draws; one found
    # over the cap has its debit raised so that it holds exactly cap.
    # Capping is monotone, so this equals refilling every bucket every round.
    num, den = adv.rho.numerator, adv.rho.denominator
    cap = adv.b * den
    debit = {e: -cap for rt in routes for e in rt}
    injections = []
    next_id = 0
    for r in range(horizon + 1):
        credit = num * (r + 1)
        for rt in routes:
            if intensity < 1.0 and rng.random() >= intensity:
                continue
            for e in rt:
                t = credit - debit[e]
                if t > cap:
                    debit[e] = credit - cap
                elif t < den:
                    break
            else:
                for e in set(rt):
                    debit[e] += den
                injections.append((r, Packet(next_id, r, rt)))
                next_id += 1
    return InjectionTrace(tuple(injections), horizon)


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
        if rounds % self.chi != 0 or rounds == 0:
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
    waves = ((r, e) for r in range(horizon + 1) for p in periods if r % p == 0 for e in links)
    return InjectionTrace(tuple((r, Packet(i, r, (e,))) for i, (r, e) in enumerate(waves)), horizon)


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
    lines = [f"# horizon {tr.horizon}"]
    for r, pkt in tr.injections:
        lines.append(f"inject {r} {pkt.id} " + " ".join(str(i) for i in pkt.route))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> InjectionTrace:
    injections = []
    horizon = None
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "horizon":
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
        try:
            injections.append((r, Packet(pid, r, route)))
        except ParameterError as exc:
            raise FormatError(f"line {ln}: {exc}") from exc
    if horizon is None:
        horizon = max((r for r, _ in injections), default=0)
    try:
        return InjectionTrace(tuple(injections), horizon)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
