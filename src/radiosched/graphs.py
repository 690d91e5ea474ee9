"""Symmetric radio networks, link conflict graphs, and colorings.

A network is a directed graph whose edge set is closed under reversal.
Transmission is synchronous: in each round a node receives on an incoming
link only if that link's tail is its unique transmitting in-neighbor and
the receiver itself stays silent.  The conflict graph has one vertex per
directed link and a directed edge (u, v) whenever a transmission on link
u makes reception on link v impossible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, ParameterError, SizeError
from .selectors import parse_count


@dataclass(frozen=True)
class NetworkGraph:
    """Directed symmetric graph with indexed links.

    Links keep their construction order; every algorithm downstream refers
    to links by that index.  Treat instances as immutable.
    """

    nodes: tuple[int, ...]
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple((int(a), int(b)) for a, b in self.links))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ParameterError("duplicate node ids")
        if any(n < 0 for n in self.nodes):
            raise ParameterError("node ids must be non-negative")
        seen = set()
        for a, b in self.links:
            if a == b:
                raise ParameterError(f"self-loop at node {a}")
            if a not in node_set or b not in node_set:
                raise ParameterError(f"link ({a},{b}) uses undeclared node")
            if (a, b) in seen:
                raise ParameterError(f"duplicate link ({a},{b})")
            seen.add((a, b))
        for a, b in self.links:
            if (b, a) not in seen:
                raise ParameterError(f"link ({a},{b}) lacks its reverse; edge set must be symmetric")
        in_nbrs: dict[int, list[int]] = {n: [] for n in self.nodes}
        out_lks: dict[int, list[int]] = {n: [] for n in self.nodes}
        for i, (a, b) in enumerate(self.links):
            in_nbrs[b].append(a)
            out_lks[a].append(i)
        object.__setattr__(self, "_in_neighbors", {n: tuple(v) for n, v in in_nbrs.items()})
        object.__setattr__(self, "_out_links", {n: tuple(v) for n, v in out_lks.items()})

    @property
    def link_count(self) -> int:
        return len(self.links)

    def in_neighbors(self, node: int) -> tuple[int, ...]:
        return self._in_neighbors[node]

    def out_links(self, node: int) -> tuple[int, ...]:
        return self._out_links[node]

    @property
    def max_degree(self) -> int:
        """Largest in-degree (equal to out-degree by symmetry)."""
        if not self.nodes:
            return 0
        return max(len(self._in_neighbors[n]) for n in self.nodes)


def from_undirected_edges(node_count: int, edges) -> NetworkGraph:
    """Expand undirected edges to link pairs, keeping input order.

    Each edge (a, b) contributes links (a, b) then (b, a).
    """
    links = []
    for a, b in edges:
        links.append((a, b))
        links.append((b, a))
    return NetworkGraph(tuple(range(node_count)), tuple(links))


def path_graph(node_count: int) -> NetworkGraph:
    return from_undirected_edges(node_count, [(i, i + 1) for i in range(node_count - 1)])


def clique_graph(node_count: int) -> NetworkGraph:
    return from_undirected_edges(
        node_count, [(a, b) for a in range(node_count) for b in range(a + 1, node_count)]
    )


def random_network(node_count: int, edge_count: int, seed: int, max_degree: int | None = None) -> NetworkGraph:
    """Random symmetric network: `edge_count` undirected edges drawn without
    replacement, optionally capped at `max_degree` per node.

    Deterministic for a given seed.  Returns fewer edges only when the cap
    makes the target infeasible.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(node_count) for b in range(a + 1, node_count)]
    rng.shuffle(pairs)
    deg = Counter()
    chosen = []
    for a, b in pairs:
        if len(chosen) == edge_count:
            break
        if max_degree is not None and (deg[a] >= max_degree or deg[b] >= max_degree):
            continue
        chosen.append((a, b))
        deg[a] += 1
        deg[b] += 1
    return from_undirected_edges(node_count, chosen)


# ---------------------------------------------------------------------------
# conflict graphs


@dataclass(frozen=True)
class ConflictGraph:
    """Directed conflict relation between links.

    blocks[u] lists the links whose reception fails while link u transmits.
    """

    link_count: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(sorted(set(v))) for v in self.blocks))
        if len(self.blocks) != self.link_count:
            raise ParameterError("blocks adjacency must have one entry per link")
        for u, out in enumerate(self.blocks):
            # rows are sorted: negative indices come before u, indices past
            # the end after it, which fixes the order of the checks
            if out and out[0] < 0:
                raise ParameterError("blocked link index out of range")
            if u in out:
                raise ParameterError("a link does not block itself")
            if out and out[-1] >= self.link_count:
                raise ParameterError("blocked link index out of range")
        blocked_by: list[list[int]] = [[] for _ in range(self.link_count)]
        for u, out in enumerate(self.blocks):
            for v in out:
                blocked_by[v].append(u)
        into = tuple(tuple(v) for v in blocked_by)
        object.__setattr__(self, "_blocked_by", into)
        # a frozenset copied from a set gets a table sized to fit; one built
        # straight from the tuple keeps the sparser table of its growth
        object.__setattr__(
            self, "_undirected", tuple(frozenset(set(out + inn)) for out, inn in zip(self.blocks, into))
        )

    def blocked_by(self, link: int) -> tuple[int, ...]:
        return self._blocked_by[link]

    def conflict_neighbors(self, link: int) -> frozenset[int]:
        """Neighbors in the undirected closure of the blocking relation."""
        return self._undirected[link]

    @property
    def max_in_degree(self) -> int:
        if self.link_count == 0:
            return 0
        return max(len(v) for v in self._blocked_by)


def build_conflict_graph(g: NetworkGraph) -> ConflictGraph:
    """Case analysis of when one link's transmission kills another.

    Link (u', v') blocks link (u, v) when one of:
      1. u' == u and v' != v   (a node sends one message per round),
      2. u' == v               (a transmitting receiver cannot listen),
      3. u' != u and u' is an in-neighbor of v  (second transmitter in range).

    So link a = (ta, ha) blocks the out-links of ta, the in-links of ta and
    the in-links of every out-neighbor of ta, which takes O(m * delta^2).
    """
    in_links: dict[int, list[int]] = {n: [] for n in g.nodes}
    for i, (_, head) in enumerate(g.links):
        in_links[head].append(i)
    blocks = []
    for a, (ta, _) in enumerate(g.links):
        out = g.out_links(ta)
        near = set(out)
        near.update(in_links[ta])
        for o in out:
            near.update(in_links[g.links[o][1]])
        near.discard(a)
        blocks.append(tuple(near))
    return ConflictGraph(g.link_count, tuple(blocks))


@dataclass(frozen=True)
class DegreeBoundReport:
    delta_g: int
    delta_in_h: int
    bound: int | None
    holds: bool
    tight: bool


def degree_bound_check(g: NetworkGraph, h: ConflictGraph | None = None) -> DegreeBoundReport:
    """Check the conflict in-degree against delta^2 + delta - 1.

    The bound is undefined on an empty link set; that case reports
    bound=None and holds=True.
    """
    if h is None:
        h = build_conflict_graph(g)
    delta = g.max_degree
    din = h.max_in_degree
    if delta == 0:
        return DegreeBoundReport(0, din, None, True, False)
    bound = delta * delta + delta - 1
    return DegreeBoundReport(delta, din, bound, din <= bound, din == bound)


# ---------------------------------------------------------------------------
# round resolution

def successful_links(g: NetworkGraph, candidates) -> tuple[int, ...]:
    """Resolve one synchronous round.

    `candidates` are link indices that actually attempt transmission (already
    restricted to nonempty queues by the caller).  A node is transmitting iff
    it is the tail of at least one candidate.  Candidate (u, v) succeeds iff
    u is the tail of exactly one candidate, v is silent, and u is the only
    transmitting in-neighbor of v.
    """
    cand = sorted(set(candidates))
    if len(cand) < 2:
        # a lone tail sends once, its head is silent and hears no one else
        return tuple(cand)
    links = g.links
    tails = [links[i][0] for i in cand]
    busy = set(tails)
    shared = {u for u in busy if tails.count(u) > 1} if len(busy) < len(tails) else ()
    out = []
    for i, u in zip(cand, tails):
        v = links[i][1]
        if u in shared or v in busy:
            continue
        # u itself is an in-neighbor of v, so any other transmitting one
        # makes the intersection larger than {u}
        if len(busy.intersection(g.in_neighbors(v))) > 1:
            continue
        out.append(i)
    return tuple(out)


# ---------------------------------------------------------------------------
# coloring


@dataclass(frozen=True)
class Coloring:
    """Proper coloring of the undirected conflict closure; colors are 0-based."""

    colors: tuple[int, ...]
    color_count: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if any(c < 0 or c >= self.color_count for c in self.colors):
            raise ParameterError("color out of range")
        used = set(self.colors)
        if self.colors and self.color_count != max(used) + 1:
            raise ParameterError("color_count must equal the greatest color + 1")

    def classes(self) -> list[tuple[int, ...]]:
        by_color: list[list[int]] = [[] for _ in range(self.color_count)]
        for link, c in enumerate(self.colors):
            by_color[c].append(link)
        return [tuple(v) for v in by_color]


def is_proper(h: ConflictGraph, coloring: Coloring) -> bool:
    return all(
        coloring.colors[u] != coloring.colors[v]
        for u in range(h.link_count)
        for v in h.conflict_neighbors(u)
    )


def greedy_coloring(h: ConflictGraph) -> Coloring:
    """First-fit in link index order on the undirected conflict closure."""
    colors = [-1] * h.link_count
    for v in range(h.link_count):
        taken = {colors[u] for u in h.conflict_neighbors(v) if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    count = max(colors) + 1 if colors else 0
    return Coloring(tuple(colors), count)


def exact_chromatic(h: ConflictGraph, vertex_limit: int = 24) -> Coloring:
    """Branch-and-bound chromatic number of the undirected conflict closure.

    Worst case exponential; refuses instances above vertex_limit.
    """
    n = h.link_count
    if n > vertex_limit:
        raise SizeError(f"{n} links exceeds the exact-coloring limit of {vertex_limit}; use greedy_coloring")
    if n == 0:
        return Coloring((), 0)
    adj = [h.conflict_neighbors(v) for v in range(n)]

    # greedy clique on descending degree seeds the lower bound
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    lower = len(clique)

    best = greedy_coloring(h)
    best_count = best.color_count
    if best_count == lower:
        return best
    best_colors = list(best.colors)

    colors = [-1] * n

    def feasible(v: int, c: int) -> bool:
        return all(colors[u] != c for u in adj[v])

    def pick() -> int:
        # DSATUR: most distinctly-colored neighbors, degree as tie-break
        cand, key = -1, (-1, -1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = len({colors[u] for u in adj[v] if colors[u] >= 0})
            k = (sat, len(adj[v]))
            if k > key:
                cand, key = v, k
        return cand

    def descend(assigned: int, used: int):
        nonlocal best_count, best_colors
        if used >= best_count:
            return
        if assigned == n:
            best_count = used
            best_colors = colors.copy()
            return
        v = pick()
        for c in range(min(used + 1, best_count - 1)):
            if feasible(v, c):
                colors[v] = c
                descend(assigned + 1, max(used, c + 1))
                colors[v] = -1
                if best_count == lower:
                    return

    descend(0, 0)
    return Coloring(tuple(best_colors), best_count)


# ---------------------------------------------------------------------------
# on-disk format: "nodes <count>" then "edge <a> <b>" lines, '#' comments

def write_graph(g: NetworkGraph, path) -> None:
    if set(g.nodes) != set(range(len(g.nodes))):
        raise ParameterError("graph files require contiguous node ids starting at 0")
    undirected = []
    seen = set()
    for a, b in g.links:
        if (b, a) in seen:
            continue
        seen.add((a, b))
        undirected.append((a, b))
    lines = [f"nodes {len(g.nodes)}"]
    lines += [f"edge {a} {b}" for a, b in undirected]
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path) -> NetworkGraph:
    node_count = None
    edges = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes" and len(parts) == 2:
            if node_count is not None:
                raise FormatError(f"line {ln}: repeated nodes header")
            node_count = parse_count(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            if node_count is None:
                raise FormatError(f"line {ln}: edge before nodes header")
            edges.append((parse_count(parts[1]), parse_count(parts[2])))
        else:
            raise FormatError(f"line {ln}: expected 'nodes <count>' or 'edge <a> <b>'")
    if node_count is None:
        raise FormatError("missing 'nodes <count>' header")
    try:
        return from_undirected_edges(node_count, edges)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
