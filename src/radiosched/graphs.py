"""Symmetric radio networks, link conflict graphs, and colorings.

A network is a directed graph whose edge set is closed under reversal.
Transmission is synchronous: in each round a node receives on an incoming
link only if that link's tail is its unique transmitting in-neighbor and
the receiver itself stays silent.  The conflict graph has one vertex per
directed link and a directed edge (u, v) whenever a transmission on link
u makes reception on link v impossible; `build_conflict_graph` is the one
producer of that graph, as a record of its directed rows.  A graph file
lists each link with its reverse as one edge, in link order.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, SizeError, reads_format
from .selectors import parse_count


@dataclass(frozen=True)
class NetworkGraph:
    """Directed symmetric graph on nodes 0 .. node_count-1 with indexed links.

    Links keep their construction order; every algorithm downstream refers
    to links by that index, and to node n by the index n.  Treat instances
    as immutable.
    """

    node_count: int
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = index(self.node_count)
        if n < 0:
            raise ParameterError(f"node count {n} is negative")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "links", tuple((int(a), int(b)) for a, b in self.links))
        seen = set()
        for a, b in self.links:
            if a == b:
                raise ParameterError(f"self-loop at node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ParameterError(f"link ({a},{b}) uses undeclared node")
            if (a, b) in seen:
                raise ParameterError(f"duplicate link ({a},{b})")
            seen.add((a, b))
        for a, b in self.links:
            if (b, a) not in seen:
                raise ParameterError(f"link ({a},{b}) lacks its reverse; edge set must be symmetric")
        in_nbrs: list[list[int]] = [[] for _ in range(n)]
        out_lks: list[list[int]] = [[] for _ in range(n)]
        for i, (a, b) in enumerate(self.links):
            in_nbrs[b].append(a)
            out_lks[a].append(i)
        object.__setattr__(self, "_in_neighbors", tuple(map(tuple, in_nbrs)))
        object.__setattr__(self, "_out_links", tuple(map(tuple, out_lks)))

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
        return max(map(len, self._in_neighbors), default=0)

    @cached_property
    def _dense_ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Link tails, link heads and an in-neighbor table padded with node_count."""
        n = self.node_count
        tail, head = np.array(self.links, dtype=np.intp).reshape(-1, 2).T
        # each link puts its tail in the next free slot of its head's row
        order = np.argsort(head, kind="stable")
        deg = np.bincount(head, minlength=n)
        nbrs = np.full((n, deg.max(initial=0)), n, dtype=np.intp)
        nbrs[head[order], np.arange(order.size) - (np.cumsum(deg) - deg)[head[order]]] = tail[order]
        return tail, head, nbrs


def from_undirected_edges(node_count: int, edges) -> NetworkGraph:
    """Expand undirected edges to link pairs, keeping input order.

    Each edge (a, b) contributes links (a, b) then (b, a).  A negative
    node count is refused.
    """
    links = []
    for a, b in edges:
        links.append((a, b))
        links.append((b, a))
    return NetworkGraph(node_count, tuple(links))


def path_graph(node_count: int) -> NetworkGraph:
    return from_undirected_edges(node_count, [(i, i + 1) for i in range(node_count - 1)])


def clique_graph(node_count: int) -> NetworkGraph:
    return from_undirected_edges(
        node_count, [(a, b) for a in range(node_count) for b in range(a + 1, node_count)]
    )


def random_network(node_count: int, edge_count: int, seed: int, max_degree: int | None = None) -> NetworkGraph:
    """Random symmetric network: `edge_count` undirected edges drawn without
    replacement, optionally capped at `max_degree` per node.

    Deterministic for a given seed.  Returns fewer edges only when
    `edge_count` exceeds the C(node_count, 2) pairs, which then all appear
    unless capped, or when the cap makes the target infeasible.  A negative
    `edge_count` is refused.
    """
    if edge_count < 0:
        raise ParameterError(f"edge count {edge_count} is negative")
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

    blocks[u] lists, sorted and without repeats, the links whose reception
    fails while link u transmits; there is one row per link, and
    `max_in_degree` is the largest number of rows holding one link.
    `build_conflict_graph` is its one producer.  The graph holds only these
    directed rows: `greedy_coloring` and `is_proper` read them as they are,
    and `exact_chromatic` builds the undirected closure it needs for itself.
    """

    blocks: tuple[tuple[int, ...], ...]
    max_in_degree: int

    @property
    def link_count(self) -> int:
        return len(self.blocks)


def build_conflict_graph(g: NetworkGraph) -> ConflictGraph:
    """Case analysis of when one link's transmission kills another.

    Link (u', v') blocks link (u, v) when one of:
      1. u' == u and v' != v   (a node sends one message per round),
      2. u' == v               (a transmitting receiver cannot listen),
      3. u' != u and u' is an in-neighbor of v  (second transmitter in range).

    So link a = (ta, ha) blocks the out-links of ta, the in-links of ta and
    the in-links of every out-neighbor of ta.  That set depends only on ta,
    so it is built and sorted once per node, and each out-link of the node
    takes it with its own index removed: set work grows with
    nodes * delta^2, plus one row copy per link.  The in-degree comes from
    `conflict_in_degree`, without a pass over the rows.
    """
    links = g.links
    in_links: list[list[int]] = [[] for _ in range(g.node_count)]
    for i, (_, head) in enumerate(links):
        in_links[head].append(i)
    blocks: list = [()] * len(links)
    for n in range(g.node_count):
        out = g.out_links(n)
        if not out:
            continue
        near = set(out)
        near.update(in_links[n])
        for o in out:
            near.update(in_links[links[o][1]])
        row = tuple(sorted(near))
        for a in out:
            i = bisect_left(row, a)
            blocks[a] = row[:i] + row[i + 1 :]
    return ConflictGraph(tuple(blocks), conflict_in_degree(g))


def conflict_in_degree(g: NetworkGraph) -> int:
    """Largest in-degree of the conflict graph of g, in closed form.

    Link (x, y) lies in the blocking set of y and of each in-neighbor n of
    y (see `build_conflict_graph`), and is blocked by every out-link of
    those nodes but itself, so its in-degree is deg(y) + sum of deg(n) - 1
    and depends only on y.
    """
    deg = [len(g.in_neighbors(n)) for n in range(g.node_count)]
    return max(
        (d - 1 + sum(map(deg.__getitem__, g.in_neighbors(y))) for y, d in enumerate(deg) if d),
        default=0,
    )


@dataclass(frozen=True)
class DegreeBoundReport:
    delta_g: int
    delta_in_h: int
    bound: int | None
    holds: bool
    tight: bool


def degree_bound_check(g: NetworkGraph) -> DegreeBoundReport:
    """Check the conflict in-degree against delta^2 + delta - 1.

    The bound is undefined on an empty link set; that case reports
    bound=None and holds=True.
    """
    delta = g.max_degree
    din = conflict_in_degree(g)
    if delta == 0:
        return DegreeBoundReport(0, din, None, True, False)
    bound = delta * delta + delta - 1
    return DegreeBoundReport(delta, din, bound, din <= bound, din == bound)


# ---------------------------------------------------------------------------
# round resolution

def resolve_rows(g: NetworkGraph, row_of, link_of, nrows: int) -> np.ndarray:
    """The package's one radio rule, over many rounds at once.  Activation j
    puts link `link_of[j]` = (u, v) in round `row_of[j]` of [0, nrows), no
    pair twice, and its entry in the returned bool array says whether it
    wins when exactly its round's links transmit: u tails no other of them,
    v is silent and no in-neighbor of v but u transmits.  Transmitters are
    keyed round * (node_count + 1) + node and found by binary search, one
    pass per in-neighbor column, so memory grows with the activations and
    the network, never with rounds x nodes."""
    tail, head, nbrs = g._dense_ends
    stride = g.node_count + 1  # the pad value node_count in `nbrs` never transmits
    if nrows * stride > np.iinfo(np.int64).max:
        raise ParameterError(f"{nrows} rounds x {stride} nodes overflow the transmitter keys")
    row_of = np.asarray(row_of, dtype=np.int64)
    won = np.ones(row_of.size, dtype=bool)
    # a round's lone link always wins; only shared rounds are resolved
    shared = np.flatnonzero(np.bincount(row_of)[row_of] > 1)
    base = row_of[shared] * stride
    link_of = np.asarray(link_of, dtype=np.intp)[shared]
    v, sent = head[link_of], base + tail[link_of]
    keys, counts = np.unique(sent, return_counts=True)
    keys = np.append(keys, nrows * stride)  # past every key, so a search stays in range

    def busy(node):  # whether the node transmits in the activation's round
        at = base + node
        return keys[np.searchsorted(keys, at)] == at

    sends_once = counts[np.searchsorted(keys, sent)] == 1
    # the tail is one in-neighbor of the head, so it must be the only busy one
    alone = sum(busy(col[v]) for col in nbrs.T) == 1
    won[shared] = sends_once & ~busy(v) & alone
    return won


# ---------------------------------------------------------------------------
# coloring


@dataclass(frozen=True)
class Coloring:
    """Proper coloring of the undirected conflict closure; colors are 0-based."""

    colors: tuple[int, ...]
    color_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if any(c < 0 for c in self.colors):
            raise ParameterError("color out of range")
        object.__setattr__(self, "color_count", max(self.colors, default=-1) + 1)


def is_proper(h: ConflictGraph, coloring: Coloring) -> bool:
    # each pair of the closure lies in at least one of the two directed rows
    colors = coloring.colors
    return all(colors[u] != colors[v] for u, row in enumerate(h.blocks) for v in row)


def greedy_coloring(h: ConflictGraph) -> Coloring:
    """First-fit in link index order on the undirected conflict closure.

    Read straight from the directed rows, with one bitmask of forbidden
    colors per link: link v adds the colors of the lower-indexed links in
    its own row, takes the lowest clear bit, and sets that bit in the
    higher-indexed links of its row.  Every lower-indexed closure neighbor
    of v reaches its mask one way or the other, so the closure is never
    built: the work is one pass over the rows, on masks as wide as the
    color count.
    """
    forbidden = [0] * h.link_count
    bits: list[int] = []
    for v, row in enumerate(h.blocks):
        i = bisect_left(row, v)
        f = forbidden[v]
        for u in row[:i]:
            f |= bits[u]
        bit = ~f & (f + 1)
        bits.append(bit)
        for u in row[i:]:
            forbidden[u] |= bit
    return Coloring(tuple(b.bit_length() - 1 for b in bits))


EXACT_VERTEX_LIMIT = 24


def exact_chromatic(h: ConflictGraph) -> Coloring:
    """Branch-and-bound chromatic number of the undirected conflict closure.

    The closure is built here from the directed rows: each link's row plus
    the links whose rows hold it.  Worst case exponential; refuses more
    than EXACT_VERTEX_LIMIT links.
    """
    n = h.link_count
    if n > EXACT_VERTEX_LIMIT:
        raise SizeError(
            f"{n} links exceeds the exact-coloring limit of {EXACT_VERTEX_LIMIT}; use greedy_coloring"
        )
    if n == 0:
        return Coloring(())
    adj = [set(row) for row in h.blocks]
    for u, row in enumerate(h.blocks):
        for v in row:
            adj[v].add(u)

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
    return Coloring(tuple(best_colors))


# ---------------------------------------------------------------------------
# on-disk format: "nodes <count>" then "edge <a> <b>" lines, '#' comments

def write_graph(g: NetworkGraph, path) -> None:
    """Write g's even-indexed links as its edges.  `read_graph` expands each
    edge to the link and its reverse, so g is refused unless every
    odd-indexed link reverses the one before it: that is the link order the
    file reads back as, and schedules and traces name links by index."""
    edges = g.links[0::2]
    if g.links[1::2] != tuple((b, a) for a, b in edges):
        raise ParameterError("graph files require each link to be followed by its reverse")
    lines = [f"nodes {g.node_count}"]
    lines += [f"edge {a} {b}" for a, b in edges]
    Path(path).write_text("\n".join(lines) + "\n")


@reads_format
def read_graph(path) -> NetworkGraph:
    node_count = None
    edges = []
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
    return from_undirected_edges(node_count, edges)
