"""Cyclic transmission schedules and their frequency guarantees.

A schedule activates a set of links each round, repeating with a fixed
period.  Its quality measure is (rho, T)-frequency: under full backlog
every link succeeds at least rho*T times in any window of T consecutive
rounds.  A proper conflict coloring with x classes gives (1/x, x); a
selector of strength eps covering k-1 conflicting links gives (eps/k, t).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .graphs import Coloring, ConflictGraph, NetworkGraph, build_conflict_graph, successful_links
from .selectors import SelectorMatrix, format_fraction, parse_count, parse_fraction, parse_header


@dataclass(frozen=True)
class TransmissionSchedule:
    period: int
    active: tuple[tuple[int, ...], ...]
    link_count: int
    provenance: str = "manual"
    claimed_frequency: tuple[Fraction, int] | None = None

    def __post_init__(self):
        rows = [tuple(map(int, row)) for row in self.active]
        active = tuple(r if len(r) < 2 else tuple(sorted(set(r))) for r in rows)
        object.__setattr__(self, "active", active)
        if self.period != len(active):
            raise ParameterError("period must equal the number of active sets")
        for row in active:
            # rows are sorted, so only their ends can leave the range
            if row and (row[0] < 0 or row[-1] >= self.link_count):
                bad = next(i for i in row if not 0 <= i < self.link_count)
                raise ParameterError(f"scheduled link {bad} out of range")
        if self.claimed_frequency is not None:
            rho, T = self.claimed_frequency
            if T < 1 or not 0 < Fraction(rho) <= 1:
                raise ParameterError("claimed frequency needs 0 < rho <= 1 and T >= 1")
            object.__setattr__(self, "claimed_frequency", (Fraction(rho), int(T)))

    def active_at(self, round_index: int) -> tuple[int, ...]:
        if self.period == 0:
            return ()
        return self.active[round_index % self.period]

    def rotated(self, offset: int) -> "TransmissionSchedule":
        if self.period == 0:
            return self
        shift = offset % self.period
        return TransmissionSchedule(
            self.period,
            self.active[shift:] + self.active[:shift],
            self.link_count,
            self.provenance,
            self.claimed_frequency,
        )


def schedule_from_coloring(coloring: Coloring) -> TransmissionSchedule:
    """Round r activates color class r mod x; each link succeeds once per x."""
    x = coloring.color_count
    return TransmissionSchedule(
        period=x,
        active=tuple(coloring.classes()),
        link_count=len(coloring.colors),
        provenance="coloring",
        claimed_frequency=(Fraction(1, x), x) if x else None,
    )


def schedule_from_selector(
    sel: SelectorMatrix, g: NetworkGraph, delta_bound: int | None = None
) -> TransmissionSchedule:
    """Row r activates the links whose column carries a 1 (column i = link i).

    The selector must carry verified claims and its k must cover one more
    than the conflict in-degree.  A caller-supplied delta_bound is trusted
    for that check; understating the real in-degree only draws a warning,
    since the schedule still runs (with a claim that may not hold).
    """
    if sel.claimed_k is None or sel.claimed_eps is None:
        raise ParameterError("selector carries no verified (k, eps) claim")
    m = g.link_count
    if sel.n < m:
        raise ParameterError(f"selector has {sel.n} columns but the network has {m} links")
    actual = build_conflict_graph(g).max_in_degree
    if delta_bound is None:
        if sel.claimed_k < actual + 1:
            raise ParameterError(
                f"selector k={sel.claimed_k} below conflict in-degree + 1 = {actual + 1}"
            )
    else:
        if sel.claimed_k < delta_bound + 1:
            raise ParameterError(
                f"selector k={sel.claimed_k} below supplied bound + 1 = {delta_bound + 1}"
            )
        if delta_bound < actual:
            warnings.warn(
                f"supplied conflict in-degree bound {delta_bound} understates the actual {actual}; "
                "the frequency claim may not hold",
                stacklevel=2,
            )
    used = sel.rows[:, :m]
    links = (np.flatnonzero(used) % m).tolist()  # row-major, so ascending within each row
    ends = np.cumsum(used.sum(axis=1, dtype=np.int64)).tolist()
    active = tuple(tuple(links[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return TransmissionSchedule(
        period=sel.t,
        active=active,
        link_count=m,
        provenance="selector",
        claimed_frequency=(sel.claimed_eps / sel.claimed_k, sel.t),
    )


def extend_to_maximal_independent(coloring: Coloring, h: ConflictGraph) -> TransmissionSchedule:
    """Pad each color class to a maximal independent set of the conflict
    closure, scanning links in index order.  Classes may overlap afterwards;
    the per-class frequency claim is unchanged."""
    if len(coloring.colors) != h.link_count:
        raise ParameterError("coloring and conflict graph disagree on link count")
    classes = []
    for base in coloring.classes():
        chosen = list(base)
        members = set(base)
        for v in range(h.link_count):
            if v in members:
                continue
            if not (h.conflict_neighbors(v) & members):
                chosen.append(v)
                members.add(v)
        classes.append(tuple(sorted(members)))
    x = coloring.color_count
    return TransmissionSchedule(
        period=x,
        active=tuple(classes),
        link_count=h.link_count,
        provenance="coloring",
        claimed_frequency=(Fraction(1, x), x) if x else None,
    )


@dataclass(frozen=True)
class FrequencyReport:
    ok: bool
    rho: Fraction
    T: int
    rounds: int
    per_link_min: tuple[int, ...]
    per_link_max: tuple[int, ...]


def verify_frequent(
    schedule: TransmissionSchedule, g: NetworkGraph, windows: int = 2
) -> FrequencyReport:
    """Resolve each round of the period once under full backlog and count
    per-link successes in every cyclic window of the claimed length.

    Successes repeat with the period P, so a window of T rounds holds
    T // P whole periods plus T % P rounds from its start, and its count
    depends only on the start modulo P.  Every one of the P cyclic starts
    is checked exactly; ok means every link clears rho*T in every window.
    The report's rounds is the replay length max(windows*T, P + T - 1)
    that covers the same starts.  Exact rational comparison, no tolerance.
    """
    if schedule.claimed_frequency is None:
        raise ParameterError("schedule carries no frequency claim to verify")
    if windows < 1:
        raise ParameterError("need at least one window")
    if schedule.link_count != g.link_count:
        raise ParameterError("schedule and network disagree on link count")
    rho, T = schedule.claimed_frequency
    m, P = g.link_count, schedule.period
    total = max(windows * T, P + T - 1)
    won_rounds, won_links = [], []
    for r, candidates in enumerate(schedule.active):
        won = successful_links(g, candidates)
        won_rounds += [r] * len(won)
        won_links += won
    succ = np.zeros((P, m), dtype=bool)
    succ[won_rounds, won_links] = True
    whole, rest = divmod(T, P) if P else (0, 0)
    per_period = succ.sum(axis=0, dtype=np.int64).tolist()
    if rest:
        # successes in rounds s .. s+rest-1 (mod P), one row per start s
        cum = np.zeros((P + rest, m), dtype=np.int64)
        np.cumsum(np.concatenate((succ, succ[: rest - 1])), axis=0, out=cum[1:])
        stretch = cum[rest:] - cum[:P]
        part_min, part_max = stretch.min(axis=0).tolist(), stretch.max(axis=0).tolist()
    else:
        part_min = part_max = [0] * m
    per_min = tuple(whole * c + p for c, p in zip(per_period, part_min))
    per_max = tuple(whole * c + p for c, p in zip(per_period, part_max))
    need = rho * T
    return FrequencyReport(all(v >= need for v in per_min), rho, T, total, per_min, per_max)


# ---------------------------------------------------------------------------
# on-disk format: "schedule period=<t> links=<m> [rho=<p>/<q> T=<n>]",
# then one line of link indices per round (blank line = idle round)


def write_schedule(schedule: TransmissionSchedule, path) -> None:
    header = f"schedule period={schedule.period} links={schedule.link_count}"
    if schedule.claimed_frequency is not None:
        rho, T = schedule.claimed_frequency
        header += f" rho={format_fraction(rho)} T={T}"
    lines = [header] + [" ".join(str(i) for i in row) for row in schedule.active]
    Path(path).write_text("\n".join(lines) + "\n")


def read_schedule(path) -> TransmissionSchedule:
    text = Path(path).read_text().splitlines()
    fields = parse_header(text[0] if text else "", "schedule", ("period", "links"))
    period, links = parse_count(fields["period"]), parse_count(fields["links"])
    body = text[1:]
    while len(body) > period and not body[-1].strip():
        body.pop()
    if len(body) != period:
        raise FormatError(f"expected {period} round lines, found {len(body)}")
    try:
        active = tuple(tuple(int(v) for v in line.split()) for line in body)
    except ValueError as exc:
        raise FormatError("round lines must hold integer link indices") from exc
    if ("rho" in fields) != ("T" in fields):
        raise FormatError("a frequency claim needs both rho= and T=")
    claimed = None
    if "rho" in fields:
        claimed = (parse_fraction(fields["rho"]), parse_count(fields["T"]))
    try:
        return TransmissionSchedule(period, active, links, claimed_frequency=claimed)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
