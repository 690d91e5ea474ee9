"""Cyclic transmission schedules and their frequency guarantees.

A schedule activates a set of links each round, repeating with a fixed
period.  Its quality measure is (rho, T)-frequency: under full backlog
every link succeeds at least rho*T times in any window of T consecutive
rounds.  A proper conflict coloring with x classes gives (1/x, x); a
selector of strength eps covering k-1 conflicting links gives (eps/k, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .graphs import Coloring, NetworkGraph, conflict_in_degree, resolve_rows
from .selectors import SelectorMatrix, format_fraction, parse_count, parse_fraction, parse_header


@dataclass(frozen=True)
class TransmissionSchedule:
    """Round r activates active[r % period]; period is the number of rows.

    The constructor turns each row into a sorted tuple of distinct Python
    ints and refuses out-of-range links.  Builders in this package hand over
    rows already in that form and use `_from_canonical`, which skips that
    pass but still checks the frequency claim.
    """

    active: tuple[tuple[int, ...], ...]
    link_count: int
    claimed_frequency: tuple[Fraction, int] | None = None
    period: int = field(init=False)

    def __post_init__(self):
        rows = [tuple(map(int, row)) for row in self.active]
        active = tuple(r if len(r) < 2 else tuple(sorted(set(r))) for r in rows)
        object.__setattr__(self, "active", active)
        for row in active:
            # rows are sorted, so only their ends can leave the range
            if row and (row[0] < 0 or row[-1] >= self.link_count):
                bad = next(i for i in row if not 0 <= i < self.link_count)
                raise ParameterError(f"scheduled link {bad} out of range")
        self._finish()

    @classmethod
    def _from_canonical(cls, active, link_count: int, claimed_frequency=None) -> "TransmissionSchedule":
        """Trusted construction: `active` must be a tuple of sorted tuples of
        distinct Python ints in [0, link_count)."""
        sched = cls.__new__(cls)
        object.__setattr__(sched, "active", active)
        object.__setattr__(sched, "link_count", link_count)
        object.__setattr__(sched, "claimed_frequency", claimed_frequency)
        sched._finish()
        return sched

    def _finish(self):
        # the period, and the check and normal form of the claim
        object.__setattr__(self, "period", len(self.active))
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
        return TransmissionSchedule._from_canonical(
            self.active[shift:] + self.active[:shift],
            self.link_count,
            self.claimed_frequency,
        )


def schedule_from_coloring(coloring: Coloring) -> TransmissionSchedule:
    """Round r activates color class r mod x; each link succeeds once per x."""
    x = coloring.color_count
    return TransmissionSchedule._from_canonical(
        tuple(coloring.classes()),
        len(coloring.colors),
        (Fraction(1, x), x) if x else None,
    )


def schedule_from_selector(sel: SelectorMatrix, g: NetworkGraph) -> TransmissionSchedule:
    """Row r activates the links whose column carries a 1 (column i = link i).

    The selector must carry verified claims, and its k must cover one more
    than the conflict in-degree of g.
    """
    if sel.claimed_k is None or sel.claimed_eps is None:
        raise ParameterError("selector carries no verified (k, eps) claim")
    m = g.link_count
    if sel.n < m:
        raise ParameterError(f"selector has {sel.n} columns but the network has {m} links")
    need = conflict_in_degree(g) + 1
    if sel.claimed_k < need:
        raise ParameterError(f"selector k={sel.claimed_k} below conflict in-degree + 1 = {need}")
    used = sel.rows[:, :m]
    links = (np.flatnonzero(used) % m).tolist()  # row-major, so ascending within each row
    ends = np.cumsum(used.sum(axis=1, dtype=np.int64)).tolist()
    active = tuple(tuple(links[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return TransmissionSchedule._from_canonical(active, m, (sel.claimed_eps / sel.claimed_k, sel.t))


def activations(rows) -> tuple[np.ndarray, np.ndarray]:
    """The flat (round, link) activations of `rows`, round-major, for `resolve_rows`."""
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    row_of = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    return row_of, np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=row_of.size)


@dataclass(frozen=True)
class FrequencyReport:
    ok: bool
    rho: Fraction
    T: int
    rounds: int
    per_link_min: tuple[int, ...]
    per_link_max: tuple[int, ...]


def verify_frequent(schedule: TransmissionSchedule, g: NetworkGraph) -> FrequencyReport:
    """Resolve the period's rows under full backlog in one `resolve_rows`
    call and count per-link successes in every cyclic window of the claimed
    length.

    Successes repeat with the period P, so a window of T rounds holds
    T // P whole periods plus T % P rounds from its start, and its count
    depends only on the start modulo P.  Every one of the P cyclic starts
    is checked exactly, from a P x links success matrix built only when
    T % P != 0; ok means every link clears rho*T in every window.  The
    report's rounds is the replay length max(2*T, P + T - 1) that covers
    the same starts.  Exact rational comparison, no tolerance.
    """
    if schedule.claimed_frequency is None:
        raise ParameterError("schedule carries no frequency claim to verify")
    if schedule.link_count != g.link_count:
        raise ParameterError("schedule and network disagree on link count")
    rho, T = schedule.claimed_frequency
    m, P = g.link_count, schedule.period
    total = max(2 * T, P + T - 1)
    row_of, link_of = activations(schedule.active)
    won = resolve_rows(g, row_of, link_of, P)
    whole, rest = divmod(T, P) if P else (0, 0)
    per_period = np.bincount(link_of[won], minlength=m).tolist()
    if rest:
        # successes in rounds s .. s+rest-1 (mod P), one row per start s
        succ = np.zeros((P, m), dtype=bool)
        succ[row_of[won], link_of[won]] = True
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
        return TransmissionSchedule(active, links, claimed_frequency=claimed)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
