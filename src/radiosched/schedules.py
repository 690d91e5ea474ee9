"""Cyclic transmission schedules and their frequency guarantees.

A schedule activates a set of links each round, repeating with a fixed
period, and is held as its flat (round, link) activations, which the
radio rule `resolve_rows` reads with no per-row pass.  Its quality
measure is (rho, T)-frequency: under full backlog every link succeeds at
least rho*T times in any window of T consecutive rounds.  A proper
conflict coloring with x classes gives (1/x, x); a selector of strength
eps covering k-1 conflicting links gives (eps/k, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bounds import coloring_threshold, uss_threshold
from .errors import FormatError, ParameterError, reads_format
from .graphs import Coloring, NetworkGraph, conflict_in_degree, resolve_rows
from .selectors import SelectorMatrix, format_fraction, parse_count, parse_fraction, parse_header


@dataclass(frozen=True, eq=False)
class TransmissionSchedule:
    """Round r activates link link_of[j] for every j with round_of[j] equal
    to r % period.

    The constructor takes the activations in any order, refuses a round
    outside [0, period) and a link outside [0, link_count), and holds them
    as read-only int64 arrays sorted by (round, link) with no pair twice;
    int64 arrays already in strict (round, link) order are held as given,
    with no copy.
    """

    round_of: np.ndarray
    link_of: np.ndarray
    period: int
    link_count: int
    claimed_frequency: tuple[Fraction, int] | None = None

    def __post_init__(self):
        period, m = int(self.period), int(self.link_count)
        round_of = np.asarray(self.round_of, dtype=np.int64)
        link_of = np.asarray(self.link_of, dtype=np.int64)
        if period < 0 or m < 0 or round_of.ndim != 1 or round_of.shape != link_of.shape:
            raise ParameterError("a schedule needs period, link_count >= 0 and flat activations of one length")
        bad = (round_of < 0) | (round_of >= period)
        if bad.any():
            raise ParameterError(f"scheduled round {round_of[bad].min()} out of range")
        bad = (link_of < 0) | (link_of >= m)
        if bad.any():
            # the smallest bad link of the first round that holds one
            first = round_of == round_of[bad].min()
            raise ParameterError(f"scheduled link {link_of[bad & first].min()} out of range")
        # activations in strict (round, link) order, as schedule_from_selector
        # gives them, are held as given
        r0, r1 = round_of[:-1], round_of[1:]
        if not ((r1 > r0) | ((r1 == r0) & (link_of[1:] > link_of[:-1]))).all():
            order = np.lexsort((link_of, round_of))
            round_of, link_of = round_of[order], link_of[order]
            fresh = np.ones(round_of.size, dtype=bool)
            fresh[1:] = (round_of[1:] != round_of[:-1]) | (link_of[1:] != link_of[:-1])
            round_of, link_of = round_of[fresh], link_of[fresh]
        for name, arr in (("round_of", round_of), ("link_of", link_of)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "link_count", m)
        if self.claimed_frequency is not None:
            rho, T = self.claimed_frequency
            if T < 1 or not 0 < Fraction(rho) <= 1:
                raise ParameterError("claimed frequency needs 0 < rho <= 1 and T >= 1")
            object.__setattr__(self, "claimed_frequency", (Fraction(rho), int(T)))

    def rows(self, count: int) -> list[tuple[int, ...]]:
        """Rounds 0 .. count-1, count <= period, each as its sorted links."""
        if not 0 <= count <= self.period:
            raise ParameterError(f"row count {count} outside [0, {self.period}]")
        bounds = np.searchsorted(self.round_of, np.arange(count + 1)).tolist()
        links = self.link_of[: bounds[-1]].tolist()
        return [tuple(links[a:b]) for a, b in zip(bounds, bounds[1:])]

    def rotated(self, offset: int) -> "TransmissionSchedule":
        """The schedule whose round r is round r + offset of this one."""
        if self.period == 0:
            return self
        shifted = (self.round_of - offset % self.period) % self.period
        return TransmissionSchedule(shifted, self.link_of, self.period, self.link_count, self.claimed_frequency)


def schedule_from_rows(rows, link_count: int, claimed_frequency) -> TransmissionSchedule:
    """The schedule whose round r activates the links listed in rows[r], in
    any order and possibly more than once; the period is len(rows)."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    try:
        link_of = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lens.sum()))
    except OverflowError:
        # a link beyond int64 is out of range: name the first bad row's smallest
        bad = next(b for b in ([i for i in row if not 0 <= i < link_count] for row in rows) if b)
        raise ParameterError(f"scheduled link {min(bad)} out of range") from None
    round_of = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    return TransmissionSchedule(round_of, link_of, len(rows), link_count, claimed_frequency)


def schedule_from_coloring(coloring: Coloring) -> TransmissionSchedule:
    """Round r activates color class r mod x; each link succeeds once per x."""
    x, m = coloring.color_count, len(coloring.colors)
    return TransmissionSchedule(coloring.colors, np.arange(m), x, m, (coloring_threshold(x), x) if x else None)


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
    rho = uss_threshold(sel.claimed_k - 1, sel.claimed_eps)
    keep = sel.col_of < m
    return TransmissionSchedule(sel.row_of[keep], sel.col_of[keep], sel.t, m, (rho, sel.t))


class ServiceWindow(NamedTuple):
    link: int
    start: int
    count: int


@dataclass(frozen=True)
class FrequencyReport:
    ok: bool
    rho: Fraction
    T: int
    rounds: int
    per_link_min: tuple[int, ...]
    per_link_max: tuple[int, ...]
    # the fewest-success window, first in (link, start) order; None when ok
    witness: ServiceWindow | None


def verify_frequent(schedule: TransmissionSchedule, g: NetworkGraph) -> FrequencyReport:
    """Resolve the period's activations under full backlog in one
    `resolve_rows` call and count per-link successes in every cyclic window
    of the claimed length.

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
    row_of, link_of = schedule.round_of, schedule.link_of
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
    else:  # whole periods only: one start stands for every start
        stretch = np.zeros((1, m), dtype=np.int64)
    part_min, part_max = stretch.min(axis=0).tolist(), stretch.max(axis=0).tolist()
    per_min = tuple(whole * c + p for c, p in zip(per_period, part_min))
    per_max = tuple(whole * c + p for c, p in zip(per_period, part_max))
    ok = not per_min or min(per_min) >= rho * T
    witness = None
    if not ok:
        link = per_min.index(min(per_min))
        witness = ServiceWindow(link, int(stretch[:, link].argmin()), per_min[link])
    return FrequencyReport(ok, rho, T, total, per_min, per_max, witness)


# ---------------------------------------------------------------------------
# on-disk format: "schedule period=<t> links=<m> [rho=<p>/<q> T=<n>]",
# then one line of link indices per round (blank line = idle round)


def write_schedule(schedule: TransmissionSchedule, path) -> None:
    header = f"schedule period={schedule.period} links={schedule.link_count}"
    if schedule.claimed_frequency is not None:
        rho, T = schedule.claimed_frequency
        header += f" rho={format_fraction(rho)} T={T}"
    lines = [header] + [" ".join(str(i) for i in row) for row in schedule.rows(schedule.period)]
    Path(path).write_text("\n".join(lines) + "\n")


@reads_format
def read_schedule(path) -> TransmissionSchedule:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    fields = parse_header(text[0] if text else "", "schedule", ("period", "links"))
    period, links = parse_count(fields["period"]), parse_count(fields["links"])
    body = text[1:]
    while len(body) > period and not body[-1].strip():
        body.pop()
    if len(body) != period:
        raise FormatError(f"expected {period} round lines, found {len(body)}")
    try:
        rows = [[int(v) for v in line.split()] for line in body]
    except ValueError as exc:
        raise FormatError("round lines must hold integer link indices") from exc
    if ("rho" in fields) != ("T" in fields):
        raise FormatError("a frequency claim needs both rho= and T=")
    claimed = None
    if "rho" in fields:
        claimed = (parse_fraction(fields["rho"]), parse_count(fields["T"]))
    return schedule_from_rows(rows, links, claimed)
