"""Closed-form stability thresholds and latency bounds.

All results are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError


def uss_threshold(delta: int, eps: Fraction) -> Fraction:
    """Injection-rate threshold eps / (delta + 1) guaranteed by a selector
    schedule of strength eps built with k = delta + 1, for a conflict graph
    with max in-degree at most `delta`.  With a larger k the guarantee is
    eps / k, which is this form at delta = k - 1."""
    if delta < 0:
        raise ParameterError("conflict degree must be non-negative")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError("eps must lie in (0, 1]")
    return eps / (delta + 1)


def coloring_threshold(chi: int) -> Fraction:
    """Injection-rate threshold of a coloring schedule with chi colors.
    Tight: rate 1/chi + eps admits an unbounded-backlog trace."""
    if chi < 1:
        raise ParameterError("need at least one color")
    return Fraction(1, chi)


class LatencyBound(NamedTuple):
    active_classes: Fraction
    delivery_windows: Fraction
    rounds: Fraction


def latency_bound(rho, rho_prime, window: int, b: int, nesting: int) -> LatencyBound:
    """End-to-end latency under a schedule that serves every link at rate
    rho' per window, against a (rho, b) adversary whose routes nest at most
    `nesting` deep: the bound on simultaneously backlogged age classes, the
    windows needed to flush one class when at most that many are ever
    backlogged, and the resulting round count window * windows."""
    rho, rho_prime = Fraction(rho), Fraction(rho_prime)
    if not 0 < rho < rho_prime <= 1:
        raise ParameterError("need 0 < rho < rho' <= 1")
    if window < 1:
        raise ParameterError("window length must be positive")
    if b < 1:
        raise ParameterError("burst allowance must be at least 1")
    if nesting < 1:
        raise ParameterError("nesting depth must be at least 1")
    rl = (1 - rho / rho_prime) ** nesting
    classes = (b - 1) * (1 - rl) / (rl * rho * window) + 1 / rl
    windows = (1 - rl) * (b - 1) / (rho * window) + classes * (1 - rl)
    return LatencyBound(classes, windows, window * windows)
