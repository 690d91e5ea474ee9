"""Closed-form stability thresholds and latency bounds.

All results are exact Fractions.  Irrational constants (e, logarithms)
enter as the nearest binary float, converted once, so comparisons stay
reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError


def uss_threshold(delta: int, eps: Fraction) -> Fraction:
    """Injection-rate threshold eps / (delta + 1) guaranteed by a selector
    schedule of strength eps, for a conflict graph with max in-degree
    `delta`."""
    d1 = _delta_plus_one(delta)
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError("eps must lie in (0, 1]")
    return eps / d1


def poly_uss_threshold(delta: int, m: int) -> Fraction:
    """`uss_threshold` at the polynomial construction's generic strength
    1 / (4 log_{delta+1} m), for m links."""
    d1 = _delta_plus_one(delta)
    if m < 2:
        raise ParameterError("poly threshold needs a link count m >= 2")
    if d1 < 2:
        raise ParameterError("poly threshold needs delta >= 1")
    log_ratio = Fraction(math.log(m) / math.log(d1))
    return 1 / (4 * d1 * log_ratio)


def random_uss_threshold(delta: int) -> Fraction:
    """`uss_threshold` at the sampled construction's strength floor 1/e."""
    return 1 / (Fraction(math.e) * _delta_plus_one(delta))


def _delta_plus_one(delta: int) -> int:
    if delta < 0:
        raise ParameterError("conflict degree must be non-negative")
    return delta + 1


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
