"""End-to-end acceptance checks.

Each check prints one PASS/FAIL line (run with -s to see them) and then
asserts.  Numbers frozen here were verified against independent
calculations in the unit suites.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from radiosched.bounds import coloring_threshold, latency_bound, uss_threshold
from radiosched.graphs import (
    build_conflict_graph,
    clique_graph,
    degree_bound_check,
    exact_chromatic,
    greedy_coloring,
    path_graph,
    random_network,
)
from radiosched.schedules import (
    TransmissionSchedule,
    schedule_from_coloring,
    schedule_from_selector,
    verify_frequent,
)
from radiosched.selectors import poly_uss, random_uss, random_uss_size, uss_min_count
from radiosched.sim import RunMetrics, failure_accounting, run, stability_verdict
from radiosched.traffic import (
    AdversaryConfig,
    gen_clique_scenario,
    gen_leaky_bucket,
    random_routes,
    validate_trace,
)

STABLE_ROUNDS = 100_000
POLICY_NAMES = ("lis", "sis", "nfs", "ftg")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_poly_selector_strength():
    cases = [(8, 2), (16, 2), (16, 4), (27, 3), (64, 4)]
    details = []
    ok = True
    for n, k in cases:
        start = time.monotonic()
        sel = poly_uss(n, k)
        res = uss_min_count(sel, k)
        elapsed = time.monotonic() - start
        q, d = sel.field.q, sel.field.d
        case_ok = (
            sel.t == q * q
            and res.eps >= sel.claimed_eps
            and sel.claimed_eps == Fraction(k * (q - k * d), q * q)
            and elapsed < 10.0
        )
        if q == 2 * k * d:
            # field size hit the construction target exactly, so the
            # generic strength 1/(4 ceil(log_k n)) must be met verbatim
            case_ok = case_ok and res.eps >= Fraction(1, 4 * d)
        ok = ok and case_ok
        details.append(f"({n},{k}):q={q},t={sel.t},min={res.min_count},{elapsed:.2f}s")
    verdict(1, ok, " ".join(details))


def test_criterion_2_randomized_selector_size():
    eps = Fraction(math.exp(-1))
    t_formula = random_uss_size(8, 2, eps)
    ok = t_formula == 628
    sizes = set()
    for seed in range(20):
        sel = random_uss(8, 2, eps, seed=seed)
        sizes.add(sel.t)
        ok = ok and sel.t == t_formula
        ok = ok and uss_min_count(sel, 2).eps >= eps
    verdict(2, ok, f"t={t_formula} for 20 seeds (sizes seen: {sorted(sizes)})")


def test_criterion_3_degree_bound():
    checked = 0
    i = 0
    worst = 0
    ok = True
    while checked < 500:
        n = 3 + (i % 28)
        edges = 2 + (i * 5) % (2 * n)
        g = random_network(n, edges, seed=i, max_degree=6)
        i += 1
        if g.link_count == 0:
            continue
        rep = degree_bound_check(g)
        ok = ok and rep.holds and g.max_degree <= 6
        worst = max(worst, rep.delta_in_h)
        checked += 1
    tight = degree_bound_check(path_graph(2))
    ok = ok and tight.tight and tight.delta_in_h == tight.bound == 1
    verdict(3, ok, f"500 networks hold (max conflict in-degree {worst}); single-edge case tight")


def test_criterion_4_frequent_schedules():
    ok = True
    worst_t = 0
    for i in range(50):
        n = 3 + (i % 6)
        edges = 2 + (i % 7)
        g = random_network(n, edges, seed=100 + i)
        h = build_conflict_graph(g)
        coloring = greedy_coloring(h)
        x = coloring.color_count
        rep = verify_frequent(schedule_from_coloring(coloring), g)
        ok = (
            ok
            and rep.ok
            and rep.rho == Fraction(1, x)
            and rep.T == x
            and all(v == 1 for v in rep.per_link_min)
            and all(v == 1 for v in rep.per_link_max)
        )
        delta = h.max_in_degree
        sel = poly_uss(g.link_count, delta + 1)
        sched = schedule_from_selector(sel, g, delta_bound=delta)
        rho, period = sched.claimed_frequency
        rep2 = verify_frequent(sched, g)
        ok = ok and rep2.ok and rho == sel.claimed_eps / (delta + 1) and period == sel.t
        worst_t = max(worst_t, sel.t)
    verdict(4, ok, f"50 networks: coloring exactly (1/x, x); selector schedules ok (max t {worst_t})")


@dataclass(frozen=True)
class StableRun:
    tag: str
    policy: str
    chi: int
    adv: AdversaryConfig
    metrics: RunMetrics


@pytest.fixture(scope="module")
def stable_runs():
    runs = []
    cases = [(path_graph(3), "path3", 4), (random_network(4, 5, seed=0), "ten-link", 10)]
    for g, tag, chi_expected in cases:
        assert tag != "ten-link" or g.link_count == 10
        h = build_conflict_graph(g)
        coloring = greedy_coloring(h)
        assert coloring.color_count == chi_expected
        sched = schedule_from_coloring(coloring)
        chi = coloring.color_count
        adv = AdversaryConfig(Fraction(1, chi) - Fraction(1, 16), 2)
        routes = random_routes(g, 4, 2, seed=11)
        tr = gen_leaky_bucket(g, routes, adv, STABLE_ROUNDS, seed=11)
        assert validate_trace(tr, adv, g.link_count).admissible
        for policy in POLICY_NAMES:
            runs.append(StableRun(tag, policy, chi, adv, run(g, sched, policy, tr, STABLE_ROUNDS)))
    return runs


def test_criterion_5_stability_and_latency(stable_runs):
    ok = True
    details = []
    for sr in stable_runs:
        v = stability_verdict(sr.metrics)
        ok = ok and v.slope < 1e-3
        if sr.policy == "lis":
            rho, chi = sr.adv.rho, sr.chi
            latency_cap = latency_bound(rho, Fraction(1, chi), chi, sr.adv.b, 2).rounds
            ok = ok and Fraction(sr.metrics.max_latency) <= latency_cap
            details.append(
                f"{sr.tag}: slope={v.slope:.1e} latency {sr.metrics.max_latency} <= {float(latency_cap):g}"
            )
    verdict(5, ok, "; ".join(details) + f"; all {len(stable_runs)} policy runs flat")


def test_criterion_6_clique_instability():
    sc = gen_clique_scenario(3, Fraction(1, 32), 300)
    chi = sc.chi
    horizon = 50 * chi
    assert chi == 6 and horizon == 300
    floor = (math.floor(horizon * Fraction(1, 32)) + 2) * sc.g.link_count
    h = build_conflict_graph(sc.g)
    coloring = exact_chromatic(h)
    col_sched = schedule_from_coloring(coloring)
    all_active = TransmissionSchedule(
        period=1, active=(tuple(range(6)),), link_count=6
    )
    sel = poly_uss(6, 6)
    sel_sched = schedule_from_selector(sel, sc.g, delta_bound=5)

    ok = sc.predicted_backlog(horizon) == floor == 66
    details = [f"floor={floor}"]
    runs = [("coloring", col_sched, p) for p in POLICY_NAMES]
    runs += [("all-active", all_active, "lis"), ("selector", sel_sched, "lis")]
    for tag, sched, policy in runs:
        metrics = run(sc.g, sched, policy, sc.trace, horizon)
        at_most_one = bool((metrics.success.sum(axis=0) <= 1).all())
        ok = ok and at_most_one and metrics.undelivered_count >= floor
        if tag == "coloring":
            ok = ok and metrics.undelivered_count == floor
        details.append(f"{tag}/{policy}:undelivered={metrics.undelivered_count}")
    verdict(6, ok, " ".join(details))


def test_criterion_7_failure_accounting(stable_runs):
    ok = True
    best = Fraction(0)
    best_tag = ""
    for sr in stable_runs:
        rho_prime = Fraction(1, sr.chi)
        canonical = failure_accounting(sr.metrics, sr.adv, rho_prime, sr.chi)
        ok = ok and canonical.holds
        for window in range(sr.chi, 131, 2):
            rep = failure_accounting(sr.metrics, sr.adv, rho_prime, window)
            ok = ok and rep.holds
            ratio = Fraction(rep.max_count) / rep.bound
            if ratio > best:
                best = ratio
                best_tag = f"{sr.tag}/{sr.policy} window {window}: {rep.max_count}/{rep.bound}"
    ok = ok and best >= Fraction(9, 10)
    verdict(7, ok, f"bound holds everywhere; tightest window {best_tag} = {float(best):.3f}")


def test_criterion_8_threshold_ratio():
    ok = True
    details = []
    for g in (path_graph(2), path_graph(3), clique_graph(3)):
        h = build_conflict_graph(g)
        chi = exact_chromatic(h).color_count
        delta = h.max_in_degree
        assert chi == delta + 1
        ratio = coloring_threshold(chi) / uss_threshold(delta, form="random")
        ok = ok and ratio == Fraction(math.e) * (delta + 1) / chi
        ok = ok and abs(float(ratio) - math.e) < 1e-9
        details.append(f"chi={chi}:{float(ratio):.9f}")
    verdict(8, ok, " ".join(details))
