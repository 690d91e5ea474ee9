"""Command line front end.

Exit codes: 0 on success, 2 when a declared property fails to hold
(inadmissible trace, unmet selector or frequency claim, violated failure
bound), 3 on parameter or format errors and on a randomized construction
that never verifies.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import coloring_threshold, latency_bound, uss_threshold
from .errors import ConstructionError, FormatError, ParameterError
from .graphs import (
    build_conflict_graph,
    degree_bound_check,
    exact_chromatic,
    greedy_coloring,
    random_network,
    read_graph,
    write_graph,
)
from .schedules import (
    read_schedule,
    schedule_from_coloring,
    schedule_from_selector,
    verify_frequent,
    write_schedule,
)
from .selectors import (
    SAMPLE_TRIALS,
    exhaustive_fits,
    format_fraction,
    parse_fraction,
    poly_uss,
    random_uss,
    read_selector,
    uss_min_count,
    uss_sample_check,
    write_selector,
)
from .sim import MIN_VERDICT_ROUNDS, POLICIES, failure_accounting, run, stability_verdict
from .traffic import (
    AdversaryConfig,
    gen_clique_scenario,
    gen_leaky_bucket,
    gen_tree_family,
    random_routes,
    read_trace,
    validate_trace,
    write_trace,
)

FORMATS = ("text", "csv", "json-lines")


class _Parser(argparse.ArgumentParser):
    # usage mistakes are parameter errors: exit 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _plain(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return format_fraction(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def emit(record: dict, fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    record = {k: _plain(v) for k, v in record.items()}
    if fmt == "json-lines":
        print(json.dumps(record, sort_keys=True), file=stream)
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(" ".join(map(str, v)) if isinstance(v, list) else v for v in record.values())
    else:
        for k, v in record.items():
            if isinstance(v, list):
                v = " ".join(map(str, v)) if v else "-"
            print(f"{k}: {v}", file=stream)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_conflict_graph(args) -> tuple[dict | None, int]:
    g = read_graph(args.graph)
    h = build_conflict_graph(g)
    rep = degree_bound_check(g)
    return {
        "nodes": g.node_count,
        "links": g.link_count,
        "conflicts": sum(len(b) for b in h.blocks),
        "degree": rep.delta_g,
        "max_in_degree": rep.delta_in_h,
        "bound": rep.bound if rep.bound is not None else "-",
        "holds": rep.holds,
        "tight": rep.tight,
    }, 0


def cmd_build_poly_selector(args) -> tuple[dict | None, int]:
    return _report_selector(poly_uss(args.n, args.k), args)


def cmd_build_random_selector(args) -> tuple[dict | None, int]:
    record, code = _report_selector(random_uss(args.n, args.k, parse_fraction(args.eps), seed=args.seed), args)
    # how random_uss checked the claim, in verify-selector's words: a sampled claim is evidence, not proof
    record["mode"] = "exhaustive" if exhaustive_fits(args.n, args.k) else "sample"
    return record, code


def _report_selector(sel, args) -> tuple[dict | None, int]:
    if args.out is not None:
        write_selector(sel, args.out)
    return {"n": sel.n, "t": sel.t, "k": sel.claimed_k, "eps": sel.claimed_eps, "ones": len(sel.row_of)}, 0


def cmd_verify_selector(args) -> tuple[dict | None, int]:
    sel = read_selector(args.selector)
    k = args.k if args.k is not None else sel.claimed_k
    if k is None:
        raise ParameterError("no stored k; pass --k")
    target = parse_fraction(args.eps) if args.eps is not None else sel.claimed_eps
    if target is None:
        raise ParameterError("no stored eps; pass --eps")
    if not 0 <= target <= 1:
        raise ParameterError(f"target eps={target} outside [0, 1]")
    if not 1 <= k <= sel.n:
        raise ParameterError(f"need 1 <= k <= {sel.n}, got {k}")
    if exhaustive_fits(sel.n, k):
        res = uss_min_count(sel, k)
        ok = res.eps >= target
        record = {
            "mode": "exhaustive",
            "min_count": res.min_count,
            "observed_eps": res.eps,
            "target_eps": target,
            "ok": ok,
        }
        witness = (*res.witness, res.min_count)
    else:
        chk = uss_sample_check(sel, k, target, trials=SAMPLE_TRIALS, seed=0)
        ok = chk.ok
        record = {"mode": "sample", "trials": chk.trials, "threshold": chk.threshold, "ok": ok}
        witness = chk.witness
    if not ok:
        record.update(zip(("witness_set", "witness_column", "witness_count"), witness))
    return record, 0 if ok else 2


def cmd_schedule_coloring(args) -> tuple[dict | None, int]:
    h = build_conflict_graph(read_graph(args.graph))
    coloring = exact_chromatic(h) if args.exact else greedy_coloring(h)
    return _report_schedule(schedule_from_coloring(coloring), "coloring", args)


def cmd_schedule_selector(args) -> tuple[dict | None, int]:
    sched = schedule_from_selector(read_selector(args.selector), read_graph(args.graph))
    return _report_schedule(sched, "selector", args)


def _report_schedule(sched, provenance: str, args) -> tuple[dict | None, int]:
    if args.out is not None:
        write_schedule(sched, args.out)
    rho, period = sched.claimed_frequency or (Fraction(0), 0)
    return {
        "period": sched.period,
        "links": sched.link_count,
        "rho": rho,
        "window": period,
        "provenance": provenance,
    }, 0


def cmd_schedule_verify(args) -> tuple[dict | None, int]:
    g = read_graph(args.graph)
    sched = read_schedule(args.schedule)
    if sched.claimed_frequency is None:
        raise ParameterError("schedule file carries no rho=/T= claim to verify")
    rep = verify_frequent(sched, g)
    record = {
        "ok": rep.ok,
        "rho": rep.rho,
        "window": rep.T,
        "rounds": rep.rounds,
        "per_link_min": rep.per_link_min,
        "per_link_max": rep.per_link_max,
    }
    if rep.witness is not None:
        record.update(zip(("witness_link", "witness_start", "witness_count"), rep.witness))
    return record, 0 if rep.ok else 2


def _out_dir(args) -> Path:
    if not args.out_dir:
        raise ParameterError("--out-dir is empty")
    return Path(args.out_dir)


def cmd_scenario_clique(args) -> tuple[dict | None, int]:
    sc = gen_clique_scenario(args.nodes, parse_fraction(args.epsilon), args.horizon)
    out = _out_dir(args)
    record = {
        "nodes": args.nodes,
        "links": sc.g.link_count,
        "chi": sc.chi,
        "secondary_period": sc.secondary_period,
        "injections": len(sc.trace),
        "out_dir": str(out),
    }
    if args.predict_rounds is not None:
        record["predicted_backlog"] = sc.predicted_backlog(args.predict_rounds)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(sc.g, out / "graph.txt")
    write_trace(sc.trace, out / "trace.txt")
    return record, 0


def cmd_scenario_tree_family(args) -> tuple[dict | None, int]:
    fam = gen_tree_family(args.delta, parse_fraction(args.rho), args.horizon)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(fam.trees):
        write_graph(t, out / f"tree_{i:02d}.txt")
    write_trace(fam.trace, out / "trace.txt")
    return {
        "trees": len(fam.trees),
        "shared_links": list(fam.shared_links),
        "injections": len(fam.trace),
        "out_dir": str(out),
    }, 0


def cmd_scenario_leaky_bucket(args) -> tuple[dict | None, int]:
    g = read_graph(args.graph)
    adv = AdversaryConfig(parse_fraction(args.rho), args.burst)
    routes = random_routes(g, args.routes, args.max_hops, seed=args.seed)
    tr = gen_leaky_bucket(g, routes, adv, args.horizon, seed=args.seed, intensity=args.intensity)
    write_trace(tr, args.out)
    return {"routes": len(routes), "injections": len(tr), "horizon": tr.horizon, "out": args.out}, 0


def _admissibility_record(rep, adv) -> dict:
    record = {"admissible": rep.admissible, "rho": adv.rho, "burst": adv.b}
    if rep.witness is not None:
        keys = ("witness_link", "witness_start", "witness_length", "witness_load", "witness_allowed")
        record.update(zip(keys, rep.witness))
    return record


def cmd_validate_trace(args) -> tuple[dict | None, int]:
    tr = read_trace(args.trace)
    adv = AdversaryConfig(parse_fraction(args.rho), args.burst)
    rep = validate_trace(tr, adv, link_count=args.links)
    return _admissibility_record(rep, adv), 0 if rep.admissible else 2


def _write_metrics_csv(metrics, path) -> None:
    n = metrics.rounds
    # every column is built before the file is opened, so the derivation's
    # scratch arrays are gone by the time the file's buffers exist
    cum = np.bincount(metrics.delivered_rounds, minlength=n).cumsum(dtype=np.int64)
    columns = (metrics.per_round_backlog, cum, metrics.per_round_max_queue)
    with open(path, "w", newline="") as fh:
        fh.write("round,total_backlog,delivered_cum,max_queue\n")
        # written by column: a memoryview of an int64 array yields Python
        # ints, with no per-row numpy read and no list per column; the rows
        # are plain ints, so no csv.writer (and its 128 kB record buffer)
        fh.writelines(f"{r},{a},{b},{c}\n" for r, a, b, c in zip(range(n), *map(memoryview, columns)))


def _round_fields(at, links, count):
    """Yield the log field of each round 0 .. count-1: its entries of
    `links`, joined by commas, or "-" for none.  `at` is the sorted round
    of each entry; both are int64 arrays."""
    at, links = memoryview(at), memoryview(links)
    i = 0
    for r in range(count):
        j = bisect_right(at, r, i)
        yield ",".join(map(str, links[i:j])) or "-"
        i = j


def _write_round_log(metrics, path) -> None:
    """One line a round: the scheduled links, the successful ones, and the
    collided ones, which attempted and did not succeed.  Streamed from the
    schedule's activations and the record's success and attempt events,
    with no links x rounds array."""
    n, sched = metrics.rounds, metrics.schedule
    span = min(sched.period, n) or 1  # an empty schedule reads as one idle round
    stop = np.searchsorted(sched.round_of, span)
    scheduled = chain.from_iterable(
        _round_fields(sched.round_of[:stop], sched.link_of[:stop], span) for _ in range(-(-n // span))
    )
    # every success is an attempt, and both lists are sorted
    attempts = metrics._attempt_events()
    collided = np.ones(attempts.size, dtype=bool)
    collided[np.searchsorted(attempts, metrics.success_events)] = False

    def by_round(events):
        # events sorted by link, so a stable sort by round keeps each round's
        # links ascending
        links, at = np.divmod(events, n)
        order = np.argsort(at, kind="stable")
        return _round_fields(at[order], links[order], n)

    lines = zip(range(n), scheduled, by_round(metrics.success_events), by_round(attempts[collided]))
    with open(path, "w") as fh:
        for r, active, success, lost in lines:
            fh.write(f"round {r} scheduled {active} successful {success} collided {lost}\n")


def cmd_simulate(args) -> tuple[dict | None, int]:
    # --rho asks for the trace check and --rho-prime for failure accounting
    # against its adversary; --burst and --fail-window tune those checks
    if args.burst is not None and args.rho is None:
        raise ParameterError("--burst needs --rho")
    if args.rho_prime is not None and args.rho is None:
        raise ParameterError("--rho-prime needs --rho")
    if args.fail_window is not None and args.rho_prime is None:
        raise ParameterError("--fail-window needs --rho-prime")
    g = read_graph(args.graph)
    sched = read_schedule(args.schedule)
    tr = read_trace(args.trace)
    if args.rho is not None:
        adv = AdversaryConfig(parse_fraction(args.rho), 1 if args.burst is None else args.burst)
        rep = validate_trace(tr, adv, link_count=g.link_count)
        if not rep.admissible:
            emit(_admissibility_record(rep, adv), args.format, stream=sys.stderr)
            return None, 2
    metrics = run(g, sched, args.policy, tr, args.rounds)
    record = {
        "rounds": metrics.rounds,
        "policy": args.policy,
        "delivered": metrics.delivered_count,
        "undelivered": metrics.undelivered_count,
        "max_backlog": metrics.max_backlog,
        "final_backlog": int(metrics.per_round_backlog[-1]),
        "max_latency": metrics.max_latency,
    }
    if metrics.rounds >= MIN_VERDICT_ROUNDS:
        verdict = stability_verdict(metrics)
        record["slope"] = verdict.slope
        record["stable"] = verdict.stable
    code = 0
    if args.rho_prime is not None:
        window = sched.period if args.fail_window is None else args.fail_window
        frep = failure_accounting(metrics, adv, parse_fraction(args.rho_prime), window)
        record.update(
            {
                "fail_bound": frep.bound,
                "fail_window": frep.window,
                "fail_max_count": frep.max_count,
                "fail_holds": frep.holds,
            }
        )
        if not frep.holds:
            record.update(zip(("fail_witness_link", "fail_witness_start", "fail_witness_count"), frep.witness))
            code = 2
    if args.metrics is not None:
        _write_metrics_csv(metrics, args.metrics)
    if args.log is not None:
        _write_round_log(metrics, args.log)
    return record, code


def cmd_threshold_coloring(args) -> tuple[dict | None, int]:
    return {"kind": "coloring", "chi": args.chi, "threshold": coloring_threshold(args.chi)}, 0


def cmd_threshold_direct(args) -> tuple[dict | None, int]:
    value = uss_threshold(args.delta, parse_fraction(args.eps))
    return {
        "kind": "selector",
        "delta": args.delta,
        "form": args.form,
        "threshold": value,
        "approx": float(value),
    }, 0


def float_rounds(lb) -> float:
    """A latency bound's round count as a float; a bound past float range
    is refused."""
    try:
        return float(lb.rounds)
    except OverflowError:
        raise ParameterError("latency bound exceeds float range") from None


def cmd_bounds_latency(args) -> tuple[dict | None, int]:
    lb = latency_bound(
        parse_fraction(args.rho), parse_fraction(args.rho_prime), args.window, args.burst, args.nesting
    )
    return {
        "active_classes": lb.active_classes,
        "delivery_windows": lb.delivery_windows,
        "rounds": lb.rounds,
        "rounds_approx": float_rounds(lb),
    }, 0


def _experiment_seed(args, seed: int, out: Path) -> list[dict]:
    g = random_network(args.nodes, args.edges, seed=seed)
    h = build_conflict_graph(g)
    coloring = greedy_coloring(h)
    sched = schedule_from_coloring(coloring)
    chi = coloring.color_count
    if sched.claimed_frequency is None:
        raise ParameterError("need at least one color")
    threshold, window = sched.claimed_frequency
    rho = parse_fraction(args.rho_scale) * threshold
    lat = latency_bound(rho, threshold, window, args.burst, args.max_hops) if rho < threshold else None
    lat_rounds = float_rounds(lat) if lat else None
    adv = AdversaryConfig(rho, args.burst)
    routes = random_routes(g, args.routes, args.max_hops, seed=seed)
    tr = gen_leaky_bucket(g, routes, adv, args.horizon, seed=seed, intensity=args.intensity)

    seed_dir = out / f"seed_{seed:03d}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    write_graph(g, seed_dir / "graph.txt")
    write_schedule(sched, seed_dir / "schedule.txt")
    write_trace(tr, seed_dir / "trace.txt")

    rows = []
    for policy in sorted(POLICIES):
        metrics = run(g, sched, policy, tr, args.rounds)
        verdict = stability_verdict(metrics)
        _write_metrics_csv(metrics, seed_dir / f"{policy}.csv")
        rows.append(
            {
                "seed": seed,
                "policy": policy,
                "links": g.link_count,
                "chi": chi,
                "rho": format_fraction(rho),
                "threshold": format_fraction(threshold),
                "latency_bound": lat_rounds,
                "latency_ok": metrics.max_latency <= lat.rounds if lat else None,
                "injections": len(tr),
                "delivered": metrics.delivered_count,
                "undelivered": metrics.undelivered_count,
                "max_backlog": metrics.max_backlog,
                "max_latency": metrics.max_latency,
                "slope": round(verdict.slope, 9),
                "stable": verdict.stable,
            }
        )
    return rows


def cmd_experiment(args) -> tuple[dict | None, int]:
    if args.sweep < 1:
        raise ParameterError("--sweep needs at least one seed")
    if args.rounds < MIN_VERDICT_ROUNDS:
        raise ParameterError(f"need at least {MIN_VERDICT_ROUNDS} rounds for a stability verdict")
    out = _out_dir(args)
    seeds = range(args.sweep)
    runs = [row for seed in seeds for row in _experiment_seed(args, seed, out)]
    # the flags that shape the runs, echoed by name
    flags = "nodes edges routes max_hops rho_scale burst horizon rounds intensity sweep".split()
    summary = {"config": {k: getattr(args, k) for k in flags}, "runs": runs}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return {"seeds": len(seeds), "runs": len(runs), "out_dir": str(out)}, 0


# ---------------------------------------------------------------------------
# parser wiring


def _leaf(sub, name: str, func, help=None) -> _Parser:
    """A runnable subcommand: its handler and the --format every report takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="radiosched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "conflict-graph", cmd_conflict_graph, "conflict structure and degree bound of a network")
    p.add_argument("graph")

    p = sub.add_parser("build-selector", help="construct a strong selector family")
    msub = p.add_subparsers(dest="method", required=True)
    poly = _leaf(msub, "poly", cmd_build_poly_selector, "Kautz-Singleton polynomial construction")
    rnd = _leaf(msub, "random", cmd_build_random_selector, "sampled construction, redrawn until it verifies")
    for m in (poly, rnd):
        m.add_argument("--n", type=int, required=True)
        m.add_argument("--k", type=int, required=True)
        m.add_argument("--out", help="write the selector to this file")
    rnd.add_argument("--eps", required=True, help="target strength p/q")
    rnd.add_argument("--seed", type=int, default=0)

    p = _leaf(sub, "verify-selector", cmd_verify_selector, "check a selector file against its claims")
    p.add_argument("selector")
    p.add_argument("--k", type=int)
    p.add_argument("--eps", help="target strength p/q; default: stored claim")

    p = sub.add_parser("schedule", help="build or verify transmission schedules")
    ssub = p.add_subparsers(dest="schedule_command", required=True)
    c = _leaf(ssub, "coloring", cmd_schedule_coloring, "one round per color of a conflict-graph coloring")
    c.add_argument("graph")
    c.add_argument("--exact", action="store_true", help="exact chromatic number (small graphs)")
    s = _leaf(ssub, "selector", cmd_schedule_selector, "selector rows; k must exceed the conflict in-degree")
    s.add_argument("graph")
    s.add_argument("selector")
    for b in (c, s):
        b.add_argument("--out", help="write the schedule to this file")
    v = _leaf(ssub, "verify", cmd_schedule_verify)
    v.add_argument("graph")
    v.add_argument("schedule")

    p = sub.add_parser("scenario", help="generate benchmark scenarios")
    scsub = p.add_subparsers(dest="scenario_command", required=True)
    c = _leaf(scsub, "clique", cmd_scenario_clique)
    c.add_argument("--nodes", type=int, required=True)
    c.add_argument("--epsilon", required=True, help="rate excess p/q above 1/chi")
    c.add_argument("--horizon", type=int, required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--predict-rounds", type=int, help="report the backlog floor after this many rounds")
    t = _leaf(scsub, "tree-family", cmd_scenario_tree_family)
    t.add_argument("--delta", type=int, required=True)
    t.add_argument("--rho", required=True, help="injection rate p/q on shared links")
    t.add_argument("--horizon", type=int, required=True)
    t.add_argument("--out-dir", required=True)
    lb = _leaf(scsub, "leaky-bucket", cmd_scenario_leaky_bucket)
    lb.add_argument("graph")
    lb.add_argument("--rho", required=True)
    lb.add_argument("--burst", type=int, default=1)
    lb.add_argument("--routes", type=int, default=4)
    lb.add_argument("--max-hops", type=int, default=3)
    lb.add_argument("--horizon", type=int, required=True)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--intensity", type=float, default=0.9)
    lb.add_argument("--out", required=True)

    p = _leaf(sub, "validate-trace", cmd_validate_trace, "check a trace against a rate and burst budget")
    p.add_argument("trace")
    p.add_argument("--rho", required=True)
    p.add_argument("--burst", type=int, required=True)
    p.add_argument("--links", type=int, help="link count; default: inferred from routes")

    p = _leaf(sub, "simulate", cmd_simulate, "run a schedule and policy against a trace")
    p.add_argument("graph")
    p.add_argument("schedule")
    p.add_argument("trace")
    p.add_argument("--policy", choices=sorted(POLICIES), default="lis")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--rho", help="declared adversary rate; trace is validated first")
    p.add_argument("--burst", type=int, help="burst allowance beside --rho; default: 1")
    p.add_argument("--rho-prime", help="service rate for failure accounting")
    p.add_argument("--fail-window", type=int, help="window for failure accounting; default: period")
    p.add_argument("--metrics", help="write per-round CSV here")
    p.add_argument("--log", help="write per-round link activity here")

    p = sub.add_parser("bounds", help="closed-form thresholds and latency bounds")
    bsub = p.add_subparsers(dest="bounds_command", required=True)
    th = bsub.add_parser("threshold", help="injection-rate threshold of a schedule")
    tsub = th.add_subparsers(dest="form", required=True)
    c = _leaf(tsub, "coloring", cmd_threshold_coloring, "1/chi for a schedule of chi colors")
    c.add_argument("--chi", type=int, required=True)
    direct = _leaf(tsub, "direct", cmd_threshold_direct, "eps/(delta+1) for a selector of strength eps")
    direct.add_argument("--eps", required=True, help="selector strength p/q")
    direct.add_argument("--delta", type=int, required=True, help="conflict in-degree")
    lt = _leaf(bsub, "latency", cmd_bounds_latency)
    lt.add_argument("--rho", required=True)
    lt.add_argument("--rho-prime", required=True)
    lt.add_argument("--window", type=int, required=True)
    lt.add_argument("--burst", type=int, required=True)
    lt.add_argument("--nesting", type=int, required=True)

    p = _leaf(sub, "experiment", cmd_experiment, "seeded sweep: network, trace, schedule, all policies")
    p.add_argument("--out-dir", default="experiments")
    p.add_argument("--sweep", type=int, default=1, help="number of seeds")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--edges", type=int, default=10)
    p.add_argument("--routes", type=int, default=4)
    p.add_argument("--max-hops", type=int, default=3)
    p.add_argument("--rho-scale", default="3/4", help="injection rate as a multiple of 1/chi")
    p.add_argument("--burst", type=int, default=2)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--rounds", type=int, default=2000)
    p.add_argument("--intensity", type=float, default=0.9)

    return parser


def main(argv=None) -> int:
    """Run one command and print its record once the handler has returned.

    Each handler returns its record and exit code, so a refusal or an
    unwritable path anywhere in it exits 3 with nothing on stdout.  A record
    of None prints nothing: `simulate --rho` writes an inadmissible trace's
    record to stderr itself.  A reader that closes stdout early, as `| head
    -1` does, is no refusal: the rest of the record goes to os.devnull and
    the handler's exit code stands.
    """
    args = build_parser().parse_args(argv)
    # free the parser, whose reference cycles outlive it, before the handler runs
    gc.collect(1)
    try:
        record, code = args.func(args)
        if record is not None:
            try:
                emit(record, args.format)
                sys.stdout.flush()
            except BrokenPipeError:
                # the exit flush then writes what is left to devnull, not the pipe
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return code
    except (ParameterError, FormatError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
