"""Command line front end.

Exit codes: 0 on success, 2 when a declared property fails to hold
(inadmissible trace, unmet selector or frequency claim, violated failure
bound), 3 on parameter or format errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bounds import (
    THRESHOLD_FORMS,
    coloring_threshold,
    latency_bound,
    uss_threshold,
)
from .errors import FormatError, ParameterError
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
    extend_to_maximal_independent,
    read_schedule,
    schedule_from_coloring,
    schedule_from_selector,
    verify_frequent,
    write_schedule,
)
from .selectors import (
    format_fraction,
    parse_fraction,
    poly_uss,
    random_uss,
    read_selector,
    uss_min_count,
    uss_sample_check,
    write_selector,
)
from .sim import POLICIES, failure_accounting, run, stability_verdict
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


def emit(records, fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if isinstance(records, dict):
        records = [records]
    records = [{k: _plain(v) for k, v in r.items()} for r in records]
    if fmt == "json-lines":
        for r in records:
            print(json.dumps(r, sort_keys=True), file=stream)
    elif fmt == "csv":
        if not records:
            return
        keys = list(records[0])
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(keys)
        for r in records:
            writer.writerow(
                [" ".join(map(str, v)) if isinstance(v, list) else v for v in (r[k] for k in keys)]
            )
    else:
        for i, r in enumerate(records):
            if i:
                print(file=stream)
            for k, v in r.items():
                if isinstance(v, list):
                    v = " ".join(map(str, v)) if v else "-"
                print(f"{k}: {v}", file=stream)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_conflict_graph(args) -> int:
    g = read_graph(args.graph)
    h = build_conflict_graph(g)
    rep = degree_bound_check(g, h)
    emit(
        {
            "nodes": len(g.nodes),
            "links": g.link_count,
            "conflicts": sum(len(b) for b in h.blocks),
            "degree": rep.delta_g,
            "max_in_degree": rep.delta_in_h,
            "bound": rep.bound if rep.bound is not None else "-",
            "holds": rep.holds,
            "tight": rep.tight,
        },
        args.format,
    )
    return 0


def cmd_build_selector(args) -> int:
    if args.method == "poly":
        sel = poly_uss(args.n, args.k, c=args.c)
    else:
        if args.eps is None:
            raise ParameterError("random construction needs --eps")
        sel = random_uss(args.n, args.k, parse_fraction(args.eps), seed=args.seed)
    if args.out:
        write_selector(sel, args.out)
    emit(
        {
            "n": sel.n,
            "t": sel.t,
            "k": sel.claimed_k,
            "eps": sel.claimed_eps,
            "ones": int(sel.rows.sum()),
        },
        args.format,
    )
    return 0


def cmd_verify_selector(args) -> int:
    sel = read_selector(args.selector)
    k = args.k if args.k is not None else sel.claimed_k
    if k is None:
        raise ParameterError("no stored k; pass --k")
    target = parse_fraction(args.eps) if args.eps else sel.claimed_eps
    if target is None:
        raise ParameterError("no stored eps; pass --eps")
    if not 0 <= target <= 1:
        raise ParameterError(f"target eps={target} outside [0, 1]")
    if args.sample:
        chk = uss_sample_check(sel, k, target, trials=args.trials, seed=args.seed)
        record = {"mode": "sample", "trials": chk.trials, "threshold": chk.threshold, "ok": chk.ok}
        ok = chk.ok
    else:
        res = uss_min_count(sel, k, budget=args.budget)
        ok = res.eps >= target
        record = {
            "mode": "exhaustive",
            "min_count": res.min_count,
            "observed_eps": res.eps,
            "target_eps": target,
            "ok": ok,
        }
    emit(record, args.format)
    return 0 if ok else 2


def cmd_schedule_build(args) -> int:
    g = read_graph(args.graph)
    if args.method == "coloring":
        h = build_conflict_graph(g)
        coloring = exact_chromatic(h) if args.exact else greedy_coloring(h)
        if args.maximal:
            sched = extend_to_maximal_independent(coloring, h)
        else:
            sched = schedule_from_coloring(coloring)
    else:
        if not args.selector:
            raise ParameterError("selector method needs --selector FILE")
        sel = read_selector(args.selector)
        sched = schedule_from_selector(sel, g, delta_bound=args.delta_bound)
    if args.out:
        write_schedule(sched, args.out)
    rho, period = sched.claimed_frequency or (Fraction(0), 0)
    emit(
        {
            "period": sched.period,
            "links": sched.link_count,
            "rho": rho,
            "window": period,
            "provenance": sched.provenance,
        },
        args.format,
    )
    return 0


def cmd_schedule_verify(args) -> int:
    g = read_graph(args.graph)
    sched = read_schedule(args.schedule)
    if sched.claimed_frequency is None:
        raise ParameterError("schedule file carries no rho=/T= claim to verify")
    rep = verify_frequent(sched, g, windows=args.windows)
    emit(
        {
            "ok": rep.ok,
            "rho": rep.rho,
            "window": rep.T,
            "rounds": rep.rounds,
            "per_link_min": rep.per_link_min,
            "per_link_max": rep.per_link_max,
        },
        args.format,
    )
    return 0 if rep.ok else 2


def cmd_scenario_clique(args) -> int:
    sc = gen_clique_scenario(args.nodes, parse_fraction(args.epsilon), args.horizon)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(sc.g, out / "graph.txt")
    write_trace(sc.trace, out / "trace.txt")
    record = {
        "nodes": args.nodes,
        "links": sc.g.link_count,
        "chi": sc.chi,
        "secondary_period": sc.secondary_period,
        "injections": len(sc.trace),
        "out_dir": str(out),
    }
    if args.predict_rounds:
        record["predicted_backlog"] = sc.predicted_backlog(args.predict_rounds)
    emit(record, args.format)
    return 0


def cmd_scenario_tree_family(args) -> int:
    fam = gen_tree_family(args.delta, parse_fraction(args.rho), args.horizon)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(fam.trees):
        write_graph(t, out / f"tree_{i:02d}.txt")
    write_trace(fam.trace, out / "trace.txt")
    emit(
        {
            "trees": len(fam.trees),
            "shared_links": list(fam.shared_links),
            "injections": len(fam.trace),
            "out_dir": str(out),
        },
        args.format,
    )
    return 0


def cmd_scenario_leaky_bucket(args) -> int:
    g = read_graph(args.graph)
    adv = AdversaryConfig(parse_fraction(args.rho), args.burst)
    routes = random_routes(g, args.routes, args.max_hops, seed=args.seed)
    tr = gen_leaky_bucket(g, routes, adv, args.horizon, seed=args.seed, intensity=args.intensity)
    write_trace(tr, args.out)
    emit(
        {
            "routes": len(routes),
            "injections": len(tr),
            "horizon": tr.horizon,
            "out": args.out,
        },
        args.format,
    )
    return 0


def _admissibility_record(rep, adv) -> dict:
    record = {"admissible": rep.admissible, "rho": adv.rho, "burst": adv.b}
    if rep.witness is not None:
        w = rep.witness
        record.update(
            {
                "witness_link": w.link,
                "witness_start": w.start,
                "witness_length": w.length,
                "witness_load": w.load,
                "witness_allowed": w.allowed,
            }
        )
    return record


def cmd_validate_trace(args) -> int:
    tr = read_trace(args.trace)
    adv = AdversaryConfig(parse_fraction(args.rho), args.burst)
    rep = validate_trace(tr, adv, link_count=args.links)
    emit(_admissibility_record(rep, adv), args.format)
    return 0 if rep.admissible else 2


def _delivered_cum(metrics) -> np.ndarray:
    counts = np.zeros(metrics.rounds, dtype=np.int64)
    for d in metrics.delivered:
        counts[d.delivered_round] += 1
    return counts.cumsum()


def _write_metrics_csv(metrics, path) -> None:
    cum = _delivered_cum(metrics)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "total_backlog", "delivered_cum", "max_queue"])
        for r in range(metrics.rounds):
            writer.writerow(
                [r, int(metrics.per_round_backlog[r]), int(cum[r]), int(metrics.per_round_max_queue[r])]
            )


def _write_round_log(metrics, path) -> None:
    def group(mask, r):
        links = np.nonzero(mask[:, r])[0]
        return ",".join(map(str, links)) if links.size else "-"

    collided = metrics.collided
    with open(path, "w") as fh:
        for r in range(metrics.rounds):
            fh.write(
                f"round {r} scheduled {group(metrics.active, r)}"
                f" successful {group(metrics.success, r)}"
                f" collided {group(collided, r)}\n"
            )


def cmd_simulate(args) -> int:
    g = read_graph(args.graph)
    sched = read_schedule(args.schedule)
    tr = read_trace(args.trace)
    adv = None
    if args.rho is not None:
        adv = AdversaryConfig(parse_fraction(args.rho), args.burst)
        rep = validate_trace(tr, adv, link_count=g.link_count)
        if not rep.admissible:
            emit(_admissibility_record(rep, adv), args.format, stream=sys.stderr)
            return 2
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
    if metrics.rounds >= 10:
        verdict = stability_verdict(metrics)
        record["slope"] = verdict.slope
        record["stable"] = verdict.stable
    code = 0
    if args.rho_prime is not None:
        if adv is None:
            raise ParameterError("failure accounting needs --rho and --burst")
        window = args.fail_window if args.fail_window else sched.period
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
            w = frep.witness
            record.update(
                {
                    "fail_witness_link": w.link,
                    "fail_witness_start": w.start,
                    "fail_witness_count": w.count,
                }
            )
            code = 2
    emit(record, args.format)
    if args.metrics:
        _write_metrics_csv(metrics, args.metrics)
    if args.log:
        _write_round_log(metrics, args.log)
    return code


def cmd_bounds_threshold(args) -> int:
    if args.chi is not None:
        emit({"kind": "coloring", "chi": args.chi, "threshold": coloring_threshold(args.chi)}, args.format)
        return 0
    if args.delta is None:
        raise ParameterError("pass --chi for coloring or --delta for selector thresholds")
    eps = parse_fraction(args.eps) if args.eps else None
    value = uss_threshold(args.delta, eps=eps, form=args.form, m=args.links)
    emit(
        {
            "kind": "selector",
            "delta": args.delta,
            "form": args.form,
            "threshold": value,
            "approx": float(value),
        },
        args.format,
    )
    return 0


def cmd_bounds_latency(args) -> int:
    lb = latency_bound(
        parse_fraction(args.rho), parse_fraction(args.rho_prime), args.window, args.burst, args.nesting
    )
    emit(
        {
            "active_classes": lb.active_classes,
            "delivery_windows": lb.delivery_windows,
            "rounds": lb.rounds,
            "rounds_approx": float(lb.rounds),
        },
        args.format,
    )
    return 0


def _experiment_seed(args, seed: int, out: Path) -> list[dict]:
    g = random_network(args.nodes, args.edges, seed=seed)
    h = build_conflict_graph(g)
    coloring = greedy_coloring(h)
    sched = schedule_from_coloring(coloring)
    chi = coloring.color_count
    threshold = coloring_threshold(chi)
    rho = parse_fraction(args.rho_scale) * threshold
    lat = latency_bound(rho, threshold, chi, args.burst, args.max_hops) if rho < threshold else None
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
                "latency_bound": float(lat.rounds) if lat else None,
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


def cmd_experiment(args) -> int:
    if args.sweep < 1:
        raise ParameterError("--sweep needs at least one seed")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = range(args.sweep)
    runs = [row for seed in seeds for row in _experiment_seed(args, seed, out)]
    config = {
        "nodes": args.nodes,
        "edges": args.edges,
        "routes": args.routes,
        "max_hops": args.max_hops,
        "rho_scale": args.rho_scale,
        "burst": args.burst,
        "horizon": args.horizon,
        "rounds": args.rounds,
        "intensity": args.intensity,
        "sweep": args.sweep,
    }
    summary = {"config": config, "runs": runs}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    emit({"seeds": len(seeds), "runs": len(runs), "out_dir": str(out)}, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_format(p) -> None:
    p.add_argument("--format", choices=FORMATS, default="text")


def build_parser() -> _Parser:
    parser = _Parser(prog="radiosched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conflict-graph", help="conflict structure and degree bound of a network")
    p.add_argument("graph")
    _add_format(p)
    p.set_defaults(func=cmd_conflict_graph)

    p = sub.add_parser("build-selector", help="construct a strong selector family")
    p.add_argument("--method", choices=("poly", "random"), default="poly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=2, help="field size multiplier for the poly method")
    p.add_argument("--eps", help="target strength p/q for the random method")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the selector to this file")
    _add_format(p)
    p.set_defaults(func=cmd_build_selector)

    p = sub.add_parser("verify-selector", help="check a selector file against its claims")
    p.add_argument("selector")
    p.add_argument("--k", type=int)
    p.add_argument("--eps", help="target strength p/q; default: stored claim")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--sample", action="store_true", help="randomized spot check instead of exhaustive")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=cmd_verify_selector)

    p = sub.add_parser("schedule", help="build or verify transmission schedules")
    ssub = p.add_subparsers(dest="schedule_command", required=True)
    b = ssub.add_parser("build")
    b.add_argument("graph")
    b.add_argument("--method", choices=("coloring", "selector"), default="coloring")
    b.add_argument("--exact", action="store_true", help="exact chromatic number (small graphs)")
    b.add_argument("--maximal", action="store_true", help="extend color classes to maximal independent sets")
    b.add_argument("--selector", help="selector file for the selector method")
    b.add_argument("--delta-bound", type=int, help="known upper bound on conflict in-degree")
    b.add_argument("--out", help="write the schedule to this file")
    _add_format(b)
    b.set_defaults(func=cmd_schedule_build)
    v = ssub.add_parser("verify")
    v.add_argument("graph")
    v.add_argument("schedule")
    v.add_argument("--windows", type=int, default=2)
    _add_format(v)
    v.set_defaults(func=cmd_schedule_verify)

    p = sub.add_parser("scenario", help="generate benchmark scenarios")
    scsub = p.add_subparsers(dest="scenario_command", required=True)
    c = scsub.add_parser("clique")
    c.add_argument("--nodes", type=int, required=True)
    c.add_argument("--epsilon", required=True, help="rate excess p/q above 1/chi")
    c.add_argument("--horizon", type=int, required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--predict-rounds", type=int, help="report the backlog floor after this many rounds")
    _add_format(c)
    c.set_defaults(func=cmd_scenario_clique)
    t = scsub.add_parser("tree-family")
    t.add_argument("--delta", type=int, required=True)
    t.add_argument("--rho", required=True, help="injection rate p/q on shared links")
    t.add_argument("--horizon", type=int, required=True)
    t.add_argument("--out-dir", required=True)
    _add_format(t)
    t.set_defaults(func=cmd_scenario_tree_family)
    lb = scsub.add_parser("leaky-bucket")
    lb.add_argument("graph")
    lb.add_argument("--rho", required=True)
    lb.add_argument("--burst", type=int, default=1)
    lb.add_argument("--routes", type=int, default=4)
    lb.add_argument("--max-hops", type=int, default=3)
    lb.add_argument("--horizon", type=int, required=True)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--intensity", type=float, default=0.9)
    lb.add_argument("--out", required=True)
    _add_format(lb)
    lb.set_defaults(func=cmd_scenario_leaky_bucket)

    p = sub.add_parser("validate-trace", help="check a trace against a rate and burst budget")
    p.add_argument("trace")
    p.add_argument("--rho", required=True)
    p.add_argument("--burst", type=int, required=True)
    p.add_argument("--links", type=int, help="link count; default: inferred from routes")
    _add_format(p)
    p.set_defaults(func=cmd_validate_trace)

    p = sub.add_parser("simulate", help="run a schedule and policy against a trace")
    p.add_argument("graph")
    p.add_argument("schedule")
    p.add_argument("trace")
    p.add_argument("--policy", choices=sorted(POLICIES), default="lis")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--rho", help="declared adversary rate; trace is validated first")
    p.add_argument("--burst", type=int, default=1)
    p.add_argument("--rho-prime", help="service rate for failure accounting")
    p.add_argument("--fail-window", type=int, help="window for failure accounting; default: period")
    p.add_argument("--metrics", help="write per-round CSV here")
    p.add_argument("--log", help="write per-round link activity here")
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="closed-form thresholds and latency bounds")
    bsub = p.add_subparsers(dest="bounds_command", required=True)
    th = bsub.add_parser("threshold")
    th.add_argument("--chi", type=int, help="coloring threshold 1/chi")
    th.add_argument("--delta", type=int, help="conflict in-degree for selector thresholds")
    th.add_argument("--form", choices=THRESHOLD_FORMS, default="direct")
    th.add_argument("--eps", help="selector strength p/q")
    th.add_argument("--links", type=int, help="link count for the generic form")
    _add_format(th)
    th.set_defaults(func=cmd_bounds_threshold)
    lt = bsub.add_parser("latency")
    lt.add_argument("--rho", required=True)
    lt.add_argument("--rho-prime", required=True)
    lt.add_argument("--window", type=int, required=True)
    lt.add_argument("--burst", type=int, required=True)
    lt.add_argument("--nesting", type=int, required=True)
    _add_format(lt)
    lt.set_defaults(func=cmd_bounds_latency)

    p = sub.add_parser("experiment", help="seeded sweep: network, trace, schedule, all policies")
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
    _add_format(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
