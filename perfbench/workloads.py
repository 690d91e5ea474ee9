"""The benchmark's workloads.

Each workload is a closed loop: one iteration of its chain starts when the
previous one has finished and been checked.

- `prepare(seed, scale)` turns the seed into the inputs fixed for the run:
  sizes, rates and sub-seeds.  A random network is built once to confirm
  that the seed gives the intended shape.
- `iterate(p, span)` runs the chain, with every call into a radiosched
  layer inside `span(<layer>.<stage>)`.
- `check(p, out)` is the correctness gate.  It returns the violated
  invariants, the exact outputs the digest covers, and the exact work
  counts reported as per-layer metrics.

`scale="tiny"` shrinks every size for the self-test; the benchmark runs at
`scale="full"`.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

from radiosched import (
    AdversaryConfig,
    build_conflict_graph,
    clique_graph,
    coloring_threshold,
    exact_chromatic,
    failure_accounting,
    gen_clique_scenario,
    gen_leaky_bucket,
    greedy_coloring,
    latency_bound,
    poly_uss,
    random_network,
    random_routes,
    read_graph,
    read_schedule,
    read_trace,
    run,
    schedule_from_coloring,
    schedule_from_selector,
    stability_verdict,
    uss_min_count,
    uss_sample_check,
    uss_threshold,
    validate_trace,
    verify_frequent,
)
from radiosched import cli
from radiosched.sim import POLICIES

POLICY_NAMES = sorted(POLICIES)


def _sub_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2**32) for _ in range(count)]


def _summary(metrics) -> dict:
    """Exact counts of one run, so the dense arrays can be dropped."""
    return {
        "rounds": metrics.rounds,
        "links": int(metrics.active.shape[0]),
        "attempts": int(metrics.attempted.sum()),
        "successes": int(metrics.success.sum()),
        "delivered": metrics.delivered_count,
        "undelivered": metrics.undelivered_count,
        "queued": sum(len(q) for q in metrics.final_queues),
        "max_backlog": metrics.max_backlog,
        "max_latency": metrics.max_latency,
    }


def _trace_digest(trace) -> str:
    text = "".join(f"{r} {pkt.id} {pkt.route}\n" for r, pkt in trace.injections)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_runs(trace, runs: dict, lat, problems: list[str]) -> dict:
    """Conservation and latency invariants over the policies' run summaries;
    returns the sim counts."""
    for policy, s in runs.items():
        pending = sum(1 for r, _ in trace.injections if r >= s["rounds"])
        if s["delivered"] + s["queued"] + pending != len(trace):
            problems.append(
                f"{policy}: delivered {s['delivered']} + queued {s['queued']} + "
                f"pending {pending} != injected {len(trace)}"
            )
        if lat is not None and s["max_latency"] > lat.rounds:
            problems.append(f"{policy}: max latency {s['max_latency']} > bound {lat.rounds}")
    slack = min(float(lat.rounds) - s["max_latency"] for s in runs.values()) if lat else 0.0
    return {
        "sim.attempts": sum(s["attempts"] for s in runs.values()),
        "sim.successes": sum(s["successes"] for s in runs.values()),
        "sim.delivered": sum(s["delivered"] for s in runs.values()),
        "sim.max_backlog": max(s["max_backlog"] for s in runs.values()),
        "sim.rounds": sum(s["rounds"] for s in runs.values()),
        "sim.dense_mb": max(4 * s["links"] * s["rounds"] for s in runs.values()) / 1e6,
        "bounds.latency_slack": slack,
    }


def _fail_report(report) -> dict:
    return {"holds": report.holds, "max_count": report.max_count, "bound": str(report.bound)}


class MeshColoring:
    """The paper's main chain at scale: random mesh, greedy coloring
    schedule, leaky-bucket trace below the coloring threshold, all four
    policies, then the failure, stability and latency checks."""

    SIZES = {
        "full": dict(nodes=100, edges=250, routes=64, max_hops=3, rounds=300),
        "tiny": dict(nodes=8, edges=10, routes=4, max_hops=2, rounds=60),
    }
    RHO_SCALE = Fraction(3, 4)
    BURST = 2

    def prepare(self, seed: int, scale: str) -> SimpleNamespace:
        p = SimpleNamespace(**self.SIZES[scale])
        p.net_seed, p.route_seed, p.trace_seed = _sub_seeds(random.Random(seed), 3)
        g = random_network(p.nodes, p.edges, seed=p.net_seed)
        if g.link_count != 2 * p.edges:
            raise ValueError(f"seed {seed} gives {g.link_count} links, not {2 * p.edges}")
        return p

    def iterate(self, p, span) -> dict:
        with span("graphs.network"):
            g = random_network(p.nodes, p.edges, seed=p.net_seed)
        with span("graphs.conflict"):
            h = build_conflict_graph(g)
        with span("graphs.coloring"):
            coloring = greedy_coloring(h)
        with span("schedules.build"):
            sched = schedule_from_coloring(coloring)
        with span("schedules.verify"):
            freq = verify_frequent(sched, g)
        chi = coloring.color_count
        with span("bounds.eval"):
            threshold = coloring_threshold(chi)
            rho = self.RHO_SCALE * threshold
            lat = latency_bound(rho, threshold, chi, self.BURST, p.max_hops)
        adv = AdversaryConfig(rho, self.BURST)
        with span("traffic.routes"):
            routes = random_routes(g, p.routes, p.max_hops, seed=p.route_seed)
        with span("traffic.gen"):
            trace = gen_leaky_bucket(g, routes, adv, p.rounds, seed=p.trace_seed)
        with span("traffic.validate"):
            admissible = validate_trace(trace, adv, g.link_count)
        runs, fails = {}, {}
        for policy in POLICY_NAMES:
            with span("sim.run." + policy):
                metrics = run(g, sched, policy, trace, p.rounds)
            with span("sim.check"):
                fails[policy] = failure_accounting(metrics, adv, threshold, chi)
                stability_verdict(metrics)
            runs[policy] = _summary(metrics)
        return dict(g=g, h=h, chi=chi, sched=sched, freq=freq, rho=rho, lat=lat,
                    trace=trace, admissible=admissible, runs=runs, fails=fails)

    def check(self, p, out):
        problems = []
        if not out["admissible"].admissible:
            problems.append(f"trace not admissible: {out['admissible'].witness}")
        if not out["freq"].ok:
            problems.append("coloring schedule fails verify_frequent")
        counts = _check_runs(out["trace"], out["runs"], out["lat"], problems)
        counts.update({
            "graphs.links": out["g"].link_count,
            "graphs.conflict_in_degree": out["h"].max_in_degree,
            "graphs.colors": out["chi"],
            "schedules.period": out["sched"].period,
            "schedules.rounds_replayed": out["freq"].rounds,
            "traffic.packets": len(out["trace"]),
        })
        exact = dict(
            counts,
            rho=str(out["rho"]),
            latency_bound=str(out["lat"].rounds),
            per_link_min=out["freq"].per_link_min,
            trace=_trace_digest(out["trace"]),
            runs=out["runs"],
            failures={k: _fail_report(v) for k, v in out["fails"].items()},
        )
        return problems, exact, counts


class CliqueOverload:
    """Overloaded clique under its exact coloring: six links whose backlog
    grows without bound, so the per-winner queue selection in `run`
    dominates and traffic generation barely registers."""

    SIZES = {
        "full": dict(nodes=3, horizon=2400),
        "tiny": dict(nodes=3, horizon=120),
    }
    EPS_DENOMINATORS = range(30, 35)

    def prepare(self, seed: int, scale: str) -> SimpleNamespace:
        p = SimpleNamespace(**self.SIZES[scale])
        rng = random.Random(seed)
        chi = p.nodes * p.nodes - p.nodes
        p.epsilon = Fraction(1, rng.choice(self.EPS_DENOMINATORS))
        p.offset = rng.randrange(chi)
        p.rounds = p.horizon - p.horizon % chi
        return p

    def iterate(self, p, span) -> dict:
        with span("graphs.network"):
            g = clique_graph(p.nodes)
        with span("graphs.conflict"):
            h = build_conflict_graph(g)
        with span("graphs.coloring"):
            coloring = exact_chromatic(h)
        with span("schedules.build"):
            sched = schedule_from_coloring(coloring).rotated(p.offset)
        with span("schedules.verify"):
            freq = verify_frequent(sched, g)
        with span("traffic.gen"):
            scenario = gen_clique_scenario(p.nodes, p.epsilon, p.horizon)
        chi = coloring.color_count
        with span("bounds.eval"):
            threshold = coloring_threshold(chi)
        adv = AdversaryConfig(threshold + p.epsilon, 2)
        with span("traffic.validate"):
            admissible = validate_trace(scenario.trace, adv, g.link_count)
        runs, fails = {}, {}
        for policy in POLICY_NAMES:
            with span("sim.run." + policy):
                metrics = run(g, sched, policy, scenario.trace, p.rounds)
            with span("sim.check"):
                fails[policy] = failure_accounting(metrics, adv, threshold, chi)
                stability_verdict(metrics)
            runs[policy] = _summary(metrics)
        return dict(g=g, h=h, chi=chi, sched=sched, freq=freq, scenario=scenario,
                    admissible=admissible, runs=runs, fails=fails)

    def check(self, p, out):
        problems = []
        if not out["admissible"].admissible:
            problems.append(f"trace not admissible: {out['admissible'].witness}")
        if not out["freq"].ok:
            problems.append("coloring schedule fails verify_frequent")
        if out["chi"] != out["scenario"].chi:
            problems.append(f"exact coloring uses {out['chi']} colors, scenario expects {out['scenario'].chi}")
        trace = out["scenario"].trace
        counts = _check_runs(trace, out["runs"], None, problems)
        predicted = out["scenario"].predicted_backlog(p.rounds)
        for policy, s in out["runs"].items():
            if s["undelivered"] < predicted:
                problems.append(f"{policy}: undelivered {s['undelivered']} < predicted backlog {predicted}")
        counts.update({
            "graphs.links": out["g"].link_count,
            "graphs.conflict_in_degree": out["h"].max_in_degree,
            "graphs.colors": out["chi"],
            "schedules.period": out["sched"].period,
            "schedules.rounds_replayed": out["freq"].rounds,
            "traffic.packets": len(trace),
        })
        exact = dict(
            counts,
            predicted_backlog=predicted,
            trace=_trace_digest(trace),
            runs=out["runs"],
            failures={k: _fail_report(v) for k, v in out["fails"].items()},
        )
        return problems, exact, counts


class SelectorMesh:
    """Oblivious schedule from a polynomial strong selector on a small mesh,
    the one workload where `selectors` and `schedules` do most of the work:
    the selector has one column per link and a period of q^2 rounds."""

    SIZES = {
        "full": dict(nodes=30, edges=50, max_degree=4, k=20, trials=20,
                     exhaustive=(20, 5), routes=16, max_hops=3, rounds=300),
        "tiny": dict(nodes=8, edges=10, max_degree=3, k=12, trials=10,
                     exhaustive=(10, 3), routes=4, max_hops=2, rounds=300),
    }
    BURST = 2

    def prepare(self, seed: int, scale: str) -> SimpleNamespace:
        p = SimpleNamespace(**self.SIZES[scale])
        rng = random.Random(seed)
        p.sample_seed, p.route_seed, p.trace_seed = _sub_seeds(rng, 3)
        # The degree cap bounds the conflict in-degree by max_degree^2 +
        # max_degree - 1 < k; redraw only when the cap leaves edges unplaced.
        for _ in range(100):
            p.net_seed = rng.randrange(2**32)
            g = random_network(p.nodes, p.edges, seed=p.net_seed, max_degree=p.max_degree)
            if g.link_count == 2 * p.edges and build_conflict_graph(g).max_in_degree < p.k:
                return p
        raise ValueError(f"seed {seed}: no {p.edges}-edge network within the degree cap")

    def iterate(self, p, span) -> dict:
        with span("graphs.network"):
            g = random_network(p.nodes, p.edges, seed=p.net_seed, max_degree=p.max_degree)
        with span("graphs.conflict"):
            h = build_conflict_graph(g)
        with span("selectors.build"):
            sel = poly_uss(g.link_count, p.k)
        with span("selectors.verify"):
            sample = uss_sample_check(sel, p.k, sel.claimed_eps, p.trials, p.sample_seed)
        n, k = p.exhaustive
        with span("selectors.build"):
            small = poly_uss(n, k)
        with span("selectors.verify"):
            exhaustive = uss_min_count(small, k)
        with span("schedules.build"):
            sched = schedule_from_selector(sel, g)
        with span("schedules.verify"):
            freq = verify_frequent(sched, g)
        with span("bounds.eval"):
            rho_prime = uss_threshold(p.k - 1, sel.claimed_eps)
            rho = rho_prime / 2
            lat = latency_bound(rho, rho_prime, sel.t, self.BURST, p.max_hops)
        adv = AdversaryConfig(rho, self.BURST)
        with span("traffic.routes"):
            routes = random_routes(g, p.routes, p.max_hops, seed=p.route_seed)
        with span("traffic.gen"):
            trace = gen_leaky_bucket(g, routes, adv, p.rounds, seed=p.trace_seed)
        with span("traffic.validate"):
            admissible = validate_trace(trace, adv, g.link_count)
        with span("sim.run.lis"):
            metrics = run(g, sched, "lis", trace, p.rounds)
        with span("sim.check"):
            stability_verdict(metrics)
        return dict(g=g, h=h, sel=sel, sample=sample, small=small, exhaustive=exhaustive,
                    sched=sched, freq=freq, rho_prime=rho_prime, lat=lat, trace=trace,
                    admissible=admissible, runs={"lis": _summary(metrics)})

    def check(self, p, out):
        problems = []
        sel, small, exhaustive = out["sel"], out["small"], out["exhaustive"]
        if not out["sample"].ok:
            problems.append(f"selector sample check failed: {out['sample'].witness}")
        if exhaustive.eps < small.claimed_eps:
            problems.append(f"uss_min_count eps {exhaustive.eps} < claimed {small.claimed_eps}")
        if out["sched"].claimed_frequency != (out["rho_prime"], sel.t):
            problems.append(f"selector schedule claims {out['sched'].claimed_frequency}")
        if not out["freq"].ok:
            problems.append("selector schedule fails verify_frequent")
        if not out["admissible"].admissible:
            problems.append(f"trace not admissible: {out['admissible'].witness}")
        counts = _check_runs(out["trace"], out["runs"], out["lat"], problems)
        n, k = p.exhaustive
        # uss_min_count evaluates every (A, a) with |A| = k unless it meets a
        # zero count, which the eps check above rules out.
        pairs = n * comb(n - 1, k - 1) + out["sample"].trials
        counts.update({
            "graphs.links": out["g"].link_count,
            "graphs.conflict_in_degree": out["h"].max_in_degree,
            "selectors.pairs_checked": pairs,
            "selectors.rows": sel.t,
            "schedules.period": out["sched"].period,
            "schedules.rounds_replayed": out["freq"].rounds,
            "traffic.packets": len(out["trace"]),
        })
        exact = dict(
            counts,
            eps=str(sel.claimed_eps),
            min_count=exhaustive.min_count,
            min_eps=str(exhaustive.eps),
            per_link_min=out["freq"].per_link_min,
            trace=_trace_digest(out["trace"]),
            runs=out["runs"],
        )
        return problems, exact, counts


class ExperimentSweep:
    """The command users run: `radiosched experiment --sweep 2`, in process,
    into a fresh directory.  It measures `cli` with its file writers, CSV
    output and thread pool of two workers; the layers below it are reached
    only through the command."""

    SIZES = {
        "full": ["--sweep", "2", "--nodes", "30", "--edges", "60", "--routes", "16",
                 "--horizon", "600", "--rounds", "600"],
        "tiny": ["--sweep", "2", "--nodes", "6", "--edges", "8", "--routes", "4",
                 "--horizon", "100", "--rounds", "100"],
    }

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def prepare(self, seed: int, scale: str) -> SimpleNamespace:
        intensity = f"{0.85 + random.Random(seed).randrange(6) / 100:.2f}"
        return SimpleNamespace(argv=["experiment", *self.SIZES[scale], "--intensity", intensity])

    def iterate(self, p, span) -> dict:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="experiment-", dir=self.work_dir))
        with span("cli.experiment"), redirect_stdout(io.StringIO()):
            code = cli.main([*p.argv, "--out-dir", str(out_dir)])
        return dict(code=code, out_dir=out_dir)

    def check(self, p, out):
        out_dir = out["out_dir"]
        try:
            return self._check(out["code"], out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, code: int, out_dir: Path):
        problems = []
        if code != 0:
            return [f"experiment exited {code}"], {}, {}
        summary = json.loads((out_dir / "summary.json").read_text())
        config, runs = summary["config"], summary["runs"]
        if len(runs) != config["sweep"] * len(POLICY_NAMES):
            problems.append(f"{len(runs)} runs for a sweep of {config['sweep']}")
        files = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "summary.json":
                files[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
        counts = {"graphs.links": 0, "graphs.colors": 0, "traffic.packets": 0}
        for seed_dir in sorted(out_dir.glob("seed_*")):
            rows = [r for r in runs if f"seed_{r['seed']:03d}" == seed_dir.name]
            g = read_graph(seed_dir / "graph.txt")
            sched = read_schedule(seed_dir / "schedule.txt")
            trace = read_trace(seed_dir / "trace.txt")
            adv = AdversaryConfig(Fraction(rows[0]["rho"]), config["burst"])
            if not validate_trace(trace, adv, g.link_count).admissible:
                problems.append(f"{seed_dir.name}: trace not admissible")
            if not verify_frequent(sched, g).ok:
                problems.append(f"{seed_dir.name}: coloring schedule fails verify_frequent")
            pending = sum(1 for r, _ in trace.injections if r >= config["rounds"])
            for row in rows:
                last = (seed_dir / f"{row['policy']}.csv").read_text().splitlines()[-1]
                queued = int(last.split(",")[1])
                if row["delivered"] + queued + pending != row["injections"]:
                    problems.append(f"{seed_dir.name}/{row['policy']}: packets not conserved")
                if row["latency_ok"] is not True:
                    problems.append(f"{seed_dir.name}/{row['policy']}: latency bound missed")
            counts["graphs.links"] += g.link_count
            counts["graphs.colors"] += rows[0]["chi"]
            counts["traffic.packets"] += len(trace)
        counts.update({
            "sim.delivered": sum(r["delivered"] for r in runs),
            "sim.max_backlog": max(r["max_backlog"] for r in runs),
            "bounds.latency_slack": min(r["latency_bound"] - r["max_latency"] for r in runs),
            "cli.bytes_written": sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()),
        })
        # slope and the stable flag come from a floating-point fit
        exact_runs = [{k: v for k, v in r.items() if k not in ("slope", "stable")} for r in runs]
        exact = dict(counts, config=config, runs=exact_runs, files=files)
        exact.pop("cli.bytes_written")  # summary.json holds the fitted slopes
        return problems, exact, counts


def workloads(work_dir: Path) -> dict:
    """Workloads by name; `work_dir` holds files a workload writes."""
    return {
        "mesh-coloring": MeshColoring(),
        "clique-overload": CliqueOverload(),
        "selector-mesh": SelectorMesh(),
        "experiment-sweep": ExperimentSweep(work_dir),
    }
