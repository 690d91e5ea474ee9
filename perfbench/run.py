#!/usr/bin/env python3
"""Benchmark of the radiosched chain, run from the root of the repository:

    python3 perfbench/run.py --workload mesh-coloring --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics: set-up time, the median time of
one chain iteration, and the peak Python heap of one iteration.  Both times
are wall seconds scaled by the speed of the shared machine at the moment
they were taken (see `reference`).
`--trace 1` is a separate run that records a span around every call the
benchmark makes into a radiosched layer and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json.  Every iteration passes
the correctness gate in workloads.py; the last line of standard output is
one JSON object, and the exit code is 1 if any iteration failed.
"""

from __future__ import annotations

import os

# np.polyfit (in stability_verdict) calls into BLAS; keep it on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import ROOT_SPAN, Tracer, untraced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
# digests.json records this seed's digests; seed 7 is held out, used only
# to confirm a claimed gain
DEFAULT_SEED = 1
SETUP_PROBES = 5
REFERENCE_STEPS = 8000
REFERENCE_NOMINAL_S = 0.05  # typical reference time on the machine of the baseline

# span name -> per-layer metric name is span + "_s"; sim.run.<policy> spans
# are summed into sim.run_s
SPANS = (
    "graphs.network", "graphs.conflict", "graphs.coloring",
    "selectors.build", "selectors.verify",
    "schedules.build", "schedules.verify",
    "traffic.routes", "traffic.gen", "traffic.validate",
    "sim.check", "bounds.eval", "cli.experiment",
)
# exact counts taken from the gate; 0 where the workload does not reach them
COUNTS = (
    "graphs.links", "graphs.conflict_in_degree", "graphs.colors",
    "selectors.pairs_checked", "selectors.rows",
    "schedules.period", "schedules.rounds_replayed",
    "traffic.packets",
    "sim.attempts", "sim.successes", "sim.delivered", "sim.max_backlog", "sim.dense_mb",
    "bounds.latency_slack", "cli.bytes_written",
)


def import_program():
    """Import radiosched from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import radiosched
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import radiosched from {src}: {exc}")
    if Path(radiosched.__file__).resolve().parent != src / "radiosched":
        sys.exit(f"perfbench: radiosched came from {radiosched.__file__}, not {src}")


class Gate:
    """Counts attempted and failed iterations.  An iteration fails if it
    raises, breaks an invariant, or its digest of exact outputs differs
    from the run's first iteration or, on the default seed, from the
    recorded one."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.digest: str | None = None
        self.counts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            new = [msg for msg in problems if msg not in self.problems]
            self.problems.extend(new[: 10 - len(self.problems)])

    def check(self, workload, p, out) -> None:
        try:
            problems, exact, counts = workload.check(p, out)
        except Exception as exc:  # a crashing check is a failed iteration
            self.record([f"check raised {exc!r}"])
            return
        digest = hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            problems.append(f"digest {digest} differs from the first iteration's {self.digest}")
        if self.expected is not None and digest != self.expected:
            problems.append(f"digest {digest} differs from the recorded {self.expected}")
        self.counts = counts
        self.record(problems)


def iteration(workload, p, gate: Gate, tracer: Tracer | None = None) -> float | None:
    """Run and check one chain iteration; its wall seconds, or None if it raised."""
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            out = workload.iterate(p, untraced)
        else:
            with tracer.span(ROOT_SPAN):
                out = workload.iterate(p, tracer.span)
    except Exception as exc:  # a crashing iteration is a failed iteration
        gate.record([f"iteration raised {exc!r}"])
        return None
    finally:
        if tracer is not None:
            tracer.iteration += 1
    elapsed = perf_counter() - start
    gate.check(workload, p, out)
    return elapsed


def run_for(seconds: float, steps) -> None:
    """Call the steps in turn, at least once each, until `seconds` pass."""
    deadline = perf_counter() + seconds
    while True:
        for step in steps:
            step()
        if perf_counter() >= deadline:
            return


def reference() -> float:
    """Wall seconds of a fixed interpreter-bound kernel that no change to
    radiosched can affect: Fraction token-bucket steps and dict updates, as
    in the program's hot loops.

    On a shared machine, the speed of such code drifts by tens of percent
    over minutes.  The kernel's time, taken right after each measurement,
    tracks that drift, so the benchmark reports its times as
    `median(wall) / median(reference) * REFERENCE_NOMINAL_S`.
    """
    start = perf_counter()
    tokens, counts = Fraction(0), {}
    for i in range(REFERENCE_STEPS):
        tokens = min(Fraction(5), tokens + Fraction(1, 7))
        if tokens >= 1:
            tokens -= 1
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - start


def scaled(wall: list[float], ref: list[float]) -> float:
    return statistics.median(wall) / statistics.median(ref) * REFERENCE_NOMINAL_S


def setup_seconds(args, refs: list[float]) -> list[float]:
    """Wall seconds from starting a fresh interpreter to the point where it
    has imported radiosched and prepared the workload, once per probe.
    Probes run one after another, each followed by a `reference` run
    appended to `refs`."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {err.strip()}")
        times.append(elapsed)
        refs.append(reference())
    return times


def peak_heap_mb(workload, p, gate: Gate) -> float:
    """Peak traced Python heap, in MB, of one untimed iteration."""
    tracemalloc.start()
    try:
        iteration(workload, p, gate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, plain_times: list[float], counts: dict, policies) -> dict:
    rows = tracer.per_iteration()

    def median(f) -> float:
        return statistics.median(f(own, total) for own, total in rows)

    values = {f"{s}_s": median(lambda own, total, s=s: own.get(s, 0.0)) for s in SPANS}
    for policy in policies:
        values[f"sim.run_s.{policy}"] = median(lambda own, total, k=f"sim.run.{policy}": own.get(k, 0.0))
    values["sim.run_s"] = median(
        lambda own, total: sum(v for k, v in own.items() if k.startswith("sim.run."))
    )
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["selectors.pairs_per_s"] = _ratio(values["selectors.pairs_checked"], values["selectors.verify_s"])
    values["traffic.packets_per_gen_s"] = _ratio(values["traffic.packets"], values["traffic.gen_s"])
    values["sim.rounds_per_s"] = _ratio(counts.get("sim.rounds", 0), values["sim.run_s"])
    values["sim.success_ratio"] = _ratio(values["sim.successes"], values["sim.attempts"])
    traced = statistics.median(total[ROOT_SPAN] for own, total in rows)
    values["bench.trace_overhead"] = traced / statistics.median(plain_times)
    values["bench.uncovered_share"] = median(lambda own, total: own[ROOT_SPAN] / total[ROOT_SPAN])
    return values


def describe(label: str, samples: list[float]) -> str:
    """Median, quartiles, and the highest percentile with at least ten
    samples beyond it."""
    q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    text = f"{label}: median {q2:.6f} s, quartiles {q1:.6f}..{q3:.6f} s, {len(samples)} samples"
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return text + f", p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.6f} s"
    return text


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark of the radiosched chain.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None, digests: dict | None = None) -> int:
    """`digests` maps workload names to the expected default-seed digest;
    by default those recorded in digests.json for the full scale."""
    args = parse_args(argv)
    import_program()
    import workloads

    table = workloads.workloads(OUT_DIR / "work")
    if args.workload not in table:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    p = workload.prepare(args.seed, args.scale)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if digests is None:
        digests = json.loads((BENCH_DIR / "digests.json").read_text()) if args.scale == "full" else {}
    gate = Gate(digests.get(args.workload) if args.seed == DEFAULT_SEED else None)
    lines = [f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}"]
    try:
        if args.trace == 0:
            setup_refs: list[float] = []
            setup = setup_seconds(args, setup_refs)
            peak = peak_heap_mb(workload, p, gate)
            times: list[float] = []
            refs: list[float] = []
            run_for(args.seconds, [
                lambda: times.append(iteration(workload, p, gate)),
                lambda: refs.append(reference()),
            ])
            times = [t for t in times if t is not None]
            lines.append(describe("setup wall", setup))
            lines.append(describe("pipeline wall", times) if times else "pipeline: no iteration completed")
            lines.append(describe("reference", refs + setup_refs))
            values = {
                "setup_s": scaled(setup, setup_refs),
                "pipeline_s": scaled(times, refs) if times else 0.0,
                "peak_mem_mb": peak,
            }
            names = spec["end_to_end"]
        else:
            iteration(workload, p, gate)  # warm-up
            tracer = Tracer()
            plain: list[float] = []
            refs = []
            run_for(args.seconds, [
                lambda: plain.append(iteration(workload, p, gate)),
                lambda: refs.append(reference()),
                lambda: iteration(workload, p, gate, tracer),
            ])
            plain = [t for t in plain if t is not None]
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            lines.append(describe("untraced pipeline wall", plain))
            lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
            values = layer_metrics(tracer, plain, gate.counts, workloads.POLICY_NAMES)
            values["bench.reference_s"] = statistics.median(refs)
            names = spec["per_layer"]
    finally:
        shutil.rmtree(OUT_DIR / "work", ignore_errors=True)

    lines.append(f"error_rate {gate.failed}/{gate.attempted}; digest {gate.digest}")
    lines.extend(f"FAILED: {msg}" for msg in gate.problems)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
