#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks, in process, that
- `--trace 0` prints every end-to-end metric and `--trace 1` every
  per-layer metric, each with the unit BENCHMARK.json gives, and both
  pass the correctness gate;
- a run given the digest of an earlier run passes, so exact outputs
  repeat across runs, and a run given a changed digest fails every
  iteration, reports `"correct": false` and returns exit code 1.
It also checks that digests.json records a digest for every workload and
that the benchmark exits non-zero, printing no result, when the program's
sources are missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile

import run


def invoke(argv: list[str], digests: dict) -> tuple[int, str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, digests=digests)
    text = buf.getvalue()
    return code, text, json.loads(text.splitlines()[-1])


def check_workload(spec: dict, name: str, failures: list[str]) -> None:
    base = ["--workload", name, "--seed", str(run.DEFAULT_SEED), "--seconds", "0.5", "--scale", "tiny"]
    digest = None
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, text, result = invoke(base + ["--trace", str(trace)], digests={})
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            failures.append(f"{name} --trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
        if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
            failures.append(f"{name} --trace {trace}: a metric value is not a number")
        if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
            failures.append(f"{name} --trace {trace}: gate failed on the program as it is:\n{text}")
        digest = re.search(r"digest ([0-9a-f]{64})", text).group(1)

    code, text, result = invoke(base + ["--trace", "1"], digests={name: digest})
    if code != 0 or not result["correct"]:
        failures.append(f"{name}: a run given the previous run's digest failed:\n{text}")
    changed = ("0" if digest[0] != "0" else "1") + digest[1:]
    code, text, result = invoke(base + ["--trace", "1"], digests={name: changed})
    if code != 1 or result["correct"] or result["failed"] != result["attempted"]:
        failures.append(f"{name}: a changed digest did not trip the gate:\n{text}")


def check_without_sources(failures: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result line."""
    run.OUT_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mesh-coloring", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures: list[str] = []
    for name in names:
        check_workload(spec, name, failures)
    recorded = json.loads((run.BENCH_DIR / "digests.json").read_text())
    if sorted(recorded) != sorted(names):
        failures.append(f"digests.json covers {sorted(recorded)}, workloads are {sorted(names)}")
    check_without_sources(failures)
    for msg in failures:
        print("FAIL:", msg)
    print(f"selftest: {len(failures)} failure(s) over {len(names)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
