"""The README's experiment recipes, run through the CLI at the sizes the
README quotes: each test asserts the numbers the README reports."""

from __future__ import annotations

import csv
import json

import pytest

from radiosched.cli import main


def run_json(capsys, argv) -> dict:
    assert main([*argv, "--format", "json-lines"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "scale, rho, slope, max_backlog, stable",
    [("8/16", "1/28", "7.05e-06", 8, True), ("17/16", "17/224", "1.79e-02", 63, False)],
)
def test_threshold_sweep(tmp_path, capsys, scale, rho, slope, max_backlog, stable):
    # coloring schedules are stable below the threshold 1/chi and not above it
    argv = [
        "experiment", "--sweep", "1", "--nodes", "6", "--edges", "7", "--routes", "4",
        "--max-hops", "3", "--burst", "2", "--rho-scale", scale,
        "--horizon", "3000", "--rounds", "3000", "--out-dir", str(tmp_path),
    ]
    run_json(capsys, argv)
    runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
    (row,) = [r for r in runs if r["policy"] == "lis"]
    assert (row["links"], row["chi"], row["threshold"]) == (14, 14, "1/14")
    assert row["rho"] == rho
    assert f"{row['slope']:.2e}" == slope
    assert (row["max_backlog"], row["stable"]) == (max_backlog, stable)


def test_clique_overload(tmp_path, capsys):
    # above the threshold the clique's backlog keeps growing: at most one
    # link succeeds in any round, whatever the schedule
    out = tmp_path / "clique"
    scenario = run_json(capsys, [
        "scenario", "clique", "--nodes", "3", "--epsilon", "1/32", "--horizon", "120",
        "--predict-rounds", "120", "--out-dir", str(out),
    ])
    assert (scenario["injections"], scenario["predicted_backlog"]) == (150, 30)
    sched = str(out / "schedule.txt")
    run_json(capsys, ["schedule", "coloring", str(out / "graph.txt"), "--exact", "--out", sched])
    metrics, log = out / "backlog.csv", out / "rounds.log"
    sim = run_json(capsys, [
        "simulate", str(out / "graph.txt"), sched, str(out / "trace.txt"), "--rounds", "120",
        "--metrics", str(metrics), "--log", str(log),
    ])
    assert sim["undelivered"] == 30
    with metrics.open() as fh:
        rows = list(csv.DictReader(fh))
    backlog = [int(r["total_backlog"]) for r in rows[11::12]]
    assert backlog == [6, 6, 12, 12, 12, 18, 18, 18, 24, 24]
    successes = [line.split(" successful ")[1].split()[0] for line in log.read_text().splitlines()]
    assert max(len(s.split(",")) for s in successes if s != "-") == 1


def test_schedule_compare(tmp_path, capsys):
    # one admissible trace at half the selector's guaranteed rate is carried
    # by both the coloring and the oblivious selector schedule
    run_json(capsys, [
        "experiment", "--sweep", "2", "--nodes", "5", "--edges", "5",
        "--out-dir", str(tmp_path / "nets"),
    ])
    graph = str(tmp_path / "nets" / "seed_001" / "graph.txt")
    conflicts = run_json(capsys, ["conflict-graph", graph])
    assert (conflicts["links"], conflicts["max_in_degree"]) == (10, 9)
    sel, col_sched, sel_sched = (str(tmp_path / f) for f in ("sel.txt", "col.sched", "sel.sched"))
    run_json(capsys, ["build-selector", "poly", "--n", "10", "--k", "10", "--out", sel])
    built = run_json(capsys, [
        "schedule", "selector", graph, sel, "--out", sel_sched,
    ])
    assert (built["rho"], built["window"]) == ("13/529", 529)
    colored = run_json(capsys, ["schedule", "coloring", graph, "--out", col_sched])
    assert (colored["rho"], colored["window"]) == ("1/10", 10)
    trace = str(tmp_path / "load.trace")
    load = run_json(capsys, [
        "scenario", "leaky-bucket", graph, "--rho", "13/1058", "--burst", "2", "--routes", "4",
        "--max-hops", "2", "--seed", "1", "--horizon", "3000", "--out", trace,
    ])
    assert load["injections"] == 114
    for sched, max_latency in ((col_sched, 18), (sel_sched, 43)):
        for policy in ("ftg", "lis", "nfs", "sis"):
            sim = run_json(capsys, [
                "simulate", graph, sched, trace, "--policy", policy, "--rounds", "3000",
            ])
            assert (sim["delivered"], sim["max_backlog"]) == (114, 6)
            assert sim["max_latency"] == max_latency
