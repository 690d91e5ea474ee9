from __future__ import annotations

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from radiosched import cli, selectors
from radiosched.cli import build_parser, main
from radiosched.graphs import path_graph, random_network, write_graph
from radiosched.schedules import read_schedule

from dense_selector import dense
from test_formats import leaf_commands


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "graph.txt"
    write_graph(path_graph(3), p)
    return str(p)


def parse_text(out: str) -> dict:
    fields = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition(": ")
        fields[k] = v
    return fields


class TestReports:
    def test_conflict_graph_text(self, path3_file, capsys):
        assert main(["conflict-graph", path3_file]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["links"] == "4"
        assert fields["max_in_degree"] == "3"
        assert fields["holds"] == "True"

    def test_conflict_graph_json(self, path3_file, capsys):
        assert main(["conflict-graph", path3_file, "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["degree"] == 2 and rec["bound"] == 5

    def test_bounds_threshold(self, capsys):
        assert main(["bounds", "threshold", "coloring", "--chi", "4"]) == 0
        assert parse_text(capsys.readouterr().out)["threshold"] == "1/4"

    def test_bounds_latency(self, capsys):
        argv = [
            "bounds", "latency", "--rho", "3/16", "--rho-prime", "1/4",
            "--window", "4", "--burst", "2", "--nesting", "2",
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["active_classes"] == "36"
        assert fields["rounds"] == "140"


class TestScheduleFlow:
    def test_color_then_verify(self, path3_file, tmp_path, capsys):
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "coloring", path3_file, "--exact", "--out", sched]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["period"] == "4" and fields["rho"] == "1/4"
        assert main(["schedule", "verify", path3_file, sched]) == 0
        assert parse_text(capsys.readouterr().out)["ok"] == "True"

    def test_selector_build_and_schedule(self, path3_file, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "poly", "--n", "4", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        sched = str(tmp_path / "sched.txt")
        argv = ["schedule", "selector", path3_file, sel, "--out", sched]
        assert main(argv) == 0
        assert parse_text(capsys.readouterr().out)["provenance"] == "selector"
        assert main(["schedule", "verify", path3_file, sched]) == 0

    def test_failing_verify_names_its_witness(self, path3_file, tmp_path, capsys):
        # links 1-3 are never scheduled; link 1 is the first with no success
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=2 links=4 rho=1/2 T=2\n0\n0 3\n")
        argv = ["schedule", "verify", path3_file, str(sched), "--format", "json-lines"]
        assert main(argv) == 2
        rec = json.loads(capsys.readouterr().out)
        assert (rec["ok"], rec["witness_link"], rec["witness_start"], rec["witness_count"]) == (False, 1, 0, 0)
        good = tmp_path / "good.txt"
        assert main(["schedule", "coloring", path3_file, "--exact", "--out", str(good)]) == 0
        capsys.readouterr()
        assert main(["schedule", "verify", path3_file, str(good)]) == 0
        assert not any(k.startswith("witness") for k in parse_text(capsys.readouterr().out))

    def test_exact_coloring_record(self, tmp_path, capsys):
        g_file = tmp_path / "net.txt"
        write_graph(random_network(6, 7, seed=2), g_file)
        sched = tmp_path / "exact.sched"
        assert main(["schedule", "coloring", str(g_file), "--exact", "--out", str(sched)]) == 0
        s = read_schedule(sched)
        assert s.period == 12 and s.claimed_frequency == (Fraction(1, 12), 12)
        capsys.readouterr()
        # without --out the record is printed and no file is written
        argv = ["schedule", "coloring", str(g_file), "--exact", "--format", "json-lines"]
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["period"], rec["rho"], rec["window"]) == (12, "1/12", 12)
        assert sorted(tmp_path.iterdir()) == [sched, g_file]


# (n, k) of a selector whose C(n, k) column sets fit the enumeration budget,
# so verify-selector checks it exactly, and of one it can only sample
EXHAUSTIVE = ("16", "4")
SAMPLED = ("40", "8")


class TestSelectorVerification:
    def test_verify_roundtrip(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "poly", "--n", "16", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        assert main(["verify-selector", sel]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert (fields["mode"], fields["ok"]) == ("exhaustive", "True")

    def test_overstated_claim_fails(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        assert main(["build-selector", "poly", "--n", "8", "--k", "2", "--out", str(sel_path)]) == 0
        lines = sel_path.read_text().splitlines()
        head = lines[0].rsplit(" ", 1)[0]
        lines[0] = head + " eps=99/100"
        sel_path.write_text("\n".join(lines) + "\n")
        assert main(["verify-selector", str(sel_path)]) == 2

    def test_sample_mode(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "poly", "--n", "40", "--k", "8", "--out", sel]) == 0
        capsys.readouterr()
        assert main(["verify-selector", sel]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert (fields["mode"], fields["trials"], fields["ok"]) == ("sample", "2000", "True")
        assert main(["verify-selector", sel, "--eps=99/100"]) == 2
        assert parse_text(capsys.readouterr().out)["ok"] == "False"

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_failure_names_its_witness(self, tmp_path, capsys, mode):
        # the witness keys appear on exit 2 only; the set, column and count
        # they name are recounted here from the matrix
        n, k = mode
        sel = tmp_path / "sel.txt"
        assert main(["build-selector", "poly", "--n", n, "--k", k, "--out", str(sel)]) == 0
        capsys.readouterr()
        assert main(["verify-selector", str(sel), "--format", "json-lines"]) == 0
        assert not any(key.startswith("witness_") for key in json.loads(capsys.readouterr().out))
        assert main(["verify-selector", str(sel), "--eps=1", "--format", "json-lines"]) == 2
        rec = json.loads(capsys.readouterr().out)
        combo, a = rec["witness_set"], rec["witness_column"]
        assert len(combo) == int(k) and a in combo
        rows = dense(selectors.read_selector(sel))
        own = rows[rows[:, a] == 1]
        assert rec["witness_count"] == int((own[:, combo].sum(axis=1) == 1).sum())
        if mode == EXHAUSTIVE:
            assert rec["witness_count"] == rec["min_count"]
        else:
            assert rec["witness_count"] < rec["threshold"]

    @pytest.mark.parametrize("eps", ["-1/2", "3/2"])
    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_target_outside_unit_interval_is_parameter_error(self, tmp_path, capsys, eps, mode):
        n, k = mode
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "poly", "--n", n, "--k", k, "--out", sel]) == 0
        assert main(["verify-selector", sel, f"--eps={eps}"]) == 3

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_k_outside_columns_is_parameter_error(self, tmp_path, capsys, mode):
        n, k = mode
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "poly", "--n", n, "--k", k, "--out", sel]) == 0
        capsys.readouterr()
        for bad in ("-1", str(int(n) + 1)):
            assert main(["verify-selector", sel, f"--k={bad}"]) == 3
            assert f"need 1 <= k <= {n}, got {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("n, k, mode", [("8", "3", "exhaustive"), ("30", "10", "sample")])
    def test_random_build_names_its_check(self, tmp_path, capsys, n, k, mode):
        # a claim random_uss sampled reads as sampled, in verify-selector's words
        sel = tmp_path / "sel.txt"
        argv = ["build-selector", "random", "--n", n, "--k", k, "--eps", "1/8", "--seed", "1", "--out", str(sel)]
        assert main(argv) == 0
        assert parse_text(capsys.readouterr().out)["mode"] == mode
        assert main(["verify-selector", str(sel)]) == 0
        assert parse_text(capsys.readouterr().out)["mode"] == mode

    def test_rows_checked_before_the_header_is_sized(self, tmp_path, capsys):
        # 10^13 columns would be a 9 TB matrix; the short row is refused first
        sel = tmp_path / "wide.txt"
        sel.write_text("uss n=10000000000000 t=1\n0\n")
        assert main(["verify-selector", str(sel)]) == 3
        out, err = capsys.readouterr()
        assert not out and err == "error: row 0: expected 10000000000000 chars of 0/1\n"

    def test_failed_construction_is_parameter_error(self, monkeypatch, capsys):
        never = selectors.MinCountResult(0, Fraction(0), ((0, 1), 0))
        monkeypatch.setattr(selectors, "uss_min_count", lambda *a, **k: never)
        argv = ["build-selector", "random", "--n", "8", "--k", "2", "--eps", "1/4"]
        assert main(argv) == 3
        assert "error: no verified matrix within 64 draws" in capsys.readouterr().err


class TestScenariosAndTraces:
    def test_clique_scenario_and_validation(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "300", "--out-dir", str(out), "--predict-rounds", "300",
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["chi"] == "6" and fields["predicted_backlog"] == "66"
        assert (out / "graph.txt").exists() and (out / "trace.txt").exists()

        trace = str(out / "trace.txt")
        ok = ["validate-trace", trace, "--rho", "67/192", "--burst", "2"]
        assert main(ok) == 0
        capsys.readouterr()
        starved = ["validate-trace", trace, "--rho", "1/6", "--burst", "2"]
        assert main(starved) == 2
        fields = parse_text(capsys.readouterr().out)
        assert fields["admissible"] == "False"
        assert "witness_link" in fields

    def test_zero_predict_rounds_is_parameter_error(self, tmp_path, capsys):
        # 0 used to be taken for "no prediction" and the command exited 0
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "120", "--out-dir", str(tmp_path / "out"), "--predict-rounds", "0",
        ]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out and not (tmp_path / "out").exists()
        assert captured.err == "error: rounds must be a positive multiple of chi\n"

    def test_tree_family_files(self, tmp_path, capsys):
        out = tmp_path / "trees"
        argv = [
            "scenario", "tree-family", "--delta", "3", "--rho", "1/4",
            "--horizon", "40", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        assert len(list(out.glob("tree_*.txt"))) == 7

    def test_leaky_bucket_roundtrip(self, path3_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.txt")
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "1/4", "--burst", "2",
            "--routes", "3", "--horizon", "60", "--out", trace,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["validate-trace", trace, "--rho", "1/4", "--burst", "2"]) == 0


class TestSimulate:
    def prepared(self, tmp_path, path3_file):
        sched = str(tmp_path / "sched.txt")
        trace = str(tmp_path / "trace.txt")
        assert main(["schedule", "coloring", path3_file, "--out", sched]) == 0
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "3/16", "--burst", "2",
            "--routes", "2", "--max-hops", "2", "--horizon", "200", "--out", trace,
        ]
        assert main(argv) == 0
        return sched, trace

    def test_simulation_outputs(self, path3_file, tmp_path, capsys):
        sched, trace = self.prepared(tmp_path, path3_file)
        capsys.readouterr()
        metrics = tmp_path / "metrics.csv"
        log = tmp_path / "rounds.log"
        argv = [
            "simulate", path3_file, sched, trace, "--rounds", "400",
            "--rho", "3/16", "--burst", "2", "--rho-prime", "1/4",
            "--metrics", str(metrics), "--log", str(log),
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["undelivered"] == "0"
        assert fields["stable"] == "True"
        assert fields["fail_holds"] == "True"
        assert "fail_witness_link" not in fields
        header = metrics.read_text().splitlines()[0]
        assert header == "round,total_backlog,delivered_cum,max_queue"
        first = log.read_text().splitlines()[0]
        assert first.startswith("round 0 scheduled ")
        assert " successful " in first and " collided " in first

    def test_zero_fail_window_is_parameter_error(self, path3_file, tmp_path, capsys):
        # 0 used to be replaced by the schedule period
        sched, trace = self.prepared(tmp_path, path3_file)
        capsys.readouterr()
        argv = [
            "simulate", path3_file, sched, trace, "--rounds", "40",
            "--rho", "3/16", "--burst", "2", "--rho-prime", "1/4", "--fail-window", "0",
        ]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: window must be positive\n"

    @pytest.mark.parametrize(
        "flags, needs",
        [
            (["--burst", "2"], "--burst needs --rho"),
            (["--rho-prime", "1/4"], "--rho-prime needs --rho"),
            (["--fail-window", "4"], "--fail-window needs --rho-prime"),
            (["--rho", "3/16", "--burst", "2", "--fail-window", "4"], "--fail-window needs --rho-prime"),
        ],
    )
    def test_refuses_flags_it_would_drop(self, path3_file, tmp_path, capsys, flags, needs):
        sched, trace = self.prepared(tmp_path, path3_file)
        capsys.readouterr()
        metrics = tmp_path / "metrics.csv"
        argv = ["simulate", path3_file, sched, trace, "--rounds", "40", "--metrics", str(metrics), *flags]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out and not metrics.exists()
        assert captured.err == f"error: {needs}\n"

    def test_burst_defaults_to_one_beside_rho(self, path3_file, tmp_path, capsys):
        sched, trace = self.prepared(tmp_path, path3_file)
        capsys.readouterr()
        # the trace was made with burst 2, so burst 1 refuses it with a witness
        argv = ["simulate", path3_file, sched, trace, "--rounds", "40", "--rho", "3/16", "--format", "json-lines"]
        assert main(argv) == main([*argv, "--burst", "1"]) == 2
        alone, explicit = capsys.readouterr().err.splitlines()
        assert alone == explicit and json.loads(alone)["burst"] == 1

    def test_inadmissible_trace_refused(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "120", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "coloring", str(out / "graph.txt"), "--out", sched]) == 0
        capsys.readouterr()
        trace = str(out / "trace.txt")
        budget = ["--rho", "1/6", "--burst", "2", "--format", "json-lines"]
        assert main(["validate-trace", trace, "--links", "6", *budget]) == 2
        validated = json.loads(capsys.readouterr().out)
        argv = ["simulate", str(out / "graph.txt"), sched, trace, "--rounds", "120", *budget]
        assert main(argv) == 2
        refused = json.loads(capsys.readouterr().err)
        assert refused == validated
        assert refused["admissible"] is False and "witness_allowed" in refused

    def test_failure_bound_violation(self, tmp_path, capsys):
        g_file = tmp_path / "pair.txt"
        write_graph(path_graph(2), g_file)
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=1 links=2\n0 1\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("# horizon 0\ninject 0 0 0\ninject 0 1 1\n")
        argv = [
            "simulate", str(g_file), str(sched), str(trace), "--rounds", "8",
            "--rho", "1/2", "--burst", "2", "--rho-prime", "1", "--fail-window", "8",
        ]
        assert main(argv) == 2
        fields = parse_text(capsys.readouterr().out)
        assert fields["fail_holds"] == "False"
        assert fields["delivered"] == "0"
        assert (fields["fail_witness_link"], fields["fail_witness_start"]) == ("0", "0")
        assert fields["fail_witness_count"] == "8"

    def test_failure_witness_on_overloaded_clique(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "300", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "coloring", str(out / "graph.txt"), "--out", sched]) == 0
        capsys.readouterr()
        # a backlogged clique link succeeds once per 6-round period, far
        # short of the claimed service rate 1
        argv = [
            "simulate", str(out / "graph.txt"), sched, str(out / "trace.txt"),
            "--rounds", "300", "--rho", "67/192", "--burst", "2", "--rho-prime", "1",
            "--format", "json-lines",
        ]
        assert main(argv) == 2
        rec = json.loads(capsys.readouterr().out)
        assert rec["fail_holds"] is False and rec["fail_window"] == 6
        assert 0 <= rec["fail_witness_link"] < 6
        assert 0 <= rec["fail_witness_start"] <= 300 - 6
        assert rec["fail_witness_count"] == rec["fail_max_count"] == 5


class TestExperiment:
    def test_sweep_reruns_identically(self, tmp_path, capsys):
        args = [
            "experiment", "--sweep", "2", "--nodes", "6", "--edges", "7",
            "--horizon", "300", "--rounds", "300",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        sa = (a / "summary.json").read_bytes()
        sb = (b / "summary.json").read_bytes()
        assert sa == sb
        summary = json.loads(sa)
        assert len(summary["runs"]) == 8
        assert (a / "seed_000" / "lis.csv").exists()
        assert (a / "seed_001" / "trace.txt").exists()

    def test_out_dir_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "experiment", "--sweep", "1", "--nodes", "5", "--edges", "5",
            "--horizon", "120", "--rounds", "120",
        ]
        assert main(args) == 0
        assert (tmp_path / "experiments" / "summary.json").exists()


# Command lines refused with exit 3: by the parser, a flag that only another
# method reads or that no command takes, or a method without its input; by
# the handler, a value out of range. {g}, {sel}, {wide} and {out} stand for
# a network, a selector file, a selector file whose header claims 10^13
# columns over a one-char row, and a file that must not be written.
REFUSED = {
    "threshold-chi-and-delta": "bounds threshold coloring --chi 3 --delta 2",
    "threshold-no-kind": "bounds threshold",
    "chi-direct-form-eps-links": "bounds threshold direct --chi 3 --eps 1/4 --links 9",
    "chi-eps": "bounds threshold coloring --chi 3 --eps 1/4",
    "chi-links": "bounds threshold coloring --chi 3 --links 9",
    "direct-form-links": "bounds threshold direct --delta 2 --eps 1/4 --links 9",
    "direct-form-no-eps": "bounds threshold direct --delta 2",
    "coloring-selector-file": "schedule coloring {g} --selector {sel} --out {out}",
    "selector-exact": "schedule selector {g} {sel} --exact --out {out}",
    "coloring-maximal": "schedule coloring {g} --maximal --out {out}",
    "selector-maximal": "schedule selector {g} {sel} --maximal --out {out}",
    "selector-exact-maximal": "schedule selector {g} {sel} --exact --maximal --out {out}",
    "selector-no-file": "schedule selector {g} --out {out}",
    "poly-selector-eps-seed": "build-selector poly --n 16 --k 4 --eps 1/2 --seed 9 --out {out}",
    "random-selector-no-eps": "build-selector random --n 8 --k 2 --out {out}",
    # a header of 10^13 columns over a row of one char
    "verify-selector-wide-header": "verify-selector {wide}",
    # the deleted poly and random threshold forms, from their old valid command
    # lines to the ones they refused; use direct with the selector's eps
    "poly-form-deleted": "bounds threshold poly --delta 2 --links 9",
    "random-form-deleted": "bounds threshold random --delta 2",
    "chi-random-form": "bounds threshold random --chi 3",
    "random-form-eps": "bounds threshold random --delta 2 --eps 1/4",
    "poly-form-eps": "bounds threshold poly --delta 2 --links 9 --eps 1/4",
    "random-form-links": "bounds threshold random --delta 2 --links 9",
    "random-form-eps-links": "bounds threshold random --delta 2 --eps 1/4 --links 9",
    "poly-form-no-links": "bounds threshold poly --delta 2",
    # random_network used to read a negative count as every pair
    "experiment-negative-edges": "experiment --edges -1 --rounds 20 --out-dir {out}",
    # and a negative node count as the empty graph, which has no color
    "experiment-negative-nodes": "experiment --nodes -1 --rounds 20 --out-dir {out}",
}

# the commands that generate and write a trace, less its --horizon; {g} and
# {out} stand for a network and an output path that must not be written
TRACE_WRITERS = {
    "clique": "scenario clique --nodes 3 --epsilon 1/32 --out-dir {out}",
    "tree-family": "scenario tree-family --delta 2 --rho 1/4 --out-dir {out}",
    "leaky-bucket": "scenario leaky-bucket {g} --rho 1/4 --out {out}",
    "experiment": "experiment --rounds 20 --out-dir {out}",
}


class TestExitCodes:
    def test_bad_fraction_is_parameter_error(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("inject 0 0 0\n")
        assert main(["validate-trace", str(trace), "--rho", "fast", "--burst", "1"]) == 3

    def test_link_out_of_range_is_parameter_error(self, tmp_path, capsys):
        g_file = tmp_path / "pair.txt"
        write_graph(path_graph(2), g_file)
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=1 links=2\n0 1\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("# horizon 0\ninject 0 0 0\ninject 0 1 5\n")
        budget = ["--rho", "1/2", "--burst", "1"]
        assert main(["validate-trace", str(trace), "--links", "2", *budget]) == 3
        assert "packet 1: link 5 out of range" in capsys.readouterr().err
        argv = ["simulate", str(g_file), str(sched), str(trace), "--rounds", "4", *budget]
        assert main(argv) == 3
        assert "packet 1: link 5 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "injections, message",
        [
            # refused when the trace is read; validate-trace used to accept
            # the id and exit 0
            ((f"inject 0 {2**63} 0", "inject 1 0 0"), "packet ids must fit in int64"),
            ((f"inject 0 {-(2**63) - 1} 0",), "packet ids must fit in int64"),
            (("inject 0 5 0", "inject 1 5 2"), "duplicate packet id 5"),
            (("inject 2 0 0", "inject 1 1 0"), "injections must be sorted by round"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate-trace", "simulate"])
    def test_refused_trace_is_parameter_error(self, path3_file, tmp_path, capsys, injections, message, command):
        sched, trace = tmp_path / "sched.txt", tmp_path / "trace.txt"
        sched.write_text("schedule period=4 links=4\n0\n1\n2\n3\n")
        trace.write_text("# horizon 4\n" + "\n".join(injections) + "\n")
        argv = {
            "validate-trace": ["validate-trace", str(trace), "--rho", "1/2", "--burst", "2"],
            "simulate": ["simulate", path3_file, str(sched), str(trace), "--rounds", "4"],
        }[command]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {message}\n"

    def test_rounds_past_int64_keys_is_parameter_error(self, path3_file, tmp_path, capsys):
        sched, trace = tmp_path / "sched.txt", tmp_path / "trace.txt"
        sched.write_text("schedule period=4 links=4\n0\n1\n2\n3\n")
        trace.write_text("# horizon 0\ninject 0 0 0\n")
        assert main(["simulate", path3_file, str(sched), str(trace), "--rounds", str(2**62)]) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {2**62} rounds overflow the int64 queue keys at packet count 1\n"

    def test_schedule_for_fewer_links_is_parameter_error(self, path3_file, tmp_path, capsys):
        # the path has 4 links; a schedule for 2 of them never serves links 2 and 3
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=2 links=2 rho=1/2 T=2\n0\n1\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("# horizon 0\ninject 0 0 2\ninject 0 1 3\n")
        for argv in (
            ["schedule", "verify", path3_file, str(sched)],
            ["simulate", path3_file, str(sched), str(trace), "--rounds", "20"],
        ):
            assert main(argv) == 3
            assert "schedule and network disagree on link count" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused_combination(self, path3_file, tmp_path, capsys, case):
        sel, out = tmp_path / "sel.txt", tmp_path / "out.txt"
        selectors.write_selector(selectors.poly_uss(4, 4), sel)
        wide = tmp_path / "wide.txt"
        wide.write_text("uss n=10000000000000 t=1\n0\n")
        argv = [arg.format(g=path3_file, sel=sel, wide=wide, out=out) for arg in REFUSED[case].split()]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 3
        assert not capsys.readouterr().out
        assert not out.exists()

    def test_selector_forms_read_their_flags(self, capsys):
        assert main(["bounds", "threshold", "direct", "--delta", "2", "--eps", "1/4"]) == 0
        assert parse_text(capsys.readouterr().out)["form"] == "direct"

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-selector", "poly", "--n", "4", "--k", "4", "--out"],
            ["schedule", "coloring", "{g}", "--out"],
            ["simulate", "{g}", "{sched}", "{trace}", "--rounds", "4", "--metrics"],
            ["simulate", "{g}", "{sched}", "{trace}", "--rounds", "4", "--log"],
            ["scenario", "clique", "--nodes", "3", "--epsilon", "1/32", "--horizon", "10", "--out-dir"],
            ["scenario", "tree-family", "--delta", "2", "--rho", "1/4", "--horizon", "10", "--out-dir"],
            ["experiment", "--horizon", "20", "--rounds", "20", "--out-dir"],
        ],
    )
    def test_empty_output_path_is_parameter_error(self, path3_file, tmp_path, capsys, monkeypatch, argv):
        # an empty file path used to be taken for "no file", and an empty
        # directory for the current one, and the command exited 0
        sched, trace = tmp_path / "sched.txt", tmp_path / "trace.txt"
        sched.write_text("schedule period=4 links=4\n0\n1\n2\n3\n")
        trace.write_text("# horizon 0\ninject 0 0 0\n")
        argv = [arg.format(g=path3_file, sched=sched, trace=trace) for arg in argv]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([*argv, ""]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert not out
        assert not any(cwd.iterdir())

    def test_empty_sweep_is_parameter_error(self, tmp_path, capsys):
        assert main(["experiment", "--sweep", "0", "--out-dir", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    def test_too_few_rounds_refused_before_any_file(self, tmp_path, capsys):
        # every run of an experiment gets a stability verdict, which needs
        # MIN_VERDICT_ROUNDS rounds
        out = tmp_path / "y"
        assert main(["experiment", "--rounds", "5", "--out-dir", str(out)]) == 3
        assert "need at least 10 rounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["-1", "-2"])
    @pytest.mark.parametrize("command", list(TRACE_WRITERS))
    def test_negative_horizon_is_parameter_error(self, path3_file, tmp_path, capsys, command, horizon):
        # a trace with a negative horizon is one read_trace refuses
        out = tmp_path / "out"
        argv = TRACE_WRITERS[command].format(g=path3_file, out=out).split()
        assert main([*argv, "--horizon", horizon]) == 3
        assert f"horizon {horizon} is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("net", [["--edges", "0"], ["--nodes", "1"]])
    def test_linkless_experiment_is_parameter_error(self, tmp_path, capsys, net):
        out = tmp_path / "out"
        argv = ["experiment", *net, "--horizon", "20", "--rounds", "20", "--out-dir", str(out)]
        assert main(argv) == 3
        assert "color" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("intensity", ["1.5", "nan", "0", "-0.5"])
    def test_intensity_outside_unit_interval(self, path3_file, tmp_path, capsys, intensity):
        trace = tmp_path / "load.trace"
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "1/4", "--horizon", "20",
            "--intensity", intensity, "--out", str(trace),
        ]
        assert main(argv) == 3
        assert "intensity" in capsys.readouterr().err
        assert not trace.exists()
        out = tmp_path / "out"
        argv = ["experiment", "--horizon", "20", "--rounds", "20", "--intensity", intensity, "--out-dir", str(out)]
        assert main(argv) == 3
        assert "intensity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("conflict-graph {bad}", "nodes 2\nedge 0 1 # \xff\n"),
            ("validate-trace {bad} --rho 1/2 --burst 1", "# horizon 1\ninject 0 0 0 \xff\n"),
            ("verify-selector {bad}", "uss n=2 t=1\n1\xff\n"),
            ("schedule verify {g} {bad}", "schedule period=1 links=4\n0 \xff\n"),
        ],
    )
    def test_non_utf8_file_is_format_error(self, path3_file, tmp_path, capsys, command, text):
        # each reader meets the byte 0xff, which no UTF-8 text holds
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text.encode("latin-1"))
        assert main(command.format(g=path3_file, bad=bad).split()) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: not UTF-8 text: invalid start byte\n"

    def test_files_are_read_as_utf8_in_any_locale(self, tmp_path):
        # under the POSIX locale with UTF-8 mode off, Python's default text
        # encoding is ASCII; a UTF-8 comment still reads
        g = tmp_path / "graph.txt"
        g.write_bytes("nodes 2\nedge 0 1 # café\n".encode())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONPATH": src}
        argv = [sys.executable, "-m", "radiosched.cli", "conflict-graph", str(g)]
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert b"links: 2\n" in done.stdout

    def test_missing_file(self, capsys):
        assert main(["conflict-graph", "no-such-file.txt"]) == 3

    def test_unknown_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_missing_required_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "clique", "--nodes", "3"])
        assert exc.value.code == 3


def option_strings(parser) -> set[str]:
    """Every option string of the parser and of its subcommands, help aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            found.update(action.option_strings)
    return found


def test_every_flag_is_used_somewhere():
    root = Path(__file__).resolve().parent.parent
    texts = [(root / "README.md").read_text(), *(p.read_text() for p in (root / "tests").glob("*.py"))]
    unused = sorted(
        flag for flag in option_strings(build_parser())
        if not any(re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text) for text in texts)
    )
    assert not unused


class ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read from it once `read` is a set."""

    read = None

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "read")
        if read is not None:
            read.add(name)
        return object.__getattribute__(self, name)


# a valid command line for each leaf command; {g}, {sel}, {sched}, {trace},
# {file} and {dir} stand for a network, a selector, a schedule, a trace, an
# output file and an output directory
BASE = {
    "conflict-graph": "{g}",
    "build-selector poly": "--n 4 --k 2",
    "build-selector random": "--n 4 --k 2 --eps 1/4",
    "verify-selector": "{sel}",
    "schedule coloring": "{g}",
    "schedule selector": "{g} {sel}",
    "schedule verify": "{g} {sched}",
    "scenario clique": "--nodes 3 --epsilon 1/32 --horizon 60 --out-dir {dir}",
    "scenario tree-family": "--delta 2 --rho 1/4 --horizon 20 --out-dir {dir}",
    "scenario leaky-bucket": "{g} --rho 1/4 --horizon 20 --out {file}",
    "validate-trace": "{trace} --rho 1/4 --burst 2",
    "simulate": "{g} {sched} {trace} --rounds 20",
    "bounds threshold coloring": "--chi 3",
    "bounds threshold direct": "--delta 2 --eps 1/4",
    "bounds latency": "--rho 3/16 --rho-prime 1/4 --window 4 --burst 2 --nesting 2",
    "experiment": "--nodes 5 --edges 5 --horizon 40 --rounds 40 --out-dir {dir}",
}

# the value given with each flag a base command line leaves out
VALUES = {
    "--format": "csv", "--out": "{file}", "--seed": "3", "--k": "2", "--eps": "1/4",
    "--predict-rounds": "60", "--burst": "2", "--routes": "2", "--max-hops": "2",
    "--intensity": "0.5", "--links": "4", "--policy": "sis", "--rho": "1/4",
    "--rho-prime": "1/4", "--fail-window": "4", "--metrics": "{file}", "--log": "{file}",
    "--sweep": "1", "--rho-scale": "1/2",
}


def leaf_parser(parser, leaf: str):
    for name in leaf.split():
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[name]
    return parser


def test_every_flag_is_read_or_refused(tmp_path, monkeypatch):
    """Each flag a command accepts is either read by its handler or refused
    with exit 3: no command takes a flag and drops it."""
    files = {name: tmp_path / name for name in ("g", "sel", "sched", "trace", "file", "dir")}
    write_graph(path_graph(3), files["g"])
    selectors.write_selector(selectors.poly_uss(4, 4), files["sel"])
    files["sched"].write_text("schedule period=4 links=4 rho=1/4 T=4\n0\n1\n2\n3\n")
    files["trace"].write_text("# horizon 0\ninject 0 0 0\ninject 0 1 1\n")

    parsed = []
    parse_args = cli._Parser.parse_args

    def recording_parse_args(parser, argv):
        # record only what the handler reads, not what the parser reads
        args = parse_args(parser, argv, ReadRecorder())
        args.read = set()
        parsed.append(args)
        return args

    monkeypatch.setattr(cli._Parser, "parse_args", recording_parse_args)

    def run(argv: list[str]) -> tuple[int, set[str]]:
        parsed.clear()
        try:
            code = main([arg.format(**files) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        return code, parsed[0].read if parsed else set()

    dropped = []
    for leaf in leaf_commands(build_parser()):
        base = [*leaf.split(), *BASE[leaf].split()]
        code, base_read = run(base)
        assert code == 0, f"{leaf}: base command line exited {code}"
        for action in leaf_parser(build_parser(), leaf)._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            flag = action.option_strings[0]
            if flag in base:
                code, read = 0, base_read
            else:
                code, read = run([*base, flag, *([] if action.nargs == 0 else [VALUES[flag]])])
            if code != 3 and action.dest not in read:
                dropped.append(f"{leaf} {flag}")
    assert not dropped


def test_parser_is_released_before_the_handler(monkeypatch):
    # argparse's reference cycles would keep the whole tree alive through
    # the run of the command
    refs = []
    real_build = cli.build_parser

    def build():
        parser = real_build()
        refs.append(weakref.ref(parser))
        return parser

    seen = []

    def handler(args):
        seen.append(refs[0]() is None)
        return {}, 0

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "cmd_threshold_coloring", handler)
    gc.collect()  # start from empty young generations
    assert main(["bounds", "threshold", "coloring", "--chi", "3"]) == 0
    assert seen == [True]
