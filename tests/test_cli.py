from __future__ import annotations

import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from radiosched import selectors
from radiosched.cli import build_parser, main
from radiosched.graphs import path_graph, random_network, write_graph
from radiosched.schedules import read_schedule


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
        assert main(["bounds", "threshold", "--chi", "4"]) == 0
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
        assert main(["schedule", "build", path3_file, "--exact", "--out", sched]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["period"] == "4" and fields["rho"] == "1/4"
        assert main(["schedule", "verify", path3_file, sched]) == 0
        assert parse_text(capsys.readouterr().out)["ok"] == "True"

    def test_selector_build_and_schedule(self, path3_file, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "4", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        sched = str(tmp_path / "sched.txt")
        argv = ["schedule", "build", path3_file, "--method", "selector", "--selector", sel, "--out", sched]
        assert main(argv) == 0
        assert parse_text(capsys.readouterr().out)["provenance"] == "selector"
        assert main(["schedule", "verify", path3_file, sched]) == 0

    def test_maximal_coloring(self, tmp_path, capsys):
        g_file = tmp_path / "net.txt"
        write_graph(random_network(6, 7, seed=2), g_file)
        plain, padded = tmp_path / "plain.sched", tmp_path / "padded.sched"
        assert main(["schedule", "build", str(g_file), "--exact", "--out", str(plain)]) == 0
        assert main(["schedule", "build", str(g_file), "--exact", "--maximal", "--out", str(padded)]) == 0
        a, b = read_schedule(plain), read_schedule(padded)
        assert a.period == b.period == 12 and a.claimed_frequency == b.claimed_frequency
        assert all(set(x) <= set(y) for x, y in zip(a.active, b.active))
        assert sum(map(len, a.active)) < sum(map(len, b.active))
        capsys.readouterr()
        # without --out the record is printed and no file is written
        argv = ["schedule", "build", str(g_file), "--exact", "--maximal", "--format", "json-lines"]
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["period"], rec["rho"], rec["window"]) == (12, "1/12", 12)
        assert sorted(tmp_path.iterdir()) == [g_file, padded, plain]


# (n, k) of a selector whose C(n, k) column sets fit the enumeration budget,
# so verify-selector checks it exactly, and of one it can only sample
EXHAUSTIVE = ("16", "4")
SAMPLED = ("40", "8")


class TestSelectorVerification:
    def test_verify_roundtrip(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "16", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        assert main(["verify-selector", sel]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert (fields["mode"], fields["ok"]) == ("exhaustive", "True")

    def test_overstated_claim_fails(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        assert main(["build-selector", "--n", "8", "--k", "2", "--out", str(sel_path)]) == 0
        lines = sel_path.read_text().splitlines()
        head = lines[0].rsplit(" ", 1)[0]
        lines[0] = head + " eps=99/100"
        sel_path.write_text("\n".join(lines) + "\n")
        assert main(["verify-selector", str(sel_path)]) == 2

    def test_sample_mode(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "40", "--k", "8", "--out", sel]) == 0
        capsys.readouterr()
        assert main(["verify-selector", sel]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert (fields["mode"], fields["trials"], fields["ok"]) == ("sample", "2000", "True")
        assert main(["verify-selector", sel, "--eps=99/100"]) == 2
        assert parse_text(capsys.readouterr().out)["ok"] == "False"

    @pytest.mark.parametrize("eps", ["-1/2", "3/2"])
    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_target_outside_unit_interval_is_parameter_error(self, tmp_path, capsys, eps, mode):
        n, k = mode
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", n, "--k", k, "--out", sel]) == 0
        assert main(["verify-selector", sel, f"--eps={eps}"]) == 3

    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_k_outside_columns_is_parameter_error(self, tmp_path, capsys, mode):
        n, k = mode
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", n, "--k", k, "--out", sel]) == 0
        capsys.readouterr()
        for bad in ("-1", str(int(n) + 1)):
            assert main(["verify-selector", sel, f"--k={bad}"]) == 3
            assert f"need 1 <= k <= {n}, got {bad}" in capsys.readouterr().err

    def test_failed_construction_is_parameter_error(self, monkeypatch, capsys):
        never = selectors.MinCountResult(0, Fraction(0), ((0, 1), 0))
        monkeypatch.setattr(selectors, "uss_min_count", lambda *a, **k: never)
        argv = ["build-selector", "--method", "random", "--n", "8", "--k", "2", "--eps", "1/4"]
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
        assert main(["schedule", "build", path3_file, "--out", sched]) == 0
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

    def test_inadmissible_trace_refused(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "120", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "build", str(out / "graph.txt"), "--out", sched]) == 0
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
        assert main(["schedule", "build", str(out / "graph.txt"), "--out", sched]) == 0
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

    @pytest.mark.parametrize("kind", [["--chi", "3", "--delta", "2"], []])
    def test_threshold_needs_exactly_one_kind(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "threshold", *kind])
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--form", "random"], "--form"),
            (["--form", "direct", "--eps", "1/4", "--links", "9"], "--form, --eps, --links"),
            (["--eps", "1/4"], "--eps"),
            (["--links", "9"], "--links"),
        ],
    )
    def test_chi_refuses_selector_flags(self, capsys, flags, unread):
        # the coloring threshold reads only --chi; 1/3 used to be printed
        assert main(["bounds", "threshold", "--chi", "3", *flags]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: --chi reads no {unread}\n"

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--form", "random", "--eps", "1/4"], "the random form reads no --eps"),
            (["--form", "poly", "--links", "9", "--eps", "1/4"], "the poly form reads no --eps"),
            (["--eps", "1/4", "--links", "9"], "the direct form reads no --links"),
            (["--form", "random", "--links", "9"], "the random form reads no --links"),
            (["--form", "random", "--eps", "1/4", "--links", "9"], "the random form reads no --eps, --links"),
        ],
    )
    def test_selector_form_refuses_flags_it_does_not_read(self, capsys, flags, unread):
        assert main(["bounds", "threshold", "--delta", "2", *flags]) == 3
        assert capsys.readouterr().err == f"error: {unread}\n"

    def test_selector_forms_read_their_flags(self, capsys):
        cases = (("direct", ["--eps", "1/4"]), ("poly", ["--form", "poly", "--links", "9"]), ("random", ["--form", "random"]))
        for form, flags in cases:
            assert main(["bounds", "threshold", "--delta", "2", *flags]) == 0
            assert parse_text(capsys.readouterr().out)["form"] == form

    def test_selector_file_needs_selector_method(self, path3_file, tmp_path, capsys):
        # a selector file used to be dropped and a coloring schedule built
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "4", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        out = tmp_path / "sched.txt"
        for method in ([], ["--method", "coloring"]):
            argv = ["schedule", "build", path3_file, *method, "--selector", sel, "--out", str(out)]
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert not captured.out and not out.exists()
            assert captured.err == "error: the coloring method reads no --selector\n"

    @pytest.mark.parametrize(
        "flags, unread",
        [(["--exact"], "--exact"), (["--maximal"], "--maximal"), (["--exact", "--maximal"], "--exact, --maximal")],
    )
    def test_selector_method_refuses_coloring_flags(self, path3_file, tmp_path, capsys, flags, unread):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "4", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        argv = ["schedule", "build", path3_file, "--method", "selector", "--selector", sel, *flags]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: the selector method reads no {unread}\n"

    def test_empty_sweep_is_parameter_error(self, tmp_path, capsys):
        assert main(["experiment", "--sweep", "0", "--out-dir", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

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
