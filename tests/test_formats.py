"""The README's file-format examples: each reads, writes back unchanged
and reads again to the same object."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from radiosched import graphs, schedules, selectors, traffic
from radiosched.cli import build_parser, main
from radiosched.errors import FormatError

README = Path(__file__).resolve().parents[1] / "README.md"


def format_examples():
    text = README.read_text()
    section = text[text.index("## File formats") : text.index("## Experiments")]
    return [block + "\n" for block in re.findall(r"```\n(.*?)\n```", section, re.S)]


FORMATS = {
    "graph": (graphs.read_graph, graphs.write_graph, lambda g: (g.nodes, g.links)),
    "selector": (
        selectors.read_selector,
        selectors.write_selector,
        lambda m: (m.n, m.t, m.rows.tolist(), m.claimed_k, m.claimed_eps),
    ),
    "schedule": (
        schedules.read_schedule,
        schedules.write_schedule,
        lambda s: (s.period, s.active, s.link_count, s.claimed_frequency),
    ),
    "trace": (traffic.read_trace, traffic.write_trace, lambda tr: tr),
}


def test_one_example_per_format():
    assert len(format_examples()) == len(FORMATS)


@pytest.mark.parametrize("index, name", list(enumerate(FORMATS)))
def test_readme_example_roundtrip(tmp_path, index, name):
    read, write, view = FORMATS[name]
    example = format_examples()[index]
    src = tmp_path / "example.txt"
    src.write_text(example)
    obj = read(src)
    out = tmp_path / "written.txt"
    write(obj, out)
    assert out.read_text() == example
    assert view(read(out)) == view(obj)


# one row per malformed file: the reader raises FormatError, the CLI exits 3
MALFORMED = {
    "nodes-not-int": ("graph", "nodes x\n"),
    "edge-not-int": ("graph", "nodes 2\nedge 0 x\n"),
    "period-not-int": ("schedule", "schedule period=x links=1\n"),
    "period-negative": ("schedule", "schedule period=-1 links=1\n"),
    "schedule-kind": ("schedule", "schedules period=1 links=1\n0\n"),
    "schedule-key-repeated": ("schedule", "schedule period=1 links=2 links=3\n0\n"),
    "schedule-half-claim": ("schedule", "schedule period=1 links=1 rho=1/2\n0\n"),
    "n-not-int": ("selector", "uss n=x t=1\n1\n"),
    "k-not-int": ("selector", "uss n=2 t=1 k=z\n11\n"),
    "selector-kind": ("selector", "ussx n=2 t=1\n11\n"),
    "selector-key-repeated": ("selector", "uss n=3 t=1 n=2\n11\n"),
    "no-columns": ("selector", "uss n=0 t=0\n"),
    "k-zero": ("selector", "uss n=2 t=1 k=0\n11\n"),
    "k-above-n": ("selector", "uss n=2 t=1 k=3\n11\n"),
    "eps-negative": ("selector", "uss n=2 t=1 k=2 eps=-1/2\n11\n"),
    "eps-above-one": ("selector", "uss n=2 t=1 k=2 eps=3/2\n11\n"),
    "horizon-not-int": ("trace", "# horizon x\ninject 0 0 0\n"),
    "link-negative": ("trace", "inject 0 0 -1\ninject 0 1 -1\ninject 0 2 -1\ninject 1 3 0\n"),
}

COMMANDS = {
    "graph": lambda path, graph: ["conflict-graph", path],
    "selector": lambda path, graph: ["verify-selector", path],
    "schedule": lambda path, graph: ["schedule", "verify", graph, path],
    "trace": lambda path, graph: ["validate-trace", path, "--rho", "1/2", "--burst", "1"],
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_is_format_error(tmp_path, capsys, case):
    name, text = MALFORMED[case]
    src = tmp_path / "bad.txt"
    src.write_text(text)
    with pytest.raises(FormatError):
        FORMATS[name][0](src)
    graph = tmp_path / "graph.txt"
    graphs.write_graph(graphs.path_graph(3), graph)
    assert main(COMMANDS[name](str(src), str(graph))) == 3


def readme_commands(heading: str, next_heading: str) -> list[str]:
    text = README.read_text()
    section = text[text.index(heading) : text.index(next_heading)]
    lines = "\n".join(re.findall(r"```\n(.*?)\n```", section, re.S)).replace("\\\n", " ")
    return [line for line in lines.splitlines() if line.startswith("radiosched ")]


@pytest.mark.parametrize(
    "heading, next_heading", [("## CLI", "## File formats"), ("## Experiments", "## Tests")]
)
def test_readme_commands_parse(heading, next_heading):
    commands = readme_commands(heading, next_heading)
    assert commands
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # exits 3 on drift


def leaf_commands(parser, prefix=()) -> list[str]:
    """Every runnable subcommand path of the parser, such as 'schedule build'."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [leaf for name, sub in subs[0].choices.items() for leaf in leaf_commands(sub, (*prefix, name))]


def test_readme_lists_every_command():
    commands = [f"{c} " for c in readme_commands("## CLI", "## File formats")]
    missing = [
        leaf for leaf in leaf_commands(build_parser())
        if not any(c.startswith(f"radiosched {leaf} ") for c in commands)
    ]
    assert not missing
