"""The README's file-format examples: each reads, writes back unchanged
and reads again to the same object."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from radiosched import graphs, schedules, selectors, traffic

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
