"""README's examples agree with the code: its config loads and names every
key, its command lines parse and run every command, and its output layout
names every artifact."""

import re
from pathlib import Path

import pytest

from glossmt.cli import ARTIFACTS, COMMANDS, build_parser
from glossmt.config import _KEYS, load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(pattern):
    """The first fenced block that follows ``pattern`` in README."""
    match = re.search(pattern + r".*?```\w*\n(.*?)```", README, re.S)
    assert match, pattern
    return match.group(1)


CONFIG = block("## Configuration")
PIPELINE = block("## Pipeline")
LAYOUT = block("### Output layout")
COMMAND_LINES = [
    line.split()[1:]
    for fenced in re.findall(r"```\w*\n(.*?)```", README, re.S)
    for line in fenced.splitlines()
    if line.startswith("glossmt ")
]


def test_config_example_loads(tmp_path):
    (tmp_path / "data").mkdir()
    for name in ("corpus.en", "corpus.es", "terms_en_es.tsv"):
        (tmp_path / "data" / name).write_text("", encoding="utf-8")
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG, encoding="utf-8")
    config = load_config(path)
    assert config.template_family == "chatml"
    assert config.pairs[0].counting_scheme == "whitespace"
    assert config.mqm_tokens == "raw"
    assert config.pairs[0].glossary_path == tmp_path / "data" / "terms_en_es.tsv"


@pytest.mark.parametrize("section", sorted(_KEYS))
def test_config_example_names_every_key(section):
    assert ("[pair." if section == "pair" else f"[{section}]") in CONFIG
    for key in _KEYS[section]:
        assert re.search(rf"^(; )?{key} = ", CONFIG, re.M), key


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_command_line_parses(argv):
    # README cannot show an option the parser lacks.
    build_parser().parse_args(argv)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_pipeline_runs_every_command(name):
    assert re.search(rf"^glossmt {name} ", PIPELINE, re.M), name


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_output_layout_names_every_artifact(name):
    assert re.search(rf"^  {re.escape(ARTIFACTS[name][0])} ", LAYOUT, re.M), name
