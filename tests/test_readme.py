"""The README's examples run, and its configuration table lists exactly the
keys the parser accepts."""

import re
import shlex
from pathlib import Path

from eulerreach import benchcli
from eulerreach.benchcli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language after heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("## Library quick start", "python"), "README.md", "exec"), {})


def test_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("## Command line", "sh").splitlines() if line]
    # one example per subcommand
    assert sorted(shlex.split(line)[1] for line in lines) == sorted([*benchcli.COMMANDS, "sweep"])
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "eulerreach"
        assert main(argv) == EXIT_OK, line


def test_configuration_table_lists_every_key():
    table = README.split("\n### Configuration\n", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(benchcli._FIELDS)
