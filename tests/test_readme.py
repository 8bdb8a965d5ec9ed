"""The README's examples are the program's output: every `$ hawkdeco ...`
console example, the quick-start block and the API table."""

import re
import shlex
from pathlib import Path

import pytest

import hawkdeco
from hawkdeco import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
STDERR_PREFIXES = ("note:", "tau_d_s=")


def console_examples() -> list[tuple[str, list[str]]]:
    """(command line, printed lines) of every `$ hawkdeco` example; an
    example's lines run to the next blank line or command."""
    examples = []
    for block in re.findall(r"```console\n(.*?)```", README, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif line:
                examples[-1][1].append(line)
    return examples


EXAMPLES = console_examples()


def test_the_readme_has_its_six_console_examples():
    assert [command.split()[1] for command, _ in EXAMPLES] == [
        "info", "rate", "rate", "sweep", "evolve", "verify"]


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_console_example(capsys, command, printed):
    # stdout line for line, and the stderr lines the README shows; `| tail -N`
    # keeps stdout's last N lines
    argv, _, pipe = command.partition(" | ")
    program, *args = shlex.split(argv)
    assert program == "hawkdeco"
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 0
    out = captured.out.splitlines()
    if pipe:
        tail, flag = pipe.split()
        assert tail == "tail" and flag.startswith("-")
        out = out[-int(flag[1:]):]
    assert out == [line for line in printed if not line.startswith(STDERR_PREFIXES)]
    assert captured.err.splitlines() == [
        line for line in printed if line.startswith(STDERR_PREFIXES)]


def test_quick_start_runs_and_prints_the_stated_time(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert float(printed[1]) == pytest.approx(3.49e-11, rel=2e-3)  # "~3.49e-11 s here"


def test_api_table_names_are_exported():
    table = README.split("| name | purpose |", 1)[1].split("\n\n", 1)[0]
    names = [re.match(r"\w+", cell).group()
             for row in table.splitlines()[2:]
             for cell in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    assert "total_emission_rate" in names
    assert sorted(set(names) - set(hawkdeco.__all__)) == []


def test_all_names_resolve_once():
    assert len(hawkdeco.__all__) == len(set(hawkdeco.__all__))
    for name in hawkdeco.__all__:
        assert getattr(hawkdeco, name) is not None
