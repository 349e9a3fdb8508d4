"""Every CLI command the docs show must parse.

Collects each ``python -m repro ...`` and ``python benchmarks/runner.py
...`` command from the fenced code blocks of ``docs/*.md``, ``README.md``
and ``EXPERIMENTS.md``, joins backslash continuations, and parses it
with :func:`repro.cli.build_parser` (``runner.py`` arguments parse as
``bench ...``).  A ``replay`` command with checkpoint options must also
name one ``--policy`` and ``--nodes``: the parser accepts their defaults,
but the command refuses them.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

DOCS = [
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
]


def _fenced_lines(text):
    """``(line number, logical line)`` for every line in a fenced block."""
    fenced = False
    pending, start = "", 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _argv(line):
    """The repro argv of one shell line, or ``None`` if it runs no repro CLI."""
    if "python -m repro" not in line and "python benchmarks/runner.py" not in line:
        return None  # fenced blocks also hold JSON, Python and other tools
    tokens = shlex.split(line, comments=True)
    rest = tokens[tokens.index("python") + 1 :]
    if rest[:1] == ["benchmarks/runner.py"]:
        return ["bench", *rest[1:]]
    return rest[2:]


def _documented_commands():
    found = []
    for doc in DOCS:
        for number, line in _fenced_lines(doc.read_text(encoding="utf-8")):
            argv = _argv(line)
            if argv is not None:
                found.append(
                    pytest.param(argv, id=f"{doc.relative_to(ROOT)}:{number}")
                )
    return found


COMMANDS = _documented_commands()


def test_docs_show_commands():
    assert COMMANDS, "no documented repro commands found; is the scanner broken?"


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    command = shlex.join(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the repro parser rejects: {command}")
    checkpointing = args.command == "replay" and (
        args.checkpoint_dir or args.checkpoint_every or args.resume or args.fork
    )
    if checkpointing:
        assert args.policy != "all", f"checkpoint options need one --policy: {command}"
        assert args.nodes, f"checkpoint options need --nodes: {command}"
