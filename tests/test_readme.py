"""The README's CLI walkthrough runs as written.

Each command of the bash block under "## CLI" runs through ``cli.main`` in a
temporary directory, in order, so that ``c.g6`` exists for the commands that
read it. ``gen cayley`` runs once for each group format quoted in its
comment, written to ``group.grp``. The README says every command exits 0.
"""

import re
import shlex
from pathlib import Path

from cyclemeet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough() -> list[tuple[list[str], list[str]]]:
    """(argv, group file texts) per command of the CLI bash block."""
    block = re.search(r"^## CLI$.*?^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            commands.append((shlex.split(command), re.findall(r"`([^`]+)`", comment)))
    return commands


def test_readme_cli_walkthrough_exits_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough()
    assert len(commands) == 10
    for argv, groups in commands:
        assert argv[0] == "cyclemeet"
        redirect = argv[-1] if argv[-2] == ">" else None
        argv = argv[1:-2] if redirect else argv[1:]
        for group in groups or [None]:
            if group is not None:
                Path("group.grp").write_text(group + "\n")
            assert main(argv) == 0, (argv, group, capsys.readouterr().err)
            out = capsys.readouterr().out
            if redirect:
                Path(redirect).write_text(out)
    assert [len(groups) for _, groups in commands] == [0, 2] + [0] * 8
