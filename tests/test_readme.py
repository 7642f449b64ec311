"""README's examples run as written, print what it quotes, and its Layout is the package."""

import re
import shlex
from pathlib import Path

from daylux.cli import main

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
BLOCKS = FENCED.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def block_starting(prefix: str) -> str:
    (body,) = [body for _, body in BLOCKS if body.startswith(prefix)]
    return body


def readme_commands() -> list[list[str]]:
    """Every `daylux ...` line of the sh blocks, comments cut, in README order."""
    commands = []
    for lang, body in BLOCKS:
        if lang == "sh":
            for line in body.splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["daylux"]:
                    commands.append(argv)
    return commands


def test_readme_commands_exit_0_and_print_the_quoted_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(block_starting("# run.cfg"), encoding="utf-8")
    commands = readme_commands()
    assert commands[0] == ["daylux"]  # the default run, whose output README quotes
    outputs = []
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        outputs.append(capsys.readouterr().out.splitlines())
    quoted = [line for line in block_starting("wrote ").splitlines() if line != "..."]
    for line in quoted:
        assert line in outputs[0]


def test_readme_layout_names_every_module():
    listed = block_starting("src/daylux/\n").splitlines()[1:]
    assert {line.split()[0] for line in listed} == {
        p.name for p in (ROOT / "src" / "daylux").glob("*.py")
    }
