"""README's examples run as written, print what it quotes, its regime table
is what the runs measure, and its Layout is the package."""

import re
import shlex
from pathlib import Path

from daylux.cli import main
from daylux.config import SimConfig
from daylux.loop import run_simulation
from daylux.metrics import band_report

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = FENCED.findall(README)


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


def test_readme_regime_table_is_what_the_default_runs_measure():
    section = README.split("## Regulation regimes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\S+)` \| (.+?) \| ([\d.]+)% \|$", section, re.M)
    assert [spec for spec, _, _ in rows] == [
        "constant:0", "constant:30", "constant:60", "step:20,60,1000", "ramp:0,80",
    ]
    for spec, steady_eps, wide_pct in rows:
        cfg = SimConfig(daylight_source=spec)
        report = band_report(run_simulation(cfg)[0], cfg.warmup)
        low, _, high = steady_eps.removesuffix(" on every step").partition(" to ")
        assert (report.eps_min, report.eps_max) == (int(low), int(high or low)), spec
        assert round(100.0 * report.frac_in_wide, 1) == float(wide_pct), spec
