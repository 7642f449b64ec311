"""The package has no runtime dependencies: it imports only the standard library.

It also keeps its start-up lean: every `daylux` command is a fresh process
that pays for each module imported.
Its sources parse at the Python version pyproject.toml declares as the floor,
and it declares the version pyproject.toml does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daylux
from daylux.plant import gen_daylight, save_daylight_csv, save_lut_csv, synth_default_lut

PACKAGE = Path(daylux.__file__).parent


def test_every_absolute_import_is_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


PROBE = "import sys; {}; print(sorted({{'csv', 'dataclasses', 'inspect'}} & set(sys.modules)))"


def loaded(code: str) -> str:
    """Which of csv, dataclasses and inspect a fresh interpreter has loaded after code."""
    child = subprocess.run(
        [sys.executable, "-c", PROBE.format(code)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return child.stdout.splitlines()[-1]


def simulate(out_dir, *options: str) -> str:
    argv = ["simulate", "--steps", "5", "--out-dir", str(out_dir), *options]
    return f"import daylux.cli; assert daylux.cli.main({argv!r}) == 0"


def test_a_simulate_run_loads_neither_dataclasses_inspect_nor_csv(tmp_path):
    # dataclasses, with the inspect, ast, dis and tokenize it imports, costs
    # about 15 ms per CLI run, and csv about 1 ms and 76 KB; no run needs them.
    assert loaded(simulate(tmp_path)) == loaded("pass")


def test_csv_inputs_load_csv_when_they_are_read(tmp_path):
    # A CSV table or daylight file is read line by line by plant.read_lines,
    # so such a run loads what `pass` loads: the csv module stays unloaded.
    save_lut_csv(synth_default_lut(), tmp_path / "lut.csv")
    save_daylight_csv(gen_daylight("fast", 5, seed=0), tmp_path / "daylight.csv")
    bare = loaded("pass")
    for option, name in (("--lut", "lut.csv"), ("--daylight", "daylight.csv")):
        assert loaded(simulate(tmp_path / "out", option, f"csv:{tmp_path / name}")) == bare


def test_the_sources_parse_at_the_declared_python_floor():
    # Only the grammar is checked: a call into a 3.11-only stdlib function
    # still passes, because the tests run on whatever Python is installed.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject.splitlines()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=(3, 10))


def test_the_package_and_pyproject_declare_the_same_version():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert f'version = "{daylux.__version__}"' in pyproject.splitlines()
