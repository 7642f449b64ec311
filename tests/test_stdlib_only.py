"""The package has no runtime dependencies: it imports only the standard library.

It also keeps its start-up lean: every `daylux` command is a fresh process
that pays for each module imported.
Its sources parse at the Python version pyproject.toml declares as the floor.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daylux

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


def test_a_simulate_run_loads_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses, with the inspect, ast, dis and tokenize it imports, costs
    # about 15 ms per CLI run; nothing the package does needs them.
    probe = "import sys; {}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"

    def loaded(code: str) -> str:
        child = subprocess.run(
            [sys.executable, "-c", probe.format(code)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        )
        return child.stdout.splitlines()[-1]

    run = ("import daylux.cli; "
           f"daylux.cli.main(['simulate', '--steps', '5', '--out-dir', {str(tmp_path)!r}])")
    assert loaded(run) == loaded("pass")


def test_the_sources_parse_at_the_declared_python_floor():
    # Only the grammar is checked: a call into a 3.11-only stdlib function
    # still passes, because the tests run on whatever Python is installed.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject.splitlines()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=(3, 10))
