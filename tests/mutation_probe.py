"""Mutation probe: which compare operators and int literals does tier-1 pin?

Each mutant changes one spot of one module:
  - a compare operator swaps `<` with `<=`, `>` with `>=` or `==` with `!=`;
  - an int literal (not a bool) grows by 1.
A worker writes the mutant module with `ast.unparse` into its own copy of
the repository, never into the working tree, and runs tier-1 there with
`-x` and A5 deselected (A5 fails on working code).  A mutant that passes
survives.  Each module is first run unmutated through `ast.unparse`, so a
survivor is never due to formatting alone.  There is one worker per CPU
this process may run on.

Run it by hand; pytest does not collect it:

    python tests/mutation_probe.py plant cli metrics

It prints each survivor as `path:line:col operator`, where line (from 1)
and col (from 0, as `ast` counts) are those of an int literal, or of the
operand on a swapped operator's right, followed by its verdict in the
ledger tests/mutants.txt, or `new` when the ledger has no entry for it.
It then names each stale ledger entry of the modules probed: one whose
mutant was killed, or whose source line is gone.  It exits 1 when a
survivor is new or an entry is stale.  A full run takes minutes.

A ledger entry is two lines: `path operator col verdict: reason`, then the
mutated source line, stripped, indented by four spaces.  Its col counts
from the first character of that stripped line, so an entry holds while
its line moves or is re-indented.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "mutants.txt"
VERDICTS = ("equivalent", "gap")
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", "tests/test_acceptance.py::test_a5_regulation_fast_daylight"]


def mutants(source: str):
    """Yield (line, col, operator, mutant source) for each mutant of a module, in source order."""
    spots = []  # (line, col, operator, index of the node in ast.walk order, index of the op)
    for n, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.Compare):
            for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
                if type(op) in SWAPS:
                    name = f"{type(op).__name__}->{SWAPS[type(op)].__name__}"
                    spots.append((right.lineno, right.col_offset, name, n, i))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            spots.append((node.lineno, node.col_offset, "int+1", n, None))
    for line, col, name, n, i in sorted(spots):
        tree = ast.parse(source)  # a fresh tree per mutant, walked in the same order
        node = list(ast.walk(tree))[n]
        if i is None:
            node.value += 1
        else:
            node.ops[i] = SWAPS[type(node.ops[i])]()
        yield line, col, name, ast.unparse(tree)


def ledger_key(path: Path, lines: list[str], line: int, col: int, name: str):
    """The ledger's key of a mutant: its path, operator, col in the stripped line, and that line."""
    text = lines[line - 1]
    indent = len(text) - len(text.lstrip())
    return path.as_posix(), name, col - indent, text.strip()


def read_ledger() -> dict:
    """Map each ledger entry's key to its verdict."""
    ledger, head = {}, None
    for number, line in enumerate(LEDGER.read_text(encoding="utf-8").splitlines(), 1):
        if head is not None:
            if not line.startswith("    "):
                sys.exit(f"{LEDGER}:{number}: expected the mutated source line, indented by 4")
            path, name, col, verdict = head
            ledger[path, name, int(col), line.strip()] = verdict
            head = None
        elif line and not line.startswith("#"):
            head = line.split(":", 1)[0].split(" ")
            if len(head) != 4 or not head[2].isdigit() or head[3] not in VERDICTS:
                sys.exit(f"{LEDGER}:{number}: expected `path operator col verdict: reason`")
    if head is not None:
        sys.exit(f"{LEDGER}: the last entry has no source line")
    return ledger


def tier1(copy: Path, timeout: float) -> bool:
    """True when tier-1 passes in copy; a run past timeout counts as a failure."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(TIER1, cwd=copy, env=env, timeout=timeout,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/daylux, such as plant")
    ns = parser.parse_args(argv)
    paths = [Path("src", "daylux", f"{name}.py") for name in ns.modules]
    for path in paths:
        if not (ROOT / path).is_file():
            parser.error(f"no module {path}")
    ledger = read_ledger()
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        copies = queue.Queue()
        for n in range(workers):
            copy = Path(scratch, str(n))
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".daylux-*"))
            copies.put(copy)

        def run(path: Path, source: str, timeout: float) -> bool:
            copy = copies.get()
            try:
                (copy / path).write_text(source, encoding="utf-8")
                return tier1(copy, timeout)
            finally:
                (copy / path).write_text((ROOT / path).read_text(encoding="utf-8"),
                                         encoding="utf-8")
                copies.put(copy)

        total = survived = new = 0
        checked = set()  # the modules whose unmutated run passed
        probed = set()  # ledger keys of every mutant made, so a stale entry says why
        survivors = set()
        with ThreadPoolExecutor(workers) as pool:
            for path in paths:
                source = (ROOT / path).read_text(encoding="utf-8")
                lines = source.splitlines()
                start = time.monotonic()
                if not run(path, ast.unparse(ast.parse(source)), timeout=None):
                    print(f"{path}: tier-1 fails on the unmutated module; skipped", file=sys.stderr)
                    continue
                checked.add(str(path))
                timeout = 5 * (time.monotonic() - start) + 30
                jobs = [(line, col, name, pool.submit(run, path, mutant, timeout))
                        for line, col, name, mutant in mutants(source)]
                for line, col, name, job in jobs:
                    total += 1
                    key = ledger_key(path, lines, line, col, name)
                    probed.add(key)
                    if job.result():
                        survived += 1
                        survivors.add(key)
                        new += key not in ledger
                        print(f"{path}:{line}:{col} {name}  {ledger.get(key, 'new')}", flush=True)
    stale = [key for key in ledger if key[0] in checked and key not in survivors]
    for path, name, col, text in stale:
        why = "killed" if (path, name, col, text) in probed else "no such mutant"
        print(f"stale: {path} {name} {col} ({why})\n    {text}")
    print(f"{total} mutants, {total - survived} killed, {survived} survived, "
          f"{new} not in the ledger, {len(stale)} stale ledger entries", file=sys.stderr)
    return 1 if new or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
