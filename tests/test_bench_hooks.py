"""The benchmark's tracer and its pinned call counts, checked against daylux.

The tracer replaces names by attribute lookup, so a renamed or deleted one
breaks each traced benchmark operation; and the benchmark's self-test pins
calls per step, which a hot-path edit can move.  Files under bench/ are only
read here, never imported as package modules.
"""

import ast
import importlib
import pkgutil
import runpy
from pathlib import Path

import daylux
import daylux.loop as loop_mod
from daylux.cli import main
from daylux.config import SimConfig
from daylux.loop import StepRecord, run_simulation
from daylux.metrics import band_report
from daylux.report import TRAJECTORY_HEADER, summary_text, write_run_artifacts

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = runpy.run_path(str(BENCH / "tracing.py"))


def test_every_traced_name_exists_in_daylux():
    # The tracer skips a home module that is not loaded and finds each name by
    # lookup, so a module or function that goes away would drop its metric
    # without an error.  Load every daylux module, then check that each name
    # resolves and that installing the tracer really wraps it at home.
    modules = {
        info.name: importlib.import_module(f"daylux.{info.name}")
        for info in pkgutil.iter_modules(daylux.__path__)
    }
    targets = [
        (module, name)
        for group in (TRACING["TIMED"], TRACING["COUNTED"])
        for module, names in group.items()
        for name in names
    ]
    assert len(targets) > 20
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(modules.get(module), name, None))
    ]
    for module, cls, method in TRACING["TIMED_METHODS"]:
        owner = getattr(modules.get(module), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []
    originals = {target: getattr(modules[target[0]], target[1]) for target in targets}
    tracer = TRACING["Tracer"]()
    tracer.install(TRACING["daylux_modules"]())
    try:
        unwrapped = [f"{m}.{n}" for (m, n), f in originals.items() if getattr(modules[m], n) is f]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert all(getattr(modules[m], n) is f for (m, n), f in originals.items())


def _bench_pin(name: str, source: str = "test_bench.py"):
    """The literal a top-level assignment in bench/<source> gives `name`."""
    tree = ast.parse((BENCH / source).read_text(encoding="utf-8"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{source} assigns no {name}")


def test_traced_calls_per_step_match_the_benchmark_pins():
    # count over two run lengths so that set-up calls cancel out; the
    # difference holds the daylight samples' own checks, as a long run does
    pins = _bench_pin("EXPECTED_PER_STEP")
    assert pins
    for wiring in (
        {"plant_delay": 1},
        {"plant_delay": 0},
        {"inverse_target_lag": 1},
        {"error_scaling": "shared255"},
        {"use_bias": False},
    ):
        calls = []
        for steps in (50, 150):
            tracer = TRACING["Tracer"]()
            tracer.install(TRACING["daylux_modules"]())
            try:
                run_simulation(SimConfig(steps=steps, **wiring))
            finally:
                tracer.uninstall()
            calls.append({name: row["calls"] for name, row in tracer.totals().items()})
        assert [c["loop.loop_step"] for c in calls] == [50, 150], wiring
        per_step = {name: (calls[1][name] - calls[0][name]) / 100 for name in pins}
        assert per_step == pins, wiring


def test_validate_calls_per_run_match_the_benchmark_pins(tmp_path):
    # one operation shaped like each workload's: a CLI simulate validates in
    # parse_config and again in run_simulation; an in-process run only there.
    # run_simulation is looked up on its module, where the tracer wraps it.
    def cli_default():
        assert main(["simulate", "--steps", "20", "--out-dir", str(tmp_path / "cli")]) == 0

    def sweep():
        records, _ = loop_mod.run_simulation(SimConfig(steps=20))
        write_run_artifacts(records, 5, tmp_path / "sweep")

    operations = {
        "cli_default": cli_default,
        "sim_long": lambda: loop_mod.run_simulation(SimConfig(steps=20)),
        "sweep": sweep,
    }
    pins = _bench_pin("EXPECTED_VALIDATE_PER_RUN")
    assert pins.keys() == operations.keys()
    for workload, operation in operations.items():
        tracer = TRACING["Tracer"]()
        tracer.install(TRACING["daylux_modules"]())
        try:
            operation()
        finally:
            tracer.uninstall()
        calls = {name: row["calls"] for name, row in tracer.totals().items()}
        assert calls["loop.run_simulation"] == 1, workload
        assert calls["config.validate"] == pins[workload], workload


def test_the_benchmark_names_the_same_columns_and_record_fields():
    # bench/run.py hashes trajectories projected by column name and records
    # read by field name, so a renamed column or field breaks every
    # benchmark operation; here it breaks a tier-1 test instead
    columns = _bench_pin("TRAJECTORY_COLUMNS", "run.py")
    assert list(columns) == TRAJECTORY_HEADER.split(",")
    assert tuple(_bench_pin("RECORD_FIELDS", "run.py")) == tuple(StepRecord.__slots__)


def test_the_benchmark_reads_every_summary_key_it_projects():
    # bench/run.py digests summary.txt by reading each of its keys from the
    # key=value block, so a renamed report field fails every benchmark
    # operation with a KeyError; here it fails a tier-1 test instead
    keys = _bench_pin("SUMMARY_KEYS", "run.py")
    assert keys
    records, _ = run_simulation(SimConfig(steps=60, daylight_source="constant:30"))
    for warmup in (20, 60):  # a valid report, then one with nothing steady
        report = band_report(records, warmup)
        assert report.valid == (warmup < 60)
        block = summary_text(report).split("\n\n", 1)[1]
        kv = dict(line.split("=", 1) for line in block.splitlines())
        assert [k for k in keys if k not in kv] == [], warmup
