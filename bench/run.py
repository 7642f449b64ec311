"""daylux benchmark: host time, set-up time and memory of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src and writes
only under ./.bench_work.  Operations run one at a time in this process or
in one child process at a time (closed loop, no worker threads).

Workloads (the seed picks the program's inputs; the program only sees the
generated configs and CSV files):

  cli_default  `daylux simulate --out-dir DIR` in a fresh interpreter per
               operation, package defaults (2000 steps, fast daylight).  The
               only workload that pays interpreter start, import and argparse.
  sim_long     in-process run_simulation of 20000 fast-daylight steps, no
               artifacts: the step loop does almost all the work.
  sweep        one operation is a pass over a matrix of 600-step scenarios
               (daylight kinds, csv and non-default plants, wiring switches),
               each writing full artifacts: per-run fixed costs dominate.

Every operation's output is checked.  The trajectory is hashed after
projecting it onto today's 11 columns by header name and the summary after
projecting it onto today's key=value keys, so added columns or keys do not
break the check.  At the pinned seed (2, the package's default seeds) the
digests must equal references.json; at any other seed there is no reference,
so all operations must agree byte for byte, and the digest is printed for
comparing commits.  One reference operation at the pinned seed runs first in
every run, so a wrong build fails whatever the seed.

With --trace 0 the last line carries the end-to-end metrics: wall_s (median
seconds per operation), setup_s (median seconds before the first loop step
of an operation; for sweep, summed over the pass's runs) and peak_rss_mb
(peak resident memory of the process that ran the operations).  Both times
are host seconds rescaled to a reference machine speed by a fixed loop timed
between operations (see calibration_s); the raw median is printed too.
With --trace 1 the run alternates untraced and traced operations and the
last line carries the per-module metrics from the traced ones (see
tracing.py), plus the tracing overhead; a module a workload never calls
reads 0.  Lines before the last give sample counts and quartiles, fail_frac
and the machine context.

The benchmark calls the package only through SimConfig, run_simulation,
report.write_run_artifacts, cli.main and the plant/daylight generators and
CSV writers, and it ends set-up at the first call of loop.loop_step.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer, arm_first_step, clock, daylux_modules, peak_rss_mb  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")

PINNED_SEED = 2
SIM_LONG_STEPS = 20000
SWEEP_STEPS = 600
MIN_OPS = 2  # per kind of operation, so held-out seeds always have two to compare
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Speed calibration: see calibration_s().  The reference is the loop's median
# time on the machine the benchmark was defined on (2 vCPU Xeon, 2.1 GHz,
# CPython 3.11), so calibrated seconds read close to that machine's seconds.
CALIBRATION_ITERATIONS = 200000
CALIBRATION_REFERENCE_S = 0.045

TRAJECTORY_COLUMNS = (
    "k", "E_desired", "E_daylight", "E_electric", "E_measured",
    "eps", "deps", "U", "U_IM", "loss_inverse", "loss_controller",
)
RECORD_FIELDS = (
    "k", "e_desired", "e_daylight", "e_electric", "e_measured",
    "eps", "deps", "u", "u_im", "loss_inverse", "loss_controller",
)
SUMMARY_KEYS = (
    "warmup_steps", "n_steady", "eps_min", "eps_max", "frac_in_wide",
    "frac_in_narrow", "frac_meas_in_perception", "rms_eps", "valid",
    "extreme_shell_frac",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "tinynet.forward.calls_per_step": "count/step",
    "tinynet.forward.us": "us",
    "tinynet.train_step.calls_per_step": "count/step",
    "tinynet.train_step.us": "us",
    "tinynet.backprop_gradients.us": "us",
    "tinynet.init_network.us": "us",
    "loop.loop_step.us": "us",
    "loop.loop_step.self_us": "us",
    "loop.controller_action.us": "us",
    "loop.inverse_action.us": "us",
    "loop.train_inverse.us": "us",
    "loop.train_controller.us": "us",
    "loop.run_simulation.us_per_step": "us/step",
    "loop.run_simulation.rss_mb_per_kstep": "MB/kstep",
    "signals.check_d8bv.calls_per_step": "count/step",
    "signals.scale_to_unit.calls_per_step": "count/step",
    "signals.unit_to_d8bv.calls_per_step": "count/step",
    "signals.clamp8_sum.calls_per_step": "count/step",
    "plant.lut_eval.calls_per_step": "count/step",
    "plant.lut_eval.us": "us",
    "plant.load_lut_csv.us": "us",
    "plant.load_daylight_csv.us": "us",
    "plant.gen_daylight.us": "us",
    "config.validate.calls_per_run": "count/run",
    "config.validate.us": "us",
    "config.build_lut.us": "us",
    "config.build_daylight.us": "us",
    "cli.import_s": "s",
    "cli.parse_config.us": "us",
    "cli.main.s": "s",
    "report.write_trajectory_csv.us_per_row": "us/row",
    "report.write_panel_csvs.us_per_row": "us/row",
    "report.write_panel_svgs.us_per_row": "us/row",
    "svgplot.polyline_chart.us_per_point": "us/point",
    "report.summary_text.us": "us",
    "metrics.band_report.us": "us",
    "metrics.extreme_rarity.us": "us",
    "report.bytes_written": "bytes/run",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


@dataclass
class Op:
    """One timed operation and what it produced."""

    wall_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    digest: dict | None = None
    error: str | None = None
    sim_s: float = 0.0
    sim_steps: int = 0
    runs: int = 0
    bytes_written: int = 0
    traced: bool = False


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


# ---------------------------------------------------------------- digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell(value) -> str:
    if isinstance(value, float):
        s = f"{value:.9g}"
        return "0" if s == "-0" else s
    return str(value)


def trajectory_digest(text: str) -> str:
    """SHA-256 of a trajectory CSV projected onto today's columns, by header name."""
    lines = text.split("\n")
    header = lines[0].split(",")
    idx = [header.index(c) for c in TRAJECTORY_COLUMNS]
    rows = [",".join(TRAJECTORY_COLUMNS)]
    rows += [",".join(cells[i] for i in idx) for cells in (ln.split(",") for ln in lines[1:] if ln)]
    return _sha("\n".join(rows) + "\n")


def records_digest(records) -> str:
    """The trajectory digest of an in-memory record stream, read by field name."""
    rows = [",".join(TRAJECTORY_COLUMNS)]
    rows += [",".join(_cell(getattr(r, f)) for f in RECORD_FIELDS) for r in records]
    return _sha("\n".join(rows) + "\n")


def summary_digest(text: str) -> str:
    """SHA-256 of the summary's key=value block, projected onto today's keys."""
    kv = dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln and " " not in ln)
    return _sha("".join(f"{k}={kv[k]}\n" for k in SUMMARY_KEYS))


def artifacts_digest(out_dir: str) -> tuple[dict, int]:
    """Digests of a run's artifacts and the bytes the run wrote."""
    with open(os.path.join(out_dir, "trajectory.csv"), encoding="utf-8") as fh:
        traj = trajectory_digest(fh.read())
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        summ = summary_digest(fh.read())
    size = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    return {"trajectory": traj, "summary": summ}, size


# ---------------------------------------------------------------- workloads


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _fresh(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for entry in os.scandir(path):
        if entry.is_file():
            os.remove(entry.path)


class CliDefault:
    """`daylux simulate` in a fresh interpreter, one process per operation."""

    name = "cli_default"

    def __init__(self, dl) -> None:
        self.out = os.path.join(WORK, "cli_default")
        self.probe = os.path.join(WORK, "cli_default.probe.json")

    def inputs(self, seed: int) -> list[str]:
        argv = ["simulate", "--out-dir", self.out]
        if seed != PINNED_SEED:
            argv += ["--seed-controller", str(seed), "--seed-inverse", str(seed),
                     "--seed-daylight", str(seed)]
        return argv

    def op(self, argv, tracer: Tracer | None, op_id: int) -> Op:
        _fresh(self.out)
        if os.path.exists(self.probe):
            os.remove(self.probe)
        cmd = [sys.executable, CHILD, self.probe, "1" if tracer else "0", *argv]
        t0 = clock()
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        op = Op(clock() - t0, traced=tracer is not None)
        if proc.returncode != 0:
            op.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return op
        with open(self.probe, encoding="utf-8") as fh:
            probe = json.load(fh)
        op.rss_mb = probe["peak_rss_mb"]
        if probe["first_step"] is not None:
            op.setup_s = probe["first_step"] - t0
        op.sim_s = sum(s for s, _ in probe["sims"])
        op.sim_steps = sum(n for _, n in probe["sims"])
        op.runs = len(probe["sims"])
        if tracer:
            tracer.merge(probe["trace"], op_id)
        op.digest, op.bytes_written = artifacts_digest(self.out)
        return op


def _simulate(dl, cfg):
    """run_simulation(cfg), timed; returns (records, setup_s, sim_s)."""
    marks: list[float] = []
    disarm = arm_first_step(dl.loop, marks)
    t0 = clock()
    try:
        records, _ = dl.loop.run_simulation(cfg)
    finally:
        t1 = clock()
        disarm()
    return records, (marks[0] - t0 if marks else None), t1 - t0


def _in_process(body, inputs, tracer: Tracer | None, op_id: int) -> Op:
    if tracer is None:
        return body(inputs)
    tracer.install(daylux_modules())
    try:
        op = tracer.run(op_id, body, inputs)
    finally:
        tracer.uninstall()
    op.traced = True
    return op


class SimLong:
    """One long in-process fast-daylight simulation per operation, no artifacts."""

    name = "sim_long"

    def __init__(self, dl) -> None:
        self.dl = dl

    def inputs(self, seed: int):
        return self.dl.SimConfig(
            steps=SIM_LONG_STEPS, seed_controller=seed, seed_inverse=seed, seed_daylight=seed
        )

    def _body(self, cfg) -> Op:
        records, setup, sim_s = _simulate(self.dl, cfg)
        return Op(sim_s, setup, digest={"records": records_digest(records)},
                  sim_s=sim_s, sim_steps=len(records), runs=1)

    def op(self, cfg, tracer: Tracer | None, op_id: int) -> Op:
        return _in_process(self._body, cfg, tracer, op_id)


class Sweep:
    """A pass over a scenario matrix of short runs, each writing full artifacts."""

    name = "sweep"

    def __init__(self, dl) -> None:
        self.dl = dl

    def inputs(self, seed: int) -> list[tuple[str, object]]:
        """The scenario configs for a seed; writes the csv plant and daylight once."""
        dl = self.dl
        src = os.path.join(WORK, f"sweep-inputs-{seed}")
        os.makedirs(src, exist_ok=True)
        lut_csv = os.path.join(src, "lut.csv")
        day_csv = os.path.join(src, "daylight.csv")
        dl.save_lut_csv(dl.synth_default_lut(e_max=210, gamma_shape=1.1, knot_count=24), lut_csv)
        dl.save_daylight_csv(
            dl.gen_daylight("fast", SWEEP_STEPS, seed=seed + 3, base=90, amplitude=80), day_csv
        )
        variants = {
            "constant_0": {"daylight_source": "constant:0"},
            "constant_30": {"daylight_source": "constant:30"},
            "constant_90": {"daylight_source": "constant:90"},
            "constant_255": {"daylight_source": "constant:255"},
            "step": {"daylight_source": "step:20,60,300"},
            "ramp": {"daylight_source": "ramp:0,80"},
            "fast_a": {},
            "fast_b": {"seed_daylight": seed + 1},
            "fast_c": {"seed_daylight": seed + 2},
            "csv_daylight": {"daylight_source": f"csv:{day_csv}"},
            "csv_lut": {"lut_source": f"csv:{lut_csv}"},
            "synthetic_lut": {"lut_source": "synthetic:e_max=230,shape=1.7,knots=16"},
            "plant_delay_0": {"plant_delay": 0},
            "inverse_target_lag_1": {"inverse_target_lag": 1},
            "shared255": {"error_scaling": "shared255"},
            "no_bias": {"use_bias": False},
        }
        base = {"steps": SWEEP_STEPS, "seed_controller": seed, "seed_inverse": seed,
                "seed_daylight": seed}
        return [
            (name, dl.SimConfig(**{**base, **over, "out_dir": os.path.join(WORK, "sweep", name)}))
            for name, over in variants.items()
        ]

    def _body(self, scenarios) -> Op:
        op = Op(0.0, setup_s=0.0)
        t0 = clock()
        for _, cfg in scenarios:
            records, setup, sim_s = _simulate(self.dl, cfg)
            self.dl.report.write_run_artifacts(records, cfg.warmup, cfg.out_dir)
            if setup is None or op.setup_s is None:
                op.setup_s = None  # a run whose loop never started: no set-up time
            else:
                op.setup_s += setup
            op.sim_s += sim_s
            op.sim_steps += len(records)
            op.runs += 1
        op.wall_s = clock() - t0
        return op

    def op(self, scenarios, tracer: Tracer | None, op_id: int) -> Op:
        for _, cfg in scenarios:
            _fresh(cfg.out_dir)
        op = _in_process(self._body, scenarios, tracer, op_id)
        op.digest = {}
        for name, cfg in scenarios:
            op.digest[name], size = artifacts_digest(cfg.out_dir)
            op.bytes_written += size
        return op


WORKLOADS = {w.name: w for w in (CliDefault, SimLong, Sweep)}


# ---------------------------------------------------------------- measuring


def load_package():
    """Import daylux from ./src; refuse any other copy."""
    init = os.path.join(SRC, "daylux", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package source at {init}; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import daylux
    import daylux.report

    if os.path.realpath(daylux.__file__) != os.path.realpath(init):
        raise SetupError(f"imported daylux from {daylux.__file__}, expected {init}")
    return daylux


def _spawn_median(code: str, repeats: int = PROBE_REPEATS) -> float:
    """Median wall seconds of a fresh interpreter running `python -c code`."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                       timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(clock() - t0)
    return statistics.median(times)


RSS_PROBE = (
    "import sys\n"
    "from daylux import SimConfig, run_simulation\n"
    "records, _ = run_simulation(SimConfig(steps=int(sys.argv[1])))\n"
    "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
)


def rss_mb_per_kstep(short: int = 1000, long: int = 11000) -> float:
    """Peak-RSS growth of run_simulation per 1000 steps, from two fresh processes."""
    peaks = []
    for steps in (short, long):
        out = subprocess.run([sys.executable, "-c", RSS_PROBE, str(steps)], env=_env(),
                             check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        peaks.append(int(out.stdout.split()[-1]) / 1024)
    return (peaks[1] - peaks[0]) / ((long - short) / 1000)


def machine_context(dl, startup_s: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "proc.startup_s": startup_s,
        "daylux_version": dl.__version__,
    }


def _calibration_step(x: float, i: int) -> float:
    return math.exp(-abs(x) * 0.5) + (i % 7) * 0.125


def calibration_s() -> float:
    """Seconds this machine takes right now for a fixed pure-Python loop.

    On a shared machine the speed drifts by tens of percent over seconds to
    minutes, alike for any interpreter-bound code.  On a 2-vCPU Xeon VM,
    across 30 s windows, the median time of a 20000-step simulation spread
    12% to 25% (IQR/median) while its ratio to this loop, timed on either
    side of it, spread 3% to 8%.  The loop allocates nothing that outlives
    an iteration, so it does not raise the peak memory being measured.
    """
    t0 = clock()
    x = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        x = _calibration_step(x, i)
    return clock() - t0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, untraced: list[Op], traced: list[Op],
              import_s: float, rss_per_kstep: float) -> dict[str, float]:
    tot = tracer.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}

    def get(name):
        return tot.get(name, empty)

    def per_call(name, key="total_s", scale=1e6):
        t = get(name)
        return t[key] / t["calls"] * scale if t["calls"] else 0.0

    def per_unit(name):
        t = get(name)
        return t["total_s"] / t["size"] * 1e6 if t["size"] else 0.0

    steps = get("loop.loop_step")["calls"]
    sims = get("loop.run_simulation")["calls"]
    out = {}
    for name in PER_LAYER:
        module, _, rest = name.partition(".")
        func, _, kind = rest.rpartition(".")
        span = f"{module}.{func}"
        if kind == "calls_per_step":
            out[name] = get(span)["calls"] / steps if steps else 0.0
        elif kind == "us":
            out[name] = per_call(span)
        elif kind == "self_us":
            out[name] = per_call(span, "self_s")
        elif kind in ("us_per_row", "us_per_point"):
            out[name] = per_unit(span)
    out["config.validate.calls_per_run"] = get("config.validate")["calls"] / sims if sims else 0.0
    out["cli.main.s"] = per_call("cli.main", scale=1.0)
    out["cli.import_s"] = import_s
    sim_steps = sum(op.sim_steps for op in untraced)
    out["loop.run_simulation.us_per_step"] = (
        sum(op.sim_s for op in untraced) / sim_steps * 1e6 if sim_steps else 0.0
    )
    out["loop.run_simulation.rss_mb_per_kstep"] = rss_per_kstep
    runs = sum(op.runs for op in untraced + traced)
    out["report.bytes_written"] = (
        sum(op.bytes_written for op in untraced + traced) / runs if runs else 0.0
    )
    out["trace.overhead_s"] = _median(op.wall_s for op in traced) - _median(
        op.wall_s for op in untraced
    )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, references: dict | None = None) -> Result:
    """Measure one workload; returns metrics, counts and report lines."""
    dl = load_package()
    os.makedirs(WORK, exist_ok=True)
    if references is None:
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    w = WORKLOADS[workload](dl)
    startup_s = _spawn_median("pass")
    pinned_inputs = w.inputs(PINNED_SEED)
    inputs = pinned_inputs if seed == PINNED_SEED else w.inputs(seed)
    reference = references[workload]

    def guarded(fn, *args) -> Op:
        t0 = clock()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            return Op(clock() - t0, error=f"{type(exc).__name__}: {exc}")

    # The reference operation: pinned seed, untimed, also the warm-up.
    ref_op = guarded(w.op, pinned_inputs, None, 0)
    if ref_op.error is None and ref_op.digest != reference:
        ref_op.error = "digest differs from references.json at the pinned seed"

    tracer = Tracer() if trace else None
    import_s = rss_per_kstep = 0.0
    if trace:
        _spawn_median("import daylux.cli", 1)  # compile once before timing
        import_s = _spawn_median("import daylux.cli") - startup_s
        rss_per_kstep = rss_mb_per_kstep()

    ops: list[Op] = []
    calibrations = [calibration_s()]
    deadline = clock() + seconds
    while len(ops) < MIN_OPS * (2 if trace else 1) or clock() < deadline:
        traced = trace and len(ops) % 2 == 1
        ops.append(guarded(w.op, inputs, tracer if traced else None, len(ops) + 1))
        calibrations.append(calibration_s())
    # Each operation at the reference speed, from the loops timed on either side.
    speeds = [2 * CALIBRATION_REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]

    expected = reference if seed == PINNED_SEED else None
    for op in ops:
        if op.error is None and op.setup_s is None:
            op.error = "no loop step observed"
        if op.error is not None:
            continue
        if expected is None:
            expected = op.digest
        elif op.digest != expected:
            op.error = ("digest differs from references.json" if seed == PINNED_SEED
                        else "digest differs from the run's first operation")

    all_ops = [ref_op] + ops
    failed = sum(op.error is not None for op in all_ops)
    untraced = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    lines = [f"daylux benchmark: workload={workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)}"]
    lines.append("context: " + json.dumps(machine_context(dl, startup_s), sort_keys=True))
    lines.append(f"reference op (pinned seed {PINNED_SEED}): "
                 + ("ok" if ref_op.error is None else f"FAILED: {ref_op.error}"))
    for op in ops:
        if op.error is not None:
            lines.append(f"op failed: {op.error}")
    if expected is not None:
        mode = "pinned seed, checked against references.json" if seed == PINNED_SEED \
            else "held-out seed, operations agree byte for byte"
        combined = _sha(json.dumps(expected, sort_keys=True))
        lines.append(f"digest: {combined} ({mode})")
        if "trajectory" in expected:
            lines.append(f"trajectory digest: {expected['trajectory']}")

    raw_walls = [op.wall_s for op in untraced]
    walls = [op.wall_s * v for op, v in zip(ops, speeds) if not op.traced]
    setups = [op.setup_s * v for op, v in zip(ops, speeds)
              if not op.traced and op.setup_s is not None]
    if workload == "cli_default":
        peak = _median(op.rss_mb for op in untraced)
    else:
        peak = peak_rss_mb()
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        if values:
            q1, med, q3 = _quartiles(values)
            lines.append(f"{name} = {med:.6g} s at reference speed "
                         f"(n={len(values)}, q1={q1:.6g}, q3={q3:.6g})")
    lines.append(f"raw wall_s = {_median(raw_walls):.6g} s; machine speed = "
                 f"{_median(speeds):.4g} x reference (median over operations)")
    lines.append(f"peak_rss_mb = {peak:.6g} MB")
    lines.append(f"fail_frac = {failed / len(all_ops):.6g} ({failed} of {len(all_ops)} operations)")

    if trace:
        values = per_layer(tracer, untraced, traced_ops, import_s, rss_per_kstep)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        trace_path = os.path.join(WORK, f"{workload}.trace.csv")
        tracer.write(trace_path, 2)  # operations alternate untraced, traced: 2 is the first traced
        lines.append(f"spans: {len(tracer.span_name)} recorded over {len(traced_ops)} traced "
                     f"operations; operation 2 written to {trace_path}")
        lines.append(f"trace.overhead_s = {values['trace.overhead_s']:.6g} s "
                     f"(traced {_median(op.wall_s for op in traced_ops):.6g} s, "
                     f"untraced {_median(raw_walls):.6g} s)")
    else:
        values = {"wall_s": _median(walls), "setup_s": _median(setups), "peak_rss_mb": peak}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return Result(failed == 0, len(all_ops), failed, metrics, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
