"""run_simulation against the plainly written reference loop over seeded random configs.

Each config draws its plant table, daylight, setpoint, seeds, learning rates
and wiring switches from one SplitMix64 stream.  The two loops must write the
same trajectory.csv bytes and end with bit-identical weights, or diverge at
the same step in the same net.
"""

from math import exp, log

from reference_loop import ReferenceDivergence, run_reference

from daylux.config import SimConfig
from daylux.loop import DivergenceError, run_simulation
from daylux.plant import DaylightTrajectory, ProcessLut, save_daylight_csv, save_lut_csv
from daylux.report import write_trajectory_csv
from daylux.rng import SplitMix64
from daylux.signals import ERROR_SCALINGS

N_CONFIGS = 100
STEPS = 150
DAYLIGHT_KINDS = ("constant", "step", "ramp", "fast", "csv")
# Learning rates are drawn log-uniformly from this span.  Runs start to
# diverge within STEPS at about 4 and most do above 10, so both outcomes occur.
GAMMA_SPAN = (0.01, 15.0)
WIRING = {
    "error_scaling": set(ERROR_SCALINGS),
    "inverse_target_lag": {0, 1},
    "plant_delay": {0, 1},
    "use_bias": {False, True},
}


def draw_config(rng: SplitMix64, i: int, tmp_path) -> SimConfig:
    def level() -> int:
        return rng.randbelow(256)

    def gamma() -> float:
        return exp(rng.uniform(log(GAMMA_SPAN[0]), log(GAMMA_SPAN[1])))

    if rng.randbelow(2):
        us = sorted({rng.randbelow(256) for _ in range(3 + rng.randbelow(20))})
        es = sorted(level() for _ in us)
        path = tmp_path / f"lut{i}.csv"
        save_lut_csv(ProcessLut(tuple(zip(us, es))), path)
        lut_source = f"csv:{path}"
    else:
        lut_source = (f"synthetic:e_max={120 + rng.randbelow(136)},"
                      f"shape={rng.uniform(0.3, 3.0)!r},knots={8 + rng.randbelow(249)}")
    kind = DAYLIGHT_KINDS[i % len(DAYLIGHT_KINDS)]
    if kind == "constant":
        daylight_source = f"constant:{level()}"
    elif kind == "step":
        daylight_source = f"step:{level()},{level()},{rng.randbelow(STEPS + 10)}"
    elif kind == "ramp":
        daylight_source = f"ramp:{level()},{level()}"
    elif kind == "fast":
        daylight_source = (f"fast:base={level()},amplitude={1 + rng.randbelow(255)},"
                           f"step_prob={rng.random()!r},max_jump={1 + rng.randbelow(255)}")
    else:
        path = tmp_path / f"day{i}.csv"
        save_daylight_csv(DaylightTrajectory(tuple(level() for _ in range(STEPS))), path)
        daylight_source = f"csv:{path}"
    return SimConfig(
        steps=STEPS,
        e_desired=level(),
        gamma_controller=gamma(),
        gamma_inverse=gamma(),
        seed_controller=rng.randbelow(1000),
        seed_inverse=rng.randbelow(1000),
        seed_daylight=rng.randbelow(1000),
        lut_source=lut_source,
        daylight_source=daylight_source,
        error_scaling=ERROR_SCALINGS[rng.randbelow(2)],
        inverse_target_lag=rng.randbelow(2),
        plant_delay=rng.randbelow(2),
        use_bias=bool(rng.randbelow(2)),
    )


def outcome(run, cfg, path):
    """The trajectory bytes and weight bits of a run, or where it diverged."""
    try:
        records, nets = run(cfg)
    except (DivergenceError, ReferenceDivergence) as exc:
        return "diverged", exc.net, exc.k
    write_trajectory_csv(records, path)
    weights = [[w.hex() for w in row] for net in nets for row in net.w1 + [net.w2]]
    return path.read_bytes(), weights


def test_run_simulation_matches_the_reference_loop(tmp_path):
    rng = SplitMix64(20101)
    seen = {key: set() for key in ("daylight", "lut", *WIRING)}
    diverged = 0
    for i in range(N_CONFIGS):
        cfg = draw_config(rng, i, tmp_path)
        got = outcome(run_simulation, cfg, tmp_path / "got.csv")
        want = outcome(run_reference, cfg, tmp_path / "want.csv")
        assert got == want, cfg
        diverged += got[0] == "diverged"
        seen["daylight"].add(cfg.daylight_source.partition(":")[0])
        seen["lut"].add(cfg.lut_source.partition(":")[0])
        for key in WIRING:
            seen[key].add(getattr(cfg, key))
    assert seen == {"daylight": set(DAYLIGHT_KINDS), "lut": {"synthetic", "csv"}, **WIRING}
    assert 0 < diverged < N_CONFIGS // 2
