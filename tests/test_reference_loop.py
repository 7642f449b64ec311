"""run_simulation against the plainly written reference loop over seeded random configs.

Each config draws its plant table, daylight, setpoint, seeds, learning rates
and wiring switches from one SplitMix64 stream.  The two loops must write the
same trajectory.csv bytes and end with bit-identical weights, or diverge at
the same step in the same net.  Every record of a run that does not diverge
must also satisfy the plant and error identities, whatever the nets learn.
"""

from math import exp, log

import reference_loop
from reference_loop import ReferenceDivergence, run_reference

from daylux.config import SimConfig, build_lut
from daylux.loop import DivergenceError, run_simulation
from daylux.plant import (
    DaylightTrajectory,
    ProcessLut,
    lut_eval,
    save_daylight_csv,
    save_lut_csv,
)
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


EIGHT_BIT_COLUMNS = ("e_desired", "e_daylight", "e_electric", "e_measured", "u", "u_im")


def check_record_invariants(records, cfg) -> None:
    """The identities each step must satisfy, whatever the nets learn.

    The sensor adds daylight to the plant's answer and saturates at 255; the
    plant answers the previous command under plant_delay 1 (U(-1) = 0) and
    the current one under 0; eps and deps are exact integer differences.
    """
    lut = build_lut(cfg)
    eps_prev = u_prev = 0
    for r in records:
        for name in EIGHT_BIT_COLUMNS:
            value = getattr(r, name)
            assert type(value) is int and 0 <= value <= 255, (r, name)
        assert r.e_electric == lut_eval(lut, u_prev if cfg.plant_delay == 1 else r.u), r
        assert r.e_measured == min(r.e_electric + r.e_daylight, 255), r
        assert r.eps == r.e_desired - r.e_measured, r
        assert r.deps == r.eps - eps_prev, r
        eps_prev, u_prev = r.eps, r.u


def outcome(run, cfg, path):
    """The trajectory bytes and weight bits of a run, or where it diverged."""
    try:
        records, nets = run(cfg)
    except (DivergenceError, ReferenceDivergence) as exc:
        return "diverged", exc.net, exc.k
    check_record_invariants(records, cfg)
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


def spy(monkeypatch):
    """Log run_reference's act and train calls as (what, k, inputs, target), keyed by net name."""
    calls = {"controller": [], "inverse model": []}
    real_act, real_train = reference_loop.act, reference_loop.train

    def act(net, x, name, k):
        calls[name].append(("act", k, tuple(x), None))
        return real_act(net, x, name, k)

    def train(net, x, target, name, k):
        calls[name].append(("train", k, tuple(x), target))
        return real_train(net, x, target, name, k)

    monkeypatch.setattr(reference_loop, "act", act)
    monkeypatch.setattr(reference_loop, "train", train)
    return calls


def trained(calls, name):
    """(k, inputs, target) of each training call of the named net."""
    return [(k, x, target) for what, k, x, target in calls[name] if what == "train"]


def d8(v: float) -> int:
    """An 8-bit value back from its unit-scale input or target."""
    return round((v + 1.0) * 127.5)


def test_reference_inverse_trains_before_it_is_queried(monkeypatch):
    calls = spy(monkeypatch)
    run_reference(SimConfig(steps=1, daylight_source="constant:40"))
    assert [what for what, *_ in calls["inverse model"]] == ["train", "act"]


def test_reference_controller_training_skipped_only_at_step_zero(monkeypatch):
    for steps, trained_at in ((1, []), (2, [1])):
        calls = spy(monkeypatch)
        run_reference(SimConfig(steps=steps, daylight_source="constant:40"))
        assert [k for k, _, _ in trained(calls, "controller")] == trained_at


def test_reference_controller_trains_on_previous_error(monkeypatch):
    calls = spy(monkeypatch)
    recs, _ = run_reference(SimConfig(steps=6))
    # independent scaling: eps / 255 and deps / 510
    seen = [(round(x[0] * 255), round(x[1] * 510)) for _, x, _ in trained(calls, "controller")]
    # at step k the controller is fitted to the error pair observed at k-1
    assert seen == [(r.eps, r.deps) for r in recs[:-1]]


def test_reference_inverse_target_lag_zero_uses_current_command(monkeypatch):
    calls = spy(monkeypatch)
    recs, _ = run_reference(SimConfig(steps=5, inverse_target_lag=0))
    targets = [d8(target) for _, _, target in trained(calls, "inverse model")]
    assert targets == [r.u for r in recs]


def test_reference_inverse_target_lag_one_uses_previous_command(monkeypatch):
    calls = spy(monkeypatch)
    recs, _ = run_reference(SimConfig(steps=5, inverse_target_lag=1))
    targets = [d8(target) for _, _, target in trained(calls, "inverse model")]
    assert targets[0] == 0  # no command issued before the run
    assert targets[1:] == [r.u for r in recs[:-1]]


def test_reference_inverse_trains_on_measured_history(monkeypatch):
    calls = spy(monkeypatch)
    recs, _ = run_reference(SimConfig(steps=4))
    triples = [tuple(map(d8, x)) for _, x, _ in trained(calls, "inverse model")]
    m = [r.e_measured for r in recs]
    assert triples[0] == (m[0], m[0], m[0])  # history primed with first value
    assert triples[1] == (m[1], m[0], m[0])
    assert triples[2] == (m[2], m[1], m[0])
    assert triples[3] == (m[3], m[2], m[1])
