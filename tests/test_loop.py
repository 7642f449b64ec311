"""Tests for the closed loop: wiring identities, step ordering, determinism."""

import copy
import hashlib
import math
import pickle
import sys

import pytest

import daylux.loop as loop_mod
import daylux.tinynet as tinynet_mod
from daylux.config import SimConfig
from daylux.loop import (
    CONTROLLER_INPUTS,
    INVERSE_INPUTS,
    DivergenceError,
    LoopState,
    StepRecord,
    controller_action,
    inverse_action,
    loop_step,
    run_loop,
    run_simulation,
    train_controller,
    train_inverse,
)
from daylux.plant import DaylightTrajectory, gen_daylight, lut_eval, synth_default_lut
from daylux.report import write_trajectory_csv
from daylux.rng import SplitMix64
from daylux.signals import clamp8_sum
from daylux.tinynet import init_network


def zeroed(net):
    """Zero every parameter so the net starts as a blank slate."""
    for row in net.w1 + [net.w2]:
        row[:] = [0.0] * len(row)
    return net


def zero_pair():
    ctl = init_network(CONTROLLER_INPUTS, 0.15, 0, True)
    return zeroed(ctl), zeroed(init_network(INVERSE_INPUTS, 0.15, 0, True))


def test_first_steps_from_blank_nets_frozen():
    ctl, inv = zero_pair()
    lut = synth_default_lut()
    day = gen_daylight("constant", 2, seed=0, level=40)
    recs = run_loop(lut, day, ctl, inv, SimConfig())

    r0 = recs[0]
    assert (r0.e_electric, r0.e_measured) == (0, 40)  # u_prev=0 -> dark lamps
    assert (r0.eps, r0.deps) == (60, 60)
    assert r0.u == 128  # zero net output 0.0 quantises to midscale
    assert r0.u_im == 128
    assert r0.loss_inverse == 7.689350249903828e-06
    assert r0.loss_controller == 0.0  # no previous error to train on yet

    r1 = recs[1]
    assert r1.e_electric == lut_eval(lut, 128) == 73
    assert (r1.e_measured, r1.eps, r1.deps) == (113, -13, -73)
    assert r1.loss_inverse == 5.555555555555516e-06
    assert r1.loss_controller == 7.689350249903828e-06


def test_wiring_identities_hold_step_by_step():
    cfg = SimConfig(steps=300)
    recs, _ = run_simulation(cfg)
    lut = synth_default_lut()
    eps_prev = 0
    u_prev = 0
    for r in recs:
        assert r.e_electric == lut_eval(lut, u_prev)
        assert r.e_measured == clamp8_sum(r.e_electric, r.e_daylight)
        assert r.eps == r.e_desired - r.e_measured
        assert r.deps == r.eps - eps_prev
        eps_prev = r.eps
        u_prev = r.u


def test_all_signals_stay_in_range():
    recs, _ = run_simulation(SimConfig(steps=500))
    for r in recs:
        for v in (r.e_desired, r.e_daylight, r.e_electric, r.e_measured, r.u, r.u_im):
            assert 0 <= v <= 255
        assert -255 <= r.eps <= 255
        assert -510 <= r.deps <= 510
        assert r.loss_inverse >= 0.0 and math.isfinite(r.loss_inverse)
        assert r.loss_controller >= 0.0 and math.isfinite(r.loss_controller)


def test_inverse_trains_before_it_is_queried(monkeypatch):
    calls = []
    real_train, real_action = train_inverse, inverse_action
    monkeypatch.setattr(
        loop_mod, "train_inverse",
        lambda *a, **kw: (calls.append("train_inverse"), real_train(*a, **kw))[1],
    )
    monkeypatch.setattr(
        loop_mod, "inverse_action",
        lambda *a, **kw: (calls.append("inverse_action"), real_action(*a, **kw))[1],
    )
    ctl, inv = zero_pair()
    loop_step(LoopState(), ctl, inv, synth_default_lut(), 40, SimConfig())
    assert calls == ["train_inverse", "inverse_action"]


def test_controller_training_skipped_only_at_step_zero(monkeypatch):
    trained_at = []
    real = train_controller
    monkeypatch.setattr(
        loop_mod, "train_controller",
        lambda ctl, x_prev, u_im: (trained_at.append(True), real(ctl, x_prev, u_im))[1],
    )
    ctl, inv = zero_pair()
    state = LoopState()
    loop_step(state, ctl, inv, synth_default_lut(), 40, SimConfig())
    assert trained_at == []
    loop_step(state, ctl, inv, synth_default_lut(), 40, SimConfig())
    assert trained_at == [True]


def test_controller_trains_on_previous_error(monkeypatch):
    acted, trained = [], []
    real_action, real_train = controller_action, train_controller
    monkeypatch.setattr(
        loop_mod, "controller_action",
        lambda ctl, x: (acted.append(x), real_action(ctl, x))[1],
    )
    monkeypatch.setattr(
        loop_mod, "train_controller",
        lambda ctl, x_prev, u_im: (trained.append(x_prev), real_train(ctl, x_prev, u_im))[1],
    )
    for delay in (1, 0):
        acted.clear()
        trained.clear()
        recs, _ = run_simulation(SimConfig(steps=6, plant_delay=delay))
        # at step k the controller is fitted to the pair it acted on at k-1
        # (one step's delay) or at k (zero delay): either way the pair of k-1
        assert len(acted) == len(recs) and len(trained) == len(recs) - 1, delay
        assert trained == acted[1 - delay:len(recs) - delay], delay
        assert trained == [(r.eps / 255, r.deps / 510) for r in recs[:-1]], delay


def test_inverse_target_lag_zero_uses_current_command(monkeypatch):
    targets = []
    real = train_inverse
    monkeypatch.setattr(
        loop_mod, "train_inverse",
        lambda inv, triple, u: (targets.append(u), real(inv, triple, u))[1],
    )
    recs, _ = run_simulation(SimConfig(steps=5, inverse_target_lag=0))
    assert targets == [r.u for r in recs]


def test_inverse_target_lag_one_uses_previous_command(monkeypatch):
    targets = []
    real = train_inverse
    monkeypatch.setattr(
        loop_mod, "train_inverse",
        lambda inv, triple, u: (targets.append(u), real(inv, triple, u))[1],
    )
    recs, _ = run_simulation(SimConfig(steps=5, inverse_target_lag=1))
    assert targets[0] == 0  # no command issued before the run
    assert targets[1:] == [r.u for r in recs[:-1]]


def test_inverse_trains_on_measured_history(monkeypatch):
    triples = []
    real = train_inverse
    monkeypatch.setattr(
        loop_mod, "train_inverse",
        lambda inv, triple, u: (triples.append(tuple(triple)), real(inv, triple, u))[1],
    )
    recs, _ = run_simulation(SimConfig(steps=4))
    m = [r.e_measured for r in recs]
    assert triples[0] == (m[0], m[0], m[0])  # history primed with first value
    assert triples[1] == (m[1], m[0], m[0])
    assert triples[2] == (m[2], m[1], m[0])
    assert triples[3] == (m[3], m[2], m[1])


def test_zero_plant_delay_reacts_within_the_step():
    recs, _ = run_simulation(SimConfig(steps=50, plant_delay=0))
    lut = synth_default_lut()
    for r in recs:
        assert r.e_electric == lut_eval(lut, r.u)


def test_controller_action_is_quantised():
    ctl = init_network(CONTROLLER_INPUTS, 0.15, 1, True)
    for eps in (-255, -100, 0, 100, 255):
        assert 0 <= controller_action(ctl, (eps / 255, 0.0)) <= 255


def test_inverse_action_is_quantised():
    inv = init_network(INVERSE_INPUTS, 0.15, 1, True)
    for e in (0, 80, 255):
        assert 0 <= inverse_action(inv, e, e, e) <= 255


def test_empty_trajectory_yields_empty_stream():
    ctl, inv = zero_pair()
    recs = run_loop(synth_default_lut(), DaylightTrajectory(()), ctl, inv, SimConfig())
    assert recs == []


def test_run_simulation_is_deterministic():
    a, _ = run_simulation(SimConfig(steps=200))
    b, _ = run_simulation(SimConfig(steps=200))
    assert a == b


def test_run_simulation_returns_trained_nets():
    recs, (ctl, inv) = run_simulation(SimConfig(steps=30))
    assert len(recs) == 30
    fresh = init_network(INVERSE_INPUTS, 0.15, SimConfig().seed_inverse, True)
    assert inv.w1 != fresh.w1  # training moved the params


# SHA-256 of trajectory.csv for the default run and each wiring switch; any
# change to the nets' arithmetic, the draw order or the step order moves them.
TRAJECTORY_DIGESTS = [
    pytest.param(
        {}, "0c138d5f826072772654b67ad41c1d9c06ab918bd57e611d7871a00f6bd0f93e", id="default"
    ),
    pytest.param(
        {"steps": 300},
        "6fab2143c0ea8bc62794bdf6ad8e31a1d40ab7ff76f68f079593957e6e92c445",
        id="steps300",
    ),
    pytest.param(
        {"steps": 300, "use_bias": False},
        "9b86a496f5329616ce29dd656ddfab84ce6fdbe2dfafb4164e57c60ac6bfdf50",
        id="no_bias",
    ),
    pytest.param(
        {"steps": 300, "error_scaling": "shared255"},
        "65743c8abbe12071281562a965469768ba56de710feb835ea8a97f31a4b31814",
        id="shared255",
    ),
    pytest.param(
        {"steps": 300, "plant_delay": 0},
        "270e99e976b865fdd80aeb33a56d7c1a7dea5197affbcdcc9577cee32dffb245",
        id="plant_delay0",
    ),
    pytest.param(
        {"steps": 300, "inverse_target_lag": 1},
        "d886a4f13ae319fa943d1c56a0608d1418e034bca620c8fea33ce45e141f54fc",
        id="target_lag1",
    ),
]


@pytest.mark.parametrize("overrides,digest", TRAJECTORY_DIGESTS)
def test_trajectory_digest_is_frozen(overrides, digest, tmp_path):
    recs, _ = run_simulation(SimConfig(**overrides))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(recs, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The default run plus each wiring switch: every one takes its own branch
# through loop_step or the nets.
WIRINGS = [
    {"plant_delay": 1},
    {"plant_delay": 0},
    {"inverse_target_lag": 1},
    {"error_scaling": "shared255"},
    {"use_bias": False},
]


def test_step_records_are_plain_slot_records():
    fields = StepRecord.__slots__
    for wiring in WIRINGS:
        recs, _ = run_simulation(SimConfig(steps=40, **wiring))
        assert len(recs) == 40
        for r in recs:
            assert type(r) is StepRecord
            assert not hasattr(r, "__dict__")
            built = StepRecord(**{name: getattr(r, name) for name in fields})
            assert r == built and repr(r) == repr(built)
            assert sys.getsizeof(r) == sys.getsizeof(built) == 120
            assert pickle.loads(pickle.dumps(r)) == r == copy.copy(r)
            with pytest.raises(TypeError, match="^unhashable type: 'StepRecord'$"):
                hash(r)


def test_records_share_one_int_per_error_value():
    assert [loop_mod._ERROR_INTS[v] for v in range(-255, 256)] == list(range(-255, 256))
    for wiring in ({"plant_delay": 1}, {"plant_delay": 0}):
        recs, _ = run_simulation(SimConfig(steps=300, **wiring))
        shared = {}
        for r in recs:
            assert r.eps is shared.setdefault(r.eps, r.eps)
        assert min(shared) < -5  # below CPython's own small-int cache
    # the lowest error a run can reach: setpoint 0 under full daylight
    recs, _ = run_simulation(SimConfig(steps=30, e_desired=0, daylight_source="constant:255"))
    assert {r.eps for r in recs} == {-255}


@pytest.mark.parametrize("plant_delay", [0, 1])
def test_loop_state_histories_are_newest_first_triples(plant_delay):
    ctl, inv = zero_pair()
    lut = synth_default_lut()
    cfg = SimConfig(plant_delay=plant_delay)
    state = LoopState()
    measured = []
    for k, e_daylight in enumerate([10, 20, 30, 40]):
        r = loop_step(state, ctl, inv, lut, e_daylight, cfg)
        measured.insert(0, r.e_measured)
        if k == 0:
            assert state.e_measured_hist == [r.e_measured] * 3
        else:
            assert state.e_measured_hist == (measured + measured[-1:] * 2)[:3]
    assert len(set(measured)) == 4  # distinct values, so any misorder shows


def test_train_inverse_takes_a_list_or_a_tuple():
    nets = [init_network(INVERSE_INPUTS, 0.15, 3, True) for _ in range(2)]
    assert train_inverse(nets[0], [90, 80, 70], 140) == train_inverse(nets[1], (90, 80, 70), 140)
    assert vars(nets[0]) == vars(nets[1])


@pytest.mark.parametrize("net_name", ["controller", "inverse model"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_divergence_names_the_step_and_the_net(net_name, bad):
    # nan/inf make the output non-finite at once; 1e300 keeps it finite
    # (the command saturates) until the squared error overflows in training
    ctl = init_network(CONTROLLER_INPUTS, 0.15, 0, True)
    inv = init_network(INVERSE_INPUTS, 0.15, 0, True)
    (ctl if net_name == "controller" else inv).w2[-1] = bad
    day = gen_daylight("constant", 5, seed=0, level=30)
    with pytest.raises(DivergenceError) as info:
        run_loop(synth_default_lut(), day, ctl, inv, SimConfig())
    # the controller first trains at k=1; the inverse model trains at k=0
    k = 1 if (net_name, bad) == ("controller", 1e300) else 0
    assert (info.value.net, info.value.k) == (net_name, k)
    assert f"{net_name} diverged at step k={k}" in str(info.value)


def test_runaway_learning_rate_is_a_divergence_error():
    with pytest.raises(DivergenceError, match=r"^controller diverged at step k=69: "):
        run_simulation(SimConfig(steps=200, gamma_controller=50.0))


def test_run_loop_calls_the_module_level_loop_step_once_per_step(monkeypatch):
    # the benchmark ends a run's set-up at the first loop_step call it sees
    # through daylux.loop, so run_loop must keep looking the step up there
    calls = []
    step = loop_mod.loop_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(loop_mod, "loop_step", counted)
    records, _ = run_simulation(SimConfig(steps=50))
    assert len(records) == len(calls) == 50


INTEGER_FIELDS = StepRecord.__slots__[:9]  # the two losses are the other columns


@pytest.fixture(scope="module")
def default_run():
    return run_simulation(SimConfig())[0]


@pytest.mark.parametrize("share", [1.0, 0.3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_run_integers_survive_a_one_ulp_exp_nudge(monkeypatch, default_run, share, seed):
    # math.exp is the platform C library's and need not round correctly, so
    # the bytes are only promised on the same library.  Another library's
    # last-bit difference may move the 9-digit losses but not the 8-bit grid.
    rng = SplitMix64(seed)
    exact = tinynet_mod.exp

    def nudged(x):
        y = exact(x)
        if rng.random() < share:
            y = math.nextafter(y, math.inf if rng.next_u64() % 2 else -math.inf)
        return y

    monkeypatch.setattr(tinynet_mod, "exp", nudged)
    records, _ = run_simulation(SimConfig())
    assert [r.loss_inverse for r in records] != [r.loss_inverse for r in default_run]
    for field in INTEGER_FIELDS:
        assert [getattr(r, field) for r in records] == [getattr(r, field) for r in default_run]
