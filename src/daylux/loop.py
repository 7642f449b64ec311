"""Closed-loop wiring: neural controller plus online inverse-model identification.

Two small networks run side by side.  The controller (2-3-1) maps the scaled
control error and its first difference to the lamp command U.  The inverse
model (3-3-1) learns, online, the map from three consecutive measured
illuminances back to the command that the controller issued alongside them;
querying it with the setpoint taken three times then yields U_IM, the
command it believes would realise the setpoint, and U_IM is the controller's
training target.  Neither network ever sees the plant's equations.

Step ordering (one-step actuation delay, the default):

  (a) the plant responds to the previous command, daylight adds in,
      the sensor saturates at 255;
  (b) eps = E_desired - E_measured, deps = eps - eps_prev (exact integers);
  (c) the controller issues U from (eps, deps);
  (d) the inverse model trains on the measured triple -> command pairing;
  (e) the freshly updated inverse model produces U_IM from the constant
      setpoint triple (E_desired, E_desired, E_desired);
  (f) the controller trains on (eps_prev, deps_prev) -> U_IM, skipped at k=0
      where no previous error exists;
  (g) histories shift, k advances.

(d) before (e) is deliberate: the controller's target comes from the most
accurate inverse model available within the step.

With plant_delay=0 the controller acts first on the previous step's error and
the plant responds to U(k) within the same step; the rest is unchanged.

The inverse model's training pairs U(k) with E_measured(k..k-2) even though,
under the one-step delay, the measurement at k was produced by U(k-1).  That
literal pairing is the default; inverse_target_lag=1 selects the causal
pairing with U(k-1) instead.
"""

from __future__ import annotations

from math import isfinite

from . import config as config_mod
from .config import SimConfig
from .plant import DaylightTrajectory, ProcessLut, lut_eval
from .signals import (
    check_d8bv,
    clamp8_sum,
    scale_delta_error,
    scale_error,
    scale_to_unit,
    unit_to_d8bv,
)
from .tinynet import TinyNet, forward, init_network, train_step

CONTROLLER_INPUTS = 2
INVERSE_INPUTS = 3

# One int object for each value eps can take, indexed by that value (a
# negative index counts from the end).  CPython caches only the ints -5..256,
# so without it every record whose eps is below -5 holds an int of its own:
# about 0.5 MB over a 20,000-step fast-daylight run.
_ERROR_INTS = tuple(range(256)) + tuple(range(-255, 0))


class DivergenceError(ValueError):
    """A net's output or training loss stopped being a finite number.

    ``net`` is "controller" or "inverse model"; ``k`` is the step at fault,
    which ``run_loop`` fills in (None when raised outside it).
    """

    def __init__(self, net: str, k: int | None = None) -> None:
        at = "" if k is None else f" at step k={k}"
        super().__init__(
            f"{net} diverged{at}: its output or loss is no longer finite "
            "(lower its learning rate)"
        )
        self.net = net
        self.k = k


class LoopState:
    """Every lagged signal the training rules need.

    The measured history is newest-first and is filled with the first
    measurement during step 0 (no fictitious zero transient); from then on it
    always holds exactly 3 entries.
    """

    def __init__(self) -> None:
        self.k = 0
        self.e_measured_hist: list[int] = []
        self.eps_prev = 0
        self.deps_prev = 0
        self.u_prev = 0


class StepRecord:
    """One step's signals, in trajectory.csv column order.

    Two records are equal when every field is equal; a record has no hash.
    """

    __slots__ = (
        "k", "e_desired", "e_daylight", "e_electric", "e_measured", "eps", "deps", "u", "u_im",
        "loss_inverse", "loss_controller",
    )

    def __init__(
        self, k, e_desired, e_daylight, e_electric, e_measured, eps, deps, u, u_im,
        loss_inverse, loss_controller,
    ) -> None:
        self.k = k
        self.e_desired = e_desired
        self.e_daylight = e_daylight
        self.e_electric = e_electric
        self.e_measured = e_measured
        self.eps = eps
        self.deps = deps
        self.u = u
        self.u_im = u_im
        self.loss_inverse = loss_inverse
        self.loss_controller = loss_controller

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in StepRecord.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is StepRecord else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in StepRecord.__slots__)
        return f"StepRecord({fields})"


def controller_action(
    ctl: TinyNet, eps: int, deps: int, error_scaling: str = "independent"
) -> int:
    """Command U for the current error pair; always a valid 8-bit value."""
    x = [scale_error(eps), scale_delta_error(deps, error_scaling)]
    y, _ = forward(ctl, x)
    if not isfinite(y):
        raise DivergenceError("controller")
    return unit_to_d8bv(y)


def inverse_action(inv: TinyNet, e2: int, e1: int, e0: int) -> int:
    """Command U_IM for an illuminance triple (newest first).

    The raw output is limited to [-1, 1] before conversion, the same rule the
    controller output follows.
    """
    x = [
        scale_to_unit(check_d8bv(e2, "e")),
        scale_to_unit(check_d8bv(e1, "e")),
        scale_to_unit(check_d8bv(e0, "e")),
    ]
    y, _ = forward(inv, x)
    if not isfinite(y):
        raise DivergenceError("inverse model")
    return unit_to_d8bv(y)


def train_inverse(inv: TinyNet, e_triple, u_target: int) -> float:
    """One online update toward triple -> command; returns pre-update loss.

    e_triple is any 3-item sequence, newest first (loop_step passes its live
    history list).
    """
    e2, e1, e0 = e_triple
    x = [
        scale_to_unit(check_d8bv(e2, "e")),
        scale_to_unit(check_d8bv(e1, "e")),
        scale_to_unit(check_d8bv(e0, "e")),
    ]
    return _descend(inv, x, scale_to_unit(check_d8bv(u_target, "u_target")), "inverse model")


def train_controller(
    ctl: TinyNet,
    eps_prev: int,
    deps_prev: int,
    u_im: int,
    error_scaling: str = "independent",
) -> float:
    """One online update toward (eps, deps) -> U_IM; returns pre-update loss."""
    x = [scale_error(eps_prev), scale_delta_error(deps_prev, error_scaling)]
    return _descend(ctl, x, scale_to_unit(check_d8bv(u_im, "u_im")), "controller")


def _descend(net: TinyNet, x: list[float], target: float, name: str) -> float:
    """train_step, with an overflowing or non-finite loss raised as divergence."""
    try:
        loss = train_step(net, x, target)
    except OverflowError:
        raise DivergenceError(name) from None
    if not isfinite(loss):
        raise DivergenceError(name)
    return loss


def loop_step(
    state: LoopState,
    ctl: TinyNet,
    inv: TinyNet,
    lut: ProcessLut,
    e_daylight_k: int,
    cfg: SimConfig,
):
    """Advance the closed loop one step; returns its StepRecord.

    The state object is updated in place.  Only cfg's setpoint and wiring
    switches are read; it must have passed validate().
    """
    e_desired = check_d8bv(cfg.e_desired, "e_desired")
    check_d8bv(e_daylight_k, "e_daylight_k")

    if cfg.plant_delay == 1:
        e_electric = lut_eval(lut, state.u_prev)
        e_measured = clamp8_sum(e_electric, e_daylight_k)
        eps = _ERROR_INTS[e_desired - e_measured]
        deps = eps - state.eps_prev
        u = controller_action(ctl, eps, deps, cfg.error_scaling)
    else:
        # Zero-delay reading: the controller acts on the freshest error it
        # has (last step's) and the plant answers within the same step.
        u = controller_action(ctl, state.eps_prev, state.deps_prev, cfg.error_scaling)
        e_electric = lut_eval(lut, u)
        e_measured = clamp8_sum(e_electric, e_daylight_k)
        eps = _ERROR_INTS[e_desired - e_measured]
        deps = eps - state.eps_prev

    hist = state.e_measured_hist  # shifted in place, newest first
    if hist:
        hist[2] = hist[1]
        hist[1] = hist[0]
        hist[0] = e_measured
    else:
        hist[:] = (e_measured, e_measured, e_measured)

    u_target = u if cfg.inverse_target_lag == 0 else state.u_prev
    loss_inverse = train_inverse(inv, hist, u_target)

    u_im = inverse_action(inv, e_desired, e_desired, e_desired)

    if state.k > 0:
        loss_controller = train_controller(
            ctl, state.eps_prev, state.deps_prev, u_im, cfg.error_scaling
        )
    else:
        loss_controller = 0.0

    record = StepRecord(
        state.k, e_desired, e_daylight_k, e_electric, e_measured, eps, deps, u, u_im,
        loss_inverse, loss_controller,
    )
    state.eps_prev = eps
    state.deps_prev = deps
    state.u_prev = u
    state.k += 1
    return record


def run_loop(
    lut: ProcessLut,
    daylight: DaylightTrajectory,
    ctl: TinyNet,
    inv: TinyNet,
    cfg: SimConfig,
) -> list[StepRecord]:
    """Drive loop_step over a whole daylight trajectory.

    Raises DivergenceError naming the step and the net when either net's
    output or loss stops being finite, and a KeyboardInterrupt naming the
    step it landed in.
    """
    state = LoopState()
    records = []
    for sample in daylight.samples:
        try:
            record = loop_step(state, ctl, inv, lut, sample, cfg)
        except DivergenceError as exc:
            raise DivergenceError(exc.net, state.k) from None
        except KeyboardInterrupt:
            raise KeyboardInterrupt(f"at step k={state.k}") from None
        records.append(record)
    return records


def run_simulation(cfg: SimConfig):
    """Build everything from a SimConfig and run it.

    Returns (records, (controller, inverse_model)) with the nets in their
    final trained state.  The record stream is empty when the daylight
    trajectory is (a CSV file with no rows, for instance).
    """
    cfg.validate()
    lut = config_mod.build_lut(cfg)
    daylight = config_mod.build_daylight(cfg)
    ctl = init_network(CONTROLLER_INPUTS, cfg.gamma_controller, cfg.seed_controller, cfg.use_bias)
    inv = init_network(INVERSE_INPUTS, cfg.gamma_inverse, cfg.seed_inverse, cfg.use_bias)
    records = run_loop(lut, daylight, ctl, inv, cfg)
    return records, (ctl, inv)
