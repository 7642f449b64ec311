"""The closed loop written plainly: the specification run_simulation must meet.

Steps (a)-(g) of daylux.loop's docstring, one after another, with a generic
row-loop n-3-1 net and a plain backprop update.  Nothing is unrolled, cached
or shared with the loop's own code, so this stays slow and obvious.  Only the
run's inputs come from daylux: the plant table and lut_eval, the daylight
trajectory and the nets' initial weights.  The tanh is the gradient oracle's.
"""

from math import floor, isfinite

from gradient_oracle import tanh

from daylux.config import build_daylight, build_lut
from daylux.loop import StepRecord
from daylux.plant import lut_eval
from daylux.tinynet import init_network


class ReferenceDivergence(Exception):
    """A net's output or loss stopped being finite at step k."""

    def __init__(self, net: str, k: int) -> None:
        super().__init__(f"{net} diverged at step k={k}")
        self.net = net
        self.k = k


def row_loop_forward(net, x):
    """The generic n-3-1 forward pass of any net with rows ``w1`` and ``w2``; returns (y, h)."""
    h = []
    for row in net.w1:
        s = row[-1]
        for w, v in zip(row, x):
            s += w * v
        h.append(tanh(s))
    y = net.w2[-1]
    for w, hj in zip(net.w2, h):
        y += w * hj
    return y, h


class Net:
    """An n-3-1 net as plain lists: hidden rows ``w1``, output row ``w2``, bias last."""

    def __init__(self, n_inputs: int, learning_rate: float, seed: int, use_bias: bool) -> None:
        start = init_network(n_inputs, learning_rate, seed, use_bias)
        self.w1 = [list(row) for row in start.w1]
        self.w2 = list(start.w2)
        self.learning_rate = learning_rate
        self.use_bias = use_bias

    forward = row_loop_forward

    def train(self, x, target: float) -> float:
        """One gradient-descent step on 0.5 * (target - y)**2; returns the loss before it."""
        y, h = self.forward(x)
        loss = 0.5 * (target - y) ** 2  # may raise OverflowError
        d = y - target
        grad_w2 = [d * hj for hj in h] + [d]
        grad_w1 = [
            [dj * v for v in x] + [dj]
            for dj in (w * d * (1.0 - hj * hj) for w, hj in zip(self.w2, h))
        ]
        trained = None if self.use_bias else -1  # without biases the last slot stays
        for row, grad in zip(self.w1 + [self.w2], grad_w1 + [grad_w2]):
            for i in range(len(row))[:trained]:
                row[i] -= self.learning_rate * grad[i]
        return loss


def to_unit(v: int) -> float:
    """8-bit value onto [-1, 1]."""
    return v / 127.5 - 1.0


def to_d8bv(y: float) -> int:
    """Net output limited to [-1, 1], then onto the 8-bit grid, ties rounded up."""
    y = min(max(y, -1.0), 1.0)
    return floor((y + 1.0) * 127.5 + 0.5)


def error_inputs(eps: int, deps: int, scaling: str) -> list[float]:
    """The controller's inputs for an error pair."""
    if scaling == "shared255":
        return [eps / 255, max(-255, min(255, deps)) / 255]
    return [eps / 255, deps / 510]


def act(net: Net, x, name: str, k: int) -> int:
    y, _ = net.forward(x)
    if not isfinite(y):
        raise ReferenceDivergence(name, k)
    return to_d8bv(y)


def train(net: Net, x, target: float, name: str, k: int) -> float:
    try:
        loss = net.train(x, target)
    except OverflowError:
        raise ReferenceDivergence(name, k) from None
    if not isfinite(loss):
        raise ReferenceDivergence(name, k)
    return loss


def run_reference(cfg):
    """(records, (controller, inverse model)) for a validated SimConfig.

    Raises ReferenceDivergence where run_simulation raises DivergenceError.
    """
    lut = build_lut(cfg)
    samples = build_daylight(cfg).samples
    ctl = Net(2, cfg.gamma_controller, cfg.seed_controller, cfg.use_bias)
    inv = Net(3, cfg.gamma_inverse, cfg.seed_inverse, cfg.use_bias)
    e_d = cfg.e_desired
    scaling = cfg.error_scaling
    records = []
    measured = []  # newest first
    eps_prev = deps_prev = u_prev = 0
    for k, e_daylight in enumerate(samples):
        if cfg.plant_delay == 1:
            # (a) the plant answers the previous command; the sensor saturates
            e_electric = lut_eval(lut, u_prev)
            e_measured = min(e_electric + e_daylight, 255)
            # (b) the error and its difference
            eps = e_d - e_measured
            deps = eps - eps_prev
            # (c) the controller's command
            u = act(ctl, error_inputs(eps, deps, scaling), "controller", k)
        else:
            # (c) first, on last step's error, then (a) and (b) within the step
            u = act(ctl, error_inputs(eps_prev, deps_prev, scaling), "controller", k)
            e_electric = lut_eval(lut, u)
            e_measured = min(e_electric + e_daylight, 255)
            eps = e_d - e_measured
            deps = eps - eps_prev
        # (d) the inverse model trains on the measured triple -> command
        measured = [e_measured] * 3 if k == 0 else [e_measured] + measured[:2]
        u_target = u if cfg.inverse_target_lag == 0 else u_prev
        loss_inverse = train(
            inv, [to_unit(e) for e in measured], to_unit(u_target), "inverse model", k
        )
        # (e) the updated inverse model's command for the setpoint, taken three times
        u_im = act(inv, [to_unit(e_d)] * 3, "inverse model", k)
        # (f) the controller trains on the previous error pair -> U_IM
        if k > 0:
            x = error_inputs(eps_prev, deps_prev, scaling)
            loss_controller = train(ctl, x, to_unit(u_im), "controller", k)
        else:
            loss_controller = 0.0
        records.append(StepRecord(
            k=k, e_desired=e_d, e_daylight=e_daylight, e_electric=e_electric,
            e_measured=e_measured, eps=eps, deps=deps, u=u, u_im=u_im,
            loss_inverse=loss_inverse, loss_controller=loss_controller,
        ))
        # (g) histories shift
        eps_prev, deps_prev, u_prev = eps, deps, u
    return records, (ctl, inv)
