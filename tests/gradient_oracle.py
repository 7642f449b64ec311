"""The gradient oracle: a plain tanh, the loss and central-difference gradients.

``daylux.tinynet`` runs one copy of each net operation: ``forward`` with its
inlined tanh and ``train_step`` with its fused update.  The slow, obvious
definitions they are checked against live here, beside the reference loop,
which takes its ``tanh`` from this module.  ``gradcheck_max_rel_error`` is
the acceptance gate's A1 check.
"""

from math import exp

from daylux.loop import CONTROLLER_INPUTS, INVERSE_INPUTS
from daylux.rng import SplitMix64
from daylux.tinynet import TinyNet, backprop_gradients, forward, init_network


def tanh(x: float) -> float:
    """(1 - e**(-2x)) / (1 + e**(-2x)), evaluated on the decaying side so the
    exponential never overflows."""
    if x >= 20.0:
        return 1.0
    if x <= -20.0:
        return -1.0
    e = exp(-2.0 * abs(x))
    t = (1.0 - e) / (1.0 + e)
    return t if x >= 0.0 else -t


def loss_eval(net: TinyNet, inputs, target: float) -> float:
    """0.5 * squared output error for one sample."""
    y, _ = forward(net, inputs)
    return 0.5 * (float(target) - y) ** 2


def numeric_gradient(net: TinyNet, inputs, target: float, h: float = 1e-5):
    """Central-difference loss gradients, the oracle backprop is checked against.

    Returns ``(grad_w1, grad_w2)`` shaped like ``net.w1`` / ``net.w2``.
    """
    if not (h > 0.0):
        raise ValueError(f"step h must be positive, got {h}")
    grads = []
    for row in net.w1 + [net.w2]:
        g = []
        for i, keep in enumerate(row):
            row[i] = keep + h
            up = loss_eval(net, inputs, target)
            row[i] = keep - h
            down = loss_eval(net, inputs, target)
            row[i] = keep
            g.append((up - down) / (2.0 * h))
        grads.append(g)
    return grads[:-1], grads[-1]


def gradcheck_max_rel_error(seed: int, trials: int, h: float = 1e-5) -> float:
    """Worst relative disagreement between backprop and central differences.

    Trials alternate between the controller (2-3-1) and inverse-model (3-3-1)
    shapes; weights come from the usual seeded init, inputs and targets are
    uniform in [-1, 1].  The reference gradient is the finite-difference one,
    floored at 1e-8 to keep the ratio meaningful near zero.
    """
    rng = SplitMix64(seed)
    worst = 0.0
    for trial in range(trials):
        n_inputs = (CONTROLLER_INPUTS, INVERSE_INPUTS)[trial % 2]
        net = init_network(n_inputs, learning_rate=0.15, seed=rng.next_u64())
        x = [rng.uniform(-1.0, 1.0) for _ in range(n_inputs)]
        t = rng.uniform(-1.0, 1.0)
        _, gw1, gw2 = backprop_gradients(net, x, t)
        nw1, nw2 = numeric_gradient(net, x, t, h)
        for row, ref_row in zip(gw1 + [gw2], nw1 + [nw2]):
            for g, ref in zip(row, ref_row):
                worst = max(worst, abs(g - ref) / max(abs(ref), 1e-8))
    return worst
