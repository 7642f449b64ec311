"""The n-3-1 network both loop nets use, with single-sample online backprop.

The controller (2-3-1) and the inverse model (3-3-1) share one shape: a
3-neuron tanh hidden layer and a single linear output.  They are trained one
sample at a time, on plain lists of Python floats; there is deliberately no
array library underneath.  A run gives the same bytes on the same platform C
library (``math.exp``, ``pow``), which IEEE 754 does not require to round
correctly, so other platforms may differ in the last bit.

Conventions:

* Inputs are a list or tuple of ints or floats, used as given: nothing is
  copied or converted, and ``w * v`` takes an int as ``float()`` would.
* Each neuron is a row ``[w_0, ..., w_{m-1}, bias]`` over its m inputs:
  ``TinyNet.w1`` holds the 3 hidden rows over the n inputs, ``TinyNet.w2``
  the output row over the 3 hidden activations.  Gradients use the same rows.
* A neuron's weighted sum s starts from its bias and adds ``w * v`` in input
  order.  Its tanh is (1 - e) / (1 + e) with e = exp(-2*|s|), negated for
  s < 0, and exactly +-1 once |s| >= 20, so the exponential never overflows;
  its derivative is taken from the neuron's own output (tanh' = 1 - y**2).
* The loss is 0.5 * (target - output)**2.  ``train_step`` returns the loss
  *before* the update, i.e. the quantity the step descends on, and takes
  every gradient from the pre-update parameters.
* Initial parameters are uniform in [-0.5, 0.5], drawn from a seeded
  :class:`~daylux.rng.SplitMix64` stream row by row: hidden rows, then the
  output row, each row's weights in input order followed (when biases are
  enabled) by its bias.
"""

from __future__ import annotations

from math import exp, isfinite

from .rng import SplitMix64
from .signals import check_type

INIT_WEIGHT_SPAN = 0.5
HIDDEN_WIDTH = 3


class TinyNet:
    """n-3-1 net: ``w1`` holds the 3 tanh hidden rows, ``w2`` the linear output row."""

    def __init__(
        self, w1: list[list[float]], w2: list[float], learning_rate: float, use_bias: bool
    ) -> None:
        self.w1 = w1
        self.w2 = w2
        self.learning_rate = learning_rate
        self.use_bias = use_bias


def init_network(n_inputs: int, learning_rate: float, seed: int, use_bias: bool) -> TinyNet:
    """Build an n-3-1 net with seeded uniform [-0.5, 0.5] parameters.

    With ``use_bias=False`` the bias slots exist but stay 0.0 and consume no
    random draws, so toggling the flag does not shift the weight stream.
    """
    if check_type(n_inputs, "n_inputs", "int") not in (2, 3):
        raise ValueError(f"n_inputs must be 2 or 3, got {n_inputs}")
    check_type(use_bias, "use_bias", "bool")
    check_type(learning_rate, "learning rate", "float")
    if not (isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning rate must be finite and > 0, got {learning_rate}")
    rng = SplitMix64(seed)

    def row(width: int) -> list[float]:
        r = [rng.uniform(-INIT_WEIGHT_SPAN, INIT_WEIGHT_SPAN) for _ in range(width)]
        r.append(rng.uniform(-INIT_WEIGHT_SPAN, INIT_WEIGHT_SPAN) if use_bias else 0.0)
        return r

    w1 = [row(n_inputs) for _ in range(HIDDEN_WIDTH)]
    return TinyNet(w1, row(HIDDEN_WIDTH), learning_rate, use_bias)


def forward(net: TinyNet, inputs) -> tuple[float, list[float]]:
    """Run the network; returns (output, hidden activations).

    The hidden sums are unrolled for the two input widths and the tanh is
    inlined; both are the exact expressions the conventions above describe,
    so the result is bit-identical to the generic row loop, a NaN's sign bit
    aside.  Inputs of the wrong count raise the ValueError of their unpacking.
    """
    r0, r1, r2 = net.w1
    if len(r0) == 3:  # two weights and a bias
        x0, x1 = inputs
        s0 = r0[2] + r0[0] * x0 + r0[1] * x1
        s1 = r1[2] + r1[0] * x0 + r1[1] * x1
        s2 = r2[2] + r2[0] * x0 + r2[1] * x1
    else:
        x0, x1, x2 = inputs
        s0 = r0[3] + r0[0] * x0 + r0[1] * x1 + r0[2] * x2
        s1 = r1[3] + r1[0] * x0 + r1[1] * x1 + r1[2] * x2
        s2 = r2[3] + r2[0] * x0 + r2[1] * x1 + r2[2] * x2
    # h_j = tanh(s_j) with the conventions' exact expressions and cut-offs, split
    # by the sign of s_j so that |s_j| and the negation fold away; NaN stays NaN.
    if s0 >= 0.0:
        if s0 >= 20.0:
            h0 = 1.0
        else:
            e = exp(-2.0 * s0)
            h0 = (1.0 - e) / (1.0 + e)
    elif s0 > -20.0:
        e = exp(2.0 * s0)
        h0 = -((1.0 - e) / (1.0 + e))
    else:
        h0 = -1.0 if s0 <= -20.0 else s0
    if s1 >= 0.0:
        if s1 >= 20.0:
            h1 = 1.0
        else:
            e = exp(-2.0 * s1)
            h1 = (1.0 - e) / (1.0 + e)
    elif s1 > -20.0:
        e = exp(2.0 * s1)
        h1 = -((1.0 - e) / (1.0 + e))
    else:
        h1 = -1.0 if s1 <= -20.0 else s1
    if s2 >= 0.0:
        if s2 >= 20.0:
            h2 = 1.0
        else:
            e = exp(-2.0 * s2)
            h2 = (1.0 - e) / (1.0 + e)
    elif s2 > -20.0:
        e = exp(2.0 * s2)
        h2 = -((1.0 - e) / (1.0 + e))
    else:
        h2 = -1.0 if s2 <= -20.0 else s2
    w2 = net.w2
    return w2[3] + w2[0] * h0 + w2[1] * h1 + w2[2] * h2, [h0, h1, h2]


def backprop_gradients(net: TinyNet, inputs, target: float):
    """Exact loss gradients for one sample.

    Returns ``(loss, grad_w1, grad_w2)`` with the gradient rows shaped like
    ``net.w1`` / ``net.w2``.  Bias gradients are computed even when
    ``use_bias`` is off; ``train_step`` simply does not apply them.
    """
    t = float(target)
    x = [float(v) for v in inputs]
    y, h = forward(net, x)
    d = y - t
    loss = 0.5 * (t - y) ** 2
    grad_w2 = [d * hj for hj in h] + [d]
    deltas = [wj * d * (1.0 - hj * hj) for wj, hj in zip(net.w2, h)]
    grad_w1 = [[dj * v for v in x] + [dj] for dj in deltas]
    return loss, grad_w1, grad_w2


def train_step(net: TinyNet, inputs, target: float) -> float:
    """One online gradient-descent update; returns the pre-update loss.

    The same arithmetic as applying ``backprop_gradients`` (``w -= lr * g``),
    fused and unrolled: the hidden deltas are taken from the pre-update output
    row before any parameter changes, and the rows are then updated in place.
    """
    y, (h0, h1, h2) = forward(net, inputs)
    d = y - target
    loss = 0.5 * (target - y) ** 2
    lr = net.learning_rate
    w2 = net.w2
    r0, r1, r2 = net.w1
    d0 = w2[0] * d * (1.0 - h0 * h0)
    d1 = w2[1] * d * (1.0 - h1 * h1)
    d2 = w2[2] * d * (1.0 - h2 * h2)
    x0, x1 = inputs[0], inputs[1]
    r0[0] -= lr * (d0 * x0)
    r0[1] -= lr * (d0 * x1)
    r1[0] -= lr * (d1 * x0)
    r1[1] -= lr * (d1 * x1)
    r2[0] -= lr * (d2 * x0)
    r2[1] -= lr * (d2 * x1)
    if len(inputs) == 3:
        x2 = inputs[2]
        r0[2] -= lr * (d0 * x2)
        r1[2] -= lr * (d1 * x2)
        r2[2] -= lr * (d2 * x2)
    w2[0] -= lr * (d * h0)
    w2[1] -= lr * (d * h1)
    w2[2] -= lr * (d * h2)
    if net.use_bias:
        r0[-1] -= lr * d0
        r1[-1] -= lr * d1
        r2[-1] -= lr * d2
        w2[3] -= lr * d
    return loss
