"""Tests for the from-scratch n-3-1 net: tanh, init, backprop, training."""

import math

import pytest

from gradient_oracle import loss_eval, numeric_gradient, tanh
from reference_loop import row_loop_forward

from daylux.rng import SplitMix64
from daylux.tinynet import backprop_gradients, forward, init_network, train_step


def test_tanh_matches_reference():
    for i in range(-120, 121):
        x = i / 10.0
        assert tanh(x) == pytest.approx(math.tanh(x), abs=1e-15)


def test_tanh_saturates_without_overflow():
    assert tanh(25.0) == 1.0
    assert tanh(-25.0) == -1.0
    assert tanh(1e6) == 1.0


def test_linear_is_identity():
    # hidden units pinned at tanh(20) = 1, so the output is the bare sum,
    # which a squashing output could not reach
    net = init_network(2, 0.15, 0, True)
    for row in net.w1:
        row[:] = [0.0, 0.0, 20.0]
    net.w2[:] = [2.0, 2.0, 2.0, 0.5]
    y, h = forward(net, [0.3, -0.3])
    assert h == [1.0, 1.0, 1.0]
    assert y == 6.5


def test_derivatives_from_output():
    # hidden deltas use tanh' = 1 - y**2 on the neuron's own output
    net = init_network(2, 0.15, 4, True)
    x, t = [0.4, -0.6], 0.2
    y, h = forward(net, x)
    _, grad_w1, grad_w2 = backprop_gradients(net, x, t)
    d = y - t
    assert grad_w2 == [d * hj for hj in h] + [d]
    for row, wj, hj in zip(grad_w1, net.w2, h):
        dj = wj * d * (1.0 - hj * hj)
        assert row == [dj * v for v in x] + [dj]


def test_init_network_frozen_seed0():
    net = init_network(2, 0.15, 0, True)
    assert len(net.w1[0]) == 3  # two weights and the bias
    assert net.w1 == [
        [0.3833108082136426, -0.06847200295149003, -0.47356622840740226],
        [0.4708819781538285, -0.39365330843278756, -0.17267423578187424],
        [-0.32613213404031716, 0.271546556331567, -0.25431105115986863],
    ]
    assert net.w2 == [
        0.4520306913678265, -0.10353202437118647, 0.2610344216276269, 0.02395059165495128
    ]


def test_init_network_draw_order_is_stable_without_bias():
    # bias draws are skipped entirely, so the first neuron's weights match
    with_b = init_network(2, 0.15, 0, True)
    without_b = init_network(2, 0.15, 0, False)
    assert without_b.w1[0][:2] == with_b.w1[0][:2]
    assert all(row[-1] == 0.0 for row in without_b.w1 + [without_b.w2])


def test_init_network_bounds_property():
    for seed in range(30):
        net = init_network(3, 0.15, seed, True)
        for row in net.w1 + [net.w2]:
            assert all(-0.5 <= w <= 0.5 for w in row)


def test_init_network_validation():
    # one train_step at an infinite rate would make every weight non-finite
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^learning rate must be finite and > 0, got {rate}$"):
            init_network(2, rate, 0, True)
    for n_inputs in (1, 4):  # forward is written for the two loop shapes only
        with pytest.raises(ValueError, match=f"n_inputs must be 2 or 3, got {n_inputs}"):
            init_network(n_inputs, 0.15, 0, True)
    for kwargs, message in (
        ({"n_inputs": 2.0}, "n_inputs must be an int, got float"),  # not a raw TypeError
        ({"n_inputs": True}, "n_inputs must be an int, got bool"),
        ({"learning_rate": "0.1"}, "learning rate must be a float, got str"),
        ({"learning_rate": True}, "learning rate must be a float, got bool"),
        ({"use_bias": 1}, "use_bias must be a bool, got int"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_network(**{"n_inputs": 2, "learning_rate": 0.15, "seed": 0, "use_bias": True,
                             **kwargs})
    for seed in (-1, 2**64, 1.5, True):  # -1 would build the net of seed 2**64 - 1
        with pytest.raises(ValueError, match=r"^seed must be an int in \[0, \d+\], got "):
            init_network(2, 0.15, seed, True)


def test_forward_trace_shape():
    y, h = forward(init_network(2, 0.15, 0, True), [0.2, -0.7])
    assert isinstance(y, float)
    assert len(h) == 3 and all(-1.0 < v < 1.0 for v in h)


def test_forward_zeroed_net_outputs_bias():
    net = init_network(2, 0.15, 0, True)
    for row in net.w1:
        row[:] = [0.0, 0.0, 0.0]
    net.w2[:] = [0.0, 0.0, 0.0, 0.25]
    y, _ = forward(net, [0.9, -0.9])
    assert y == 0.25


def test_forward_rejects_wrong_arity():
    with pytest.raises(ValueError):
        forward(init_network(2, 0.15, 0, True), [0.1])
    with pytest.raises(ValueError):
        loss_eval(init_network(3, 0.15, 0, True), [0.1, 0.2], 0.0)
    with pytest.raises(ValueError):
        forward(init_network(2, 0.15, 0, True), (0.1, 0.2, 0.3))


# Hidden sums at and around tanh's cut-offs, signed zeros, small negatives,
# huge values and the non-finite ones a diverging net produces (nan must stay
# nan, so that the loop sees the divergence); each is reached exactly by a
# row whose only non-zero entry is its bias.
EDGE_SUMS = [
    20.0, -20.0, 19.999, -19.999, 0.0, -0.0, -1e-300, -1e-9, -0.3, 1e6, -1e6,
    math.inf, -math.inf, math.nan,
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("use_bias", [True, False])
def test_forward_is_the_generic_row_loop_bit_for_bit(n, use_bias):
    def hexed(result):
        y, h = result
        return y.hex(), [v.hex() for v in h]

    rng = SplitMix64(11 + n)
    for trial in range(200):
        net = init_network(n, 0.15, rng.next_u64(), use_bias)
        scale = (1.0, 10.0, 60.0)[trial % 3]  # the last drives rows past +-20
        for row in net.w1:
            row[:n] = [w * scale for w in row[:n]]
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        assert hexed(forward(net, x)) == hexed(row_loop_forward(net, x))
    net = init_network(n, 0.15, 0, use_bias)
    x = [-0.5] * n  # zero weights times -0.5 add -0.0, which leaves every bias as is
    for i in range(0, len(EDGE_SUMS), 3):
        biases = (EDGE_SUMS[i:i + 3] + [0.0, 0.0])[:3]
        for row, bias in zip(net.w1, biases):
            row[:] = [0.0] * n + [bias]
        y, h = forward(net, x)
        assert [v.hex() for v in h] == [tanh(b).hex() for b in biases]
        assert hexed((y, h)) == hexed(row_loop_forward(net, x))


def test_forward_accepts_ints_tuples_and_generators():
    net = init_network(3, 0.15, 6, True)
    want = forward(net, [1.0, 0.0, -1.0])
    assert forward(net, [1, 0, -1]) == want
    assert forward(net, (1.0, 0, -1)) == want


def test_loss_eval_definition():
    net = init_network(2, 0.15, 0, True)
    y, _ = forward(net, [0.3, 0.1])
    assert loss_eval(net, [0.3, 0.1], 0.5) == pytest.approx(0.5 * (0.5 - y) ** 2, rel=1e-15)


def test_backprop_matches_numeric_gradient():
    rng = SplitMix64(2024)
    worst = 0.0
    for trial in range(40):
        n = 2 if trial % 2 == 0 else 3
        net = init_network(n, 0.15, rng.next_u64(), True)
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        t = rng.uniform(-1.0, 1.0)
        _, gw1, gw2 = backprop_gradients(net, x, t)
        nw1, nw2 = numeric_gradient(net, x, t)
        for row, ref_row in zip(gw1 + [gw2], nw1 + [nw2]):
            assert len(row) == len(ref_row)
            for g, ref in zip(row, ref_row):
                worst = max(worst, abs(g - ref) / max(abs(ref), 1e-8))
    assert worst < 1e-6


def test_train_step_returns_pre_update_loss():
    net = init_network(2, 0.15, 7, True)
    before = loss_eval(net, [0.3, -0.2], 0.5)
    loss = train_step(net, [0.3, -0.2], 0.5)
    assert loss == before == 0.0173446038153871
    y, _ = forward(net, [0.3, -0.2])
    assert y == 0.3611619615758882  # moved toward the target


def test_training_converges_on_fixed_sample():
    net = init_network(2, 0.15, 3, True)
    first = train_step(net, [0.4, 0.4], -0.3)
    for _ in range(199):
        last = train_step(net, [0.4, 0.4], -0.3)
    assert last < first
    assert loss_eval(net, [0.4, 0.4], -0.3) < 1e-8


def test_train_step_respects_use_bias():
    net = init_network(2, 0.15, 5, False)
    train_step(net, [0.1, 0.2], 0.3)
    assert all(row[-1] == 0.0 for row in net.w1 + [net.w2])


def test_numeric_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        numeric_gradient(init_network(2, 0.15, 0, True), [0.1, 0.2], 0.3, h=0.0)


def test_train_step_is_the_backprop_update_bit_for_bit():
    # train_step fuses backward and update; backprop_gradients is the
    # separate path the gradient check uses, so the two must never drift apart
    rng = SplitMix64(99)
    for trial in range(48):
        n = 2 + trial % 2
        use_bias = trial % 4 < 2
        net = init_network(n, 0.15 + 0.1 * (trial % 3), rng.next_u64(), use_bias)
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        if trial % 3 == 0:  # drive one hidden unit into saturation, |sum| >= 20
            x[0] = 0.9
            net.w1[(trial // 3) % 3][0] = 40.0 if trial % 2 else -40.0
        t = rng.uniform(-1.0, 1.0)
        loss, gw1, gw2 = backprop_gradients(net, x, t)
        lr = net.learning_rate

        def updated(row, grad):
            trained = len(row) if use_bias else len(row) - 1  # bias is the last slot
            return [(w - lr * g if i < trained else w).hex()
                    for i, (w, g) in enumerate(zip(row, grad))]

        want = [updated(row, g) for row, g in zip(net.w1 + [net.w2], gw1 + [gw2])]
        assert train_step(net, x, t).hex() == loss.hex()
        assert [[w.hex() for w in row] for row in net.w1 + [net.w2]] == want
        if not use_bias:
            assert all(row[-1] == 0.0 for row in net.w1 + [net.w2])
