"""Dense layers, reverse mode, Adam, and the finite-difference checker."""

import numpy as np
import pytest

from ecsched.nn import (ROW_TILE, AdamState, Mlp, adam_step, init_mlp, mlp_backward,
                        mlp_forward, parameters, relu6, relu6_grad)
from gradcheck import grad_check


def test_relu6_values():
    z = np.array([-3.0, 0.0, 2.5, 6.0, 10.0])
    np.testing.assert_array_equal(relu6(z), [0.0, 0.0, 2.5, 6.0, 6.0])
    np.testing.assert_array_equal(relu6_grad(z), [0.0, 0.0, 1.0, 0.0, 0.0])


def test_relu6_mask_reads_the_same_from_activations():
    z = np.array([-0.0, 0.0, 6.0,
                  np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0),
                  np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0),
                  -np.inf, np.inf, np.nan, -3.0, 2.5, 10.0])
    np.testing.assert_array_equal(relu6_grad(relu6(z)), relu6_grad(z))
    np.testing.assert_array_equal(relu6_grad(z), [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0])


def reference_backward(net, x, dy):
    """The backward pass with every mask taken from a stored preactivation."""
    acts, preacts = [x], []
    for w, b in zip(net.weights, net.biases):
        preacts.append(acts[-1] @ w.T + b)
        acts.append(relu6(preacts[-1]))
    last = len(net.weights) - 1
    grads = [None] * (2 * len(net.weights))
    d = dy
    for i in range(last, -1, -1):
        if i < last or net.output == "relu6_eps":
            d = d * relu6_grad(preacts[i])
        grads[2 * i] = d.T @ acts[i]
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ net.weights[i]
    return d, grads, preacts


@pytest.mark.parametrize("output", ["identity", "relu6_eps"])
def test_kinked_hidden_units_match_preactivation_masks(output):
    # hidden units land exactly on 0 and on 6, below, inside and above
    x = np.array([[0.0, 6.0], [6.0, 0.0], [3.0, 3.0], [-1.0, 7.0], [2.0, 4.0]])
    net = Mlp(weights=[np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]),
                       np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1.0]]),
                       np.array([[0.3, -1.2, 0.7], [2.0, 0.5, -0.4]])],
              biases=[np.zeros(3), np.array([0.0, 0.0, -3.0]), np.array([4.0, 1.0])],
              output=output)
    dy = np.random.default_rng(11).normal(size=(5, 2))
    y, cache = mlp_forward(net, x)
    dx, grads = mlp_backward(net, cache, dy)
    ref_dx, ref_grads, preacts = reference_backward(net, x, dy)
    hidden = np.concatenate([z.ravel() for z in preacts[:-1]])
    assert (hidden == 0.0).any() and (hidden == 6.0).any()
    assert ((hidden > 0.0) & (hidden < 6.0)).any()
    np.testing.assert_array_equal(dx, ref_dx)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(g, ref)
    assert any((g != 0.0).any() for g in grads)


def test_forward_leaves_its_input_unchanged():
    rng = np.random.default_rng(12)
    x = rng.normal(scale=10.0, size=(20, 3))
    before = x.copy()
    for widths, output in (([3, 5, 5, 2], "identity"), ([3, 4, 3], "relu6_eps"), ([3, 2], "relu6_eps")):
        mlp_forward(init_mlp(widths, rng, output=output), x)
        np.testing.assert_array_equal(x, before)


@pytest.mark.parametrize("output", ["identity", "relu6_eps"])
@pytest.mark.parametrize("rows", [1, ROW_TILE, 2 * ROW_TILE + 7])
def test_forward_without_cache_is_bit_identical(rows, output):
    rng = np.random.default_rng(rows)
    net = init_mlp([4, 8, 8, 3], rng, output=output)
    net.biases = [rng.normal(size=b.shape) for b in net.biases]
    x = rng.normal(scale=4.0, size=(rows, 4))
    y, cache = mlp_forward(net, x)
    y_bare, none = mlp_forward(net, x, keep_cache=False)
    assert none is None
    assert y_bare.shape == (rows, 3)
    np.testing.assert_array_equal(y_bare, y)
    inputs, z = cache
    assert len(inputs) == 3 and inputs[0] is x
    assert all(a.shape[0] == rows for a in inputs) and z.shape == (rows, 3)
    if rows > 1:
        # both kinks of the clamp are hit in the hidden layers
        hidden = np.concatenate([a.ravel() for a in inputs[1:]])
        assert (hidden == 0.0).any() and (hidden == 6.0).any()
    if output == "relu6_eps":
        np.testing.assert_array_equal(y, relu6(z) + net.eps)


@pytest.mark.parametrize("keep_cache", [True, False])
@pytest.mark.parametrize("widths", [[4, 8, 8, 8, 1], [3, 8, 8, 8, 1]], ids=["link", "program"])
def test_a_row_gives_the_same_bytes_in_any_call(widths, keep_cache):
    # a BLAS may round the last rows of a call with another kernel; the
    # distinct-row forwards rely on every call rounding a row alike
    rng = np.random.default_rng(widths[0])
    net = init_mlp(widths, rng)
    net.biases = [rng.normal(size=b.shape) for b in net.biases]
    x = rng.normal(scale=4.0, size=(ROW_TILE + 77, widths[0]))
    y, cache = mlp_forward(net, x, keep_cache=keep_cache)
    spans = [(rows * 13 % 97, rows * 13 % 97 + rows) for rows in range(1, 201)]
    for i, j in spans + [(5, ROW_TILE + 70)]:
        part, part_cache = mlp_forward(net, x[i:j], keep_cache=keep_cache)
        assert part.tobytes() == y[i:j].tobytes(), (i, j)
        if keep_cache:
            for a, full in zip(part_cache[0] + [part_cache[1]], cache[0] + [cache[1]]):
                assert a.tobytes() == full[i:j].tobytes(), (i, j)


@pytest.mark.parametrize("output", ["identity", "relu6_eps"])
def test_backward_writes_neither_dy_nor_the_cache(output):
    rng = np.random.default_rng(21)
    net = init_mlp([3, 6, 5, 2], rng, output=output)
    x = rng.normal(scale=4.0, size=(50, 3))
    dy = rng.normal(size=(50, 2))
    _, cache = mlp_forward(net, x)
    inputs, z = cache
    saved = [a.copy() for a in inputs] + [z.copy(), dy.copy()]
    mlp_backward(net, cache, dy)
    for a, before in zip(inputs + [z, dy], saved):
        np.testing.assert_array_equal(a, before)
    assert relu6_grad(z).dtype == np.bool_


def test_zero_weights_pass_bias():
    net = Mlp(weights=[np.zeros((3, 2))], biases=[np.array([1.0, -4.0, 9.0])],
              output="relu6_eps", eps=1e-6)
    y, _ = mlp_forward(net, np.ones((5, 2)))
    np.testing.assert_allclose(y, np.tile([1.0 + 1e-6, 1e-6, 6.0 + 1e-6], (5, 1)))


def test_single_layer_matches_loops():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    x = rng.normal(size=(6, 3))
    net = Mlp(weights=[w], biases=[b])
    y, _ = mlp_forward(net, x)
    for r in range(6):
        for o in range(4):
            manual = b[o]
            for i in range(3):
                manual += w[o, i] * x[r, i]
            assert y[r, o] == pytest.approx(manual, rel=1e-12)


def test_hidden_layers_clip_at_six():
    w = np.array([[5.0]])
    net = Mlp(weights=[w, np.eye(1)], biases=[np.zeros(1), np.zeros(1)])
    y, _ = mlp_forward(net, np.array([[2.0]]))
    # 10 pre-activation saturates the hidden unit
    assert y[0, 0] == 6.0


def test_sum_loss_weight_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3))
    net = Mlp(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
    y, cache = mlp_forward(net, x)
    _, grads = mlp_backward(net, cache, np.ones_like(y))
    np.testing.assert_allclose(grads[0], np.outer(np.ones(2), x[0]))
    np.testing.assert_allclose(grads[1], np.ones(2))


def test_saturated_output_blocks_gradient():
    net = Mlp(weights=[np.array([[7.0]])], biases=[np.zeros(1)],
              output="relu6_eps")
    y, cache = mlp_forward(net, np.array([[1.0]]))
    assert y[0, 0] == 6.0 + 1e-6
    dx, grads = mlp_backward(net, cache, np.ones((1, 1)))
    assert grads[0][0, 0] == 0.0 and dx[0, 0] == 0.0


def test_identity_output_passes_gradient():
    net = Mlp(weights=[np.array([[7.0]])], biases=[np.zeros(1)])
    _, cache = mlp_forward(net, np.array([[1.0]]))
    dx, grads = mlp_backward(net, cache, np.ones((1, 1)))
    assert grads[0][0, 0] == 1.0 and dx[0, 0] == 7.0


def test_init_shapes_bounds_and_determinism():
    a = init_mlp([4, 8, 8, 1], np.random.default_rng(9))
    b = init_mlp([4, 8, 8, 1], np.random.default_rng(9))
    assert a.widths == [4, 8, 8, 1]
    for wa, wb, fan in zip(a.weights, b.weights, [(4, 8), (8, 8), (8, 1)]):
        assert wa.shape == (fan[1], fan[0])
        assert np.array_equal(wa, wb)
        bound = np.sqrt(6.0 / sum(fan))
        assert (np.abs(wa) < bound).all()
    for bias in a.biases:
        assert (bias == 0.0).all()
    with pytest.raises(ValueError):
        init_mlp([4], np.random.default_rng(0))


def test_adam_zero_grad_no_move():
    params = [np.array([1.0, 2.0]), np.array([[3.0]])]
    state = AdamState.for_params(params)
    before = [p.copy() for p in params]
    adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    assert state.step == 1
    for p, q in zip(params, before):
        assert np.array_equal(p, q)


def test_adam_first_step_is_signed_lr():
    params = [np.array([1.0, 1.0, 1.0])]
    grads = [np.array([0.5, -3.0, 0.0])]
    state = AdamState.for_params(params, lr=1e-2)
    adam_step(state, params, grads)
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one
    expect = 1.0 - 1e-2 * np.array([1.0, -1.0, 0.0]) / (1.0 + 1e-8 / np.sqrt(1.0 - 0.999))
    np.testing.assert_allclose(params[0][:2], expect[:2], rtol=1e-6)
    assert params[0][2] == 1.0


def test_adam_moment_recurrences():
    rng = np.random.default_rng(3)
    params = [rng.normal(size=4)]
    state = AdamState.for_params(params, lr=1e-3)
    m = np.zeros(4)
    v = np.zeros(4)
    x = params[0].copy()
    for step in range(1, 6):
        g = rng.normal(size=4)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 1e-3 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
        adam_step(state, params, [g])
        np.testing.assert_allclose(state.m[0], m, rtol=1e-12)
        np.testing.assert_allclose(state.v[0], v, rtol=1e-12)
        np.testing.assert_allclose(params[0], x, rtol=1e-12)


def test_adam_step_magnitude_bounded():
    rng = np.random.default_rng(4)
    params = [rng.normal(size=16)]
    state = AdamState.for_params(params, lr=1e-2)
    for _ in range(50):
        before = params[0].copy()
        adam_step(state, params, [rng.normal(size=16) * 100.0])
        # per-coordinate moves stay near lr regardless of gradient scale
        assert np.max(np.abs(params[0] - before)) < 1e-2 * 1.2


def test_adam_shape_mismatch_rejected():
    params = [np.zeros(3)]
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(state, params, [np.zeros(3), np.zeros(3)])


def linear_net_loss(net, x, target):
    y, cache = mlp_forward(net, x)
    resid = y - target
    loss = float(0.5 * (resid ** 2).sum())
    _, grads = mlp_backward(net, cache, resid)
    return loss, grads


def test_grad_check_passes_on_smooth_net():
    rng = np.random.default_rng(5)
    net = init_mlp([3, 5, 2], rng)
    # stay inside the linear region so the surface has no kinks
    for w in net.weights:
        w *= 0.1
    for b in net.biases:
        b += 0.5
    x = rng.uniform(0.1, 0.4, size=(4, 3))
    target = rng.normal(size=(4, 2))
    params = parameters(net)

    def lag():
        loss, grads = linear_net_loss(net, x, target)
        return loss, grads, ()

    report = grad_check(lag, params, np.random.default_rng(6), n_coords=30)
    assert len(report.coords) == 30
    assert report.max_rel_err < 1e-6
    assert any(abs(c[2]) > 1e-8 for c in report.coords)


def test_grad_check_catches_corruption():
    rng = np.random.default_rng(7)
    net = init_mlp([3, 5, 2], rng)
    for w in net.weights:
        w *= 0.1
    for b in net.biases:
        b += 0.5
    x = rng.uniform(0.1, 0.4, size=(4, 3))
    target = rng.normal(size=(4, 2))
    params = parameters(net)

    def lag():
        loss, grads = linear_net_loss(net, x, target)
        grads[0] = grads[0] + 0.5  # corrupted backward pass
        return loss, grads, ()

    report = grad_check(lag, params, np.random.default_rng(8), n_coords=30)
    assert report.max_rel_err > 1e-2


def test_grad_check_skips_kinks():
    # both params sit exactly on the ReLU6 kink, so every probe straddles
    # it and the checker must give up rather than compare across it
    net = Mlp(weights=[np.array([[0.0]])], biases=[np.zeros(1)],
              output="relu6_eps")
    params = parameters(net)

    def lag():
        y, cache = mlp_forward(net, np.array([[1.0]]))
        _, grads = mlp_backward(net, cache, np.ones((1, 1)))
        sig = (bool(y[0, 0] > net.eps),)
        return float(y[0, 0]), grads, sig

    with pytest.raises(RuntimeError, match="kinked"):
        grad_check(lag, params, np.random.default_rng(9), n_coords=5,
                   max_retries=10)
