import numpy as np
import pytest

from conftest import (finite_difference_gradients, max_relative_error,
                      toy_layers)
from csocnn import nn
from csocnn.errors import LabelError, StateError
from csocnn.nn import backward, forward


def _train_step_grads(net, x, y):
    _, cache = forward(net, x, "train")
    return backward(net, cache, y)


def test_gradients_match_finite_differences():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=7, dtype=np.float64)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 9, 1, 1))
    y = np.array([0, 1, 2, 1])
    analytic = _train_step_grads(net, x, y)
    numeric = finite_difference_gradients(net, x, y)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_dense_only_gradients_match_finite_differences():
    layers = [nn.input_layer(), nn.dense(6, activation="relu"),
              nn.dense(3, activation="softmax")]
    net = nn.Network(layers, (5,), seed=9, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 5))
    y = np.array([2, 0, 1])
    analytic = _train_step_grads(net, x, y)
    numeric = finite_difference_gradients(net, x, y)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_confident_correct_prediction_has_near_zero_gradient():
    layers = [nn.input_layer(), nn.dense(2, activation="softmax")]
    net = nn.Network(layers, (2,), seed=0, dtype=np.float64)
    net.params["1.weight"][:] = [[50.0, -50.0], [50.0, -50.0]]
    x = np.ones((1, 2))
    y = np.array([0])
    grads = _train_step_grads(net, x, y)
    assert np.all(np.abs(grads["1.weight"]) < 1e-8)
    assert np.all(np.abs(grads["1.bias"]) < 1e-8)


def test_duplicated_sample_keeps_mean_gradient():
    net1 = nn.Network(toy_layers(), (9, 1, 1), seed=4, dtype=np.float64)
    net2 = net1.clone()
    x = np.random.default_rng(8).normal(size=(1, 9, 1, 1))
    y1 = np.array([1])
    g_single = _train_step_grads(net1, x, y1)
    g_double = _train_step_grads(net2, np.concatenate([x, x]),
                                 np.array([1, 1]))
    for key in g_single:
        assert np.allclose(g_single[key], g_double[key], atol=1e-12)


def test_inference_cache_rejected():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    x = np.zeros((2, 9, 1, 1), dtype=np.float32)
    _, cache = forward(net, x, "inference")
    with pytest.raises(StateError):
        backward(net, cache, np.array([0, 1]))


def test_stale_cache_rejected():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    x = np.zeros((2, 9, 1, 1), dtype=np.float32)
    _, old_cache = forward(net, x, "train")
    forward(net, x, "train")
    with pytest.raises(StateError):
        backward(net, old_cache, np.array([0, 1]))


def test_spent_cache_rejected():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    x = np.zeros((2, 9, 1, 1), dtype=np.float32)
    _, cache = forward(net, x, "train")
    backward(net, cache, np.array([0, 1]))
    assert cache["layers"][1:] == [None] * (len(net.layers) - 1)
    with pytest.raises(StateError):
        backward(net, cache, np.array([0, 1]))


def test_label_out_of_range_rejected():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    x = np.zeros((2, 9, 1, 1), dtype=np.float32)
    _, cache = forward(net, x, "train")
    with pytest.raises(LabelError):
        backward(net, cache, np.array([0, 3]))


def test_gradients_shape_congruent_with_parameters():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=1)
    x = np.random.default_rng(0).normal(size=(3, 9, 1, 1)).astype(np.float32)
    grads = _train_step_grads(net, x, np.array([0, 1, 2]))
    assert set(grads) == set(net.params)
    for key, g in grads.items():
        assert g.shape == net.params[key].shape


def _three_pass_batch_norm_backward(dz, xhat, std, gamma):
    """The BatchNorm backward that _batch_norm_backward replaced: scale dz by
    gamma, then take the two sums of the scaled gradient."""
    m = dz.shape[0] * dz.shape[1] * dz.shape[2]
    dgamma = (dz * xhat).sum(axis=(0, 1, 2))
    dbeta = dz.sum(axis=(0, 1, 2))
    dxhat = dz * gamma
    s1 = dxhat.sum(axis=(0, 1, 2))
    s2 = (dxhat * xhat).sum(axis=(0, 1, 2))
    return (dxhat - (s1 + xhat * s2) / m) / std, dgamma, dbeta


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(97, 70, 1, 64), (33, 7, 3, 5), (1, 1, 1, 4)])
def test_batch_norm_backward_matches_three_pass_formula(shape, dtype, rtol):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(3.0, 20.0, size=shape).astype(dtype)
    xc = x - x.mean(axis=(0, 1, 2))
    std = np.sqrt(np.square(xc).mean(axis=(0, 1, 2)) + nn.BN_EPSILON)
    xhat = xc / std
    dz = rng.normal(size=shape).astype(dtype)
    gamma = rng.uniform(0.5, 2.0, size=shape[-1]).astype(dtype)
    grad, dgamma, dbeta = nn._batch_norm_backward(dz, xhat, std, gamma)
    want, want_dgamma, want_dbeta = _three_pass_batch_norm_backward(
        dz, xhat, std, gamma)
    assert dgamma.tobytes() == want_dgamma.tobytes()
    assert dbeta.tobytes() == want_dbeta.tobytes()
    assert grad.dtype == dtype
    # entries where dz and the mean terms cancel carry both formulas'
    # rounding at the operands' scale, so the absolute slack is rtol times
    # the largest gradient
    np.testing.assert_allclose(grad, want, rtol=rtol,
                               atol=rtol * np.abs(want).max())


def test_first_layer_input_gradient_is_skipped(monkeypatch):
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=2)
    rng = np.random.default_rng(6)
    x = rng.random((24, 75, 1, 1)).astype(np.float32)
    y = rng.integers(0, 5, size=24)
    want = _train_step_grads(net.clone(), x, y)
    original = nn._col2im
    shapes = []

    def spy(dcols, x_shape, kh, kw):
        shapes.append(x_shape)
        return original(dcols, x_shape, kh, kw)

    monkeypatch.setattr(nn, "_col2im", spy)
    grads = _train_step_grads(net, x, y)
    # only the convolutions at layers 4 and 7 fold an input gradient back
    assert shapes == [(24, *net.shapes[6]), (24, *net.shapes[3])]
    assert set(grads) == set(want)
    for key in want:
        assert grads[key].tobytes() == want[key].tobytes(), key


def test_conv_bias_before_batch_norm_gets_exact_zero_gradient():
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=4)
    rng = np.random.default_rng(7)
    x = rng.random((32, 75, 1, 1)).astype(np.float32)
    grads = _train_step_grads(net, x, rng.integers(0, 5, size=32))
    for i in (1, 4, 7):
        g = grads[f"{i}.bias"]
        assert g.dtype == net.params[f"{i}.bias"].dtype
        assert g.tobytes() == np.zeros_like(g).tobytes(), i
        assert np.any(grads[f"{i}.kernel"] != 0), i


@pytest.mark.parametrize("layers", [
    # a conv with its own activation ahead of a BatchNorm
    [nn.input_layer(), nn.conv2d(4, (3, 1), activation="relu"),
     nn.batch_norm(), nn.flatten(), nn.dense(3, activation="softmax")],
    # a conv that no BatchNorm reads
    [nn.input_layer(), nn.conv2d(4, (3, 1)), nn.flatten(),
     nn.dense(3, activation="softmax")],
])
def test_conv_bias_outside_the_rule_keeps_its_gradient(layers):
    net = nn.Network(layers, (6, 1, 2), seed=5, dtype=np.float64)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 6, 1, 2))
    y = np.array([0, 1, 2, 0, 1, 2])
    analytic = _train_step_grads(net, x, y)
    assert np.all(analytic["1.bias"] != 0)
    numeric = finite_difference_gradients(net, x, y, keys=["1.bias"])
    assert max_relative_error({"1.bias": analytic["1.bias"]}, numeric) < 1e-4


def _zero_fill_col2im(dcols, x_shape, kh, kw):
    """nn._col2im as it was: a zero-filled buffer that every slot adds into."""
    n, h, w, c = x_shape
    oh, ow = h - kh + 1, w - kw + 1
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for slot in range(kh * kw):
        i, j = divmod(slot, kw)
        dx[:, i:i + oh, j:j + ow, :] += dcols[..., slot * c:(slot + 1) * c]
    return dx


@pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32),
                                        (np.float64, np.uint64)])
@pytest.mark.parametrize("kernel,x_shape", [
    ((6, 1), (5, 75, 1, 4)), ((3, 1), (3, 35, 1, 64)), ((2, 2), (4, 5, 6, 3)),
])
def test_col2im_matches_zero_filled_sum_bit_for_bit(kernel, x_shape, dtype, uint):
    kh, kw = kernel
    n, h, w, c = x_shape
    shape = (n, h - kh + 1, w - kw + 1, kh * kw * c)
    rng = np.random.default_rng(sum(x_shape))
    dcols = rng.normal(size=shape).astype(dtype)
    # -0.0 (which 0.0 + -0.0 turns into 0.0), 0.0, NaN and infinities
    pick = rng.random(shape)
    dcols[pick < 0.3] = -0.0
    dcols[(pick >= 0.3) & (pick < 0.35)] = 0.0
    dcols[(pick >= 0.35) & (pick < 0.36)] = np.nan
    dcols[(pick >= 0.36) & (pick < 0.37)] = np.inf
    got = nn._col2im(dcols, x_shape, kh, kw)
    want = _zero_fill_col2im(dcols, x_shape, kh, kw)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(uint), want.view(uint))
