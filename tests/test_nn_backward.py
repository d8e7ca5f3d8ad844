import concurrent.futures

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


def test_pool_first_stack_gradients_match_finite_differences(monkeypatch):
    # a pool ahead of the first conv: training leaves the conv's pair at
    # layer 2 unfolded, and the conv's one-channel input gradient runs as
    # one whole product in _conv_input_gradient
    layers = [nn.input_layer(), nn.max_pool2d((2, 1)), nn.conv2d(3, (2, 1)),
              nn.batch_norm(activation="relu"), nn.max_pool2d((2, 1)),
              nn.flatten(), nn.dense(3, activation="softmax")]
    net = nn.Network(layers, (11, 1, 1), seed=5, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 11, 1, 1))
    y = np.array([0, 1, 2, 0, 1, 2])
    shapes = []
    original = nn._conv_input_gradient
    monkeypatch.setattr(nn, "_conv_input_gradient", lambda *args: (
        shapes.append(args[2]) or original(*args)))
    analytic = _train_step_grads(net, x, y)
    assert shapes == [(6, 6, 1, 1)]
    numeric = finite_difference_gradients(net, x, y, step=1e-4)
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
    original = nn._conv_input_gradient
    shapes = []

    def spy(dz2, kmat, x_shape, kh, kw):
        shapes.append(x_shape)
        return original(dz2, kmat, x_shape, kh, kw)

    monkeypatch.setattr(nn, "_conv_input_gradient", spy)
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


# two conv blocks over a width the first block's 1 x 2 pool halves: the
# second conv's kernel gradient runs in the lane beside its input gradient
_WIDE_STACK = [nn.input_layer(), nn.conv2d(4, (3, 1)),
               nn.batch_norm(activation="relu"), nn.max_pool2d((1, 2)),
               nn.conv2d(3, (2, 1)), nn.batch_norm(activation="relu"),
               nn.max_pool2d((2, 1)), nn.flatten(),
               nn.dense(3, activation="softmax")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 37, 256])
@pytest.mark.parametrize("layers, input_shape", [
    (nn.default_architecture(5), (75, 1, 1)),
    (_WIDE_STACK, (9, 3, 2)),
], ids=["default", "wide"])
def test_lane_gives_the_same_gradient_bits(layers, input_shape, n, dtype):
    net = nn.Network(layers, input_shape, seed=n, dtype=dtype)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, *input_shape)).astype(dtype)
    y = rng.integers(0, net.num_classes, size=n)
    want = _train_step_grads(net.clone(), x, y)
    with concurrent.futures.ThreadPoolExecutor(1) as lane:
        _, cache = forward(net, x, "train")
        grads = backward(net, cache, y, lane)
    assert set(grads) == set(want)
    for key in want:
        assert grads[key].tobytes() == want[key].tobytes(), key


class _SpyLane(concurrent.futures.Executor):
    """Runs each submit at once, recording the operands' shapes."""

    def __init__(self):
        self.operands = []

    def submit(self, fn, *args):
        self.operands.append([a.shape for a in args[1:]])
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_lane_runs_the_kernel_gradient_of_each_conv_with_an_input_gradient():
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=2)
    rng = np.random.default_rng(6)
    x = rng.random((24, 75, 1, 1)).astype(np.float32)
    y = rng.integers(0, 5, size=24)
    lane = _SpyLane()
    _, cache = forward(net, x, "train")
    backward(net, cache, y, lane)
    # cols' x dz of convs 7 and 4, in backward's order; none for conv 1,
    # which takes no input gradient
    assert lane.operands == [
        [(3 * 64, 24 * net.shapes[i][0]), (24 * net.shapes[i][0], 64)]
        for i in (7, 4)]


def _zero_fill_col2im(dcols, x_shape, kh, kw):
    """The column sum of the conv input gradient as it was: a zero-filled
    buffer that every slot of the full dcols = dz2 @ kmat.T adds into."""
    n, h, w, c = x_shape
    oh, ow = h - kh + 1, w - kw + 1
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for slot in range(kh * kw):
        i, j = divmod(slot, kw)
        dx[:, i:i + oh, j:j + ow, :] += dcols[..., slot * c:(slot + 1) * c]
    return dx


@pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32),
                                        (np.float64, np.uint64)])
@pytest.mark.parametrize("n", [1, 32, 256])
@pytest.mark.parametrize("kernel,x_shape,filters", [
    ((6, 1), (75, 1, 4), 8), ((3, 1), (35, 1, 64), 64), ((2, 2), (5, 6, 3), 5),
    # one input channel: each slot's product has one column
    ((3, 1), (35, 1, 1), 16), ((2, 2), (5, 6, 1), 5),
])
def test_conv_input_gradient_matches_zero_filled_sum_bit_for_bit(
        kernel, x_shape, filters, n, dtype, uint):
    # one GEMM per kernel slot against the full GEMM and the zero-filled
    # column sum: the bits rest on the BLAS rounding a slot's columns alike
    kh, kw = kernel
    h, w, c = x_shape
    m = n * (h - kh + 1) * (w - kw + 1)
    rng = np.random.default_rng([n, *x_shape])
    dz2 = rng.normal(size=(m, filters)).astype(dtype)
    kmat = rng.normal(size=(kh * kw * c, filters)).astype(dtype)
    # zero rows of both signs (slot 0's 0.0 + value turns a -0.0 from the
    # BLAS into 0.0, as the zero-filled sum does), NaN and infinities
    pick = rng.random(m)
    dz2[pick < 0.3] = -0.0
    dz2[(pick >= 0.3) & (pick < 0.35)] = 0.0
    odd = rng.random(dz2.shape)
    dz2[odd < 0.002] = np.nan
    dz2[(odd >= 0.002) & (odd < 0.004)] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf
        got = nn._conv_input_gradient(dz2, kmat, (n, *x_shape), kh, kw)
        dcols = (dz2 @ kmat.T).reshape(n, h - kh + 1, w - kw + 1, -1)
        want = _zero_fill_col2im(dcols, (n, *x_shape), kh, kw)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(uint), want.view(uint))


def _slot_copy_im2col(x, kh, kw):
    """nn._im2col as it was: one strided copy per kernel slot."""
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    cols = np.empty((n, oh, ow, kh * kw * c), dtype=x.dtype)
    for slot in range(kh * kw):
        i, j = divmod(slot, kw)
        cols[..., slot * c:(slot + 1) * c] = x[:, i:i + oh, j:j + ow, :]
    return cols


@pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32),
                                        (np.float64, np.uint64)])
@pytest.mark.parametrize("kernel,x_shape", [
    ((6, 1), (5, 75, 1, 1)), ((3, 1), (3, 35, 1, 64)), ((3, 1), (2, 17, 1, 64)),
    ((3, 2), (4, 7, 5, 2)), ((1, 1), (2, 3, 3, 1)),
])
def test_im2col_matches_slot_copy_bit_for_bit(kernel, x_shape, dtype, uint):
    kh, kw = kernel
    rng = np.random.default_rng(sum(x_shape))
    x = rng.normal(size=x_shape).astype(dtype)
    pick = rng.random(x_shape)
    x[pick < 0.2] = -0.0
    x[(pick >= 0.2) & (pick < 0.22)] = np.nan
    got = nn._im2col(x, kh, kw)
    want = _slot_copy_im2col(x, kh, kw)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(uint), want.view(uint))
    # a fresh array, never a view of x
    assert got.flags.c_contiguous and got.flags.writeable
    assert not np.shares_memory(got, x)


# --- the input conv's BatchNorm folded in training ---------------------------

def _unfolded_pair(x, kernel, gamma, beta, dy):
    """A train-mode Conv2D -> BatchNorm pair as two layers, as nn ran every
    pair before training folded the input conv's and still runs the others:
    the conv's GEMM with no bias, the BatchNorm over batch statistics, then
    BatchNorm's backward from dy and the conv's kernel and input gradients.
    Returns (out, mean, var, dkernel, dgamma, dbeta, dx)."""
    kh, kw, _, f = kernel.shape
    kmat = kernel.reshape(-1, f)
    cols = nn._im2col(x, kh, kw)
    cols2 = cols.reshape(-1, cols.shape[-1])
    z = (cols2 @ kmat).reshape(*cols.shape[:-1], -1)
    mean = z.mean(axis=(0, 1, 2))
    xhat = z - mean
    var = np.square(xhat).mean(axis=(0, 1, 2))
    std = np.sqrt(var + nn.BN_EPSILON)
    xhat /= std
    out = xhat * gamma
    out += beta
    m = dy.size // f
    grad = dy * xhat
    dgamma, dbeta = grad.sum(axis=(0, 1, 2)), dy.sum(axis=(0, 1, 2))
    np.multiply(xhat, dgamma / m, out=grad)
    grad += dbeta / m
    np.subtract(dy, grad, out=grad)
    grad *= gamma / std
    dz2 = grad.reshape(-1, f)
    dkernel = (cols2.T @ dz2).reshape(kernel.shape)
    dx = _zero_fill_col2im((dz2 @ kmat.T).reshape(cols.shape), x.shape, kh, kw)
    return out, mean, var, dkernel, dgamma, dbeta, dx


def _spy(monkeypatch, name, record):
    """Wrap nn.<name> so that record(args, result) sees every call as it
    returns; a record copies what later code edits in place (backward masks
    an input gradient in place)."""
    original = getattr(nn, name)

    def spy(*args):
        result = original(*args)
        record(args, result)
        return result

    monkeypatch.setattr(nn, name, spy)


def _off_init(layers, input_shape, dtype, seed):
    """A network with gamma, beta and every bias off their initial values;
    a conv bias in front of a BatchNorm stays inert in training."""
    net = nn.Network(layers, input_shape, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for key, value in net.params.items():
        if key.endswith((".gamma", ".beta", ".bias")):
            low = 0.5 if key.endswith(".gamma") else -0.5
            value[:] = rng.uniform(low, low + 1.5, value.shape)
    return net


def _step(net, x, y):
    """Probabilities, gradients and running stats of one train step on a
    clone of net."""
    net = net.clone()
    probs, cache = forward(net, x, "train")
    return probs, nn.backward(net, cache, y), net.bn_stats


def _relative_error(got, want):
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / scale) if scale else float(
        np.abs(got).max())


_FOLD_NETS = {
    "default": (nn.default_architecture(5), (75, 1, 1), 64),
    "toy": (toy_layers(), (9, 1, 1), 16),
    # a 3 x 2 kernel over two channels (K = 12), and a ReLU that stays on
    # the folded BatchNorm, whose entry then carries the mask
    "relu_kept": ([nn.input_layer(), nn.conv2d(4, (3, 2)),
                   nn.batch_norm(activation="relu"), nn.flatten(),
                   nn.dense(3, activation="softmax")], (6, 5, 2), 40),
}


@pytest.mark.parametrize("name", sorted(_FOLD_NETS))
def test_train_fold_matches_unfolded_pair_in_float64(monkeypatch, name):
    layers, input_shape, n = _FOLD_NETS[name]
    assert nn._folds_in_training(layers, 1)
    net = _off_init(layers, input_shape, np.float64, seed=n)
    rng = np.random.default_rng(n)
    x = rng.random((n, *input_shape))
    y = rng.integers(0, net.num_classes, n)
    seen = []
    _spy(monkeypatch, "_folded_batch_norm_backward",
         lambda args, result: seen.append((args[1], result)))
    probs, grads, stats = _step(net, x, y)
    assert len(seen) == 1
    monkeypatch.setattr(nn, "_folds_in_training", lambda layers, i: False)
    want_probs, want_grads, want_stats = _step(net, x, y)
    assert _relative_error(probs, want_probs) <= 1e-12
    assert set(grads) == set(want_grads)
    for key in want_grads:
        assert _relative_error(grads[key], want_grads[key]) <= 1e-12, key
    for key in want_stats:
        assert _relative_error(stats[key], want_stats[key]) <= 1e-12, key
    # the pair alone, from the gradient the fold saw at its output
    dy, (dkernel, dgamma, dbeta) = seen[0]
    p = net.params
    _, mean, var, want_dkernel, want_dgamma, want_dbeta, _ = _unfolded_pair(
        x, p["1.kernel"], p["2.gamma"], p["2.beta"],
        dy.reshape(n, *net.shapes[1]))
    assert _relative_error(dkernel.reshape(want_dkernel.shape),
                           want_dkernel) <= 1e-12
    assert _relative_error(dgamma, want_dgamma) <= 1e-12
    assert _relative_error(dbeta, want_dbeta) <= 1e-12
    blend = nn.BN_MOMENTUM * net.bn_stats["2.mean"] + (1 - nn.BN_MOMENTUM) * mean
    assert _relative_error(stats["2.mean"], blend) <= 1e-12
    blend = nn.BN_MOMENTUM * net.bn_stats["2.var"] + (1 - nn.BN_MOMENTUM) * var
    assert _relative_error(stats["2.var"], blend) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unfolded_pairs_keep_the_oracles_bits(monkeypatch, dtype):
    # momentum 0 makes the running stats the batch statistics
    monkeypatch.setattr(nn, "BN_MOMENTUM", 0.0)
    net = _off_init(nn.default_architecture(5), (75, 1, 1), dtype, seed=9)
    rng = np.random.default_rng(9)
    x = rng.random((48, 75, 1, 1)).astype(dtype)
    y = rng.integers(0, 5, 48)
    conv_in, pool_in, bn_dz, conv_dx = [], [], [], []
    _spy(monkeypatch, "_im2col",
         lambda args, _: conv_in.append(args[0].copy()))
    _spy(monkeypatch, "_max_pool",
         lambda args, _: pool_in.append(args[0].copy()))
    _spy(monkeypatch, "_batch_norm_backward",
         lambda args, _: bn_dz.append(args[0].copy()))
    _spy(monkeypatch, "_conv_input_gradient",
         lambda _, result: conv_dx.append(result.copy()))
    _, grads, stats = _step(net, x, y)
    # forward runs convs 1, 4, 7 and pools 3, 6, 9; backward runs
    # BatchNorms 8, 5 and the input gradients of convs 7, 4
    for conv, k in ((4, 1), (7, 2)):
        bn = conv + 1
        p = net.params
        out, mean, var, dkernel, dgamma, dbeta, dx = _unfolded_pair(
            conv_in[k], p[f"{conv}.kernel"], p[f"{bn}.gamma"],
            p[f"{bn}.beta"], bn_dz[2 - k])
        assert pool_in[k].tobytes() == out.tobytes(), conv
        assert stats[f"{bn}.mean"].tobytes() == mean.astype(dtype).tobytes()
        assert stats[f"{bn}.var"].tobytes() == var.astype(dtype).tobytes()
        assert grads[f"{conv}.kernel"].tobytes() == dkernel.tobytes(), conv
        assert grads[f"{bn}.gamma"].tobytes() == dgamma.tobytes(), conv
        assert grads[f"{bn}.beta"].tobytes() == dbeta.tobytes(), conv
        assert conv_dx[2 - k].tobytes() == dx.tobytes(), conv


def test_train_fold_in_float32_is_no_less_accurate(monkeypatch):
    # momentum 0 makes the running stats the batch statistics
    monkeypatch.setattr(nn, "BN_MOMENTUM", 0.0)
    # the production batch, on features scaled into [0, 1] as data.py does
    layers, n = nn.default_architecture(5), 640
    net = _off_init(layers, (75, 1, 1), np.float32, seed=3)
    rng = np.random.default_rng(3)
    x = rng.random((n, 75, 1, 1)).astype(np.float32)
    y = rng.integers(0, 5, n)
    folded_out, dys = [], []
    _spy(monkeypatch, "_max_pool",
         lambda args, _: folded_out.append(args[0].copy()))
    _spy(monkeypatch, "_folded_batch_norm_backward",
         lambda args, _: dys.append(args[1].copy()))
    probs, grads, stats = _step(net, x, y)
    # the pair alone, from the float32 gradient at its output: the fold and
    # the unfolded pair, each against the unfolded pair in float64
    p = net.params
    args = (x, p["1.kernel"], p["2.gamma"], p["2.beta"],
            dys[0].reshape(n, *net.shapes[1]))
    want = _unfolded_pair(*(a.astype(np.float64) for a in args))
    old = _unfolded_pair(*args)
    got = (folded_out[0], stats["2.mean"], stats["2.var"], grads["1.kernel"],
           grads["2.gamma"], grads["2.beta"])
    for name, g, o, w in zip(("out", "mean", "var", "dkernel", "dgamma",
                              "dbeta"), got, old, want):
        assert _relative_error(g, w) <= _relative_error(o, w), name
    # the whole network against its float64 twin: the probabilities are no
    # less accurate, and every gradient is within twice the unfolded run's
    # error, since the gradient reaching the pair carries the float32
    # rounding of every later layer either way
    wide = nn.Network(layers, (75, 1, 1), dtype=np.float64)
    wide.params = {k: v.astype(np.float64) for k, v in p.items()}
    want_probs, want_grads, _ = _step(wide, x, y)
    monkeypatch.setattr(nn, "_folds_in_training", lambda layers, i: False)
    old_probs, old_grads, _ = _step(net, x, y)
    assert (_relative_error(probs, want_probs)
            <= _relative_error(old_probs, want_probs))
    for key in want_grads:
        assert (_relative_error(grads[key], want_grads[key])
                <= 2 * _relative_error(old_grads[key], want_grads[key])), key
