import numpy as np
import pytest

from conftest import toy_layers
from csocnn import nn, optim
from csocnn.errors import ShapeError
from csocnn.model_io import save_model
from csocnn.nn import forward


def conv_scalar_oracle(x, kernel, bias):
    """Straight-line scalar reimplementation of valid stride-1 convolution."""
    n, h, w, c = x.shape
    kh, kw, _, f = kernel.shape
    out = np.zeros((n, h - kh + 1, w - kw + 1, f))
    for b in range(n):
        for i in range(h - kh + 1):
            for j in range(w - kw + 1):
                for o in range(f):
                    acc = float(bias[o])
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(c):
                                acc += float(x[b, i + di, j + dj, ci]) * \
                                    float(kernel[di, dj, ci, o])
                    out[b, i, j, o] = acc
    return out


def test_output_rows_are_probabilities():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    x = np.random.default_rng(1).normal(size=(8, 9, 1, 1))
    probs, _ = forward(net, x, "inference")
    assert isinstance(probs, np.ndarray)
    assert np.all(probs >= 0)
    assert np.all(probs <= 1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_zero_dense_network_is_uniform():
    net = nn.Network([nn.input_layer(), nn.dense(4, activation="softmax")],
                     (6,), seed=3)
    net.params["1.weight"][:] = 0.0
    x = np.random.default_rng(2).normal(size=(5, 6))
    probs, _ = forward(net, x, "inference")
    assert np.allclose(probs, 0.25, atol=1e-7)


def test_conv_matches_scalar_oracle():
    # the im2col product of forward's conv, before any BatchNorm fold;
    # _unfolded_inference and _unfolded_pair build on it
    net = nn.Network([nn.input_layer(), nn.conv2d(3, (3, 1)), nn.batch_norm()],
                     (7, 1, 2), seed=5, dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(2, 7, 1, 2))
    kernel, bias = net.params["1.kernel"], net.params["1.bias"]
    cols = nn._im2col(x, 3, 1)
    out = cols @ kernel.reshape(-1, 3) + bias
    expected = conv_scalar_oracle(x, kernel, bias)
    assert np.allclose(out, expected, atol=1e-10)


@pytest.mark.parametrize("folded", [True, False])
def test_batchnorm_normalizes_batch_statistics(monkeypatch, folded):
    # gamma=1, beta=0 at init, so the output is the normalized activation;
    # large input variance keeps the epsilon bias below the tolerance. The
    # input conv's pair is folded in training unless patched not to be.
    if not folded:
        monkeypatch.setattr(nn, "_folds_in_training", lambda layers, i: False)
    net = nn.Network([nn.input_layer(), nn.conv2d(3, (1, 1)), nn.batch_norm()],
                     (4, 1, 3), seed=0, dtype=np.float64)
    x = np.random.default_rng(7).normal(loc=5.0, scale=50.0, size=(64, 4, 1, 3))
    out, _ = forward(net, x, "train")
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.all(np.abs(mean) < 1e-4)
    assert np.all(np.abs(var - 1.0) < 1e-4)


def test_batchnorm_modes_differ_and_stats_update():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=1)
    x = np.random.default_rng(3).normal(size=(16, 9, 1, 1))
    before = {k: v.copy() for k, v in net.bn_stats.items()}
    forward(net, x, "train")
    assert any(not np.array_equal(before[k], net.bn_stats[k])
               for k in before)


def test_inference_is_pure_and_bit_stable():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=2)
    x = np.random.default_rng(4).normal(size=(6, 9, 1, 1)).astype(np.float32)
    stats_before = {k: v.copy() for k, v in net.bn_stats.items()}
    a, _ = forward(net, x, "inference")
    b, _ = forward(net, x, "inference")
    assert np.array_equal(a, b)
    for k, v in stats_before.items():
        assert np.array_equal(v, net.bn_stats[k])


def test_shape_mismatch_raises():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    with pytest.raises(ShapeError):
        forward(net, np.zeros((4, 8, 1, 1)), "inference")


def test_zero_row_train_forward_raises_before_any_state_changes():
    # batch statistics of no rows are 0 / 0: before the check they went
    # into BatchNorm 2's running stats as NaN
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)
    before = {k: v.tobytes() for k, v in net.bn_stats.items()}
    with pytest.raises(ShapeError, match="at least one row"):
        forward(net, np.zeros((0, 75, 1, 1)), "train")
    assert {k: v.tobytes() for k, v in net.bn_stats.items()} == before
    assert net._forward_version == 0


def test_zero_row_inference_forward_returns_no_rows():
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)
    x = np.zeros((0, 75, 1, 1))
    probs, _ = forward(net, x, "inference")
    want = nn.predict(net, x)
    assert probs.shape == want.shape == (0, 5)
    assert probs.dtype == want.dtype == np.float32


def test_bad_mode_rejected():
    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros((1, 9, 1, 1)), "predict")


def test_maxpool_same_padding_never_picks_padding():
    # Odd length with kernel 2 pads one -inf slot; output must still be the
    # max of the real values.
    net = nn.Network([nn.input_layer(), nn.max_pool2d((2, 1))], (3, 1, 1),
                     seed=0)
    x = np.array([-4.0, -9.0, -2.0]).reshape(1, 3, 1, 1)
    out, _ = forward(net, x, "inference")
    assert out.reshape(-1).tolist() == [-4.0, -2.0]


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(97, 70, 1, 64), (33, 7, 3, 5), (1, 1, 1, 4)])
def test_batchnorm_batch_stats_equal_mean_and_var(monkeypatch, shape, dtype):
    # momentum 0 makes the running stats the batch mean and variance
    # exactly, so a last-bit difference from x.mean / x.var shows. An
    # identity 1 x 1 conv hands the BatchNorm x unchanged, and the pair is
    # left unfolded, as training runs every pair but the input conv's.
    monkeypatch.setattr(nn, "BN_MOMENTUM", 0.0)
    monkeypatch.setattr(nn, "_folds_in_training", lambda layers, i: False)
    x = np.random.default_rng(sum(shape)).normal(
        3.0, 20.0, size=shape).astype(dtype)
    c = shape[-1]
    net = nn.Network([nn.input_layer(), nn.conv2d(c, (1, 1)), nn.batch_norm()],
                     shape[1:], seed=0, dtype=dtype)
    net.params["1.kernel"][...] = np.eye(c)
    net.params["2.gamma"][:] = 1.5
    net.params["2.beta"][:] = -0.25
    out, _ = forward(net, x, "train")
    mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
    assert _same_bits(net.bn_stats["2.mean"], mean)
    assert _same_bits(net.bn_stats["2.var"], var)
    xhat = (x - mean) / np.sqrt(var + nn.BN_EPSILON)
    assert _same_bits(out, net.params["2.gamma"] * xhat + net.params["2.beta"])


def test_inference_cache_holds_no_layer_arrays():
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)
    x = np.random.default_rng(8).random((16, 75, 1, 1)).astype(np.float32)
    _, train_cache = forward(net, x, "train")
    assert any(isinstance(v, np.ndarray)
               for lc in train_cache["layers"] for v in lc.values())
    _, cache = forward(net, x, "inference")
    assert cache["mode"] == "inference"
    assert not any(isinstance(v, np.ndarray)
                   for lc in cache["layers"] for v in lc.values())


def test_train_cache_keeps_only_what_backward_reads(monkeypatch):
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)
    x = np.random.default_rng(8).random((16, 75, 1, 1)).astype(np.float32)
    outputs = []
    activate = nn._activate

    def recording(z, activation):
        outputs.append(activate(z, activation))
        return outputs[-1]

    monkeypatch.setattr(nn, "_activate", recording)
    _, cache = forward(net, x, "train")
    # the train forward folds BatchNorm 2 into conv 1, so the pair runs one
    # _activate, on the BatchNorm's output
    ran = [i for i in range(len(net.layers)) if i != 2]
    assert len(outputs) == len(ran)
    # conv outputs feed BatchNorm and BatchNorm outputs feed pools; neither
    # reader keeps them
    unread = [out for i, out in zip(ran, outputs)
              if net.layers[i].kind in ("Conv2D", "BatchNorm")]
    # a BatchNorm's ReLU runs after the pool that reads it, so its mask sits
    # on the pool's entry at pooled resolution; one mask per ReLU
    runs_relu = [i + 1 if net.layers[i + 1].kind == "MaxPool2D" else i
                 for i, spec in enumerate(net.layers) if spec.activation == "relu"]
    assert runs_relu == [3, 6, 9, 11, 12]
    for i, lc in enumerate(cache["layers"]):
        assert "a" not in lc
        assert ("mask" in lc) == (i in runs_relu)
        if "mask" in lc:
            assert lc["mask"].dtype == bool
            assert lc["mask"].shape == (16, *net.shapes[i])
        for value in lc.values():
            if isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, out) for out in unread)
    # the folded BatchNorm keeps the column mean, the columns' Gram matrix
    # and std instead of xhat: no array as large as its output
    folded = cache["layers"][2]
    assert {"mu", "sigma", "std"} <= set(folded) and "xhat" not in folded
    out_nbytes = 16 * np.prod(net.shapes[2]) * net.dtype.itemsize
    assert all(v.nbytes < out_nbytes for v in folded.values()
               if isinstance(v, np.ndarray))
    assert all("xhat" in cache["layers"][i] for i in (5, 8))


# --- MaxPool against the argmax pool it replaced ----------------------------

def _argmax_pool_oracle(x, kh, kw, dz, mask=None):
    """Pooled output, input gradient and slot index of the transpose /
    argmax / take_along_axis forward and put_along_axis backward: argmax
    picks the first max of each window in (row, col) order. A window holding
    NaN pools to its first NaN and routes its gradient to the last slot; a
    ReLU mask (False where the pooled output was cut) routes to slot 0."""
    n, h, w, c = x.shape
    xp = nn._pool_pad(x, kh, kw)
    ph, pw = xp.shape[1:3]
    oh, ow = ph // kh, pw // kw
    windows = (xp.reshape(n, oh, kh, ow, kw, c).transpose(0, 1, 3, 2, 4, 5)
               .reshape(n, oh, ow, kh * kw, c))
    argmax = windows.argmax(axis=3)[:, :, :, None, :]
    pooled = np.take_along_axis(windows, argmax, axis=3)[:, :, :, 0, :]
    route = np.where(np.isnan(windows).any(axis=3, keepdims=True),
                     kh * kw - 1, argmax)
    if mask is not None:
        route *= mask[:, :, :, None, :]
    dwin = np.zeros(windows.shape, dtype=dz.dtype)
    np.put_along_axis(dwin, route, dz[:, :, :, None, :], axis=3)
    dxp = (dwin.reshape(n, oh, ow, kh, kw, c).transpose(0, 1, 3, 2, 4, 5)
           .reshape(n, ph, pw, c))
    grad = np.zeros(x.shape, dtype=dz.dtype)
    grad[...] = dxp[:, :h, :w, :]
    index = route[:, :, :, 0, :].astype(np.min_scalar_type(kh * kw - 1))
    return pooled, grad, index


_POOL_INPUTS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    # three levels: most windows hold a tie
    "ties": lambda rng, shape: rng.integers(0, 3, size=shape).astype(float),
    # post-ReLU: many windows are all zero
    "relu": lambda rng, shape: np.maximum(rng.normal(size=shape) - 0.8, 0.0),
    # the output keeps the first max's zero sign, as take_along_axis did
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0], size=shape),
    # NaN, -inf and ties of +-0.0 and of finite values in every window mix
    "nan_inf": lambda rng, shape: rng.choice(
        [np.nan, -np.inf, -0.0, 0.0, 1.0, -2.0], size=shape),
}


# the two pools a layer table may hold, over the shapes that decide their
# padding: even and odd extents, one real value per window, and wide channels
_SAME_POOLS = [
    ((2, 1), (6, 70, 1, 4)),
    ((2, 1), (6, 33, 1, 4)),   # odd height: one -inf row
    ((2, 1), (3, 1, 1, 2)),    # one real value per window
    ((1, 2), (4, 3, 8, 2)),
    ((1, 2), (4, 3, 7, 2)),    # odd width: one -inf column
    ((2, 1), (4, 15, 2, 64)),
    ((1, 2), (3, 2, 1, 2)),    # one real value per window
    ((1, 2), (4, 2, 15, 64)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("values", sorted(_POOL_INPUTS))
@pytest.mark.parametrize("kernel,shape", _SAME_POOLS)
def test_max_pool_matches_argmax_oracle(kernel, shape, values, dtype):
    rng = np.random.default_rng([*kernel, *shape, 1,
                                 sorted(_POOL_INPUTS).index(values)])
    x = _POOL_INPUTS[values](rng, shape).astype(dtype)
    kh, kw = kernel
    pooled, cache = nn._max_pool(x, kh, kw, train=True)
    dz = rng.normal(size=pooled.shape).astype(dtype)
    grad = nn._max_pool_backward(dz, x.shape, kh, kw, cache)
    want_pooled, want_grad, want_index = _argmax_pool_oracle(x, kh, kw, dz)
    assert _same_bits(pooled, want_pooled)
    assert _same_bits(grad, want_grad)
    assert cache["argmax"].dtype == want_index.dtype
    assert np.array_equal(cache["argmax"], want_index)
    # a ReLU after the pool masks the index, as forward does
    mask = rng.random(pooled.shape) < 0.7
    cache["argmax"] *= mask
    grad = nn._max_pool_backward(dz, x.shape, kh, kw, cache)
    _, want_grad, _ = _argmax_pool_oracle(x, kh, kw, dz, mask)
    assert _same_bits(grad, want_grad)
    inference_pooled, inference_cache = nn._max_pool(x, kh, kw, train=False)
    assert _same_bits(inference_pooled, want_pooled)
    assert inference_cache == {}


def _odd_gradients(rng, shape, dtype):
    """Upstream gradients mixing normals with NaNs (quiet, negative and with
    a payload), +-inf and both zeros."""
    u = np.dtype(f"u{np.dtype(dtype).itemsize}")
    nan = np.array(np.nan, dtype=dtype)
    odd = [nan, -nan, (nan.view(u) | 1).view(dtype), np.inf, -np.inf, -0.0, 0.0]
    dz = rng.normal(size=shape).astype(dtype)
    picks = rng.integers(0, 2 * len(odd), size=shape)
    for k, value in enumerate(odd):
        dz[picks == k] = value
    return dz


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("values", sorted(_POOL_INPUTS))
@pytest.mark.parametrize("kernel,shape", _SAME_POOLS)
def test_max_pool_backward_routes_odd_gradients_bit_for_bit(
        kernel, shape, values, dtype):
    # every chosen slot carries its upstream bits (NaN payload and sign,
    # -0.0) unchanged, and every other slot is +0.0
    rng = np.random.default_rng([*kernel, *shape, 1,
                                 sorted(_POOL_INPUTS).index(values), 1])
    x = _POOL_INPUTS[values](rng, shape).astype(dtype)
    pooled, cache = nn._max_pool(x, *kernel, train=True)
    dz = _odd_gradients(rng, pooled.shape, dtype)
    grad = nn._max_pool_backward(dz, x.shape, *kernel, cache)
    _, want_grad, _ = _argmax_pool_oracle(x, *kernel, dz)
    assert _same_bits(grad, want_grad)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kernel", [(2, 1), (1, 2)])
def test_max_pool_propagates_nan(kernel, train):
    x = np.random.default_rng(9).normal(size=(4, 8, 4, 3)).astype(np.float32)
    x[0, 0, 0, 0] = np.nan   # first slot of its window
    x[1, 3, 1, 1] = np.nan   # last slot
    x[2, 5, 2, 2] = np.nan
    # NaN wins over +inf in the same window: a 2 x 1 pool's, then a 1 x 2's
    x[2, 4, 2, 2] = x[2, 5, 3, 2] = np.inf
    pooled, _ = nn._max_pool(x, *kernel, train)
    want, _, _ = _argmax_pool_oracle(x, *kernel, np.zeros_like(pooled))
    kh, kw = kernel
    nan_windows = {(0, 0, 0, 0), (1, 3 // kh, 1 // kw, 1),
                   (2, 5 // kh, 2 // kw, 2)}
    assert set(map(tuple, np.argwhere(np.isnan(pooled)))) == nan_windows
    np.testing.assert_array_equal(pooled, want)


def _np_pad_same(x, kh, kw):
    """The same-padded pooling buffer as np.pad builds it: -inf rows and
    columns split around the input, the odd one after it."""
    th, tw = -x.shape[1] % kh, -x.shape[2] % kw
    return np.pad(x, ((0, 0), (th // 2, th - th // 2), (tw // 2, tw - tw // 2),
                      (0, 0)), constant_values=-np.inf)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,shape", [
    ((2, 1), (4, 33, 1, 3)),  # the default architecture's pools: 33 -> 34
    ((2, 1), (4, 15, 1, 3)),  # and 15 -> 16 rows
    ((1, 2), (3, 4, 7, 2)),   # 7 -> 8 columns
    ((1, 2), (3, 4, 6, 2)),   # no padding
])
def test_same_pool_pad_matches_np_pad(kernel, shape, dtype, train):
    rng = np.random.default_rng([*kernel, *shape])
    x = rng.choice([-np.inf, np.nan, -0.0, 0.0, 1.0, -2.0],
                   size=shape).astype(dtype)
    kh, kw = kernel
    want = _np_pad_same(x, kh, kw)
    xp = nn._pool_pad(x, kh, kw)
    assert _same_bits(xp, want)
    # the pooled output is the maximum chain over the np.pad buffer's slots
    slots = [want[:, a::kh, b::kw, :] for a in range(kh) for b in range(kw)]
    want_pooled = slots[-1]
    for s in slots[-2::-1]:
        want_pooled = np.maximum(want_pooled, s)
    pooled, _ = nn._max_pool(x, kh, kw, train)
    assert pooled.shape == (shape[0], -(-shape[1] // kh), -(-shape[2] // kw),
                            shape[3])
    assert _same_bits(pooled, want_pooled)


# --- ReLU after max-pool against ReLU before it -----------------------------

def _train_steps(net, x, y, steps=2):
    """Every array two Adam steps on a clone of net produce: each step's
    probabilities and gradients, then predict's probabilities and the
    updated tensors."""
    net, state, seen = net.clone(), optim.AdamState(1e-2), []
    for _ in range(steps):
        probs, cache = forward(net, x, "train")
        grads = nn.backward(net, cache, y)
        seen += [probs, *(grads[k] for k in sorted(grads))]
        optim.adam_step(state, net.params, grads)
    return seen + [nn.predict(net, x), *net.params.values(),
                   *net.bn_stats.values()]


@pytest.mark.parametrize("n", [1, 64, 240])
@pytest.mark.parametrize("layers,input_shape,moved", [
    # pool inputs of heights 70, 33 and 15, the last two with a -inf row
    (nn.default_architecture(5), (75, 1, 1), 3),
    # a 1 x 2 pool over 3 columns, padding one trailing column
    ([nn.input_layer(), nn.conv2d(3, (2, 1)), nn.batch_norm(activation="relu"),
      nn.max_pool2d((1, 2)), nn.flatten(), nn.dense(4, activation="relu"),
      nn.dense(3, activation="softmax")], (7, 3, 2), 1),
    # a pool reading the input, where no ReLU moves, and a 2 x 1 pool over
    # 5 rows, padding one trailing row
    ([nn.input_layer(), nn.max_pool2d((2, 1)), nn.conv2d(3, (2, 1)),
      nn.batch_norm(activation="relu"), nn.max_pool2d((2, 1)), nn.flatten(),
      nn.dense(4, activation="relu"), nn.dense(3, activation="softmax")],
     (11, 1, 2), 1),
])
def test_relu_after_pool_keeps_the_bits(monkeypatch, layers, input_shape,
                                        moved, n):
    in_front = [spec.activation for spec in layers]
    assert sum(a != b for a, b in zip(nn._run_activations(layers),
                                      in_front)) == 2 * moved
    net = _randomized_network(layers, input_shape, np.float32, seed=n)
    bn = [i for i, spec in enumerate(layers) if spec.kind == "BatchNorm"][-1]
    # beta = -10 leaves almost no window of the channel a positive value, so
    # their gradients are masked to zeros that must still land on the slots
    # they did before
    net.params[f"{bn}.beta"][:1] = -10.0
    rng = np.random.default_rng(n)
    # half-integers tie inside pool windows; zeros of both signs
    x = rng.integers(-3, 4, (n, *input_shape)) / 2
    x[rng.random(x.shape) < 0.2] = -0.0
    y = rng.integers(0, net.num_classes, n)
    pool_backward = nn._max_pool_backward

    def recording(*args):
        routed.append(pool_backward(*args))
        return routed[-1]

    runs = []
    for reference in (False, True):
        if reference:  # every ReLU where its layer spec puts it
            monkeypatch.setattr(nn, "_run_activations", lambda _: in_front)
        routed = []
        monkeypatch.setattr(nn, "_max_pool_backward", recording)
        runs.append(_train_steps(net, x, y) + routed)
    got, want = runs
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


# --- Conv2D -> BatchNorm folding at inference --------------------------------

def _unfolded_inference(network, batch):
    """The inference forward before folding: every layer on its own, the
    conv as the 2-D (N*H*W, K) @ (K, F) product plus its bias and BatchNorm
    as (x - mean) / std * gamma + beta, in that order."""
    x = np.asarray(batch).astype(network.dtype, copy=False)
    for i, spec in enumerate(network.layers):
        p = network.params
        if spec.kind == "Input":
            z = x
        elif spec.kind == "Conv2D":
            kmat = p[f"{i}.kernel"].reshape(-1, spec.filters_or_units)
            cols = nn._im2col(x, *spec.kernel)
            z = (cols.reshape(-1, cols.shape[-1]) @ kmat).reshape(
                *cols.shape[:-1], -1) + p[f"{i}.bias"]
        elif spec.kind == "BatchNorm":
            z = x - network.bn_stats[f"{i}.mean"]
            z /= np.sqrt(network.bn_stats[f"{i}.var"] + nn.BN_EPSILON)
            z *= p[f"{i}.gamma"]
            z += p[f"{i}.beta"]
        elif spec.kind == "MaxPool2D":
            z, _ = nn._max_pool(x, *spec.kernel, train=False)
        elif spec.kind == "Flatten":
            z = x.reshape(len(x), -1)
        elif spec.kind == "Dense":
            z = x @ p[f"{i}.weight"] + p[f"{i}.bias"]
        x = nn._activate(z, spec.activation)
    return x


def _randomized_network(layers, input_shape, dtype, seed=0):
    """A network whose every tensor is off its initial value: conv biases,
    gamma, beta and running means nonzero, running variances spread
    log-uniformly over 1e-2..1e1."""
    net = nn.Network(layers, input_shape, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for i, spec in enumerate(net.layers):
        if spec.kind == "Conv2D":
            net.params[f"{i}.bias"][:] = rng.uniform(-0.1, 0.1,
                                                     spec.filters_or_units)
        elif spec.kind == "BatchNorm":
            c = net.params[f"{i}.gamma"].size
            net.params[f"{i}.gamma"][:] = rng.uniform(0.5, 2.0, c)
            net.params[f"{i}.beta"][:] = rng.normal(0.0, 0.5, c)
            net.bn_stats[f"{i}.mean"][:] = rng.normal(0.0, 0.5, c)
            net.bn_stats[f"{i}.var"][:] = 10.0 ** rng.uniform(-2.0, 1.0, c)
    return net


@pytest.mark.parametrize("dtype,atol", [
    # 64 float32 ulps of 1.0: the folded and unfolded pairs each round a
    # few times per layer, through three conv blocks and three Dense layers
    (np.float32, 64 * np.finfo(np.float32).eps),
    (np.float64, 1e-12),
])
@pytest.mark.parametrize("layers,input_shape", [
    (nn.default_architecture(5), (75, 1, 1)),
    # a pool ahead of the first conv, then a 1 x 2 pool over 3 columns
    ([nn.input_layer(), nn.max_pool2d((2, 1)), nn.conv2d(4, (2, 1)),
      nn.batch_norm(activation="relu"), nn.max_pool2d((1, 2)),
      nn.conv2d(3, (2, 1)), nn.batch_norm(activation="relu"), nn.flatten(),
      nn.dense(3, activation="softmax")], (11, 3, 2)),
], ids=["default", "pool-first"])
def test_folded_inference_matches_unfolded(layers, input_shape, dtype, atol):
    net = _randomized_network(layers, input_shape, dtype)
    # a smaller last layer keeps the softmax off saturation, where a
    # difference in the logits would not show in the probabilities
    net.params[f"{len(layers) - 1}.weight"] *= 0.05
    # more rows than one inference slice, the last slice partial
    x = np.random.default_rng(1).random((1100, *input_shape))
    probs = nn.predict(net, x)
    want = _unfolded_inference(net, x)
    assert probs.dtype == want.dtype == dtype
    assert np.abs(probs - want).max() <= atol
    assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))


def test_predict_leaves_model_untouched(tmp_path):
    net = _randomized_network(nn.default_architecture(5), (75, 1, 1),
                              np.float32)
    snapshot = {k: v.tobytes() for k, v in (*net.params.items(),
                                            *net.bn_stats.items())}
    before, after = tmp_path / "before.model", tmp_path / "after.model"
    save_model(before, net, list("abcde"))
    nn.predict(net, np.random.default_rng(2).random((40, 75, 1, 1)))
    assert {k: v.tobytes() for k, v in (*net.params.items(),
                                        *net.bn_stats.items())} == snapshot
    save_model(after, net, list("abcde"))
    assert after.read_bytes() == before.read_bytes()


# --- the inference forward against the order it had before -------------------

def _reference_slice(network, x, bias_after_pool):
    acts = nn._run_activations(network.layers)
    pending = None
    for i, spec in enumerate(network.layers):
        if spec.kind == "Input":
            z = x
        elif spec.kind == "Conv2D":
            kmat, bias, _ = nn._fold_batch_norm(network, i)
            cols = nn._im2col(x, *spec.kernel)
            z = (cols.reshape(-1, cols.shape[-1]) @ kmat).reshape(
                *cols.shape[:-1], spec.filters_or_units)
            if (bias_after_pool and acts[i + 1] == "none"
                    and i + 2 < len(acts)
                    and network.layers[i + 2].kind == "MaxPool2D"):
                pending = bias
            else:
                z = z + bias
        elif spec.kind == "BatchNorm":
            z = x  # folded into the conv before it
        elif spec.kind == "MaxPool2D":
            kh, kw = spec.kernel
            xp = nn._pool_pad(x, kh, kw)
            z = np.maximum(xp[:, kh - 1::kh, kw - 1::kw], xp[:, ::kh, ::kw])
            if pending is not None:
                z, pending = z + pending, None
        elif spec.kind == "Flatten":
            z = x.reshape(len(x), -1)
        elif spec.kind == "Dense":
            z = x @ network.params[f"{i}.weight"] + network.params[f"{i}.bias"]
        x = nn._activate(z, acts[i])
    return x


def _reference_predict(network, batch, bias_after_pool=False):
    """nn.predict in the order the inference forward ran before its folded
    biases moved after the pool: per INFERENCE_ROWS slice, each conv folded
    into its BatchNorm, its GEMM plus the folded bias, each pool the max of
    the two slots of the _pool_pad buffer, and every activation where
    _run_activations puts it. With bias_after_pool, a folded bias that
    feeds a pool is added after the max whatever its value."""
    x = np.asarray(batch).astype(network.dtype, copy=False)
    return np.concatenate([
        _reference_slice(network, x[start:start + nn.INFERENCE_ROWS],
                         bias_after_pool)
        for start in range(0, len(x), nn.INFERENCE_ROWS)])


_ORACLE_STACKS = {
    "default": (nn.default_architecture(5), (75, 1, 1)),
    "pool-first": ([nn.input_layer(), nn.max_pool2d((2, 1)),
                    nn.conv2d(4, (2, 1)), nn.batch_norm(activation="relu"),
                    nn.max_pool2d((1, 2)), nn.conv2d(3, (2, 1)),
                    nn.batch_norm(activation="relu"), nn.flatten(),
                    nn.dense(3, activation="softmax")], (11, 3, 2)),
    # a one-channel 2 x 2 kernel, then a 1 x 2 pool over 5 columns that
    # runs its own ReLU, so the BatchNorm's stays before it, and with it
    # the folded bias
    "1x2-pool": ([nn.input_layer(), nn.conv2d(3, (2, 2)),
                  nn.batch_norm(activation="relu"),
                  nn.LayerSpec("MaxPool2D", kernel=(1, 2), padding="same",
                               activation="relu"),
                  nn.flatten(), nn.dense(4, activation="relu"),
                  nn.dense(3, activation="softmax")], (7, 6, 1)),
}


@pytest.mark.parametrize("n", [1, 37, 256, 1100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_ORACLE_STACKS))
def test_inference_matches_the_bias_before_pool_order(name, dtype, n):
    layers, input_shape = _ORACLE_STACKS[name]
    net = _randomized_network(layers, input_shape, dtype, seed=n)
    # off saturation, every logit's last bits reach the probabilities
    net.params[f"{len(layers) - 1}.weight"] *= 0.05
    rng = np.random.default_rng([n, len(input_shape)])
    # few levels, so that windows tie, zeros of both signs, and a sparse
    # NaN, +inf and -inf that leave most rows finite
    x = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(n, *input_shape))
    odd = rng.random(x.shape)
    x[odd < 3e-4] = np.nan
    x[(odd >= 3e-4) & (odd < 6e-4)] = np.inf
    x[(odd >= 6e-4) & (odd < 9e-4)] = -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        got = nn.predict(net, x)
        want = _reference_predict(net, x)
    assert _same_bits(got, want)
    if n > 1:  # a NaN or inf input spreads over its row: most rows stay finite
        assert np.isfinite(got).all(axis=1).mean() > 0.5


def test_an_infinite_folded_bias_is_added_before_the_pool():
    # gamma 1e30 over a running mean of -1e10 folds to a bias of 1e40,
    # which is inf in float32. Added after the max, inf would turn the
    # window [-inf, 5e29] into max + inf = inf instead of max(NaN, inf) =
    # NaN, and the Dense ReLU below maps the -inf it leads to onto 0
    net = nn.Network([nn.input_layer(), nn.conv2d(1, (1, 1)),
                      nn.batch_norm(activation="relu"), nn.max_pool2d((2, 1)),
                      nn.flatten(), nn.dense(1, activation="relu"),
                      nn.dense(2, activation="softmax")], (2, 1, 1), seed=0)
    net.params["1.kernel"][:] = 1.0
    net.params["2.gamma"][:] = 1e30
    net.bn_stats["2.mean"][:] = -1e10
    net.params["5.weight"][:] = -1.0
    x = np.array([[-np.inf, 0.5], [0.5, 0.25]],
                 dtype=np.float32).reshape(2, 2, 1, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isposinf(nn._fold_batch_norm(net, 1)[1]).all()
        got = nn.predict(net, x)
        want = _reference_predict(net, x)
        unguarded = _reference_predict(net, x, bias_after_pool=True)
    assert _same_bits(got, want)
    assert np.isnan(got[0]).all() and np.isfinite(unguarded[0]).all()
    assert _same_bits(got[1:], unguarded[1:])
