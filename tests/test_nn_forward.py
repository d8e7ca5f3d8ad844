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
    net = nn.Network([nn.input_layer(), nn.conv2d(3, (3, 1))], (7, 1, 2),
                     seed=5, dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(2, 7, 1, 2))
    out, _ = forward(net, x, "inference")
    expected = conv_scalar_oracle(x, net.params["1.kernel"],
                                  net.params["1.bias"])
    assert np.allclose(out, expected, atol=1e-10)


def test_batchnorm_normalizes_batch_statistics():
    # gamma=1, beta=0 at init, so the output is the normalized activation;
    # large input variance keeps the epsilon bias below the tolerance.
    net = nn.Network([nn.input_layer(), nn.batch_norm()], (4, 1, 3),
                     seed=0, dtype=np.float64)
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
    # exactly, so a last-bit difference from x.mean / x.var shows
    monkeypatch.setattr(nn, "BN_MOMENTUM", 0.0)
    x = np.random.default_rng(sum(shape)).normal(
        3.0, 20.0, size=shape).astype(dtype)
    net = nn.Network([nn.input_layer(), nn.batch_norm()], shape[1:], seed=0,
                     dtype=dtype)
    net.params["1.gamma"][:] = 1.5
    net.params["1.beta"][:] = -0.25
    out, _ = forward(net, x, "train")
    mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
    assert _same_bits(net.bn_stats["1.mean"], mean)
    assert _same_bits(net.bn_stats["1.var"], var)
    xhat = (x - mean) / np.sqrt(var + nn.BN_EPSILON)
    assert _same_bits(out, net.params["1.gamma"] * xhat + net.params["1.beta"])


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

def _argmax_pool_oracle(x, kh, kw, padding, dz):
    """Pooled output and input gradient of the transpose / argmax /
    take_along_axis forward and put_along_axis backward: argmax picks the
    first max of each window in (row, col) order."""
    n, h, w, c = x.shape
    xp, oh, ow, (bh, bw) = nn._pool_pad(x, kh, kw, padding)
    ph, pw = xp.shape[1:3]
    windows = (xp.reshape(n, oh, kh, ow, kw, c).transpose(0, 1, 3, 2, 4, 5)
               .reshape(n, oh, ow, kh * kw, c))
    argmax = windows.argmax(axis=3)[:, :, :, None, :]
    pooled = np.take_along_axis(windows, argmax, axis=3)[:, :, :, 0, :]
    dwin = np.zeros(windows.shape, dtype=dz.dtype)
    np.put_along_axis(dwin, argmax, dz[:, :, :, None, :], axis=3)
    dxp = (dwin.reshape(n, oh, ow, kh, kw, c).transpose(0, 1, 3, 2, 4, 5)
           .reshape(n, ph, pw, c))
    grad = np.zeros(x.shape, dtype=dz.dtype)
    if padding == "same":
        grad[...] = dxp[:, bh:bh + h, bw:bw + w, :]
    else:
        grad[:, :ph, :pw, :] = dxp
    return pooled, grad


_POOL_INPUTS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    # three levels: most windows hold a tie
    "ties": lambda rng, shape: rng.integers(0, 3, size=shape).astype(float),
    # post-ReLU: many windows are all zero
    "relu": lambda rng, shape: np.maximum(rng.normal(size=shape) - 0.8, 0.0),
    # the output keeps the first max's zero sign, as take_along_axis did
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0], size=shape),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("values", sorted(_POOL_INPUTS))
@pytest.mark.parametrize("kernel,padding,shape", [
    ((2, 1), "same", (6, 70, 1, 4)),
    ((2, 1), "same", (6, 33, 1, 4)),   # odd height: one -inf row
    ((2, 1), "valid", (6, 33, 1, 4)),  # odd height: the last row is dropped
    ((2, 2), "same", (5, 7, 5, 3)),    # -inf row and column
    ((2, 2), "valid", (5, 7, 5, 3)),
    ((2, 2), "same", (3, 1, 1, 2)),    # one real value per window
])
def test_max_pool_matches_argmax_oracle(kernel, padding, shape, values, dtype):
    rng = np.random.default_rng([*kernel, *shape, padding == "same",
                                 sorted(_POOL_INPUTS).index(values)])
    x = _POOL_INPUTS[values](rng, shape).astype(dtype)
    kh, kw = kernel
    pooled, cache = nn._max_pool(x, kh, kw, padding, train=True)
    dz = rng.normal(size=pooled.shape).astype(dtype)
    grad = nn._max_pool_backward(dz, x.shape, kh, kw, padding, cache)
    want_pooled, want_grad = _argmax_pool_oracle(x, kh, kw, padding, dz)
    assert _same_bits(pooled, want_pooled)
    assert _same_bits(grad, want_grad)
    inference_pooled, inference_cache = nn._max_pool(x, kh, kw, padding,
                                                     train=False)
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
@pytest.mark.parametrize("kernel,padding,shape", [
    ((2, 1), "same", (6, 70, 1, 4)),
    ((2, 1), "same", (6, 33, 1, 4)),
    ((2, 1), "valid", (6, 33, 1, 4)),
    ((2, 2), "same", (5, 7, 5, 3)),
    ((2, 2), "valid", (5, 7, 5, 3)),
    ((3, 2), "same", (4, 8, 5, 2)),
    ((4, 3), "same", (3, 5, 4, 2)),    # -inf rows and columns on both sides
])
def test_max_pool_backward_routes_odd_gradients_bit_for_bit(
        kernel, padding, shape, values, dtype):
    # every chosen slot carries its upstream bits (NaN payload and sign,
    # -0.0) unchanged, and every other slot is +0.0
    rng = np.random.default_rng([*kernel, *shape, padding == "same",
                                 sorted(_POOL_INPUTS).index(values), 1])
    x = _POOL_INPUTS[values](rng, shape).astype(dtype)
    pooled, cache = nn._max_pool(x, *kernel, padding, train=True)
    dz = _odd_gradients(rng, pooled.shape, dtype)
    grad = nn._max_pool_backward(dz, x.shape, *kernel, padding, cache)
    _, want_grad = _argmax_pool_oracle(x, *kernel, padding, dz)
    assert _same_bits(grad, want_grad)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kernel", [(2, 1), (2, 2)])
def test_max_pool_propagates_nan(kernel, train):
    x = np.random.default_rng(9).normal(size=(4, 8, 4, 3)).astype(np.float32)
    x[0, 0, 0, 0] = np.nan   # first slot of its window
    x[1, 3, 1, 1] = np.nan   # last slot
    x[2, 5, 2, 2] = np.nan
    x[2, 4, 2, 2] = np.inf   # NaN wins over +inf in the same window
    pooled, _ = nn._max_pool(x, *kernel, "same", train)
    want, _ = _argmax_pool_oracle(x, *kernel, "same", np.zeros_like(pooled))
    kh, kw = kernel
    nan_windows = {(0, 0, 0, 0), (1, 1, 1 // kw, 1), (2, 2, 2 // kw, 2)}
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
    ((2, 2), (3, 7, 5, 2)),
    ((4, 3), (3, 5, 4, 2)),   # -inf rows and columns on both sides
])
def test_same_pool_pad_matches_np_pad(kernel, shape, dtype, train):
    rng = np.random.default_rng([*kernel, *shape])
    x = rng.choice([-np.inf, np.nan, -0.0, 0.0, 1.0, -2.0],
                   size=shape).astype(dtype)
    kh, kw = kernel
    want = _np_pad_same(x, kh, kw)
    xp, oh, ow, _ = nn._pool_pad(x, kh, kw, "same")
    assert _same_bits(xp, want)
    # the pooled output is the maximum chain over the np.pad buffer's slots
    slots = [want[:, a::kh, b::kw, :] for a in range(kh) for b in range(kw)]
    want_pooled = slots[-1]
    for s in slots[-2::-1]:
        want_pooled = np.maximum(want_pooled, s)
    pooled, _ = nn._max_pool(x, kh, kw, "same", train)
    assert pooled.shape == (shape[0], oh, ow, shape[3])
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


def _pooled_net(kernel, input_shape):
    # no conv before the BatchNorm
    return ([nn.input_layer(), nn.batch_norm(activation="relu"),
             nn.max_pool2d(kernel), nn.flatten(), nn.dense(4, activation="relu"),
             nn.dense(3, activation="softmax")], input_shape)


@pytest.mark.parametrize("n", [1, 64, 240])
@pytest.mark.parametrize("layers,input_shape,moved", [
    # pool inputs of heights 70, 33 and 15, the last two with "same" padding
    (nn.default_architecture(5), (75, 1, 1), 3),
    # a 2 x 2 pool padding one trailing row and column
    (*_pooled_net((2, 2), (7, 3, 2)), 1),
    # a kernel-3 pool pads a slot ahead of the first real one, where a pool
    # over the ReLU's zeros routes to the first real slot: the ReLU stays
    (*_pooled_net((3, 1), (7, 1, 2)), 0),
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
            z, _ = nn._max_pool(x, *spec.kernel, spec.padding, train=False)
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
def test_folded_inference_matches_unfolded(dtype, atol):
    net = _randomized_network(nn.default_architecture(5), (75, 1, 1), dtype)
    # a smaller last layer keeps the softmax off saturation, where a
    # difference in the logits would not show in the probabilities
    net.params["13.weight"] *= 0.05
    # more rows than one inference slice, the last slice partial
    x = np.random.default_rng(1).random((1100, 75, 1, 1))
    probs = nn.predict(net, x)
    want = _unfolded_inference(net, x)
    assert probs.dtype == want.dtype == dtype
    assert np.abs(probs - want).max() <= atol
    assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers,input_shape", [
    # a BatchNorm with no conv before it
    ([nn.input_layer(), nn.batch_norm(activation="relu"), nn.flatten(),
      nn.dense(3, activation="softmax")], (6, 1, 2)),
    # a conv with its own activation: its BatchNorm is not folded
    ([nn.input_layer(), nn.conv2d(4, (3, 1), activation="relu"),
      nn.batch_norm(), nn.flatten(), nn.dense(3, activation="softmax")],
     (6, 1, 2)),
])
def test_unfoldable_batch_norm_keeps_unfolded_bits(layers, input_shape, dtype):
    net = _randomized_network(layers, input_shape, dtype, seed=3)
    x = np.random.default_rng(4).normal(size=(50, *input_shape))
    assert _same_bits(nn.predict(net, x), _unfolded_inference(net, x))


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
