import numpy as np
import pytest

from conftest import toy_layers
from csocnn import nn
from csocnn.errors import ShapeError
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
