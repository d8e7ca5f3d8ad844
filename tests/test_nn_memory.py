"""How much memory a forward and backward hold at their peak, traced with
tracemalloc: each array must be released once its last reader has run."""

import concurrent.futures
import contextlib
import tracemalloc

import numpy as np
import pytest

from csocnn import nn


def _network():
    return nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)


def _batch(n):
    rng = np.random.default_rng(n)
    return rng.random((n, 75, 1, 1)).astype(np.float32), rng.integers(0, 5, n)


@pytest.mark.parametrize("with_lane", [False, True], ids=["no-lane", "lane"])
def test_backward_never_holds_more_than_the_forward_peak(with_lane):
    # backward only consumes the cache the forward built, so it must not
    # need more than the forward's own peak. A conv's columns kept cached
    # while the input-gradient GEMM allocates dcols of their size would
    # take backward about 9 % above it at 256 rows. A lane keeps a conv's
    # columns alive through its input gradient, and still fits.
    net = _network()
    x, y = _batch(256)
    with (concurrent.futures.ThreadPoolExecutor(1) if with_lane
          else contextlib.nullcontext()) as lane:
        nn.backward(net, nn.forward(net, x, "train")[1], y, lane)  # warm-up
        tracemalloc.start()
        try:
            _, cache = nn.forward(net, x, "train")
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            nn.backward(net, cache, y, lane)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert backward_peak <= forward_peak


def test_inference_forward_holds_one_conv_at_a_time():
    # at its peak an inference forward may hold one conv's input, columns
    # and output, and nothing of the layers before it: a pool's pre-ReLU
    # output kept alive through the next conv would take it about 21 %
    # above that
    net = _network()
    x, _ = _batch(256)
    n, item = len(x), net.dtype.itemsize
    bound = 0
    for i, spec in enumerate(net.layers):
        if spec.kind == "Conv2D":
            inputs = n * np.prod(net.shapes[i - 1]) * item
            outputs = n * np.prod(net.shapes[i]) * item
            kh, kw = spec.kernel
            cols = outputs // spec.filters_or_units * kh * kw * net.shapes[i - 1][-1]
            bound = max(bound, int(inputs + cols + outputs))
    nn.forward(net, x, "inference")  # warm-up
    tracemalloc.start()
    try:
        nn.forward(net, x, "inference")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("height", [33, 15])
def test_inference_pool_of_odd_height_makes_no_padded_copy(height):
    # the default architecture's pools 6 and 9 at 256 rows: an inference
    # pool allocates its output and numpy's fixed-size iteration buffers
    # (np.getbufsize() elements for each of the ufunc's three operands), but
    # no -inf padded copy of its input, which would cost more than the output
    x = np.random.default_rng(height).random(
        (256, height, 1, 64)).astype(np.float32)
    nn._max_pool(x, 2, 1, train=False)  # warm-up
    tracemalloc.start()
    try:
        pooled, _ = nn._max_pool(x, 2, 1, train=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pooled.shape == (256, (height + 1) // 2, 1, 64)
    assert peak <= pooled.nbytes + 3 * np.getbufsize() * x.itemsize + 4096
