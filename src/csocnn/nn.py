"""Minimal layer library for the compact 2D convolutional flow classifier.

Implements exactly the layer kinds the classifier needs (Input, Conv2D,
BatchNorm, MaxPool2D, Flatten, Dense) with forward and backward passes on
numpy arrays in channels-last (N, H, W, C) layout. Every convolution is
stride-1 and runs as one 2-D GEMM over an im2col layout (Chellapilla, Puri &
Simard, 2006) in both modes; its input gradient is one GEMM per kernel
slot, each added into the slot's input window (Anderson, Vasudevan, Keane
& Gregg, 2017). A conv
with no activation of its own that feeds a BatchNorm has an inert bias: the
batch mean cancels it (Ioffe & Szegedy, 2015, section 3.2), so a train
forward adds none and backward gives it an exact-zero gradient, which keeps
it at its initial 0. BatchNorm's input gradient reuses its parameter
gradients (Ioffe & Szegedy, 2015). Pooling strides by its own kernel
and takes the max over the window's strided slots, routing the gradient to the
first max as argmax would, which a 2-slot pool finds with one compare; a
ReLU in front of a pool runs after it, on half
the elements. The final Dense layer carries a softmax so the network emits
per-sample class probabilities directly. Only a train-mode forward keeps the
per-layer arrays backward needs; an inference forward frees each layer's
intermediates as it goes, and folds each Conv2D -> BatchNorm pair into one
conv (Jacob et al., 2018). Training folds the pair of the conv that reads
the network input too, with batch statistics taken from the conv's few
input columns, and backward takes the pair's gradients from the conv's
kernel-gradient GEMM, so no BatchNorm pass over its activation remains.
Given a lane (a one-thread executor), backward runs each conv's
kernel-gradient GEMM in it while the calling thread takes the input
gradient (Oh et al., "Out-of-Order Backprop", 2022): the same products on
the same operands, so the same bits.
"""

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ShapeError, StateError

LAYER_KINDS = ("Input", "Conv2D", "BatchNorm", "MaxPool2D", "Flatten", "Dense")
ACTIVATIONS = ("relu", "softmax", "none")
PADDINGS = ("valid", "same")

BN_EPSILON = 1e-3
# Running stats must converge within the few dozen updates a desk-scale
# run performs; 0.9 reaches ~99.8% in 60 steps where 0.99 sits at ~45%.
BN_MOMENTUM = 0.9
LOG_CLAMP = 1e-12
# Rows per inference forward, and per parsed CSV chunk (data.read_csv_chunks).
# An inference forward keeps no intermediates, but the activations of the
# layer it is running are as long as its batch, so an unchunked forward's
# memory would grow with the input's length. At 256 rows the widest
# activation (the first conv's 70 x 64 values a row, 4.6 MB in float32) is a
# quarter of its 18 MB at 1 024 rows, close to a core's L2 cache, and the
# first chunk reaches the user sooner. Measured on a 2-core Xeon with one
# BLAS thread: 512 rows score as fast as 256, 128 and 1 024 rows slower.
INFERENCE_ROWS = 256


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    kernel applies to Conv2D/MaxPool2D only; filters_or_units to Conv2D
    (filter count) and Dense (unit count). The activation runs after the
    layer's main operation.
    """

    kind: str
    kernel: tuple | None = None
    filters_or_units: int | None = None
    padding: str = "valid"
    activation: str = "none"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.padding not in PADDINGS:
            raise ShapeError(f"unknown padding {self.padding!r}")
        if self.kind == "Conv2D" and self.padding != "valid":
            raise ShapeError("Conv2D supports only valid padding")
        if self.kind in ("Conv2D", "MaxPool2D"):
            if self.kernel is None:
                raise ShapeError(f"{self.kind} requires a kernel")
            kh, kw = self.kernel
            if kh < 1 or kw < 1:
                raise ShapeError(f"kernel dimensions must be >= 1, got {self.kernel}")
        if self.kind in ("Conv2D", "Dense"):
            if self.filters_or_units is None or self.filters_or_units < 1:
                raise ShapeError(f"{self.kind} requires filters_or_units >= 1")


def input_layer():
    return LayerSpec("Input")


def conv2d(filters, kernel, activation="none"):
    return LayerSpec("Conv2D", kernel=tuple(kernel), filters_or_units=filters,
                     activation=activation)


def batch_norm(activation="none"):
    return LayerSpec("BatchNorm", activation=activation)


def max_pool2d(kernel, padding="same"):
    return LayerSpec("MaxPool2D", kernel=tuple(kernel), padding=padding)


def flatten():
    return LayerSpec("Flatten")


def dense(units, activation="none"):
    return LayerSpec("Dense", filters_or_units=units, activation=activation)


def default_architecture(num_classes=5):
    """The compact conv stack used for 75-dimensional flow features."""
    return [
        input_layer(),
        conv2d(64, (6, 1)),
        batch_norm(activation="relu"),
        max_pool2d((2, 1)),
        conv2d(64, (3, 1)),
        batch_norm(activation="relu"),
        max_pool2d((2, 1)),
        conv2d(64, (3, 1)),
        batch_norm(activation="relu"),
        max_pool2d((2, 1)),
        flatten(),
        dense(64, activation="relu"),
        dense(32, activation="relu"),
        dense(num_classes, activation="softmax"),
    ]


def infer_shapes(layers, input_shape):
    """Propagate the input shape through a layer sequence.

    Returns one output shape per layer. Conv2D is stride-1 with valid
    padding (out = in - kernel + 1); MaxPool2D strides by its kernel
    (same: out = ceil(in / kernel); valid: out = floor(in / kernel)).
    Raises ShapeError when a dimension would become non-positive or a layer
    is applied to an input of the wrong rank.
    """
    input_shape = tuple(int(s) for s in input_shape)
    if not layers or layers[0].kind != "Input":
        raise ShapeError("layer sequence must begin with Input")
    if any(s <= 0 for s in input_shape):
        raise ShapeError(f"non-positive input dimension in {input_shape}")

    shapes = []
    shape = input_shape
    for idx, spec in enumerate(layers):
        if spec.kind == "Input":
            if idx != 0:
                raise ShapeError("Input layer only allowed at position 0")
        elif spec.kind == "Conv2D":
            if len(shape) != 3:
                raise ShapeError(f"Conv2D needs rank-3 input, got {shape}")
            h, w, _ = shape
            kh, kw = spec.kernel
            oh, ow = h - kh + 1, w - kw + 1
            if oh <= 0 or ow <= 0:
                raise ShapeError(
                    f"Conv2D kernel {spec.kernel} does not fit input {shape}")
            shape = (oh, ow, spec.filters_or_units)
        elif spec.kind == "BatchNorm":
            if len(shape) != 3:
                raise ShapeError(f"BatchNorm needs rank-3 input, got {shape}")
        elif spec.kind == "MaxPool2D":
            if len(shape) != 3:
                raise ShapeError(f"MaxPool2D needs rank-3 input, got {shape}")
            h, w, c = shape
            kh, kw = spec.kernel
            if spec.padding == "same":
                oh, ow = math.ceil(h / kh), math.ceil(w / kw)
            else:
                oh, ow = h // kh, w // kw
            if oh <= 0 or ow <= 0:
                raise ShapeError(
                    f"MaxPool2D kernel {spec.kernel} does not fit input {shape}")
            shape = (oh, ow, c)
        elif spec.kind == "Flatten":
            shape = (int(np.prod(shape)),)
        elif spec.kind == "Dense":
            if len(shape) != 1:
                raise ShapeError(f"Dense needs rank-1 input, got {shape}")
            shape = (spec.filters_or_units,)
        shapes.append(shape)
    return shapes


def count_params(network):
    """Total, trainable, and non-trainable parameter counts of a network:
    the sizes of its parameter and running-stat tensors."""
    trainable = sum(a.size for a in network.params.values())
    fixed = sum(a.size for a in network.bn_stats.values())
    return trainable + fixed, trainable, fixed


class Network:
    """A layer sequence plus its parameter and running-stat tensors.

    Parameters are Glorot-uniform initialized from the seed, or zero when
    the seed is None, for a caller that sets every tensor itself
    (model_io.load_model) and needs no numpy.random; BatchNorm starts at
    scale 1 / shift 0 with zero running mean and unit running variance.
    Instances are value-like: clone() gives an independent copy safe to
    train on another thread.
    """

    def __init__(self, layers, input_shape, seed=0, dtype=np.float32):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.dtype = np.dtype(dtype)
        self.shapes = infer_shapes(self.layers, self.input_shape)
        self.params = {}
        self.bn_stats = {}
        self._forward_version = 0

        rng = None if seed is None else np.random.default_rng(seed)

        def glorot(fan_in, fan_out, shape):
            if rng is None:
                return np.zeros(shape, dtype=self.dtype)
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, shape).astype(self.dtype)

        prev = self.input_shape
        for i, spec in enumerate(self.layers):
            if spec.kind == "Conv2D":
                kh, kw = spec.kernel
                in_ch, f = prev[-1], spec.filters_or_units
                self.params[f"{i}.kernel"] = glorot(
                    kh * kw * in_ch, kh * kw * f, (kh, kw, in_ch, f))
                self.params[f"{i}.bias"] = np.zeros(f, dtype=self.dtype)
            elif spec.kind == "BatchNorm":
                c = prev[-1]
                self.params[f"{i}.gamma"] = np.ones(c, dtype=self.dtype)
                self.params[f"{i}.beta"] = np.zeros(c, dtype=self.dtype)
                self.bn_stats[f"{i}.mean"] = np.zeros(c, dtype=self.dtype)
                self.bn_stats[f"{i}.var"] = np.ones(c, dtype=self.dtype)
            elif spec.kind == "Dense":
                n_in, n_out = prev[0], spec.filters_or_units
                self.params[f"{i}.weight"] = glorot(n_in, n_out, (n_in, n_out))
                self.params[f"{i}.bias"] = np.zeros(n_out, dtype=self.dtype)
            prev = self.shapes[i]

    @property
    def num_classes(self):
        return self.shapes[-1][0]

    def clone(self):
        other = Network.__new__(Network)
        other.layers = list(self.layers)
        other.input_shape = self.input_shape
        other.dtype = self.dtype
        other.shapes = list(self.shapes)
        other.params = {k: v.copy() for k, v in self.params.items()}
        other.bn_stats = {k: v.copy() for k, v in self.bn_stats.items()}
        other._forward_version = 0
        return other


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0)
    if activation == "softmax":
        return _softmax(z)
    return z


def _im2col(x, kh, kw):
    """Each output position's kh x kw window as one row of slot-major
    columns: column (i * kw + j) * c + ch holds x[:, r + i, s + j, ch].
    One copy of a strided view."""
    n, h, w, c = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    # (n, oh, ow, c, kh, kw) -> (n, oh, ow, kh, kw, c); copy() gives a fresh
    # array even for a 1 x 1 kernel, where reshape would return a view of x
    cols = windows.transpose(0, 1, 2, 4, 5, 3).copy()
    return cols.reshape(n, h - kh + 1, w - kw + 1, kh * kw * c)


def _conv_input_gradient(dz2, kmat, x_shape, kh, kw):
    """Input gradient of a stride-1 conv from its (M, F) output gradient and
    (K, F) kernel matrix, one kernel slot at a time (Anderson et al., 2017):
    slot s's (M, C) block dz2 @ kmat[s*C:(s+1)*C].T goes into one reused
    buffer and is added into its window of dx, each window a whole run of
    every sample when kw == 1. The BLAS rounds a block as it rounds those
    columns of the full dz2 @ kmat.T, except a one-column block, which numpy
    hands to the matrix-vector routine, summing in another order: with one
    input channel the small (M, kh*kw) product runs whole. Slot 0 covers
    [:oh, :ow] and is written as 0.0 + value, the bits a zero-filled buffer
    plus the slot gives (-0.0 becomes 0.0); only the cells outside it are
    zeroed before the other slots add in, in slot order."""
    n, h, w, c = x_shape
    oh, ow = h - kh + 1, w - kw + 1
    dx = np.empty(x_shape, dtype=dz2.dtype)
    dx[:, oh:, :, :] = 0
    dx[:, :oh, ow:, :] = 0
    if c == 1:
        full = dz2 @ kmat.T
        blocks = (full[:, s:s + 1] for s in range(kh * kw))
    else:
        buf = np.empty((len(dz2), c), dtype=dz2.dtype)
        blocks = (np.matmul(dz2, kmat[s * c:(s + 1) * c].T, out=buf)
                  for s in range(kh * kw))
    for slot, block in enumerate(blocks):
        i, j = divmod(slot, kw)
        window = block.reshape(n, oh, ow, c)
        if slot:
            dx[:, i:i + oh, j:j + ow, :] += window
        else:
            np.add(window, 0.0, out=dx[:, :oh, :ow, :])
    return dx


def _pool_pad(x, kh, kw, padding):
    n, h, w, c = x.shape
    if padding == "same":
        oh, ow = math.ceil(h / kh), math.ceil(w / kw)
    else:
        oh, ow = h // kh, w // kw
        x = x[:, :oh * kh, :ow * kw, :]
        return x, oh, ow, (0, 0)
    total_h, total_w = oh * kh - h, ow * kw - w
    bh, bw = total_h // 2, total_w // 2
    if total_h or total_w:
        # np.pad's buffer without its per-call overhead: -inf borders around
        # one copy of x, each element written once
        xp = np.empty((n, oh * kh, ow * kw, c), dtype=x.dtype)
        xp[:, :bh] = xp[:, bh + h:] = -np.inf
        xp[:, :, :bw] = xp[:, :, bw + w:] = -np.inf
        xp[:, bh:bh + h, bw:bw + w] = x
        x = xp
    return x, oh, ow, (bh, bw)


def _max_pool(x, kh, kw, padding, train):
    """Max over each pooling window as an np.maximum chain over the kh*kw
    strided window slots. Returns (pooled, backward cache); in train mode the
    cache holds each output's first slot in (row, col) order that holds the
    max, the slot argmax over the window would pick."""
    xp, oh, ow, offsets = _pool_pad(x, kh, kw, padding)
    slots = [xp[:, a::kh, b::kw, :] for a in range(kh) for b in range(kw)]
    # np.maximum returns its second operand on ties, so chaining from the
    # last slot back keeps the first slot's value (the sign of a tied zero)
    z = slots[-1]
    for s in slots[-2::-1]:
        z = np.maximum(z, s)
    if not train:
        return z, {}
    # the first max's slot is the number of leading slots below the max; a
    # window holding NaN counts as max-free and routes its NaN gradient to
    # the last slot
    if len(slots) == 2:
        # one compare: slot 1 exactly where slot 0 is below the max
        idx = (slots[0] != z).view(np.uint8)
    else:
        idx = np.zeros(z.shape, dtype=np.min_scalar_type(len(slots) - 1))
        below = np.ones(z.shape, dtype=bool)
        for s in slots[:-1]:
            below &= s != z
            idx += below
    return z, {"argmax": idx, "padded_shape": xp.shape, "offsets": offsets}


def _max_pool_backward(dz, x_shape, kh, kw, padding, cache):
    """Input gradient of _max_pool: each output's gradient goes to the slot
    its train-mode cache recorded, masked into that slot's strided view as
    unsigned integers (a float product would leave -0.0 or NaN elsewhere).
    With 2 slots, slot 1 takes dz times the 0/1 index and slot 0 the rest,
    dz xor that product."""
    n, h, w, c = x_shape
    ph, pw = cache["padded_shape"][1:3]
    # the slots fill a same-padded buffer; valid pooling dropped any trailing
    # remainder, whose gradient stays zero
    alloc = np.empty if padding == "same" else np.zeros
    dx = alloc((n, max(ph, h), max(pw, w), c), dtype=dz.dtype)
    u = np.dtype(f"u{dz.itemsize}")
    du, idx = dz.view(u), cache["argmax"]
    slots = [dx.view(u)[:, s // kw:ph:kh, s % kw:pw:kw, :]
             for s in range(kh * kw)]
    if len(slots) == 2:
        np.multiply(du, idx, out=slots[1])
        np.bitwise_xor(du, slots[1], out=slots[0])
    else:
        for s, slot in enumerate(slots):
            np.multiply(du, idx == s, out=slot)
    bh, bw = cache["offsets"]
    return dx[:, bh:bh + h, bw:bw + w, :]


def _batch_norm_backward(dz, xhat, std, gamma):
    """(grad, dgamma, dbeta) of a train-mode BatchNorm over the (N, H, W)
    axes, given its cached xhat and batch std. The input gradient reuses the
    parameter gradients, gamma / std * (dz - (dbeta + xhat * dgamma) / m),
    in the buffer that dgamma's product filled."""
    m = dz.size // dz.shape[-1]
    grad = dz * xhat
    dgamma, dbeta = grad.sum(axis=(0, 1, 2)), dz.sum(axis=(0, 1, 2))
    np.multiply(xhat, dgamma / m, out=grad)
    grad += dbeta / m
    np.subtract(dz, grad, out=grad)
    grad *= gamma / std
    return grad, dgamma, dbeta


def _run_activations(layers):
    """The activation each layer runs, one per layer. A ReLU that feeds a
    MaxPool2D with no activation of its own runs after the pool instead, on
    half the elements. The bits are the same. ReLU is monotone, so
    max(relu(a), relu(b)) == relu(max(a, b)), -inf padding included, and
    relu(-0.0) is 0.0 either way. Where the pooled value is positive, both
    orders route its gradient to the same first max. Where it is not, the
    gradient is masked to a zero, and forward points the window at slot 0,
    the first max among the ReLU's zeros. That needs a pool that pads no
    window ahead of its first real slot: valid padding, or a kernel of at
    most 2 x 2, whose same padding adds at most one trailing row and column.
    Any other pool keeps the ReLU in front. A NaN forward routes
    differently, but train raises TrainingDiverged on it before backward
    runs."""
    acts = [spec.activation for spec in layers]
    for i in range(len(layers) - 1):
        pool = layers[i + 1]
        if (acts[i] == "relu" and pool.kind == "MaxPool2D"
                and acts[i + 1] == "none"
                and (pool.padding == "valid" or max(pool.kernel) <= 2)):
            acts[i], acts[i + 1] = "none", "relu"
    return acts


def _folds_into_batch_norm(layers, i):
    """Whether inference folds the BatchNorm after Conv2D layer i into it,
    and so whether the conv's bias is inert in training: the conv has no
    activation of its own and a BatchNorm reads its output."""
    return (layers[i].activation == "none" and i + 1 < len(layers)
            and layers[i + 1].kind == "BatchNorm")


def _folds_in_training(layers, i):
    """Whether a train forward folds the BatchNorm after Conv2D layer i into
    it too: only for the conv that reads the network input. Any other conv
    needs its input gradient, and its Gram matrix would cost M*K^2 (K = 192
    at layers 4 and 7 of default_architecture)."""
    return i == 1 and _folds_into_batch_norm(layers, i)


def _update_running_stats(network, i, mean, var):
    """Blend a batch's mean and variance into BatchNorm i's running stats at
    BN_MOMENTUM, cast to the network's dtype."""
    for key, value in (("mean", mean), ("var", var)):
        old = network.bn_stats[f"{i}.{key}"]
        network.bn_stats[f"{i}.{key}"] = (
            BN_MOMENTUM * old + (1 - BN_MOMENTUM) * value).astype(network.dtype)


def _fold_batch_norm(network, i, cols=None):
    """(K, F) kernel and bias of Conv2D layer i with the BatchNorm at i + 1
    folded in (Jacob et al., 2018, section 3.2), and the BatchNorm's train
    cache entry: kernel W*g/s and bias (b - mean)*g/s + beta, with
    s = sqrt(var + BN_EPSILON), computed in float64 and cast once.

    Without cols, mean and var are the running stats, the entry is empty and
    the network's arrays are only read. Given the conv's (M, K) im2col
    columns, they are the batch statistics of the conv output cols @ W
    (Ioffe & Szegedy, 2015, Algorithm 1), taken from the columns in float64:
    mean = mu_c @ W and var_f = w_f' Sigma w_f, with mu_c the column mean
    and Sigma = (cols - mu_c)'(cols - mu_c) / M their centred K x K Gram
    matrix. They update the running stats, the inert conv bias counts as
    0, and the entry keeps mu_c, Sigma and std for backward."""
    p, j = network.params, i + 1
    kernel = p[f"{i}.kernel"].reshape(-1, p[f"{j}.gamma"].size)
    if cols is None:
        mean = network.bn_stats[f"{j}.mean"]
        var = network.bn_stats[f"{j}.var"].astype(np.float64)
        bias = p[f"{i}.bias"].astype(np.float64)
    else:
        centred = cols.astype(np.float64)
        # a GEMV: numpy's mean over the rows of so few columns is far slower
        mu = np.ones(len(centred)) @ centred / len(centred)
        centred -= mu
        sigma = centred.T @ centred / len(centred)
        mean = mu @ kernel
        var = ((sigma @ kernel) * kernel).sum(axis=0)
        _update_running_stats(network, j, mean, var)
        bias = 0.0
    std = np.sqrt(var + BN_EPSILON)
    scale = p[f"{j}.gamma"] / std
    entry = {} if cols is None else {"mu": mu, "sigma": sigma, "std": std}
    return ((kernel * scale).astype(network.dtype),
            ((bias - mean) * scale + p[f"{j}.beta"]).astype(network.dtype),
            entry)


def _folded_batch_norm_backward(g, dz, kernel, gamma, entry):
    """(dW, dgamma, dbeta) of a conv and the BatchNorm a train forward
    folded into it, from dz, the (M, F) gradient at the BatchNorm's output,
    and G = cols' dz, the conv's kernel-gradient GEMM run on it. With
    s = sum(dz) and Gc = G - mu_c s' (the centred columns' product with dz):
    dbeta = s, dgamma = sum_k(Gc * W) / std and
    dW = gamma / std * (Gc - Sigma W dgamma / std), which is cols' times the
    BatchNorm's input gradient. Computed in float64 and cast once."""
    s = dz.sum(axis=0, dtype=np.float64)
    gc = g - np.outer(entry["mu"], s)
    std = entry["std"]
    dgamma = (gc * kernel).sum(axis=0) / std
    dw = gamma / std * (gc - (entry["sigma"] @ kernel) * (dgamma / std))
    return dw.astype(g.dtype), dgamma.astype(g.dtype), s.astype(g.dtype)


def forward(network, batch, mode):
    """Run a batch through the network in mode "train" or "inference".

    Returns (probabilities, cache). In train mode BatchNorm normalizes with
    batch statistics and updates its running stats, and the cache keeps only
    what backward() reads of every layer: its input's shape, conv columns,
    BatchNorm's xhat and std, pool indices, a Dense layer's input and a bool
    mask per ReLU, on the entry of the layer that runs it. A ReLU that feeds
    a MaxPool2D runs after the pool, with the same bits (_run_activations),
    so its mask is at pooled resolution. Every Conv2D is one 2-D GEMM of its
    (N*H*W, K) columns by its (K, F) kernel. A train forward adds no bias to
    a conv that feeds a BatchNorm with no activation between: the batch mean
    cancels it.

    Inference folds each Conv2D with no activation into the BatchNorm that
    follows it: the same GEMM with the folded kernel and bias, then the
    BatchNorm's activation. Training folds that pair only for the conv that
    reads the network input, with batch statistics from its columns
    (_fold_batch_norm), and that BatchNorm's entry keeps no xhat. A fold
    rounds differently from the unfolded pair in the last bits. In inference
    mode BatchNorm uses the stored running stats, the call has no side
    effects, and the cache holds no layer arrays, so backward() rejects it.
    In both modes every other array is dropped at its last reader: a
    layer's input once the layer has read it, a pre-activation once its
    activation has run. The inference fold keeps the conv bias's
    (b - mean) term, so a model file whose conv biases are nonzero still
    scores exactly.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    x = np.asarray(batch)
    if x.shape[1:] != network.input_shape:
        raise ShapeError(
            f"batch shape {x.shape} does not end with {network.input_shape}")
    x = x.astype(network.dtype, copy=False)

    train = mode == "train"
    if train:
        network._forward_version += 1
    acts = _run_activations(network.layers)
    layer_caches = []
    folded = None  # index of the BatchNorm the previous conv absorbed
    for i, spec in enumerate(network.layers):
        if i == folded:
            continue
        # a train cache keeps only what backward reads; an inference cache
        # dies with its layer, and the dels below drop each local at its
        # last reader, so no array outlives its use
        cache = {"shape": x.shape}
        act = acts[i]
        if spec.kind == "Input":
            z = x
        elif spec.kind == "Conv2D":
            kh, kw = spec.kernel
            cols = _im2col(x, kh, kw)
            del x
            cols2 = cols.reshape(-1, cols.shape[-1])
            inert = _folds_into_batch_norm(network.layers, i)
            if inert and (not train or _folds_in_training(network.layers, i)):
                kmat, bias, bn_cache = _fold_batch_norm(
                    network, i, cols2 if train else None)
                # the BatchNorm's activation runs on the folded output
                folded = i + 1
                act = acts[folded]
            else:
                kmat = network.params[f"{i}.kernel"].reshape(
                    -1, spec.filters_or_units)
                # the next BatchNorm's batch mean cancels an inert bias
                bias = None if inert else network.params[f"{i}.bias"]
            z = (cols2 @ kmat).reshape(*cols.shape[:-1], -1)
            if bias is not None:
                z += bias
            if train:
                cache["cols"] = cols
            del cols, cols2
        elif spec.kind == "BatchNorm":
            gamma, beta = network.params[f"{i}.gamma"], network.params[f"{i}.beta"]
            if train:
                mean = x.mean(axis=(0, 1, 2))
                xc = x - mean
                del x
                # the sum of squared deviations x.var would take, in its order
                var = np.square(xc).mean(axis=(0, 1, 2))
                _update_running_stats(network, i, mean, var)
            else:
                mean = network.bn_stats[f"{i}.mean"]
                var = network.bn_stats[f"{i}.var"]
                xc = x - mean
                del x
            std = np.sqrt(var + BN_EPSILON)
            xc /= std
            # inference keeps no xhat, so it scales and shifts it in place
            z = xc * gamma if train else np.multiply(xc, gamma, out=xc)
            z += beta
            cache.update(xhat=xc, std=std)
            del xc
        elif spec.kind == "MaxPool2D":
            z, pool_cache = _max_pool(x, *spec.kernel, spec.padding, train)
            del x
            cache.update(pool_cache)
        elif spec.kind == "Flatten":
            z = x.reshape(x.shape[0], -1)
        elif spec.kind == "Dense":
            z = x @ network.params[f"{i}.weight"] + network.params[f"{i}.bias"]
            cache["x"] = x
        x = _activate(z, act)
        del z
        if train:
            layer_caches.append(cache)
            if folded == i + 1:
                # the folded BatchNorm's entry, which runs the activation
                cache = bn_cache
                layer_caches.append(cache)
            if act == "relu":
                # a = max(z, 0) > 0 exactly where z > 0 (NaN fails both)
                cache["mask"] = x > 0
                if "argmax" in cache:
                    # a pool over the ReLU's zeros picks slot 0
                    cache["argmax"] *= cache["mask"]

    probs = x
    full_cache = {
        "mode": mode,
        "version": network._forward_version if train else None,
        "layers": layer_caches,
        "probs": probs,
    }
    return probs, full_cache


def predict(network, batch):
    """Inference-mode class probabilities for a batch in the network layout,
    computed INFERENCE_ROWS rows at a time, so the activations alive at once
    are those of one slice and memory stays bounded in the batch length.
    The BLAS may round a row's last bits differently for another slice
    length, so two paths that must agree bit for bit slice alike."""
    x = np.asarray(batch)
    # filled in place: a result array per slice, allocated among the slice's
    # activations, can keep the allocator from returning their memory
    probs = np.empty((len(x), network.num_classes), dtype=network.dtype)
    for start in range(0, len(x), INFERENCE_ROWS):
        probs[start:start + INFERENCE_ROWS] = forward(
            network, x[start:start + INFERENCE_ROWS], "inference")[0]
    return probs


def loss_sparse_ce(probs, labels):
    """Mean sparse categorical cross-entropy over a batch of probability rows.

    Probabilities are clamped to [1e-12, 1] before the log so saturated rows
    cannot produce -inf.
    """
    p = np.asarray(probs)
    y = np.asarray(labels)
    k = p.shape[-1]
    if y.size and (y.min() < 0 or y.max() >= k):
        raise LabelError(f"labels must lie in [0, {k})")
    picked = np.clip(p[np.arange(len(y)), y], LOG_CLAMP, 1.0)
    return float(-np.mean(np.log(picked)))


def backward(network, cache, true_labels, lane=None):
    """Gradients of the mean sparse cross-entropy loss for every trainable
    parameter, given the cache of a train-mode forward on the same batch.
    Layer 1's GEMM input gradient, which would go to the batch, is skipped.
    A BatchNorm that the train forward folded into the conv before it hands
    its output gradient on unchanged, and the conv turns its kernel-gradient
    GEMM into the pair's gradients (_folded_batch_norm_backward). A conv
    bias that the train forward left inert (the conv feeds a BatchNorm with
    no activation between) gets an exact-zero gradient, so Adam never moves
    it. A layer's gradient is masked by the ReLU mask its cache entry holds,
    if any.
    lane is None or a one-thread concurrent.futures executor. With a lane,
    each conv that takes an input gradient submits its kernel-gradient GEMM
    to it, run in a copy of the caller's context so numpy's error state
    carries over, and computes the input gradient meanwhile; every product
    is the same call on the same operands, so the gradients are the same
    bits. Worth it only with a core to spare for the lane's thread.
    Backward consumes the cache: it drops each layer's entry as it passes
    it, a conv's columns once its kernel-gradient GEMM has read them (before
    the input gradient's slot GEMMs run, without a lane), and a spent cache
    is rejected."""
    if cache["mode"] != "train":
        raise StateError("backward requires a train-mode forward cache")
    if None in cache["layers"]:
        raise StateError("cache is spent: backward already consumed it")
    if cache["version"] != network._forward_version:
        raise StateError("cache is stale: another forward ran since it was built")
    if network.layers[-1].activation != "softmax":
        raise StateError("backward requires a softmax on the final layer")

    y = np.asarray(true_labels)
    probs = cache["probs"]
    n, k = probs.shape
    if y.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise LabelError(f"labels must lie in [0, {k})")

    # Softmax + cross-entropy collapse to (p - onehot)/n at the final logits.
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad /= n

    grads = {}
    layer_caches = cache["layers"]
    folded = None  # the entry of a BatchNorm the conv before it absorbed
    for i in range(len(network.layers) - 1, 0, -1):
        spec = network.layers[i]
        # the entry is dropped here and its arrays go once lc is rebound (the
        # dels below do the same for the locals), so the large early layers
        # run with the later layers' arrays freed
        lc, layer_caches[i] = layer_caches[i], None
        dz = grad
        if "mask" in lc:
            # each layer's input gradient is a new array, so mask in place
            np.multiply(dz, lc["mask"], out=dz)
        elif spec.activation == "softmax" and i < len(network.layers) - 1:
            raise StateError("softmax is only supported on the final layer")
        if spec.kind == "Conv2D":
            kernel = network.params[f"{i}.kernel"]
            dz2 = dz.reshape(-1, spec.filters_or_units)
            grads[f"{i}.bias"] = (
                np.zeros_like(network.params[f"{i}.bias"])
                if _folds_into_batch_norm(network.layers, i)
                else dz.sum(axis=(0, 1, 2)))
            cols = lc.pop("cols").reshape(len(dz2), -1)
            pending = None
            if i > 1 and lane is not None:
                pending = lane.submit(contextvars.copy_context().run,
                                      np.matmul, cols.T, dz2)
            else:
                g = cols.T @ dz2
            # the columns die when the GEMM that reads them returns
            del cols
            if i > 1:
                grad = _conv_input_gradient(
                    dz2, kernel.reshape(-1, dz2.shape[1]), lc["shape"],
                    *spec.kernel)
            if pending is not None:
                g = pending.result()
            if folded is not None:
                # dz is the gradient at the folded BatchNorm's output
                j = i + 1
                g, grads[f"{j}.gamma"], grads[f"{j}.beta"] = (
                    _folded_batch_norm_backward(
                        g, dz2, kernel.reshape(g.shape),
                        network.params[f"{j}.gamma"], folded))
            grads[f"{i}.kernel"] = g.reshape(kernel.shape)
            del dz2
        elif spec.kind == "BatchNorm":
            if "sigma" in lc:
                # folded into the conv before it, which takes its gradients
                grad, folded = dz, lc
            else:
                grad, grads[f"{i}.gamma"], grads[f"{i}.beta"] = (
                    _batch_norm_backward(dz, lc["xhat"], lc["std"],
                                         network.params[f"{i}.gamma"]))
        elif spec.kind == "MaxPool2D":
            grad = _max_pool_backward(dz, lc["shape"], *spec.kernel,
                                      spec.padding, lc)
        elif spec.kind == "Flatten":
            grad = dz.reshape(lc["shape"])
        elif spec.kind == "Dense":
            grads[f"{i}.weight"] = lc["x"].T @ dz
            grads[f"{i}.bias"] = dz.sum(axis=0)
            if i > 1:
                grad = dz @ network.params[f"{i}.weight"].T
    return grads
