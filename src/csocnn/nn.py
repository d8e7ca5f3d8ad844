"""Minimal layer library for the compact 2D convolutional flow classifier.

Implements exactly the layer kinds the classifier needs (Input, Conv2D,
BatchNorm, MaxPool2D, Flatten, Dense) with forward and backward passes on
numpy arrays in channels-last (N, H, W, C) layout, for the stacks the
classifier is built from: a Conv2D is valid-padded, has no activation and
feeds a BatchNorm, a BatchNorm reads a Conv2D, and a MaxPool2D is a
same-padded 2 x 1 or 1 x 2 pool. LayerSpec and infer_shapes reject any other
stack with ShapeError. Every convolution is stride-1 and runs as one 2-D
GEMM over an im2col layout (Chellapilla, Puri & Simard, 2006) in both
modes; its input gradient is one GEMM per kernel slot, each added into the
slot's input window (Anderson, Vasudevan, Keane & Gregg, 2017). A conv's
bias is inert in training: the BatchNorm's batch mean cancels it (Ioffe &
Szegedy, 2015, section 3.2), so a train forward adds none and backward
gives it an exact-zero gradient, which keeps it at its initial 0.
BatchNorm's input gradient reuses its parameter gradients (Ioffe & Szegedy,
2015). Pooling strides by its own kernel and takes the larger of the
window's two strided slots, routing the gradient to the first max as argmax
would, found with one compare; a ReLU in front of a pool runs after it, on
half the elements. The final Dense layer carries a softmax so the network
emits per-sample class probabilities directly. Only a train-mode forward
keeps the per-layer arrays backward needs; an inference forward frees each
layer's intermediates as it goes, and folds each Conv2D -> BatchNorm pair
into one conv (Jacob et al., 2018). At inference a finite folded bias that
feeds a pool is added after it, on half the elements, and a pool of odd
height or width makes no padded copy; both keep the bits. Training folds
the pair of the conv that reads the network input too, with batch
statistics taken from the conv's few input columns, and backward takes the
pair's gradients from the conv's kernel-gradient GEMM, so no BatchNorm pass
over its activation remains.
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
        padding = "same" if self.kind == "MaxPool2D" else "valid"
        if self.padding != padding:
            raise ShapeError(f"{self.kind} needs {padding} padding, "
                             f"got {self.padding!r}")
        # (2.0, 1) == (2, 1), but a float kernel cannot slice a window
        if self.kind == "MaxPool2D" and (
                self.kernel not in ((2, 1), (1, 2))
                or not all(type(k) is int for k in self.kernel)):
            raise ShapeError(
                f"MaxPool2D kernel must be 2 x 1 or 1 x 2, got {self.kernel}")
        if self.kind == "Conv2D":
            if self.activation != "none":
                raise ShapeError("Conv2D takes no activation")
            if self.kernel is None:
                raise ShapeError("Conv2D requires a kernel")
            kh, kw = self.kernel
            if kh < 1 or kw < 1:
                raise ShapeError(f"kernel dimensions must be >= 1, got {self.kernel}")
        if self.kind in ("Conv2D", "Dense"):
            if self.filters_or_units is None or self.filters_or_units < 1:
                raise ShapeError(f"{self.kind} requires filters_or_units >= 1")


def input_layer():
    return LayerSpec("Input")


def conv2d(filters, kernel):
    return LayerSpec("Conv2D", kernel=tuple(kernel), filters_or_units=filters)


def batch_norm(activation="none"):
    return LayerSpec("BatchNorm", activation=activation)


def max_pool2d(kernel):
    return LayerSpec("MaxPool2D", kernel=tuple(kernel), padding="same")


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
    padding (out = in - kernel + 1); MaxPool2D strides by its kernel and
    pads a trailing row or column (out = ceil(in / kernel)). Raises
    ShapeError when a dimension would become non-positive, a layer is
    applied to an input of the wrong rank, a Conv2D is not followed by a
    BatchNorm or a BatchNorm does not read a Conv2D.
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
            if idx + 1 == len(layers) or layers[idx + 1].kind != "BatchNorm":
                raise ShapeError(f"Conv2D {idx} is not followed by a BatchNorm")
        elif spec.kind == "BatchNorm":
            if layers[idx - 1].kind != "Conv2D":
                raise ShapeError(f"BatchNorm {idx} does not read a Conv2D")
        elif spec.kind == "MaxPool2D":
            if len(shape) != 3:
                raise ShapeError(f"MaxPool2D needs rank-3 input, got {shape}")
            h, w, c = shape
            kh, kw = spec.kernel
            shape = (math.ceil(h / kh), math.ceil(w / kw), c)
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


def _pool_pad(x, kh, kw):
    """x with a trailing -inf row where a 2 x 1 pool meets an odd height,
    or a trailing -inf column where a 1 x 2 pool meets an odd width: the
    buffer a train-mode pool indexes, so that backward can scatter into
    whole windows. An inference pool reads x unpadded."""
    n, h, w, c = x.shape
    ph, pw = h + h % kh, w + w % kw
    if (ph, pw) != (h, w):
        # np.pad's buffer without its per-call overhead: a -inf border after
        # one copy of x, each element written once
        xp = np.empty((n, ph, pw, c), dtype=x.dtype)
        xp[:, h:] = -np.inf
        xp[:, :, w:] = -np.inf
        xp[:, :h, :w] = x
        x = xp
    return x


def _max_pool(x, kh, kw, train):
    """Max over each window's two strided slots. Returns (pooled, backward
    cache); in train mode the cache holds each output's first slot that
    holds the max, the slot argmax over the window would pick: 1 exactly
    where slot 0 is below the max, found with one compare. A window holding
    NaN counts as max-free and routes its NaN gradient to slot 1.

    Only a train-mode pool pads an odd height or width (_pool_pad). At
    inference the lone trailing row or column is copied straight from x:
    max(-inf, v) is v for every v, NaN and -0.0 included, so the bits are
    those of the padded pool, with no copy of x."""
    if train:
        x = _pool_pad(x, kh, kw)
    first, second = x[:, ::kh, ::kw, :], x[:, kh - 1::kh, kw - 1::kw, :]
    z = np.empty(first.shape, dtype=x.dtype)
    oh, ow = second.shape[1:3]
    # np.maximum returns its second operand on ties, so the first slot's
    # value (the sign of a tied zero) is kept
    np.maximum(second, first[:, :oh, :ow], out=z[:, :oh, :ow])
    # the lone trailing row or column of an unpadded odd extent, if any
    z[:, oh:] = first[:, oh:]
    z[:, :, ow:] = first[:, :, ow:]
    if not train:
        return z, {}
    return z, {"argmax": (first != z).view(np.uint8),
               "padded_shape": x.shape}


def _max_pool_backward(dz, x_shape, kh, kw, cache):
    """Input gradient of _max_pool: each output's gradient goes to the slot
    its train-mode cache recorded, masked into that slot's strided view as
    unsigned integers (a float product would leave -0.0 or NaN elsewhere):
    slot 1 takes dz times the 0/1 index and slot 0 the rest, dz xor that
    product."""
    n, h, w, c = x_shape
    dx = np.empty(cache["padded_shape"], dtype=dz.dtype)
    u = np.dtype(f"u{dz.itemsize}")
    du, dxu = dz.view(u), dx.view(u)
    second = dxu[:, kh - 1::kh, kw - 1::kw, :]
    np.multiply(du, cache["argmax"], out=second)
    np.bitwise_xor(du, second, out=dxu[:, ::kh, ::kw, :])
    return dx[:, :h, :w, :]


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
    the first max among the ReLU's zeros, which is real: a pool pads only
    after it. A NaN forward routes differently, but train raises
    TrainingDiverged on it before backward runs."""
    acts = [spec.activation for spec in layers]
    for i in range(len(layers) - 1):
        if (acts[i] == "relu" and layers[i + 1].kind == "MaxPool2D"
                and acts[i + 1] == "none"):
            acts[i], acts[i + 1] = "none", "relu"
    return acts


def _folds_in_training(layers, i):
    """Whether a train forward folds the BatchNorm after Conv2D layer i into
    it too: only for the conv that reads the network input. Any other conv
    needs its input gradient, and its Gram matrix would cost M*K^2 (K = 192
    at layers 4 and 7 of default_architecture)."""
    return i == 1


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
    (N*H*W, K) columns by its (K, F) kernel. A train forward adds no conv
    bias: the batch mean of the BatchNorm after the conv cancels it.

    Inference folds each Conv2D into the BatchNorm that follows it, with the
    stored running stats: the same GEMM with the folded kernel and bias,
    then the BatchNorm's activation. Where that activation has moved after a
    MaxPool2D, or the BatchNorm has none, and the folded bias is finite, the
    bias is added after the pool, on half the elements, with the same bits:
    round-to-nearest x + b is monotone in x, so the max picks the same
    operand (+-0 ties and NaN payloads included). An infinite bias stays
    before the pool, where -inf + inf is NaN. A zero-row train forward
    raises ShapeError before any state changes; a zero-row inference
    forward returns (0, k) probabilities. The fold keeps the conv bias's
    (b - mean) term, so a model file whose conv biases are nonzero still
    scores exactly. Training folds the pair only for the conv that reads the
    network input, with batch statistics from its columns
    (_fold_batch_norm), and that BatchNorm's entry keeps no xhat. A fold
    rounds differently from the unfolded pair in the last bits. An inference
    call has no side effects, and its cache holds no layer arrays, so
    backward() rejects it. In both modes every other array is dropped at its
    last reader: a layer's input once the layer has read it, a
    pre-activation once its activation has run.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    x = np.asarray(batch)
    if x.shape[1:] != network.input_shape:
        raise ShapeError(
            f"batch shape {x.shape} does not end with {network.input_shape}")
    train = mode == "train"
    if train and not len(x):
        # batch statistics of no rows would write NaN into the running stats
        raise ShapeError("a train forward needs at least one row")
    x = x.astype(network.dtype, copy=False)

    if train:
        network._forward_version += 1
    acts = _run_activations(network.layers)
    layer_caches = []
    folded = None  # index of the BatchNorm the previous conv absorbed
    pool_bias = None  # a folded bias the next pool adds after its max
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
            folds = not train or _folds_in_training(network.layers, i)
            if folds:
                kmat, bias, bn_cache = _fold_batch_norm(
                    network, i, cols2 if train else None)
                # the BatchNorm's activation runs on the folded output
                folded = i + 1
                act = acts[folded]
            else:
                # no bias: the next BatchNorm's batch mean cancels it
                kmat = network.params[f"{i}.kernel"].reshape(
                    -1, spec.filters_or_units)
            z = (cols2 @ kmat).reshape(*cols.shape[:-1],
                                       spec.filters_or_units)
            if (not train and act == "none" and folded + 1 < len(acts)
                    and network.layers[folded + 1].kind == "MaxPool2D"
                    and np.isfinite(bias).all()):
                # round-to-nearest x + b is monotone in x for a finite b,
                # so max(a + b, c + b) is max(a, c) + b, bit for bit
                pool_bias = bias
            elif folds:
                z += bias
            if train:
                cache["cols"] = cols
            del cols, cols2
        elif spec.kind == "BatchNorm":
            # train mode only: inference folds every BatchNorm into its conv
            mean = x.mean(axis=(0, 1, 2))
            xc = x - mean
            del x
            # the sum of squared deviations x.var would take, in its order
            var = np.square(xc).mean(axis=(0, 1, 2))
            _update_running_stats(network, i, mean, var)
            std = np.sqrt(var + BN_EPSILON)
            xc /= std
            z = xc * network.params[f"{i}.gamma"]
            z += network.params[f"{i}.beta"]
            cache.update(xhat=xc, std=std)
            del xc
        elif spec.kind == "MaxPool2D":
            z, pool_cache = _max_pool(x, *spec.kernel, train)
            del x
            if pool_bias is not None:
                z += pool_bias
                pool_bias = None
            cache.update(pool_cache)
        elif spec.kind == "Flatten":
            z = x.reshape(len(x), *network.shapes[i])
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
    bias, which the train forward left inert, gets an exact-zero gradient,
    so Adam never moves it. A layer's gradient is masked by the ReLU mask its cache entry holds,
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
            grads[f"{i}.bias"] = np.zeros_like(network.params[f"{i}.bias"])
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
            grad = _max_pool_backward(dz, lc["shape"], *spec.kernel, lc)
        elif spec.kind == "Flatten":
            grad = dz.reshape(lc["shape"])
        elif spec.kind == "Dense":
            grads[f"{i}.weight"] = lc["x"].T @ dz
            grads[f"{i}.bias"] = dz.sum(axis=0)
            if i > 1:
                grad = dz @ network.params[f"{i}.weight"].T
    return grads
