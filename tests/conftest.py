"""Shared fixtures and independent oracle helpers."""

import json

import numpy as np
import pytest

from csocnn import data, nn, trainer
from csocnn.nn import forward, loss_sparse_ce


def toy_layers(num_classes=3):
    """Small net touching every layer kind; well under 500 parameters."""
    return [
        nn.input_layer(),
        nn.conv2d(3, (3, 1)),
        nn.batch_norm(activation="relu"),
        nn.max_pool2d((2, 1)),
        nn.flatten(),
        nn.dense(4, activation="relu"),
        nn.dense(num_classes, activation="softmax"),
    ]


def rewrite_manifest(path, edit, tail=b""):
    """Rewrite the manifest of the model file at path with edit, which
    changes it in place or returns its replacement, and append tail to the
    blob."""
    header, rest = path.read_bytes().split(b"\n", 1)
    magic, version, n = header.split()
    manifest = json.loads(rest[:int(n)])
    body = json.dumps(edit(manifest) or manifest).encode("utf-8")
    path.write_bytes(b"%s %s %d\n" % (magic, version, len(body)) + body
                     + rest[int(n):] + tail)


def poison_update(monkeypatch, at_step, key="13.weight"):
    """Patch trainer.adam_step so that its at_step-th update (1-based, over
    the whole run) leaves NaN in the parameter named key; the batch losses
    computed before it stay finite."""
    real = trainer.adam_step

    def step(state, params, grads):
        real(state, params, grads)
        if state.step == at_step:
            params[key][...] = np.nan

    monkeypatch.setattr(trainer, "adam_step", step)


def finite_difference_gradients(network, x, y, keys=None, step=1e-3):
    """Central finite differences of the batch loss for every trainable
    parameter; the independent oracle for backward()."""

    def loss_at():
        probs, _ = forward(network, x, "train")
        return loss_sparse_ce(probs, y)

    grads = {}
    for key in keys if keys is not None else network.params:
        p = network.params[key]
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = p[idx]
            p[idx] = original + step
            up = loss_at()
            p[idx] = original - step
            down = loss_at()
            p[idx] = original
            g[idx] = (up - down) / (2 * step)
        grads[key] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for key, g in analytic.items():
        n = numeric[key]
        denom = np.maximum(np.maximum(np.abs(g), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(g - n) / denom)))
    return worst


@pytest.fixture(scope="session")
def small_blobs():
    """1500 well-separated 75-feature records, prepared leakage-free."""
    flows = data.make_synthetic_blobs(1500, k_classes=5, d=75,
                                      separation=3.0, seed=11)
    return data.prepare_dataset(flows, seed=11)
