import json

import numpy as np
import pytest

from conftest import toy_layers
from csocnn import nn
from csocnn.errors import ModelFormatError
from csocnn.model_io import load_model, save_model
from csocnn.nn import forward


def _trained_like_network(seed=3):
    net = nn.Network(toy_layers(), (9, 1, 1), seed=seed)
    # some non-init stats so the round trip is meaningful
    x = np.random.default_rng(seed).normal(size=(8, 9, 1, 1)).astype(np.float32)
    forward(net, x, "train")
    return net


def test_round_trip_preserves_everything(tmp_path):
    net = _trained_like_network()
    path = tmp_path / "m.model"
    save_model(path, net, ["a", "b", "c"], scaler_fingerprint="cafe",
               training_metrics={"validation_accuracy": 0.9})
    bundle = load_model(path)
    assert bundle.class_names == ["a", "b", "c"]
    assert bundle.scaler_fingerprint == "cafe"
    assert bundle.training_metrics == {"validation_accuracy": 0.9}
    assert [s.kind for s in bundle.network.layers] == \
        [s.kind for s in net.layers]
    for key, value in net.params.items():
        assert np.array_equal(bundle.network.params[key], value)
    for key, value in net.bn_stats.items():
        assert np.array_equal(bundle.network.bn_stats[key], value)


def test_round_trip_inference_identical(tmp_path):
    net = _trained_like_network(5)
    path = tmp_path / "m.model"
    save_model(path, net, ["x", "y", "z"])
    loaded = load_model(path).network
    batch = np.random.default_rng(1).normal(size=(4, 9, 1, 1)).astype(np.float32)
    a, _ = forward(net, batch, "inference")
    b, _ = forward(loaded, batch, "inference")
    assert np.array_equal(a, b)


def test_truncated_blob_rejected(tmp_path):
    net = _trained_like_network()
    path = tmp_path / "m.model"
    save_model(path, net, ["a", "b", "c"])
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_bytes(b"NOT-A-MODEL 1 2\n{}")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_garbled_manifest_rejected(tmp_path):
    net = _trained_like_network()
    path = tmp_path / "m.model"
    save_model(path, net, ["a", "b", "c"])
    raw = bytearray(path.read_bytes())
    header_end = raw.index(b"\n") + 1
    raw[header_end] = ord("!")
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError):
        load_model(path)
    # valid JSON: a Conv2D padding the network does not support, no tensor
    # table, a tensor entry that is not an object, an offset that is not a
    # number, and a manifest that is a list rather than an object. An edit
    # changes the manifest in place or returns its replacement.
    edits = [
        (lambda m: m["layers"][1].update(padding="same"), "layer table"),
        (lambda m: m.__delitem__("tensors"), "tensor table"),
        (lambda m: m["tensors"].__setitem__(0, None), "tensor table"),
        (lambda m: m["tensors"][0].update(offset="0"), "tensor table"),
        (lambda m: [m], "not a JSON object"),
    ]
    for edit, message in edits:
        save_model(path, net, ["a", "b", "c"])
        header, rest = path.read_bytes().split(b"\n", 1)
        magic, version, n = header.split()
        manifest = json.loads(rest[:int(n)])
        body = json.dumps(edit(manifest) or manifest).encode("utf-8")
        path.write_bytes(b"%s %s %d\n" % (magic, version, len(body))
                         + body + rest[int(n):])
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
    # more class names than the 3 output units
    save_model(path, net, ["a", "b", "c", "d", "e"])
    with pytest.raises(ModelFormatError, match="3 output units"):
        load_model(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.model")


@pytest.mark.parametrize("key,index,value,message", [
    ("2.var", 1, -1.0, "running variance 2.var has a negative entry"),
    ("2.var", 0, np.inf, "tensor 2.var holds a non-finite value"),
    ("2.mean", 2, np.nan, "tensor 2.mean holds a non-finite value"),
    ("1.kernel", 0, np.nan, "tensor 1.kernel holds a non-finite value"),
    ("6.bias", 1, -np.inf, "tensor 6.bias holds a non-finite value"),
])
def test_unscorable_tensor_rejected(tmp_path, key, index, value, message):
    # values training never leaves; the NaN and the negative variance
    # turn every inference probability NaN
    net = _trained_like_network()
    tensors = net.bn_stats if key in net.bn_stats else net.params
    tensors[key].reshape(-1)[index] = value
    path = tmp_path / "m.model"
    save_model(path, net, ["a", "b", "c"])
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
    # zero in the same place loads; for a running variance it is in range,
    # since BN_EPSILON keeps the sqrt positive
    tensors[key].reshape(-1)[index] = 0.0
    save_model(path, net, ["a", "b", "c"])
    load_model(path)
