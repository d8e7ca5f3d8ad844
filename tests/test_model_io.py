import numpy as np
import pytest

from conftest import rewrite_manifest, toy_layers
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
    # valid JSON: a Conv2D padding the network does not support; a
    # valid-padding, a 3 x 1, a 2 x 2 and a float-kernel pool, a conv with a
    # ReLU, a conv with no BatchNorm after it and a BatchNorm after a pool,
    # none of which the network runs; no tensor table, a tensor entry that
    # is not an object, an offset that is not a number, and a manifest that
    # is a list rather than an object
    edits = [
        (lambda m: m["layers"][1].update(padding="same"), "layer table"),
        (lambda m: m["layers"][3].update(padding="valid"), "layer table"),
        (lambda m: m["layers"][3].update(kernel=[3, 1]), "layer table"),
        (lambda m: m["layers"][3].update(kernel=[2, 2]), "layer table"),
        (lambda m: m["layers"][3].update(kernel=[2.0, 1]), "layer table"),
        (lambda m: m["layers"][1].update(activation="relu"), "layer table"),
        (lambda m: m["layers"].pop(2) and None, "layer table"),
        (lambda m: m["layers"].insert(4, dict(m["layers"][2])),
         "layer table"),
        (lambda m: m.__delitem__("tensors"), "tensor table"),
        (lambda m: m["tensors"].__setitem__(0, None), "tensor table"),
        (lambda m: m["tensors"][0].update(offset="0"), "tensor table"),
        (lambda m: [m], "not a JSON object"),
    ]
    for edit, message in edits:
        save_model(path, net, ["a", "b", "c"])
        rewrite_manifest(path, edit)
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


def _tensor(manifest, name):
    return next(t for t in manifest["tensors"] if t["name"] == name)


def _aliased(manifest):
    # 1.kernel reads the first bytes of 4.kernel
    _tensor(manifest, "1.kernel")["offset"] = _tensor(manifest, "4.kernel")["offset"]


def _negative(manifest):
    # a slice from the blob's end reads 4.kernel's own bytes
    entry = _tensor(manifest, "4.kernel")
    entry["offset"] -= manifest["blob_nbytes"]


def _bool_offset(manifest):
    # JSON false, which Python slices as 0
    _tensor(manifest, "1.kernel")["offset"] = False


def _trailing_bytes(manifest):
    # blob_nbytes agrees with the blob, but no tensor reads its last 4 bytes
    manifest["blob_nbytes"] += 4


@pytest.mark.parametrize("edit,tail,message", [
    (_aliased, b"", "bad tensor table: 1.kernel spans 2816 \\+ 1536 bytes, "
                    "expected 0 \\+ 1536"),
    (_negative, b"", "bad tensor table: 4.kernel spans -"),
    (_bool_offset, b"", "bad tensor table: 1.kernel spans False"),
    (_trailing_bytes, b"\0" * 4, "its tensors end at"),
])
def test_tensor_table_must_tile_the_blob(tmp_path, edit, tail, message):
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=0)
    path = tmp_path / "m.model"
    save_model(path, net, list("abcde"))
    load_model(path)
    rewrite_manifest(path, edit, tail)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
