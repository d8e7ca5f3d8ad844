"""Model file format: a JSON manifest followed by a binary tensor blob.

Layout::

    CSOCNN-MODEL 1 <manifest_byte_length>\n
    <manifest JSON, UTF-8>
    <blob: little-endian float32, all parameter and running-stat tensors
     in layer order, row-major>

The manifest records the layer specs, input shape, class names, format
version, and a per-tensor table of shapes and byte offsets into the blob.
It may also carry the fingerprint of the feature scaler the model was
trained with and the training-run metrics, both optional.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ModelFormatError
from .nn import LayerSpec, Network

MAGIC = b"CSOCNN-MODEL"
FORMAT_VERSION = 1

# Serialization order of each layer's tensors (parameters, then running stats).
_TENSOR_ORDER = {
    "Conv2D": ("kernel", "bias"),
    "BatchNorm": ("gamma", "beta", "mean", "var"),
    "Dense": ("weight", "bias"),
}


@dataclass
class ModelBundle:
    network: Network
    class_names: list
    scaler_fingerprint: str | None = None
    training_metrics: dict | None = None


def _tensor_names(network):
    for i, spec in enumerate(network.layers):
        for name in _TENSOR_ORDER.get(spec.kind, ()):
            yield f"{i}.{name}", name in ("mean", "var")


def _spec_from_json(d):
    return LayerSpec(
        kind=d["kind"],
        kernel=tuple(d["kernel"]) if d.get("kernel") else None,
        filters_or_units=d.get("filters_or_units"),
        padding=d.get("padding", "valid"),
        activation=d.get("activation", "none"),
    )


def save_model(path, network, class_names, scaler_fingerprint=None,
               training_metrics=None):
    """Serialize a network to the model file format."""
    tensors = []
    blob_parts = []
    offset = 0
    for key, is_stat in _tensor_names(network):
        arr = (network.bn_stats if is_stat else network.params)[key]
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({
            "name": key,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blob_parts.append(raw)
        offset += len(raw)

    manifest = {
        "format_version": FORMAT_VERSION,
        "layers": [asdict(s) for s in network.layers],
        "input_shape": list(network.input_shape),
        "class_names": list(class_names),
        "tensors": tensors,
        "blob_nbytes": offset,
    }
    if scaler_fingerprint is not None:
        manifest["scaler_fingerprint"] = scaler_fingerprint
    if training_metrics is not None:
        manifest["training_metrics"] = training_metrics

    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + b" %d %d\n" % (FORMAT_VERSION, len(body)))
        fh.write(body)
        fh.write(b"".join(blob_parts))
    return path


def load_model(path):
    """Read a model file back into a ModelBundle.

    Raises ModelFormatError whenever the header, manifest, or blob are
    inconsistent (wrong magic, truncated blob, malformed tensor table, a
    table whose entries do not tile the blob in layer order, shape mismatch,
    class names that do not match the output units) or a tensor
    cannot be scored (a non-finite value, a negative running variance).
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != MAGIC:
            raise ModelFormatError(f"{path}: not a model file")
        try:
            version, manifest_len = int(parts[1]), int(parts[2])
        except ValueError:
            raise ModelFormatError(f"{path}: malformed header") from None
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported format version {version}")
        body = fh.read(manifest_len)
        if len(body) != manifest_len:
            raise ModelFormatError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"{path}: manifest is not valid JSON") from exc
        blob = fh.read()

    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{path}: manifest is not a JSON object")
    if len(blob) != manifest.get("blob_nbytes"):
        raise ModelFormatError(
            f"{path}: blob has {len(blob)} bytes, manifest says "
            f"{manifest.get('blob_nbytes')}")

    try:
        layers = [_spec_from_json(d) for d in manifest["layers"]]
        network = Network(layers, manifest["input_shape"], seed=None)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad layer table ({exc})") from exc

    try:
        table = {t["name"]: t for t in manifest["tensors"]}
        end = 0  # where the tensors read so far end in the blob
        for key, is_stat in _tensor_names(network):
            entry = table.pop(key, None)
            if entry is None:
                raise ModelFormatError(f"{path}: tensor {key} missing from manifest")
            target = (network.bn_stats if is_stat else network.params)[key]
            if tuple(entry["shape"]) != target.shape:
                raise ModelFormatError(
                    f"{path}: tensor {key} shape {entry['shape']} does not match "
                    f"architecture shape {target.shape}")
            offset, nbytes = entry["offset"], entry["nbytes"]
            # the tensors tile the blob in layer order, as save_model writes
            # them, so no entry can read another's bytes or outside the blob
            if (type(offset) is not int or type(nbytes) is not int
                    or offset != end or nbytes != target.size * 4):
                raise ModelFormatError(
                    f"{path}: bad tensor table: {key} spans {offset!r} "
                    f"+ {nbytes!r} bytes, expected {end} + {target.size * 4}")
            end += nbytes
            raw = blob[offset:end]
            if len(raw) != nbytes:
                raise ModelFormatError(f"{path}: blob truncated at tensor {key}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(target.shape)
            # training leaves neither; through a NaN weight or the sqrt of a
            # negative variance every score comes out NaN, which no
            # threshold flags, so every row would read as normal
            if not np.isfinite(arr).all():
                raise ModelFormatError(
                    f"{path}: tensor {key} holds a non-finite value")
            if key.endswith(".var") and (arr < 0).any():
                raise ModelFormatError(
                    f"{path}: running variance {key} has a negative entry")
            if is_stat:
                network.bn_stats[key] = arr.astype(network.dtype)
            else:
                network.params[key] = arr.astype(network.dtype)
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"{path}: bad tensor table ({exc!r})") from exc
    if table:
        raise ModelFormatError(f"{path}: manifest lists unknown tensors {sorted(table)}")
    if end != len(blob):
        raise ModelFormatError(
            f"{path}: blob has {len(blob)} bytes, its tensors end at {end}")

    class_names = manifest.get("class_names")
    if not isinstance(class_names, list) or len(class_names) != network.num_classes:
        raise ModelFormatError(f"{path}: class names {class_names!r} do not "
                               f"match the {network.num_classes} output units")
    return ModelBundle(
        network=network,
        class_names=class_names,
        scaler_fingerprint=manifest.get("scaler_fingerprint"),
        training_metrics=manifest.get("training_metrics"),
    )
