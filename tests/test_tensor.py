"""The network's input batches and outputs are plain numpy arrays."""
import numpy as np

from conftest import toy_layers
from csocnn import data, nn
from csocnn.nn import forward


def test_numpy_interop():
    flows = data.make_synthetic_blobs(20, k_classes=2, d=9, seed=0)
    batch, labels = data.prepare_dataset(flows).train
    assert np.asarray(batch) is batch
    assert len(batch) == len(labels) == 14

    net = nn.Network(toy_layers(), (9, 1, 1), seed=0)
    probs, _ = forward(net, batch, "inference")
    assert np.asarray(probs) is probs
    assert len(probs) == 14
