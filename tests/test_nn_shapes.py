import pytest

from csocnn import nn
from csocnn.errors import ShapeError

FLOW_INPUT = (75, 1, 1)

# Expected per-layer output shapes of the 75-feature flow classifier.
FLOW_SHAPES = [
    (75, 1, 1), (70, 1, 64), (70, 1, 64), (35, 1, 64),
    (33, 1, 64), (33, 1, 64), (17, 1, 64),
    (15, 1, 64), (15, 1, 64), (8, 1, 64),
    (512,), (64,), (32,), (5,),
]

FLOW_PARAM_CELLS = [0, 448, 256, 0, 12352, 256, 0, 12352, 256, 0, 0,
                    32832, 2080, 165]


def test_flow_classifier_shapes():
    shapes = nn.infer_shapes(nn.default_architecture(), FLOW_INPUT)
    assert shapes == FLOW_SHAPES


def test_dense_identity_case():
    layers = [nn.input_layer(), nn.dense(5)]
    assert nn.infer_shapes(layers, (5,)) == [(5,), (5,)]


def test_conv_shape_arithmetic():
    layers = [nn.input_layer(), nn.conv2d(8, (3, 1))]
    assert nn.infer_shapes(layers, (10, 1, 1))[-1] == (8, 1, 8)


def test_kernel_too_large_raises():
    layers = [nn.input_layer(), nn.conv2d(4, (11, 1))]
    with pytest.raises(ShapeError):
        nn.infer_shapes(layers, (10, 1, 1))


def test_missing_input_layer_raises():
    with pytest.raises(ShapeError):
        nn.infer_shapes([nn.dense(3)], (4,))


def test_dense_on_rank3_raises():
    layers = [nn.input_layer(), nn.dense(3)]
    with pytest.raises(ShapeError):
        nn.infer_shapes(layers, (4, 1, 1))


def test_flow_classifier_param_counts():
    net = nn.Network(nn.default_architecture(), FLOW_INPUT, seed=0)
    assert nn.count_params(net) == (60997, 60613, 384)


def _layer_sizes(net):
    """Per-layer parameter and running-stat sizes, from the tensor names."""
    sizes = [0] * len(net.layers)
    for name, tensor in [*net.params.items(), *net.bn_stats.items()]:
        sizes[int(name.split(".")[0])] += tensor.size
    return sizes


def test_flow_classifier_param_breakdown():
    net = nn.Network(nn.default_architecture(), FLOW_INPUT, seed=0)
    assert _layer_sizes(net) == FLOW_PARAM_CELLS


def test_first_conv_param_cell():
    net = nn.Network([nn.input_layer(), nn.conv2d(64, (6, 1))], FLOW_INPUT)
    assert nn.count_params(net) == (448, 448, 0)


def test_input_flatten_only_network_has_no_params():
    net = nn.Network([nn.input_layer(), nn.flatten()], (4, 1, 1), seed=0)
    assert nn.count_params(net) == (0, 0, 0)


def test_batchnorm_non_trainable_split():
    net = nn.Network([nn.input_layer(), nn.conv2d(8, (2, 1)), nn.batch_norm()],
                     (6, 1, 1))
    assert nn.count_params(net) == (24 + 32, 24 + 16, 16)


def test_layer_spec_validation():
    with pytest.raises(ShapeError):
        nn.LayerSpec("Conv2D", kernel=(0, 1), filters_or_units=4)
    with pytest.raises(ShapeError):
        nn.LayerSpec("Conv2D", kernel=(3, 1), filters_or_units=4,
                     padding="same")
    with pytest.raises(ShapeError):
        nn.LayerSpec("Dense", filters_or_units=0)
    with pytest.raises(ShapeError):
        nn.LayerSpec("Dense", filters_or_units=3, activation="gelu")
