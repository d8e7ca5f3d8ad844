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
    layers = [nn.input_layer(), nn.conv2d(8, (3, 1)), nn.batch_norm()]
    assert nn.infer_shapes(layers, (10, 1, 1))[1:] == [(8, 1, 8)] * 2


def test_kernel_too_large_raises():
    layers = [nn.input_layer(), nn.conv2d(4, (11, 1)), nn.batch_norm()]
    with pytest.raises(ShapeError, match="does not fit"):
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
    net = nn.Network([nn.input_layer(), nn.conv2d(64, (6, 1)),
                      nn.batch_norm()], FLOW_INPUT)
    # the conv's 448 and the BatchNorm's 4 x 64
    assert nn.count_params(net) == (448 + 256, 448 + 128, 128)


def test_input_flatten_only_network_has_no_params():
    net = nn.Network([nn.input_layer(), nn.flatten()], (4, 1, 1), seed=0)
    assert nn.count_params(net) == (0, 0, 0)


def test_batchnorm_non_trainable_split():
    net = nn.Network([nn.input_layer(), nn.conv2d(8, (2, 1)), nn.batch_norm()],
                     (6, 1, 1))
    assert nn.count_params(net) == (24 + 32, 24 + 16, 16)


@pytest.mark.parametrize("spec,message", [
    (dict(kind="Conv2D", kernel=(0, 1), filters_or_units=4), ">= 1"),
    (dict(kind="Conv2D", kernel=(3, 1), filters_or_units=4, padding="same"),
     "needs valid padding"),
    (dict(kind="Dense", filters_or_units=0), "filters_or_units >= 1"),
    (dict(kind="Dense", filters_or_units=3, activation="gelu"),
     "unknown activation"),
    # layers outside the stacks the network runs
    (dict(kind="MaxPool2D", kernel=(2, 1)), "needs same padding"),
    (dict(kind="MaxPool2D", kernel=(2, 1), padding="full"),
     "needs same padding"),
    (dict(kind="Dense", filters_or_units=3, padding="same"),
     "needs valid padding"),
    (dict(kind="MaxPool2D", kernel=(3, 1), padding="same"), "2 x 1 or 1 x 2"),
    (dict(kind="MaxPool2D", kernel=(2, 2), padding="same"), "2 x 1 or 1 x 2"),
    (dict(kind="MaxPool2D", kernel=(1, 1), padding="same"), "2 x 1 or 1 x 2"),
    (dict(kind="MaxPool2D", kernel=(2.0, 1), padding="same"),
     "2 x 1 or 1 x 2"),
    (dict(kind="MaxPool2D", padding="same"), "2 x 1 or 1 x 2"),
    (dict(kind="Conv2D", kernel=(3, 1), filters_or_units=4,
          activation="relu"), "no activation"),
])
def test_layer_spec_validation(spec, message):
    with pytest.raises(ShapeError, match=message):
        nn.LayerSpec(**spec)


@pytest.mark.parametrize("layers,message", [
    # a conv with no BatchNorm after it, last or not
    ([nn.input_layer(), nn.conv2d(4, (3, 1))], "not followed by a BatchNorm"),
    ([nn.input_layer(), nn.conv2d(4, (3, 1)), nn.max_pool2d((2, 1)),
      nn.batch_norm()], "not followed by a BatchNorm"),
    # a BatchNorm reading the input, a pool or another BatchNorm
    ([nn.input_layer(), nn.batch_norm()], "does not read a Conv2D"),
    ([nn.input_layer(), nn.max_pool2d((2, 1)), nn.batch_norm()],
     "does not read a Conv2D"),
    ([nn.input_layer(), nn.conv2d(4, (3, 1)), nn.batch_norm(),
      nn.batch_norm()], "does not read a Conv2D"),
])
def test_infer_shapes_rejects_stacks_outside_the_contract(layers, message):
    with pytest.raises(ShapeError, match=message):
        nn.infer_shapes(layers, (9, 1, 2))


@pytest.mark.parametrize("k", range(2, 12))
def test_default_architecture_builds_for_every_class_count(k):
    net = nn.Network(nn.default_architecture(k), FLOW_INPUT, seed=0)
    assert net.num_classes == k
