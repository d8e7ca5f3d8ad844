import concurrent.futures
import warnings

import numpy as np
import pytest

from conftest import poison_update, toy_layers
from csocnn import data, nn, trainer
from csocnn.errors import TrainingDiverged
from csocnn.nn import forward


def _scripted_run(val_accs, network=None):
    """Drive epoch_end with a scripted val-acc sequence.

    Returns (stop epoch or None, state)."""
    network = network or nn.Network(toy_layers(2), (4, 1, 1), seed=0)
    state = trainer.TrainingState()
    stopped_at = None
    for epoch, val_acc in enumerate(val_accs, start=1):
        stop = trainer.epoch_end(network, state, epoch,
                                 val_loss=1.0 - val_acc, val_acc=val_acc)
        if stop:
            stopped_at = epoch
            break
    return stopped_at, state


@pytest.mark.parametrize("env, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "4"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
], ids=["openblas-1", "unset", "omp-only", "non-numeric-then-omp",
        "zero-then-omp", "non-numeric", "more-threads-than-cores"])
def test_default_workers_divides_cores_by_blas_threads(monkeypatch, env,
                                                        expected):
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert trainer.default_workers() == expected


def test_default_workers_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(trainer.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(trainer.os, "cpu_count", lambda: 6)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert trainer.default_workers() == 3


def test_default_workers_without_fork_is_1(monkeypatch):
    # the swarm's workers are forked: without fork the swarm runs serially
    monkeypatch.delattr(trainer.os, "fork", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert trainer.default_workers() == 1


def test_train_config_rejects_out_of_range():
    with pytest.raises(ValueError):
        trainer.TrainConfig(epochs=0, batch_size=64, initial_lr=1e-3)
    with pytest.raises(ValueError):
        trainer.TrainConfig(epochs=1, batch_size=64, initial_lr=0.0)


def test_early_stop_after_two_non_improving_epochs():
    stopped, state = _scripted_run([0.90, 0.89, 0.88])
    assert stopped == 3
    assert state.best_epoch == 1


def test_early_stop_never_fires_before_patience_plus_one():
    stopped, _ = _scripted_run([0.5, 0.4])
    assert stopped is None  # only 2 epochs ran; needs patience+1 = 3


def test_counters_reset_on_improvement():
    # never two consecutive stalls
    stopped, _ = _scripted_run([0.5, 0.4, 0.6, 0.5, 0.7, 0.6])
    assert stopped is None


def test_first_epoch_always_checkpoints():
    network = nn.Network(toy_layers(2), (4, 1, 1), seed=0)
    _, state = _scripted_run([0.1], network)
    assert state.best_epoch == 1
    # a copy, so later training does not move it
    best = state.best_network
    assert best is not network
    for key, value in network.params.items():
        assert np.array_equal(best.params[key], value)
        assert not np.shares_memory(best.params[key], value)


def test_tie_does_not_checkpoint():
    network = nn.Network(toy_layers(2), (4, 1, 1), seed=0)
    _, state = _scripted_run([0.8, 0.8], network)
    assert state.best_epoch == 1


@pytest.fixture(scope="module")
def trained(small_blobs_module):
    prep = small_blobs_module
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=3)
    config = trainer.TrainConfig(epochs=3, batch_size=128, initial_lr=1e-3,
                                 seed=3)
    best, state = trainer.train(net, prep.train, prep.val, config)
    return prep, best, state, config


@pytest.fixture(scope="module")
def small_blobs_module():
    flows = data.make_synthetic_blobs(900, k_classes=5, d=75,
                                      separation=3.0, seed=21)
    return data.prepare_dataset(flows, seed=21)


def test_histories_line_up(trained):
    _, _, state, _ = trained
    n = len(state.epochs)
    for series in (state.train_loss, state.train_acc, state.val_loss,
                   state.val_acc, state.lr):
        assert len(series) == n
    assert state.best_val_acc == max(state.val_acc)


def test_every_epoch_records_the_initial_lr(trained):
    _, _, state, config = trained
    assert state.lr == [config.initial_lr] * len(state.epochs)


def test_train_returns_the_best_epochs_network(small_blobs_module,
                                               monkeypatch):
    snapshots = {}
    epoch_end = trainer.epoch_end

    def snapshot_then_epoch_end(network, state, epoch, *rest):
        snapshots[epoch] = network.clone()
        return epoch_end(network, state, epoch, *rest)

    monkeypatch.setattr(trainer, "epoch_end", snapshot_then_epoch_end)
    prep = small_blobs_module
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=3)
    config = trainer.TrainConfig(epochs=4, batch_size=128, initial_lr=1e-2,
                                 seed=3)
    best, state = trainer.train(net, prep.train, prep.val, config)
    assert best is state.best_network
    assert state.best_epoch < len(state.epochs)  # later epochs changed net
    expected = snapshots[state.best_epoch]
    for key, value in expected.params.items():
        assert np.array_equal(best.params[key], value)
    for key, value in expected.bn_stats.items():
        assert np.array_equal(best.bn_stats[key], value)


def test_training_keeps_conv_biases_before_batch_norm_at_zero(
        small_blobs_module):
    prep = small_blobs_module
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=2)
    config = trainer.TrainConfig(epochs=2, batch_size=128, initial_lr=1e-2,
                                 seed=2)
    best, _ = trainer.train(net, prep.train, prep.val, config)
    for network in (net, best):
        for i, spec in enumerate(network.layers):
            if spec.kind == "Conv2D":
                bias = network.params[f"{i}.bias"]
                assert bias.tobytes() == np.zeros_like(bias).tobytes(), i
        # the Dense biases did train
        assert np.any(network.params["11.bias"] != 0)


def test_training_is_deterministic(small_blobs_module):
    prep = small_blobs_module
    histories = []
    for run in range(2):
        net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=5)
        config = trainer.TrainConfig(epochs=2, batch_size=128, seed=5)
        _, state = trainer.train(net, prep.train, prep.val, config)
        histories.append((state.train_loss, state.val_acc, state.lr))
    assert histories[0] == histories[1]


def test_partial_last_batch_is_trained(small_blobs_module):
    prep = small_blobs_module
    n = len(prep.train[1])
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=1)
    config = trainer.TrainConfig(epochs=1, batch_size=n - 1, seed=1)
    _, state = trainer.train(net, prep.train, prep.val, config)
    assert len(state.epochs) == 1  # ran, with a 1-sample trailing batch


def test_divergence_raises(small_blobs_module):
    prep = small_blobs_module
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=1)
    net.params["13.weight"][:] = np.nan  # poisoned weights -> non-finite loss
    config = trainer.TrainConfig(epochs=1, batch_size=64, seed=1)
    with pytest.raises(TrainingDiverged):
        trainer.train(net, prep.train, prep.val, config)


def test_overflow_in_the_lane_raises_training_diverged():
    # a conv at layer 2 whose input is ~1e20 and whose output gradient is
    # ~1e25 / n: the forward and the loss stay finite, and only the kernel
    # gradient GEMM, which runs in the lane, overflows. Without the caller's
    # error state the lane's thread would warn, here an error.
    layers = [nn.input_layer(), nn.conv2d(2, (1, 1), activation="relu"),
              nn.conv2d(2, (1, 1)), nn.flatten(),
              nn.dense(3, activation="softmax")]
    net = nn.Network(layers, (6, 1, 1), seed=0)
    net.params["1.kernel"][...] = [[[[1e20, -1e20]]]]
    net.params["2.kernel"] *= 1e-15
    net.params["4.weight"] *= 1e25
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 6, 1, 1)).astype(np.float32)
    y = rng.integers(0, 3, size=32)
    config = trainer.TrainConfig(epochs=1, batch_size=8, seed=0)
    with (concurrent.futures.ThreadPoolExecutor(1) as lane,
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged):
            trainer.train(net, (x, y), (x, y), config, lane)


def test_non_finite_validation_loss_raises(small_blobs_module, monkeypatch):
    # the epoch's last update is the first non-finite one: every batch loss
    # is finite, and only the validation pass sees the NaN
    prep = small_blobs_module
    config = trainer.TrainConfig(epochs=1, batch_size=64, seed=1)
    poison_update(monkeypatch, -(-len(prep.train[1]) // config.batch_size))
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=1)
    with pytest.raises(TrainingDiverged, match="validation loss in epoch 1"):
        trainer.train(net, prep.train, prep.val, config)


def test_evaluate_all_correct_fixture():
    net = nn.Network([nn.input_layer(), nn.dense(2, activation="softmax")],
                     (2,), seed=0)
    net.params["1.weight"][:] = [[10.0, -10.0], [-10.0, 10.0]]
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1, 0])
    loss, acc, preds, probs = trainer.evaluate(net, (x, y))
    assert acc == 1.0
    assert preds.tolist() == [0, 1, 0]
    assert probs.shape == (3, 2)


def test_evaluate_uniform_network_is_chance(small_blobs_module):
    prep = small_blobs_module
    net = nn.Network([nn.input_layer(), nn.flatten(),
                      nn.dense(5, activation="softmax")], (75, 1, 1), seed=0)
    net.params["2.weight"][:] = 0.0
    _, acc, _, probs = trainer.evaluate(net, prep.test)
    assert acc == pytest.approx(0.2, abs=0.08)
    assert np.allclose(probs, 0.2, atol=1e-6)


def test_evaluate_probabilities_pass_through_unrenormalized(trained):
    prep, best, _, _ = trained
    x, y = prep.test
    _, _, _, probs = trainer.evaluate(best, (x, y))
    direct, _ = forward(best, x[:len(y)], "inference")
    assert np.array_equal(probs, direct)


def test_history_csv_export(trained, tmp_path):
    _, _, state, _ = trained
    path = state.history_to_csv(tmp_path / "history.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
    assert len(lines) == len(state.epochs) + 1
