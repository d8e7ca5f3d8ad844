"""Mini-batch Adam training with early stopping and best-model
checkpointing.

The best model is kept in memory; the caller saves it. At every epoch end
the network is kept first, when validation accuracy is strictly above the
best seen so far (so it is kept even when the same epoch triggers the stop),
then training stops after EARLY_STOP_PATIENCE epochs in a row without such
an improvement. The learning rate stays at the configured initial rate.

A training call may take a lane (open_lane): a one-thread executor that
runs each step's conv kernel-gradient GEMMs beside the input gradients
(nn.backward), for the same bits. It opens only in a process with a core
to spare, which default_workers also measures for the swarm's pool.
"""

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDiverged
from .nn import Network, backward, forward, loss_sparse_ce, predict
from .optim import AdamState, adam_step

MIN_LR = 1e-5  # the smallest accepted initial learning rate
EARLY_STOP_PATIENCE = 2  # epochs without improvement before stopping


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 640
    initial_lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not MIN_LR <= self.initial_lr < math.inf:
            raise ValueError(f"initial_lr must be finite and at least {MIN_LR}")


@dataclass
class TrainingState:
    """Epoch histories plus the keep-best and early-stop bookkeeping."""

    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_val_acc: float = -math.inf
    best_val_loss: float | None = None
    best_epoch: int | None = None
    best_network: Network | None = None
    stall_epochs: int = 0
    stopped_early: bool = False

    def record_epoch(self, epoch, train_loss, train_acc, val_loss, val_acc, lr):
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.train_acc.append(train_acc)
        self.val_loss.append(val_loss)
        self.val_acc.append(val_acc)
        self.lr.append(lr)

    def history_to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "train_acc",
                             "val_loss", "val_acc", "lr"])
            for row in zip(self.epochs, self.train_loss, self.train_acc,
                           self.val_loss, self.val_acc, self.lr):
                writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
        return path


def epoch_end(network, state, epoch, val_loss, val_acc):
    """Keep the best network and decide early stopping; returns True when
    training should stop.

    A val_acc strictly above the best seen keeps a copy of the network and
    resets the stall counter; a tie or a regression keeps nothing and
    counts a stalled epoch."""
    if val_acc > state.best_val_acc:
        state.best_network = network.clone()
        state.best_val_acc = val_acc
        state.best_val_loss = val_loss
        state.best_epoch = epoch
        state.stall_epochs = 0
    else:
        state.stall_epochs += 1
    return state.stall_epochs >= EARLY_STOP_PATIENCE


def evaluate(network, dataset):
    """Inference-mode (loss, accuracy, predictions, probabilities)."""
    y = np.asarray(dataset[1])
    probs = predict(network, dataset[0])
    loss = loss_sparse_ce(probs, y)
    predictions = probs.argmax(axis=1)
    accuracy = float(np.mean(predictions == y)) if len(y) else 0.0
    return loss, accuracy, predictions, probs


def train(network, train_set, val_set, config, lane=None):
    """Seeded mini-batch training; returns (best network, state).

    Shuffles every epoch, keeps the last partial batch, evaluates validation
    at epoch end, applies epoch_end, and returns the copy of the network
    kept at the best epoch. Raises TrainingDiverged on a non-finite batch
    or validation loss; numpy's floating-point warnings on the way there are
    silenced, in the lane's GEMMs too, so the exception is the one report
    of a divergence. lane goes to every nn.backward; it changes no bits.
    """
    x_train, y_train = np.asarray(train_set[0]), np.asarray(train_set[1])
    state = TrainingState()
    adam = AdamState(learning_rate=config.initial_lr)
    rng = np.random.default_rng(config.seed)
    n = len(y_train)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n)
            loss_sum = 0.0
            correct = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                xb, yb = x_train[idx], y_train[idx]
                probs, cache = forward(network, xb, "train")
                batch_loss = loss_sparse_ce(probs, yb)
                if not math.isfinite(batch_loss):
                    raise TrainingDiverged(
                        f"non-finite loss in epoch {epoch} at sample {start}")
                loss_sum += batch_loss * len(yb)
                correct += int((probs.argmax(axis=1) == yb).sum())
                grads = backward(network, cache, yb, lane)
                adam_step(adam, network.params, grads)

            val_loss, val_acc, _, _ = evaluate(network, val_set)
            if not math.isfinite(val_loss):
                raise TrainingDiverged(
                    f"non-finite validation loss in epoch {epoch}")
            state.record_epoch(epoch, loss_sum / n, correct / n,
                               val_loss, val_acc, config.initial_lr)
            if epoch_end(network, state, epoch, val_loss, val_acc):
                state.stopped_early = True
                break

    return state.best_network, state


def train_new(layers, train_set, val_set, config, lane=None):
    """Train a fresh network of the given layers, initialized from the
    config's seed, on the training set's sample shape; returns train's
    (best network, state)."""
    network = Network(layers, np.shape(train_set[0])[1:], seed=config.seed)
    return train(network, train_set, val_set, config, lane)


def default_workers():
    """Trainings to run at once: the usable cores over the BLAS threads
    each training's products use, at least 1. The BLAS threads are the
    first positive integer in OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS;
    with neither set, OpenBLAS starts one per core. Without fork (the
    swarm's workers' start method) it is 1."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdecimal() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def open_lane():
    """A one-thread executor for train's lane when default_workers() leaves
    a core to spare, else a null context giving None. Both are context
    managers; leaving the executor joins its thread, so the lane lives for
    one training call and no thread outlives it into a later fork. On one
    core the lane's thread would only take turns with the caller's."""
    if default_workers() == 1:
        return contextlib.nullcontext()
    # imported here, as the swarm's process pool is: detect and evaluate
    # never train, and need not load it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1)
