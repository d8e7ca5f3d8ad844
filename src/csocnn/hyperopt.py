"""Hyperparameter search: the swarm proposes points in the unit cube, each
point decodes to (learning rate, batch size, epochs), and a fresh seeded
network trained with those values returns its validation fitness.

Fitness is the lexicographic pair (validation accuracy desc, validation
loss asc) — no scalar blend. The swarm maximizes it directly; roulette
weights project to the accuracy component.
"""

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cso
from .errors import TrainingDiverged
from .nn import Network
from .trainer import TrainConfig, train


@dataclass(frozen=True)
class SearchSpace:
    """Box ranges for the tuned quantities; the learning rate is searched in
    log10 space."""

    lr_range: tuple = (1e-4, 1e-2)
    batch_range: tuple = (32, 1024)
    epoch_range: tuple = (1, 5)

    def __post_init__(self):
        for name, (lo, hi) in (("lr_range", self.lr_range),
                               ("batch_range", self.batch_range),
                               ("epoch_range", self.epoch_range)):
            if not 0 < lo < hi < math.inf:
                raise ValueError(
                    f"{name} must satisfy 0 < lo < hi < inf, got {(lo, hi)}")


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float
    batch_size: int
    epochs: int

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@functools.total_ordering
@dataclass(frozen=True)
class Fitness:
    """Ordered by accuracy first, ties broken by lower loss."""

    val_accuracy: float
    val_loss: float

    def _key(self):
        return (self.val_accuracy, -self.val_loss)

    def __eq__(self, other):
        return self._key() == other._key()

    def __lt__(self, other):
        return self._key() < other._key()


WORST_FITNESS = Fitness(val_accuracy=0.0, val_loss=float("inf"))


def decode(position, space):
    """Map a unit-cube point to hyperparameters: log-linear for the learning
    rate, rounded linear for batch size and epochs."""
    p0, p1, p2 = (float(v) for v in position)
    lr_lo, lr_hi = space.lr_range
    lr = 10.0 ** (math.log10(lr_lo) + p0 * (math.log10(lr_hi) - math.log10(lr_lo)))
    lr = min(max(lr, lr_lo), lr_hi)
    b_lo, b_hi = space.batch_range
    e_lo, e_hi = space.epoch_range
    return HyperParams(
        learning_rate=lr,
        batch_size=round(b_lo + p1 * (b_hi - b_lo)),
        epochs=round(e_lo + p2 * (e_hi - e_lo)),
    )


def default_workers():
    """Candidate trainings to run at once: the usable cores over the BLAS
    threads each training's products use, at least 1. The BLAS threads are
    the first positive integer in OPENBLAS_NUM_THREADS, then
    OMP_NUM_THREADS; with neither set, OpenBLAS starts one per core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdecimal() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def candidate_seed(global_seed, cat_index, iteration):
    """Stable per-candidate seed so every evaluation is independent and
    reproducible."""
    ss = np.random.SeedSequence(
        [int(global_seed) & 0xFFFFFFFF, int(cat_index), int(iteration)])
    return int(ss.generate_state(1)[0])


def evaluate_candidate(hp, datasets, arch, seed):
    """Train a fresh seeded network with hp; return the validation Fitness
    of its best epoch.

    datasets is a ((x_train, y_train), (x_val, y_val)) pair. A diverged
    training run (non-finite loss) comes back as the worst possible fitness
    so the swarm routes around it.
    """
    train_set, val_set = datasets
    input_shape = np.shape(train_set[0])[1:]
    network = Network(arch, input_shape, seed=seed)
    config = TrainConfig(
        epochs=hp.epochs,
        batch_size=hp.batch_size,
        initial_lr=hp.learning_rate,
        seed=seed,
    )
    try:
        _, state = train(network, train_set, val_set, config)
    except TrainingDiverged:
        return WORST_FITNESS
    return Fitness(val_accuracy=state.best_val_acc, val_loss=state.best_val_loss)


def optimize_hyperparams(space, datasets, arch, swarm_config):
    """Run the swarm over the unit cube with training-based fitness.

    Returns (best HyperParams, best Fitness, SwarmHistory). The history's
    float projection is validation accuracy, so its best-value sequence is
    non-decreasing.
    """
    def fitness(position, ctx):
        hp = decode(position, space)
        seed = candidate_seed(swarm_config.seed, ctx.cat_index, ctx.iteration)
        return evaluate_candidate(hp, datasets, arch, seed)

    best_position, best_fitness, history = cso.optimize(
        fitness, [(0.0, 1.0)] * 3, swarm_config,
        weight_key=lambda f: f.val_accuracy)
    return decode(best_position, space), best_fitness, history


def save_best(path, hp, fitness):
    """Best-hyperparameters record as structured text."""
    payload = {
        "learning_rate": hp.learning_rate,
        "batch_size": hp.batch_size,
        "epochs": hp.epochs,
        "val_accuracy": fitness.val_accuracy,
        "val_loss": fitness.val_loss,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path
