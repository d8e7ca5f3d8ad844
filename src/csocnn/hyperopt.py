"""Hyperparameter search: the swarm proposes points in the unit cube, each
point decodes to a trainer.TrainConfig (learning rate, batch size, epochs),
and a fresh seeded network trained with it returns its validation fitness.

Fitness is the lexicographic pair (validation accuracy desc, validation
loss asc) — no scalar blend. The swarm maximizes it directly; roulette
weights project to the accuracy component.

With more than one worker, candidates train in forked worker processes:
at the small batches the swarm tries, a training step is too short for
numpy to release the GIL for long, so threads would run it mostly one at
a time. The swarm's thread pool still schedules the candidates, and each
of its threads waits on one worker, so every candidate is one
evaluate_candidate call in this process.
"""

import contextlib
import functools
import json
import math
import os
import signal
from dataclasses import dataclass, replace

import numpy as np

from . import cso
from .errors import TrainingDiverged
from .trainer import MIN_LR, TrainConfig, train_new


@dataclass(frozen=True)
class SearchSpace:
    """Box ranges for the tuned quantities; the learning rate is searched in
    log10 space and starts no lower than the trainer's MIN_LR."""

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
        if self.lr_range[0] < MIN_LR:
            raise ValueError(
                f"lr_range must start at or above {MIN_LR}, got {self.lr_range}")


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
    """Map a unit-cube point to a TrainConfig: log-linear for the learning
    rate, rounded linear for batch size and epochs; the seed is left at its
    default."""
    p0, p1, p2 = (float(v) for v in position)
    lr_lo, lr_hi = space.lr_range
    lr = 10.0 ** (math.log10(lr_lo) + p0 * (math.log10(lr_hi) - math.log10(lr_lo)))
    lr = min(max(lr, lr_lo), lr_hi)
    b_lo, b_hi = space.batch_range
    e_lo, e_hi = space.epoch_range
    return TrainConfig(
        epochs=round(e_lo + p2 * (e_hi - e_lo)),
        batch_size=round(b_lo + p1 * (b_hi - b_lo)),
        initial_lr=lr,
    )


def default_workers():
    """Candidate trainings to run at once: the usable cores over the BLAS
    threads each training's products use, at least 1. The BLAS threads are
    the first positive integer in OPENBLAS_NUM_THREADS, then
    OMP_NUM_THREADS; with neither set, OpenBLAS starts one per core.
    Without fork (the workers' start method) it is 1."""
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


def candidate_seed(global_seed, cat_index, iteration):
    """Stable per-candidate seed so every evaluation is independent and
    reproducible."""
    ss = np.random.SeedSequence(
        [int(global_seed) & 0xFFFFFFFF, int(cat_index), int(iteration)])
    return int(ss.generate_state(1)[0])


def _train_candidate(config, datasets, arch):
    """The validation Fitness of the best epoch of a fresh network of arch
    trained with config, or WORST_FITNESS when the training diverges. Runs
    in a pool worker, or in the caller's process when there is no pool."""
    try:
        _, state = train_new(arch, *datasets, config)
    except TrainingDiverged:
        return WORST_FITNESS
    return Fitness(val_accuracy=state.best_val_acc, val_loss=state.best_val_loss)


def evaluate_candidate(config, datasets, arch, pool=None):
    """Train a fresh network of arch with config (trainer.train_new); return
    the validation Fitness of its best epoch.

    datasets is a ((x_train, y_train), (x_val, y_val)) pair. A diverged
    training run (non-finite loss) comes back as the worst possible fitness
    so the swarm routes around it. With a pool (a process executor) the
    training runs in one of its workers and this call waits for it; an
    exception in the worker is raised here, and a worker that dies raises
    BrokenProcessPool.
    """
    if pool is None:
        return _train_candidate(config, datasets, arch)
    return pool.submit(_train_candidate, config, datasets, arch).result()


def _init_worker():
    """A forked worker inherits the parent's signal handlers, and the CLI's
    would write the parent's manifest from the worker. Leave SIGINT, which
    a terminal sends the whole process group, to the parent, and let
    SIGTERM end the worker at once."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _worker_pool(swarm_config):
    """The process pool candidates train in, or a null context (giving None)
    for a serial swarm. It has no more workers than one iteration has
    candidates. Both are context managers; leaving the pool waits for its
    workers to exit."""
    if swarm_config.n_workers == 1:
        return contextlib.nullcontext()
    # imported here: the process pool takes 11-18 ms to import, which every
    # command would pay at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(
        max_workers=min(swarm_config.n_workers,
                        swarm_config.n_cats * (swarm_config.smp - 1)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker)


def optimize_hyperparams(space, datasets, arch, swarm_config):
    """Run the swarm over the unit cube with training-based fitness; each
    candidate trains with its decoded config and its candidate_seed, in a
    worker process when swarm_config.n_workers > 1 (see _worker_pool).

    Returns (best TrainConfig, best Fitness, SwarmHistory); the config's seed
    is the default, for the caller to set. The history's float projection is
    validation accuracy, so its best-value sequence is non-decreasing. The
    result is the same for any number of workers.
    """
    with _worker_pool(swarm_config) as pool:
        if pool is not None:
            # a fork pool forks all its workers at its first submit: make
            # that happen here, on the main thread, before cso's threads exist
            pool.submit(int)

        def fitness(position, ctx):
            seed = candidate_seed(swarm_config.seed, ctx.cat_index, ctx.iteration)
            return evaluate_candidate(
                replace(decode(position, space), seed=seed), datasets, arch,
                pool)

        best_position, best_fitness, history = cso.optimize(
            fitness, [(0.0, 1.0)] * 3, swarm_config,
            weight_key=lambda f: f.val_accuracy)
    return decode(best_position, space), best_fitness, history


def save_best(path, config, fitness):
    """Best-hyperparameters record (a TrainConfig's searched fields and its
    Fitness) as structured text."""
    payload = {
        "learning_rate": config.initial_lr,
        "batch_size": config.batch_size,
        "epochs": config.epochs,
        "val_accuracy": fitness.val_accuracy,
        "val_loss": fitness.val_loss,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path
