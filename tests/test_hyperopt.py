import concurrent.futures
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poison_update
from csocnn import cso, hyperopt, nn, trainer
from csocnn.errors import TrainingDiverged

SPACE = hyperopt.SearchSpace()


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
    monkeypatch.setattr(hyperopt.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert hyperopt.default_workers() == expected


def test_default_workers_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(hyperopt.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(hyperopt.os, "cpu_count", lambda: 6)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert hyperopt.default_workers() == 3


def test_default_workers_without_fork_is_1(monkeypatch):
    # the workers are forked: without fork the swarm runs serially
    monkeypatch.delattr(hyperopt.os, "fork", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert hyperopt.default_workers() == 1


def test_decode_lower_corner():
    config = hyperopt.decode([0.0, 0.0, 0.0], SPACE)
    assert config.initial_lr == pytest.approx(1e-4, rel=1e-12)
    assert config.batch_size == 32
    assert config.epochs == 1


def test_decode_upper_corner():
    config = hyperopt.decode([1.0, 1.0, 1.0], SPACE)
    assert config.initial_lr == pytest.approx(1e-2, rel=1e-12)
    assert config.batch_size == 1024
    assert config.epochs == 5


def test_decode_log_midpoint():
    config = hyperopt.decode([0.5, 0.5, 0.5], SPACE)
    assert config.initial_lr == pytest.approx(1e-3, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_decode_monotone_per_coordinate(a, b):
    lo, hi = sorted([a, b])
    for coord in range(3):
        pos_lo = [0.5, 0.5, 0.5]
        pos_hi = [0.5, 0.5, 0.5]
        pos_lo[coord] = lo
        pos_hi[coord] = hi
        config_lo = hyperopt.decode(pos_lo, SPACE)
        config_hi = hyperopt.decode(pos_hi, SPACE)
        assert config_lo.initial_lr <= config_hi.initial_lr
        assert config_lo.batch_size <= config_hi.batch_size
        assert config_lo.epochs <= config_hi.epochs


def test_decoded_values_always_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        config = hyperopt.decode(rng.random(3), SPACE)
        assert SPACE.lr_range[0] <= config.initial_lr <= SPACE.lr_range[1]
        assert SPACE.batch_range[0] <= config.batch_size <= SPACE.batch_range[1]
        assert SPACE.epoch_range[0] <= config.epochs <= SPACE.epoch_range[1]


def test_search_space_lr_floor_is_the_trainers():
    hyperopt.SearchSpace(lr_range=(trainer.MIN_LR, 1e-3))
    with pytest.raises(ValueError, match="lr_range"):
        hyperopt.SearchSpace(lr_range=(trainer.MIN_LR / 2, 1e-3))


def test_fitness_ordering_rules():
    better_acc = hyperopt.Fitness(0.9, 1.0)
    worse_acc = hyperopt.Fitness(0.8, 0.1)
    assert better_acc > worse_acc
    tie_low_loss = hyperopt.Fitness(0.9, 0.2)
    tie_high_loss = hyperopt.Fitness(0.9, 0.5)
    assert tie_low_loss > tie_high_loss
    assert hyperopt.Fitness(0.9, 0.5) == hyperopt.Fitness(0.9, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(0, 1), st.floats(0, 10)),
       st.tuples(st.floats(0, 1), st.floats(0, 10)),
       st.tuples(st.floats(0, 1), st.floats(0, 10)))
def test_fitness_total_order_properties(a, b, c):
    fa, fb, fc = (hyperopt.Fitness(*t) for t in (a, b, c))
    # antisymmetry
    assert not (fa < fb and fb < fa)
    assert (fa < fb) or (fb < fa) or (fa == fb)
    # transitivity
    if fa < fb and fb < fc:
        assert fa < fc


def test_worst_fitness_loses_to_everything():
    assert hyperopt.WORST_FITNESS < hyperopt.Fitness(0.01, 5.0)


def test_candidate_seed_is_stable_and_distinct():
    a = hyperopt.candidate_seed(7, 1, 2)
    assert a == hyperopt.candidate_seed(7, 1, 2)
    assert a != hyperopt.candidate_seed(7, 2, 2)
    assert a != hyperopt.candidate_seed(7, 1, 3)


@pytest.fixture(scope="module")
def tiny_sets(request):
    from csocnn import data
    flows = data.make_synthetic_blobs(1500, k_classes=5, d=75,
                                      separation=4.0, seed=31)
    prep = data.prepare_dataset(flows, seed=31)
    return prep


def test_evaluate_candidate_is_deterministic(tiny_sets):
    config = trainer.TrainConfig(epochs=1, batch_size=64, initial_lr=3e-3,
                                 seed=5)
    arch = nn.default_architecture(5)
    datasets = (tiny_sets.train, tiny_sets.val)
    a = hyperopt.evaluate_candidate(config, datasets, arch)
    b = hyperopt.evaluate_candidate(config, datasets, arch)
    assert a == b
    assert 0.0 <= a.val_accuracy <= 1.0
    # The fitness is the best epoch's validation record; a second
    # validation pass over the returned network gives the same pair.
    network = nn.Network(arch, tiny_sets.train[0].shape[1:], seed=5)
    best, _ = trainer.train(network, tiny_sets.train, tiny_sets.val, config)
    val_loss, val_acc, _, _ = trainer.evaluate(best, tiny_sets.val)
    assert (a.val_accuracy, a.val_loss) == (val_acc, val_loss)


def test_evaluate_candidate_mid_range_learns(tiny_sets):
    space = hyperopt.SearchSpace(lr_range=(1e-3, 1e-2),
                                 batch_range=(32, 96),
                                 epoch_range=(2, 4))
    config = replace(hyperopt.decode([0.5, 0.5, 0.5], space), seed=3)
    fitness = hyperopt.evaluate_candidate(
        config, (tiny_sets.train, tiny_sets.val), nn.default_architecture(5))
    assert fitness.val_accuracy > 0.9


def test_diverged_training_returns_worst_fitness(tiny_sets, monkeypatch):
    def explode(*args, **kwargs):
        raise TrainingDiverged("scripted")

    monkeypatch.setattr(hyperopt, "train_new", explode)
    config = trainer.TrainConfig(epochs=1, batch_size=64, initial_lr=1e-3)
    fitness = hyperopt.evaluate_candidate(
        config, (tiny_sets.train, tiny_sets.val), nn.default_architecture(5))
    assert fitness == hyperopt.WORST_FITNESS


def test_non_finite_validation_loss_returns_worst_fitness(tiny_sets,
                                                         monkeypatch):
    config = trainer.TrainConfig(epochs=1, batch_size=2048, initial_lr=1e-3)
    poison_update(monkeypatch, 1)  # one batch: its update is the last
    fitness = hyperopt.evaluate_candidate(
        config, (tiny_sets.train, tiny_sets.val), nn.default_architecture(5))
    assert fitness == hyperopt.WORST_FITNESS


def test_degenerate_swarm_single_evaluation(tiny_sets):
    config = cso.SwarmConfig(n_cats=1, max_iters=1, smp=2, seed=9)
    space = hyperopt.SearchSpace(lr_range=(1e-3, 3e-3), batch_range=(64, 128),
                                 epoch_range=(1, 2))
    best_config, best_fit, history = hyperopt.optimize_hyperparams(
        space, (tiny_sets.train, tiny_sets.val),
        nn.default_architecture(5), config)
    assert space.lr_range[0] <= best_config.initial_lr <= space.lr_range[1]
    assert isinstance(best_fit, hyperopt.Fitness)
    assert len(history.iterations) == 1
    # the recorded best must be reproducible from its decoded hyperparameters
    assert history.best_value[0] == best_fit.val_accuracy


def test_history_accuracy_is_non_decreasing(tiny_sets):
    config = cso.SwarmConfig(n_cats=2, max_iters=2, smp=2, seed=13)
    space = hyperopt.SearchSpace(lr_range=(1e-3, 1e-2), batch_range=(64, 128),
                                 epoch_range=(1, 2))
    _, _, history = hyperopt.optimize_hyperparams(
        space, (tiny_sets.train, tiny_sets.val),
        nn.default_architecture(5), config)
    assert all(a <= b for a, b in
               zip(history.best_value, history.best_value[1:]))


def test_save_best_record(tmp_path):
    import json
    config = trainer.TrainConfig(epochs=5, batch_size=640, initial_lr=2e-3)
    path = hyperopt.save_best(tmp_path / "best.json", config,
                              hyperopt.Fitness(0.9835, 0.0484))
    payload = json.loads(path.read_text())
    assert payload == {
        "learning_rate": 2e-3,
        "batch_size": 640,
        "epochs": 5,
        "val_accuracy": 0.9835,
        "val_loss": 0.0484,
    }


class _RecordingPool(concurrent.futures.Executor):
    """Stands in for ProcessPoolExecutor: records how it was built and what
    was submitted, and runs each task at once in the submitting thread."""

    def __init__(self, made, max_workers, mp_context, initializer):
        made.append(self)
        self.max_workers = max_workers
        self.start_method = mp_context.get_start_method()
        self.initializer = initializer
        self.submits = []  # (function, on the main thread)

    def submit(self, fn, *args):
        self.submits.append(
            (fn, threading.current_thread() is threading.main_thread()))
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("n_workers, n_cats, smp, expected", [
    (8, 2, 2, 2),  # one candidate per cat and iteration
    (2, 3, 3, 2),
    (6, 2, 3, 4),
    (1, 4, 3, None),  # serial: no pool at all
])
def test_worker_pool_is_capped_at_one_iterations_candidates(
        monkeypatch, n_workers, n_cats, smp, expected):
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: _RecordingPool(made, **kw))
    monkeypatch.setattr(hyperopt, "_train_candidate",
                        lambda config, datasets, arch: hyperopt.Fitness(0.5, 1.0))
    config = cso.SwarmConfig(n_cats=n_cats, max_iters=2, smp=smp, seed=1,
                             n_workers=n_workers)
    hyperopt.optimize_hyperparams(SPACE, None, None, config)
    if expected is None:
        assert made == []
        return
    [pool] = made
    assert pool.max_workers == expected
    assert pool.start_method == "fork"
    assert pool.initializer is hyperopt._init_worker
    # the first submit forks the workers: on the main thread, before any
    # candidate, that is before cso starts its threads
    first_fn, on_main_thread = pool.submits[0]
    assert first_fn is not hyperopt._train_candidate and on_main_thread
    trained = [fn for fn, _ in pool.submits[1:]]
    assert len(trained) > n_cats  # the initial cats and two iterations
    assert trained == [hyperopt._train_candidate] * len(trained)


_RAISE_IN_WORKER = """
import json, os
from csocnn import cso, data, hyperopt, nn
from csocnn.errors import FitnessError

config = cso.SwarmConfig(n_cats=2, max_iters=1, smp=2, seed=3, n_workers=2)
failing_seed = hyperopt.candidate_seed(config.seed, 1, 0)  # cat 1, iteration 0
real_train_new = hyperopt.train_new

def train_new(arch, train, val, train_config):
    if train_config.seed == failing_seed:
        raise ValueError(f"boom in {os.getpid()}")
    return real_train_new(arch, train, val, train_config)

hyperopt.train_new = train_new
flows = data.make_synthetic_blobs(200, k_classes=5, d=75, separation=3.0,
                                  seed=3)
prep = data.prepare_dataset(flows, seed=3)
space = hyperopt.SearchSpace(batch_range=(32, 64), epoch_range=(1, 2))
try:
    hyperopt.optimize_hyperparams(space, (prep.train, prep.val),
                                  nn.default_architecture(5), config)
except FitnessError as exc:
    print(json.dumps({"parent": os.getpid(), "message": str(exc),
                      "cause": type(exc.__cause__).__name__,
                      "position": exc.position.tolist()}))
"""


def test_exception_in_worker_reaches_swarm_with_its_position():
    env = {**os.environ, "PYTHONPATH": str(Path(hyperopt.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _RAISE_IN_WORKER],
                         capture_output=True, text=True, timeout=120, env=env,
                         check=True)
    record = json.loads(run.stdout)
    assert record["cause"] == "ValueError"
    worker = int(record["message"].rsplit("boom in ", 1)[1])
    assert worker != record["parent"]  # raised in a worker process
    config = cso.SwarmConfig(n_cats=2, max_iters=1, smp=2, seed=3)
    cat_1 = cso.init_swarm(config, [(0.0, 1.0)] * 3)[1].position
    assert np.array_equal(record["position"], cat_1)
