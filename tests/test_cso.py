import dataclasses
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csocnn import cso
from csocnn.errors import BoundsError, FitnessError


# The swarm maximizes, so a test that minimizes f passes -f. Objectives take
# optimize's (position, ctx) call; ctx is unused here.
def neg_sphere(x, ctx=None):
    return -float(np.sum(np.asarray(x) ** 2))


def neg_rosenbrock(x, ctx=None):
    return -float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


BOUNDS5 = [(-5.0, 5.0)] * 5


class FixedRng:
    """Stub generator returning scripted uniforms."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


# --- init_swarm -----------------------------------------------------------

def test_tracing_count_follows_mixture_ratio():
    config = cso.SwarmConfig(n_cats=10, mixture_ratio=0.3, seed=1)
    cats = cso.init_swarm(config, BOUNDS5)
    assert sum(c.mode == "tracing" for c in cats) == 3


def test_init_positions_inside_bounds_and_velocities_zero():
    config = cso.SwarmConfig(n_cats=25, seed=3)
    cats = cso.init_swarm(config, [(-5.0, 5.0), (-5.0, 5.0)])
    for cat in cats:
        assert np.all(cat.position >= -5.0) and np.all(cat.position <= 5.0)
        assert np.all(cat.velocity == 0.0)


def test_init_is_deterministic():
    config = cso.SwarmConfig(n_cats=8, seed=42)
    a = cso.init_swarm(config, BOUNDS5)
    b = cso.init_swarm(config, BOUNDS5)
    assert all(np.array_equal(x.position, y.position) and x.mode == y.mode
               for x, y in zip(a, b))


def test_inverted_bounds_rejected():
    config = cso.SwarmConfig(n_cats=4, seed=0)
    with pytest.raises(BoundsError):
        cso.init_swarm(config, [(1.0, -1.0)])


def test_config_validation():
    with pytest.raises(ValueError):
        cso.SwarmConfig(smp=1)
    with pytest.raises(ValueError):
        cso.SwarmConfig(mixture_ratio=1.5)
    for c1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cso.SwarmConfig(c1=c1)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            cso.SwarmConfig(n_workers=workers)
    assert cso.SwarmConfig().n_workers == 1  # serial has one spelling
    with pytest.raises(TypeError):
        cso.SwarmConfig(n_workers=None)


# --- seeking (through optimize) ------------------------------------------
# One cat and mixture_ratio 0.3: round(0.3 * 1) = 0 tracing cats, so every
# move optimize makes is a seeking move.

def _seeking_run(fitness, bounds, max_iters=10, **overrides):
    """Run optimize with a single seeking cat; fitness takes (x, ctx).

    Returns (evals, steps): evals[t] lists the (position, fitness) pairs
    evaluated in iteration t, and steps[t] is the cat's (position, fitness)
    after iteration t, with steps[0] its start.
    """
    config = cso.SwarmConfig(n_cats=1, mixture_ratio=0.3, max_iters=max_iters,
                             seed=0, **overrides)
    evals = [[] for _ in range(max_iters + 1)]

    def probe(x, ctx):
        assert ctx.cat_index == 0
        value = fitness(x, ctx)
        evals[ctx.iteration].append((np.array(x, copy=True), value))
        return value

    steps = []

    def record(iteration, cats, *_):
        assert cats[0].mode == "seeking"
        steps.append((cats[0].position.copy(), cats[0].fitness))

    cso.optimize(probe, bounds, config, callback=record)
    return evals, [evals[0][0]] + steps


def test_seeking_keeps_position_when_candidates_worse():
    # The start scores 0 and every later candidate scores worse; the start
    # keeps one of the two slots and the roulette gives it all
    # the weight.
    evals, steps = _seeking_run(
        lambda x, ctx: 0.0 if ctx.iteration == 0 else neg_sphere(x) - 1.0,
        [(-5.0, 5.0)], smp=2)
    start = steps[0][0]
    for t in range(1, len(steps)):
        assert len(evals[t]) == 1  # the start's fitness is not re-evaluated
        assert np.array_equal(steps[t][0], start)
        assert steps[t][1] == 0.0


def test_seeking_candidate_range():
    # srd=0.2, cdc=1: every mutated candidate lies within 20% of the
    # position it was drawn from, and the move commits one of the smp
    # candidates (the current position included).
    evals, steps = _seeking_run(neg_sphere, [(-5.0, 5.0)],
                                smp=5, cdc=1.0, srd=0.2)
    for t in range(1, len(steps)):
        prev = float(steps[t - 1][0][0])
        mutated = [float(x[0]) for x, _ in evals[t]]
        assert len(mutated) == 4
        for value in mutated:
            assert abs(value - prev) <= 0.2 * abs(prev)
        assert float(steps[t][0][0]) in [prev] + mutated


def test_seeking_constant_fitness_stays_in_bounds():
    # Equal fitness leaves the roulette no weights, so it picks uniformly;
    # srd=1 pushes candidates past the narrow bounds, so they get clipped.
    lo, hi = np.array([0.5, -1.0]), np.array([1.0, -0.5])
    evals, steps = _seeking_run(lambda x, ctx: 7.0, list(zip(lo, hi)),
                                max_iters=20, smp=4, srd=1.0)
    evaluated = [x for per_iter in evals for x, _ in per_iter]
    for x in evaluated + [position for position, _ in steps]:
        assert np.all(x >= lo) and np.all(x <= hi)
    assert any(np.any((x == lo) | (x == hi)) for x in evaluated)
    assert all(fitness == 7.0 for _, fitness in steps)


def test_seeking_roulette_never_picks_worst():
    # The worst of the smp candidates gets roulette weight 0, so with
    # distinct fitnesses it is never the one kept.
    evals, steps = _seeking_run(neg_sphere, [(-5.0, 5.0)] * 3,
                                max_iters=30, smp=5)
    for t in range(1, len(steps)):
        fits = [steps[t - 1][1]] + [f for _, f in evals[t]]
        assert len(set(fits)) == len(fits)
        assert steps[t][1] != min(fits)


# --- tracing_move ---------------------------------------------------------

def test_tracing_fixed_point_at_global_best():
    config = cso.SwarmConfig(n_cats=2, seed=0)
    cat = cso.Cat(position=np.array([2.0]), velocity=np.zeros(1),
                  mode="tracing")
    moved = cso.tracing_move(cat, np.array([2.0]), config, [(-5.0, 5.0)],
                             np.random.default_rng(0))
    assert moved.position[0] == 2.0


def test_tracing_hand_arithmetic():
    # x=0, best=1, v=0, c1=2, r=0.5 -> v=1, x=1
    config = cso.SwarmConfig(n_cats=2, c1=2.0, seed=0)
    cat = cso.Cat(position=np.array([0.0]), velocity=np.zeros(1),
                  mode="tracing")
    moved = cso.tracing_move(cat, np.array([1.0]), config, [(-5.0, 5.0)],
                             FixedRng(0.5))
    assert moved.velocity[0] == pytest.approx(1.0)
    assert moved.position[0] == pytest.approx(1.0)


def test_tracing_clamps_velocity_and_position():
    config = cso.SwarmConfig(n_cats=2, c1=2.0, seed=0)
    cat = cso.Cat(position=np.array([-5.0]), velocity=np.zeros(1),
                  mode="tracing")
    moved = cso.tracing_move(cat, np.array([5.0]), config, [(-5.0, 5.0)],
                             FixedRng(0.999))
    assert abs(moved.velocity[0]) <= 5.0  # vmax = 0.5 * span
    assert -5.0 <= moved.position[0] <= 5.0


# --- optimize -------------------------------------------------------------

def test_sphere_converges():
    config = cso.SwarmConfig(n_cats=30, max_iters=100, seed=42)
    _, best, history = cso.optimize(neg_sphere, BOUNDS5, config)
    assert -best < 1e-3
    assert len(history.iterations) == 100


def test_rosenbrock_converges():
    config = cso.SwarmConfig(n_cats=30, max_iters=100, seed=42)
    _, best, _ = cso.optimize(neg_rosenbrock, [(-5.0, 5.0)] * 2, config)
    assert -best < 1e-1


def test_constant_fitness_flat_history():
    config = cso.SwarmConfig(n_cats=6, max_iters=10, seed=5)
    _, best, history = cso.optimize(lambda x, ctx: 3.5, BOUNDS5, config)
    assert best == 3.5
    assert history.best_value == [3.5] * 10
    assert history.mean_fitness == [3.5] * 10


def test_best_history_is_non_decreasing():
    config = cso.SwarmConfig(n_cats=10, max_iters=30, seed=9)
    _, _, history = cso.optimize(neg_sphere, BOUNDS5, config)
    pairs = zip(history.best_value, history.best_value[1:])
    assert all(a <= b for a, b in pairs)


def test_optimize_is_deterministic():
    config = cso.SwarmConfig(n_cats=12, max_iters=20, seed=123)
    pos_a, best_a, hist_a = cso.optimize(neg_sphere, BOUNDS5, config)
    pos_b, best_b, hist_b = cso.optimize(neg_sphere, BOUNDS5, config)
    assert best_a == best_b
    assert np.array_equal(pos_a, pos_b)
    assert hist_a.best_value == hist_b.best_value
    assert hist_a.mean_fitness == hist_b.mean_fitness


def test_parallel_evaluation_matches_serial():
    serial = cso.SwarmConfig(n_cats=10, max_iters=15, seed=31)
    parallel = dataclasses.replace(serial, n_workers=4)
    _, best_s, hist_s = cso.optimize(neg_sphere, BOUNDS5, serial)
    _, best_p, hist_p = cso.optimize(neg_sphere, BOUNDS5, parallel)
    assert best_s == best_p
    assert hist_s.best_value == hist_p.best_value


def test_mode_counts_hold_every_iteration():
    config = cso.SwarmConfig(n_cats=10, mixture_ratio=0.3, max_iters=12, seed=2)
    counts = []
    cso.optimize(neg_sphere, BOUNDS5, config,
                 callback=lambda it, cats, *_:
                 counts.append(sum(c.mode == "tracing" for c in cats)))
    assert counts == [3] * 12


def test_positions_stay_inside_bounds_throughout():
    config = cso.SwarmConfig(n_cats=8, max_iters=25, seed=17)
    violations = []

    def watch(iteration, cats, *_):
        for cat in cats:
            if np.any(cat.position < -5.0) or np.any(cat.position > 5.0):
                violations.append(iteration)

    cso.optimize(neg_sphere, BOUNDS5, config, callback=watch)
    assert violations == []


def test_fitness_failure_carries_position():
    config = cso.SwarmConfig(n_cats=4, max_iters=5, seed=0)

    def flaky(x, ctx):
        if x[0] > -10:  # always
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(FitnessError) as info:
        cso.optimize(flaky, BOUNDS5, config)
    assert info.value.position is not None
    assert len(info.value.position) == 5


def test_parallel_failure_cancels_queued_candidates():
    # cat 0 trains slowly, cat 1 fails at once and the rest are quick: the
    # failure must stop the candidates queued behind it, not wait for cat 0
    config = cso.SwarmConfig(n_cats=10, max_iters=1, seed=0, n_workers=2)
    calls = []
    lock = threading.Lock()

    def fitness(x, ctx):
        with lock:
            calls.append(ctx.cat_index)
        if ctx.cat_index == 1:
            raise RuntimeError("boom")
        time.sleep(1.0 if ctx.cat_index == 0 else 0.05)
        return 0.0

    with pytest.raises(FitnessError):
        cso.optimize(fitness, BOUNDS5, config)
    assert len(calls) < config.n_cats


def test_history_csv_schema(tmp_path):
    config = cso.SwarmConfig(n_cats=5, max_iters=7, seed=1)
    _, _, history = cso.optimize(neg_sphere, BOUNDS5, config)
    path = history.to_csv(tmp_path / "h.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,best_fitness,mean_fitness"
    assert len(lines) == 8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_cats=st.integers(2, 12),
       mr=st.floats(0.1, 0.9),
       iters=st.integers(1, 10))
def test_property_bounds_and_monotonicity(seed, n_cats, mr, iters):
    config = cso.SwarmConfig(n_cats=n_cats, mixture_ratio=mr,
                             max_iters=iters, seed=seed)
    bounds = [(-2.0, 3.0), (0.5, 1.5)]

    def fn(x, ctx):
        return -float(np.sum((np.asarray(x) - 1.0) ** 2))

    pos, best, history = cso.optimize(fn, bounds, config)
    assert np.all(pos >= [-2.0, 0.5]) and np.all(pos <= [3.0, 1.5])
    assert all(a <= b for a, b in
               zip(history.best_value, history.best_value[1:]))
    expected_tracing = round(mr * n_cats)
    # re-run with a callback to observe per-iteration mode counts
    counts = []
    cso.optimize(fn, bounds, config,
                 callback=lambda it, cats, *_:
                 counts.append(sum(c.mode == "tracing" for c in cats)))
    assert counts == [expected_tracing] * iters
