import random
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor

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
    # how many evaluations run at once is the fitness function's business
    with pytest.raises(TypeError):
        cso.SwarmConfig(n_workers=2)


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


def _through(executor, fitness):
    """fitness run by executor: each evaluation returns the Future of its
    value."""
    return lambda x, ctx: executor.submit(fitness, x, ctx)


def test_parallel_evaluation_matches_serial():
    config = cso.SwarmConfig(n_cats=10, max_iters=15, seed=31)
    _, best_s, hist_s = cso.optimize(neg_sphere, BOUNDS5, config)
    with ThreadPoolExecutor(max_workers=4) as pool:
        _, best_p, hist_p = cso.optimize(_through(pool, neg_sphere),
                                         BOUNDS5, config)
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
    config = cso.SwarmConfig(n_cats=10, max_iters=1, seed=0)
    calls = []
    lock = threading.Lock()

    def fitness(x, ctx):
        with lock:
            calls.append(ctx.cat_index)
        if ctx.cat_index == 1:
            raise RuntimeError("boom")
        time.sleep(1.0 if ctx.cat_index == 0 else 0.05)
        return 0.0

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(FitnessError):
            cso.optimize(_through(pool, fitness), BOUNDS5, config)
    assert len(calls) < config.n_cats


def test_earliest_failure_is_raised_when_failures_finish_in_reverse():
    # cat 1 fails at once while cat 0 is still running; cat 0 then fails
    # too, and its failure comes first in (iteration, cat, candidate) order
    config = cso.SwarmConfig(n_cats=4, max_iters=2, seed=3)
    cat_0 = cso.init_swarm(config, BOUNDS5)[0].position

    def fitness(x, ctx):
        if ctx.cat_index == 0:
            time.sleep(0.3)
            raise RuntimeError("cat 0")
        if ctx.cat_index == 1:
            raise RuntimeError("cat 1")
        return 0.0

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(FitnessError) as info:
            cso.optimize(_through(pool, fitness), BOUNDS5, config)
    assert "cat 0" in str(info.value)
    assert np.array_equal(info.value.position, cat_0)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_serial_failure_stops_submitting():
    config = cso.SwarmConfig(n_cats=6, max_iters=3, seed=0)
    calls = []

    def fitness(x, ctx):
        calls.append(ctx.cat_index)
        if ctx.cat_index == 2:
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(FitnessError, match="boom"):
        cso.optimize(fitness, BOUNDS5, config)
    assert calls == [0, 1, 2]


class _HoldCat0(Executor):
    """Runs each job as it is submitted, except that cat 0's initial
    evaluation gets its outcome only 0.3 s after a job has failed (or
    after 5 s): a later-keyed failure is known first."""

    def __init__(self):
        self.failed = threading.Event()
        self.thread = None

    def submit(self, fn, position, ctx):
        try:
            outcome = (fn(position, ctx), None)
        except Exception as exc:
            outcome = (None, exc)
            self.failed.set()
        future = Future()
        if (ctx.iteration, ctx.cat_index) == (0, 0):
            self.thread = threading.Thread(
                target=self._release, args=(future, outcome), daemon=True)
            self.thread.start()
        else:
            self._complete(future, outcome)
        return future

    def _release(self, future, outcome):
        self.failed.wait(5.0)
        time.sleep(0.3)
        self._complete(future, outcome)

    @staticmethod
    def _complete(future, outcome):
        if future.set_running_or_notify_cancel():  # not cancelled
            value, exc = outcome
            if exc is None:
                future.set_result(value)
            else:
                future.set_exception(exc)

    def shutdown(self, wait=True, *, cancel_futures=False):
        if self.thread is not None:
            self.thread.join()


@pytest.mark.parametrize("case", ["held", "held-then-traced", "inline"])
def test_earliest_keyed_failure_is_raised_whatever_fails_first(case):
    # two evaluations fail and the later-keyed one fails first. "held": cat
    # 0's and cat 1's initial evaluations fail, cat 0's held open. Otherwise
    # the iteration-1 moves of a tracing cat and of a seeking cat with a
    # higher number fail: the seeking candidate runs first, inline because
    # a tracing move waits for the previous iteration to close, and through
    # the executor because that iteration waits for the held cat 0
    config = cso.SwarmConfig(n_cats=4, max_iters=2, smp=3, seed=6)
    modes = {}
    cso.optimize(neg_sphere, BOUNDS5, config,
                 callback=lambda t, cats, *_: modes.setdefault(
                     t, [c.mode for c in cats]))
    tracer, seeker = modes[1].index("tracing"), 3
    assert tracer < seeker and modes[1][seeker] == "seeking"
    failing = ({(0, 0), (0, 1)} if case == "held"
               else {(1, tracer), (1, seeker)})
    earliest = min(failing)

    def fitness(x, ctx):
        if (ctx.iteration, ctx.cat_index) in failing:
            raise RuntimeError(f"cat {ctx.cat_index}")
        return neg_sphere(x)

    with pytest.raises(FitnessError) as info:
        if case == "inline":
            cso.optimize(fitness, BOUNDS5, config)
        else:
            with _HoldCat0() as executor:
                cso.optimize(_through(executor, fitness), BOUNDS5, config)
    assert str(info.value).endswith(f": cat {earliest[1]}")


class _Reordering(Executor):
    """Runs each job as it is submitted but completes the futures later,
    from a thread: whenever no job was submitted for a moment, it completes
    the newest open future ("reverse") or a seeded-random one ("shuffle")."""

    def __init__(self, order, seed=0):
        self.order = order
        self.rng = random.Random(seed)
        self.open = []  # (future, outcome)
        self.cond = threading.Condition()
        self.closing = False
        self.thread = threading.Thread(target=self._complete, daemon=True)
        self.thread.start()

    def submit(self, fn, *args):
        try:
            outcome = (fn(*args), None)
        except Exception as exc:
            outcome = (None, exc)
        future = Future()
        with self.cond:
            self.open.append((future, outcome))
            self.cond.notify()
        return future

    def _complete(self):
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.open or self.closing)
                if self.closing:
                    return
                while self.cond.wait(0.0005):  # until submits stop arriving
                    pass
                pick = (len(self.open) - 1 if self.order == "reverse"
                        else self.rng.randrange(len(self.open)))
                future, (value, exc) = self.open.pop(pick)
            if exc is None:
                future.set_result(value)
            else:
                future.set_exception(exc)

    def shutdown(self, wait=True, *, cancel_futures=False):
        with self.cond:
            self.closing = True
            self.cond.notify()
        self.thread.join()


def _recorded_run(config, bounds, executor=None):
    """Everything optimize reveals: each evaluation as (iteration, cat,
    position bytes, fitness) in a fixed order, the result, the history and
    the cats each callback saw."""
    evaluations, seen = [], []
    lock = threading.Lock()

    def fitness(x, ctx):
        value = -round(float(np.sum((np.asarray(x) - 0.3) ** 2)), 1)  # ties
        with lock:
            evaluations.append((ctx.iteration, ctx.cat_index,
                                np.asarray(x).tobytes(), value))
        return value

    def callback(iteration, cats, best_position, best_fitness):
        seen.append((iteration, best_position.tobytes(), best_fitness,
                     [(c.mode, c.position.tobytes(), c.velocity.tobytes(),
                       c.fitness) for c in cats]))

    if executor is not None:
        fitness = _through(executor, fitness)
    position, best, history = cso.optimize(fitness, bounds, config,
                                           callback=callback)
    return (sorted(evaluations), position.tobytes(), best, history.iterations,
            history.best_value, history.mean_fitness, seen)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_cats=st.integers(1, 6),
       smp=st.integers(2, 4),
       mr=st.floats(0.05, 0.95),
       iters=st.integers(1, 4),
       order_seed=st.integers(0, 1_000))
def test_completion_order_cannot_change_results(seed, n_cats, smp, mr, iters,
                                                order_seed):
    config = cso.SwarmConfig(n_cats=n_cats, smp=smp, mixture_ratio=mr,
                             max_iters=iters, seed=seed)
    bounds = [(-1.0, 2.0), (0.0, 1.0), (-3.0, 3.0)]
    inline = _recorded_run(config, bounds)
    for order in ("reverse", "shuffle"):
        with _Reordering(order, order_seed) as executor:
            assert _recorded_run(config, bounds, executor) == inline, order


class _HoldFirst(Executor):
    """Runs every job at once except cat 0's initial evaluation, whose
    future stays open until another job of iteration 1 or later has been
    submitted (or 5 s pass). Records each job's (iteration, cat) and
    whether that future was still open then."""

    def __init__(self):
        self.log = []
        self.later = threading.Event()
        self.thread = None

    def submit(self, fn, position, ctx):
        future = Future()
        held = self.thread is not None and self.thread.is_alive()
        self.log.append((ctx.iteration, ctx.cat_index, held))
        if (ctx.iteration, ctx.cat_index) == (0, 0):
            value = fn(position, ctx)

            def release():
                self.later.wait(5.0)
                future.set_result(value)

            self.thread = threading.Thread(target=release, daemon=True)
            self.thread.start()
        else:
            if ctx.iteration > 0:
                self.later.set()
            future.set_result(fn(position, ctx))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.later.set()
        if self.thread is not None:
            self.thread.join()


def test_seeking_cat_moves_on_before_the_iteration_ends():
    # mixture ratio 0.3 of 4 cats: one traces and three seek each iteration
    config = cso.SwarmConfig(n_cats=4, max_iters=3, smp=3, seed=5)
    with _HoldFirst() as executor:
        cso.optimize(_through(executor, neg_sphere), BOUNDS5, config)
    early = [(t, i) for t, i, held in executor.log if held and t >= 1]
    assert early, executor.log
    # a tracing move needs the previous iteration's best, so none of those
    # may start while cat 0's initial fitness is unknown
    modes = {}
    cso.optimize(neg_sphere, BOUNDS5, config,
                 callback=lambda t, cats, *_: modes.update(
                     {(t, i): c.mode for i, c in enumerate(cats)}))
    assert all(modes[key] == "seeking" for key in early)
    assert any(t == 1 for t, _ in early)


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
