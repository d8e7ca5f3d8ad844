"""Cat Swarm Optimization over box-bounded real vectors.

A population of cats alternates between two behaviors, reassigned at random
every iteration: seeking (smp candidates, the current position and smp - 1
clones that mutate a fraction of the dimensions by up to srd of their
current magnitude; keep one by fitness-weighted roulette) and tracing
(velocity update pulling the cat toward the best position found so far,
clamped to VMAX_FRACTION of each span, starting each stint from rest).

The fitness function is called as ``fitness_fn(position, ctx)``, where ctx
is the EvalContext naming the iteration and cat the evaluation belongs to.
The swarm maximizes fitness; to minimize f, pass -f. Fitness values may be
plain floats or any totally ordered objects; in the latter case
``weight_key`` must project them to floats for the roulette weights and
history curves.

The fitness function returns the fitness, or a concurrent.futures.Future of
it for an evaluation that runs elsewhere (a worker process). Each
evaluation starts as soon as its inputs are known: a seeking move needs
only its own cat's previous move, a tracing move also the best of the
previous iteration, so a seeking cat runs ahead of slower cats while no
iteration waits for its last evaluation. Moves commit with their own
per-(iteration, cat) generator and iterations close in order, the best
updated in cat order, so results do not depend on where evaluations run
or on the order they finish.
"""

import csv
import math
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundsError, FitnessError

VMAX_FRACTION = 0.5  # tracing velocity clamp, as a fraction of each span


@dataclass
class Cat:
    """One swarm member: a candidate solution plus its motion state."""

    position: np.ndarray
    velocity: np.ndarray
    mode: str  # "seeking" | "tracing"
    fitness: object = None  # cached value; None means not evaluated yet


@dataclass
class SwarmConfig:
    """Engine parameters.

    smp: candidates per seeking move, the current position included
        (seeking memory pool).
    srd: seeking range of the selected dimension; mutated coordinates move
        by a uniform-random fraction of srd times their current magnitude
        (times the bound span for coordinates sitting exactly at zero).
    cdc: fraction of dimensions mutated per candidate.
    mixture_ratio: fraction of the swarm in tracing mode each iteration.
    c1: tracing acceleration constant.
    """

    n_cats: int = 30
    mixture_ratio: float = 0.3
    smp: int = 5
    srd: float = 0.2
    cdc: float = 0.8
    c1: float = 2.0
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_cats < 1:
            raise ValueError("n_cats must be >= 1")
        if not 0 < self.mixture_ratio < 1:
            raise ValueError("mixture_ratio must lie in (0, 1)")
        if self.smp < 2:
            raise ValueError("smp must be >= 2: the current position takes "
                             "one slot")
        if not 0 < self.srd <= 1:
            raise ValueError("srd must lie in (0, 1]")
        if not 0 < self.cdc <= 1:
            raise ValueError("cdc must lie in (0, 1]")
        if not 0 < self.c1 < math.inf:
            raise ValueError("c1 must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SwarmHistory:
    """Per-iteration convergence record: the float projections of the best
    fitness so far and of the swarm's mean fitness, as the CSV export
    writes them."""

    iterations: list = field(default_factory=list)
    best_value: list = field(default_factory=list)
    mean_fitness: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "best_fitness", "mean_fitness"])
            for it, bv, mv in zip(self.iterations, self.best_value, self.mean_fitness):
                writer.writerow([it, repr(float(bv)), repr(float(mv))])
        return path


def _check_bounds(bounds):
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        bad = int(np.argmax(lo >= hi))
        raise BoundsError(f"inverted bounds at dimension {bad}: {bounds[bad]}")
    return lo, hi


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class EvalContext:
    """Where an evaluation sits in the run: iteration 0 is the initial
    swarm evaluation, cat_index identifies the cat being moved."""

    iteration: int
    cat_index: int


def init_swarm(config, bounds):
    """Seeded uniform-random swarm: zero velocities, round(MR * n) cats
    flagged tracing."""
    lo, hi = _check_bounds(bounds)
    rng = _rng(config.seed, 0)
    positions = rng.uniform(lo, hi, (config.n_cats, len(bounds)))
    cats = [Cat(position=p, velocity=np.zeros(len(bounds)), mode="seeking")
            for p in positions]
    tracing = _tracing_cats(config, rng)
    for i, cat in enumerate(cats):
        _set_mode(cat, i in tracing)
    return cats


def _tracing_cats(config, rng):
    """The indices of the round(MR * n) cats that trace this iteration."""
    n_tracing = round(config.mixture_ratio * config.n_cats)
    return set(rng.choice(config.n_cats, n_tracing, replace=False).tolist())


def _set_mode(cat, tracing):
    # A cat starting a fresh tracing stint accelerates from rest; without
    # this the undamped velocity update oscillates forever.
    if tracing and cat.mode != "tracing":
        cat.velocity = np.zeros_like(cat.velocity)
    cat.mode = "tracing" if tracing else "seeking"


def _seeking_candidates(cat, config, bounds, rng):
    """The smp candidate positions for one seeking move, the untouched
    current position first."""
    lo, hi = _check_bounds(bounds)
    span = hi - lo
    d = len(cat.position)
    n_mut = min(d, max(1, math.ceil(config.cdc * d)))
    positions = [cat.position.copy()]
    while len(positions) < config.smp:
        candidate = cat.position.copy()
        dims = rng.choice(d, n_mut, replace=False)
        delta = (rng.integers(0, 2, n_mut) * 2 - 1) * rng.random(n_mut) * config.srd
        base = candidate[dims]
        # Coordinates at exactly zero have no magnitude to scale; fall back
        # to the bound span so they can still move.
        candidate[dims] = base + np.where(base != 0.0, base, span[dims]) * delta
        positions.append(np.clip(candidate, lo, hi))
    return positions


def _select_candidate(fitnesses, rng, weight_key):
    """Fitness-weighted roulette over the seeking candidates."""
    weights = np.asarray([float(weight_key(f)) for f in fitnesses])
    weights = weights - weights.min()
    total = weights.sum()
    if total <= 0:  # all candidates equally fit: uniform choice
        return int(rng.integers(0, len(fitnesses)))
    r = rng.random() * total
    return int(np.searchsorted(np.cumsum(weights), r, side="right").clip(0, len(fitnesses) - 1))


def tracing_move(cat, global_best, config, bounds, rng):
    """One tracing-mode step: accelerate toward the global best, with the
    velocity clamped per dimension and the position clamped to bounds."""
    lo, hi = _check_bounds(bounds)
    vmax = VMAX_FRACTION * (hi - lo)
    r = rng.random(len(cat.position))
    velocity = cat.velocity + r * config.c1 * (np.asarray(global_best) - cat.position)
    velocity = np.clip(velocity, -vmax, vmax)
    position = np.clip(cat.position + velocity, lo, hi)
    return replace(cat, position=position, velocity=velocity, fitness=None)


def _fitness_error(exc, position):
    if isinstance(exc, FitnessError):
        return exc
    error = FitnessError(f"fitness function failed at {np.asarray(position)}: {exc}",
                         position=np.array(position, copy=True))
    error.__cause__ = exc
    return error


def optimize(fitness_fn, bounds, config, weight_key=float, callback=None):
    """Run the swarm for max_iters iterations.

    Returns (best_position, best_fitness, history). The best is the largest
    fitness a cat holds: first among the initial cats, then, in cat order,
    the fitness each cat keeps after its move. A seeking candidate that the
    roulette does not keep is never compared with the best, so a better
    point can be evaluated and lost (ROADMAP item 2). Deterministic for a
    fixed (seed, config, bounds, fitness function), wherever and in
    whatever order the evaluations run.

    fitness_fn is called as fitness_fn(position, ctx), with ctx the
    EvalContext naming the (iteration, cat_index) of the evaluation, and
    returns the fitness or a Future of it. After each iteration,
    callback(iteration, cats, best_position, best_fitness) gets the cats as
    that iteration left them.

    A failed evaluation drops those ordered after it in (iteration, cat,
    candidate) order (pending Futures are cancelled, running ones finish),
    while those ordered before it, which depend only on earlier
    iterations, still run. Once none of them is pending, the earliest
    failure's FitnessError is raised with its position attached, wherever
    and in whatever order the evaluations ran.
    """
    cats = init_swarm(config, bounds)
    tracing = [None] + [_tracing_cats(config, _rng(config.seed, t))
                        for t in range(1, config.max_iters + 1)]
    moves = [None] * len(cats)  # each cat's move in flight: (move, rng, results)
    committed = {}  # iteration -> {cat index: the cat as it committed}
    jobs = {}  # future -> ((iteration, cat, candidate), position)
    failed = None  # (key, FitnessError) of the earliest failure so far
    history = SwarmHistory()
    best_position = best_fitness = None
    closed = -1  # the last iteration whose best and history are final

    def fail(key, exc, position):
        # every evaluation left to start or deliver is ordered before key
        nonlocal failed
        failed = (key, _fitness_error(exc, position))
        for future in [f for f, (k, _) in jobs.items() if k > key]:
            future.cancel()
            del jobs[future]

    def evaluate(key, position):
        if failed is not None and key > failed[0]:
            return
        try:
            value = fitness_fn(position, EvalContext(*key[:2]))
        except Exception as exc:
            fail(key, exc, position)
            return
        future = value
        if not isinstance(value, Future):
            future = Future()
            future.set_result(value)
        jobs[future] = (key, position)

    def start(i, iteration):
        cat = cats[i]
        _set_mode(cat, i in tracing[iteration])
        rng = _rng(config.seed, iteration, i)
        if cat.mode == "seeking":
            # the current position's fitness is known; it is not re-run
            positions = _seeking_candidates(cat, config, bounds, rng)
            moves[i] = (positions, rng, {})
            for k in range(1, len(positions)):
                evaluate((iteration, i, k), positions[k])
        else:
            moved = tracing_move(cat, best_position, config, bounds, rng)
            moves[i] = (moved, rng, {})
            evaluate((iteration, i, 0), moved.position)

    def close_finished():
        nonlocal closed, best_position, best_fitness
        while len(committed.get(closed + 1, ())) == len(cats):
            closed += 1
            snapshot = [cat for _, cat in sorted(committed.pop(closed).items())]
            for cat in snapshot:
                if best_fitness is None or cat.fitness > best_fitness:
                    best_fitness = cat.fitness
                    best_position = cat.position.copy()
            if closed > 0:
                history.iterations.append(closed)
                history.best_value.append(float(weight_key(best_fitness)))
                history.mean_fitness.append(float(np.mean(
                    [float(weight_key(c.fitness)) for c in snapshot])))
                if callback is not None:
                    callback(closed, snapshot, best_position, best_fitness)
            if closed < config.max_iters:
                for i in sorted(tracing[closed + 1]):
                    start(i, closed + 1)

    def deliver(key, fitness):
        iteration, i, k = key
        cat = cats[i]
        if iteration > 0:
            move, rng, results = moves[i]
            results[k] = fitness
            if cat.mode == "tracing":
                cat.position, cat.velocity = move.position, move.velocity
            elif len(results) < len(move) - 1:
                return
            else:
                fitnesses = [cat.fitness] + [results[j] for j in range(1, len(move))]
                idx = _select_candidate(fitnesses, rng, weight_key)
                cat.position, fitness = move[idx], fitnesses[idx]
        cat.fitness = fitness
        committed.setdefault(iteration, {})[i] = replace(cat)
        if iteration < config.max_iters and i not in tracing[iteration + 1]:
            start(i, iteration + 1)
        close_finished()

    for i, cat in enumerate(cats):
        evaluate((0, i, 0), cat.position)
    try:
        while jobs:
            done, _ = wait(jobs, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: jobs[f][0]):
                if future not in jobs:  # dropped by an earlier failure
                    continue
                key, position = jobs.pop(future)
                if future.exception() is not None:
                    fail(key, future.exception(), position)
                else:
                    deliver(key, future.result())
    finally:
        # the SystemExit a signal raises while this waits drops the
        # evaluations that have not started
        for future in jobs:
            future.cancel()
    if failed is not None:
        raise failed[1]
    return best_position, best_fitness, history
