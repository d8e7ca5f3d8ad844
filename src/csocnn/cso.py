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
history curves. Candidate evaluations within an iteration are independent
and, with n_workers > 1, run on a thread pool; results are always reduced
in cat-index order so runs are reproducible regardless of scheduling. A
fitness function that holds the GIL can hand its work to processes and
wait for it on the pool's thread, as hyperopt's training fitness does.
"""

import csv
import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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
    n_workers: candidate evaluations run at once; 1 is serial.
    """

    n_cats: int = 30
    mixture_ratio: float = 0.3
    smp: int = 5
    srd: float = 0.2
    cdc: float = 0.8
    c1: float = 2.0
    max_iters: int = 100
    seed: int = 0
    n_workers: int = 1

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
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


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
    _reassign_modes(cats, config, rng)
    return cats


def _reassign_modes(cats, config, rng):
    n_tracing = round(config.mixture_ratio * len(cats))
    tracing = set(rng.choice(len(cats), n_tracing, replace=False).tolist())
    for i, cat in enumerate(cats):
        new_mode = "tracing" if i in tracing else "seeking"
        # A cat starting a fresh tracing stint accelerates from rest;
        # without this the undamped velocity update oscillates forever.
        if new_mode == "tracing" and cat.mode != "tracing":
            cat.velocity = np.zeros_like(cat.velocity)
        cat.mode = new_mode


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


def optimize(fitness_fn, bounds, config, weight_key=float, callback=None):
    """Run the swarm for max_iters iterations.

    Returns (best_position, best_fitness, history). The best is the largest
    fitness a cat holds: first among the initial cats, then, in cat order,
    the fitness each cat keeps after its move. A seeking candidate that the
    roulette does not keep is never compared with the best, so a better
    point can be evaluated and lost (ROADMAP item 2). Deterministic for a
    fixed (seed, config, bounds, fitness function); fitness failures are
    raised as FitnessError with the offending position attached.

    fitness_fn is called as fitness_fn(position, ctx), with ctx the
    EvalContext naming the (iteration, cat_index) of the evaluation.
    """
    def evaluate(jobs):
        # jobs: list of (position, EvalContext); returns fitness values in order
        def one(job):
            pos, ctx = job
            try:
                return fitness_fn(pos, ctx)
            except FitnessError:
                raise
            except Exception as exc:
                raise FitnessError(
                    f"fitness function failed at {np.asarray(pos)}: {exc}",
                    position=np.array(pos, copy=True)) from exc
        if config.n_workers == 1 or len(jobs) < 2:
            return [one(job) for job in jobs]
        pool = ThreadPoolExecutor(max_workers=config.n_workers)
        try:
            futures = [pool.submit(one, job) for job in jobs]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # a failure, or the SystemExit a signal raises here, drops the
            # candidates no worker has started
            pool.shutdown(cancel_futures=True)
        # every job ran unless one failed; then this raises the first failure
        return [f.result() for f in futures if not f.cancelled()]

    cats = init_swarm(config, bounds)
    fits = evaluate([(c.position, EvalContext(0, i)) for i, c in enumerate(cats)])
    for cat, fit in zip(cats, fits):
        cat.fitness = fit

    best_index = 0
    for i in range(1, len(cats)):
        if cats[i].fitness > cats[best_index].fitness:
            best_index = i
    best_position = cats[best_index].position.copy()
    best_fitness = cats[best_index].fitness

    history = SwarmHistory()
    for iteration in range(1, config.max_iters + 1):
        _reassign_modes(cats, config, _rng(config.seed, iteration))

        # Phase 1: draw every random move first, so evaluation can be
        # parallel while RNG consumption stays in cat order.
        # plans: (first job index, candidate positions or moved cat, rng)
        jobs = []
        plans = []
        for i, cat in enumerate(cats):
            rng = _rng(config.seed, iteration, i)
            ctx = EvalContext(iteration, i)
            if cat.mode == "seeking":
                # the current position's fitness is known; it is not re-run
                positions = _seeking_candidates(cat, config, bounds, rng)
                plans.append((len(jobs), positions, rng))
                jobs.extend((pos, ctx) for pos in positions[1:])
            else:
                moved = tracing_move(cat, best_position, config, bounds, rng)
                plans.append((len(jobs), moved, rng))
                jobs.append((moved.position, ctx))

        results = evaluate(jobs)

        # Phase 2: commit moves and update the global best in cat order.
        for cat, (start, move, rng) in zip(cats, plans):
            if cat.mode == "seeking":
                fitnesses = [cat.fitness] + results[start:start + len(move) - 1]
                idx = _select_candidate(fitnesses, rng, weight_key)
                cat.position = move[idx]
                cat.fitness = fitnesses[idx]
            else:
                cat.position = move.position
                cat.velocity = move.velocity
                cat.fitness = results[start]
            if cat.fitness > best_fitness:
                best_fitness = cat.fitness
                best_position = cat.position.copy()

        history.iterations.append(iteration)
        history.best_value.append(float(weight_key(best_fitness)))
        history.mean_fitness.append(
            float(np.mean([float(weight_key(c.fitness)) for c in cats])))
        if callback is not None:
            callback(iteration, cats, best_position, best_fitness)

    return best_position, best_fitness, history
