"""Monte Carlo machinery: seeded streams, steppers, and pair ensembles.

Trajectory pairs evolve under independent noise realizations of the same
system; the per-time mean squared metric distance between the members is the
empirical quantity every bound in this package speaks about.  Streams are
keyed by (master seed, pair index, member index), so any member's noise
sequence is reproducible in isolation and results are independent of execution
order.  Hybrid runs apply the boundary reset at the initial instant first and
record both one-sided samples at every reset time.

Euler-Maruyama is the only integrator: x <- x + f(x, t) h + sigma(x, t) sqrt(h) z
with standard-normal z.  Pairs are simulated lockstep in fixed-size blocks for
speed; reductions run in pair-index order, so outputs are bit-identical
regardless of how blocks would be scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundReport
from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         HybridSystem, MetricSpec)

_BLOCK = 1024  # pairs simulated lockstep; fixed, so outputs never depend on it


class NonFiniteState(RuntimeError):
    """A trajectory left the finite floats; carries the failing step index."""

    def __init__(self, step_index: int, message: str | None = None):
        super().__init__(message or f"state became non-finite at step {step_index}")
        self.step_index = step_index


def derive_stream(master_seed: int, pair_index: int, member_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trajectory member.

    Distinct (pair, member) keys give statistically independent streams; the
    same key always gives the same stream, regardless of how many other
    streams were derived or in which order.
    """
    return np.random.default_rng((int(master_seed), int(pair_index), int(member_index)))


def step_discrete(system: DiscreteMapSystem, x: np.ndarray, k: int,
                  w: np.ndarray) -> np.ndarray:
    """One noisy map application: map(x, k) + noise_gain(x, k) @ w."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != (system.dimension,):
        raise DimensionMismatch(f"state shape {x.shape}, expected {(system.dimension,)}")
    if w.shape != (system.noise.dimension,):
        raise DimensionMismatch(f"draw shape {w.shape}, expected {(system.noise.dimension,)}")
    gain = np.asarray(system.noise_gain(x, k), dtype=float)
    return np.asarray(system.map(x, k), dtype=float) + gain @ w


@dataclass(frozen=True)
class SDEPath:
    """Euler-Maruyama sample path on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray


def _check_step_count(span: float, h: float, what: str) -> int:
    if not (h > 0):
        raise ValueError(f"step size must be positive, got {h}")
    count = round(span / h)
    if count < 1 or abs(count * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"{what} {span} is not a positive integer multiple of step {h}")
    return count


def integrate_sde(system: ContinuousSDESystem, x0: np.ndarray, t0: float, t1: float,
                  h: float, rng: np.random.Generator) -> SDEPath:
    """Euler-Maruyama path from t0 to t1; (t1 - t0)/h must be an integer.

    Raises NonFiniteState with the failing step index if the state leaves the
    finite floats.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (system.dimension,):
        raise DimensionMismatch(f"state shape {x.shape}, expected {(system.dimension,)}")
    steps = _check_step_count(t1 - t0, h, "time span")
    sqrt_h = math.sqrt(h)
    times = t0 + h * np.arange(steps + 1)
    states = np.empty((steps + 1, system.dimension))
    states[0] = x
    z = rng.standard_normal((steps, system.noise_dim))
    for j in range(steps):
        t = t0 + j * h
        sig = np.asarray(system.diffusion(x, t), dtype=float)
        x = x + np.asarray(system.drift(x, t), dtype=float) * h + sig @ (sqrt_h * z[j])
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(j + 1)
        states[j + 1] = x
    return SDEPath(times=times, states=states)


@dataclass(frozen=True)
class HybridPath:
    """Hybrid sample path: every flow step plus both one-sided reset samples.

    sides[i] is "pre" or "post" at reset instants (which appear twice at the
    same time) and "interior" at flow steps.
    """

    times: np.ndarray
    sides: tuple[str, ...]
    states: np.ndarray


def run_hybrid(system: HybridSystem, x0: np.ndarray, horizon: float, h: float,
               rng: np.random.Generator) -> HybridPath:
    """One hybrid trajectory over [0, horizon]; horizon and dwell must be
    integer multiples of the dwell time and of h respectively.

    The k = 0 reset acts first; the closing reset at the horizon is applied
    and recorded.  Within each dwell the reset draw precedes the flow draws.
    """
    x = np.asarray(x0, dtype=float).copy()
    reset, cont, tau = system.reset, system.continuous, system.dwell_time
    n_dwell = _check_step_count(horizon, tau, "horizon")
    _check_step_count(tau, h, "dwell time")
    times: list[float] = []
    sides: list[str] = []
    states: list[np.ndarray] = []

    def record(t: float, side: str, state: np.ndarray) -> None:
        times.append(t)
        sides.append(side)
        states.append(state.copy())

    record(0.0, "pre", x)
    x = step_discrete(reset, x, 0, reset.noise.sample(rng))
    record(0.0, "post", x)
    for k in range(n_dwell):
        path = integrate_sde(cont, x, k * tau, (k + 1) * tau, h, rng)
        for t, state in zip(path.times[1:-1], path.states[1:-1]):
            record(float(t), "interior", state)
        x = path.states[-1]
        record((k + 1) * tau, "pre", x)
        x = step_discrete(reset, x, k + 1, reset.noise.sample(rng))
        record((k + 1) * tau, "post", x)
    return HybridPath(times=np.asarray(times), sides=tuple(sides),
                      states=np.asarray(states))


# --- pair ensembles ---------------------------------------------------------

@dataclass(frozen=True)
class InitialPointPair:
    """Both members start at known points (member a at `a`, member b at `b`)."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class InitialBox:
    """Each member draws its own start uniformly from the box, independently."""

    lows: np.ndarray
    highs: np.ndarray


@dataclass(frozen=True)
class EnsembleConfig:
    """Monte Carlo plan for a pair ensemble.

    horizon is a step count for discrete systems and a time span otherwise
    (hybrid horizons must be integer multiples of the dwell time).  step_size
    is the flow step h; hybrid dwell times must be integer multiples of it.
    pairing_mode "noisy-vs-noisefree" silences member b's noise (it still
    draws its initial condition).  statistic "ms" records squared metric
    distances, "distance" records plain metric distances.
    """

    pair_count: int
    horizon: float
    master_seed: int
    initial: InitialPointPair | InitialBox
    step_size: float | None = None
    pairing_mode: str = "two-noisy"
    statistic: str = "ms"
    interior_per_dwell: int = 4
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.pair_count < 1:
            raise ValueError(f"pair_count must be >= 1, got {self.pair_count}")
        if self.pairing_mode not in ("two-noisy", "noisy-vs-noisefree"):
            raise ValueError(f"unknown pairing_mode {self.pairing_mode!r}")
        if self.statistic not in ("ms", "distance"):
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.interior_per_dwell < 0:
            raise ValueError("interior_per_dwell must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time empirical moments of the pair distance statistic.

    mean_sq holds the mean of the configured statistic (squared distance by
    default) over pairs still finite at that time; n_alive counts them, and
    failures counts pairs that left the finite floats anywhere on the grid.
    """

    times: np.ndarray
    sides: tuple[str, ...]
    mean_sq: np.ndarray
    stderr: np.ndarray
    n_pairs: int
    n_alive: np.ndarray
    failures: int
    statistic: str = "ms"

    def to_csv(self, path, extra_columns: dict[str, Sequence] | None = None) -> None:
        """Write `time,side,mean_sq_dist,stderr,n_alive` rows (plus any extras)."""
        extras = extra_columns or {}
        header = ["time", "side", "mean_sq_dist", "stderr", "n_alive", *extras]
        lines = [",".join(header)]
        for i in range(self.times.size):
            row = [repr(float(self.times[i])), self.sides[i],
                   repr(float(self.mean_sq[i])), repr(float(self.stderr[i])),
                   str(int(self.n_alive[i]))]
            row.extend(str(extras[name][i]) for name in extras)
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

    def steady_state(self, window_frac: float = 0.2) -> tuple[float, float]:
        """Mean of the statistic over the trailing window, with a conservative
        standard error (the window average of per-time standard errors; no
        independence across times is assumed)."""
        count = max(1, int(round(window_frac * self.times.size)))
        return (float(self.mean_sq[-count:].mean()), float(self.stderr[-count:].mean()))


def _batched_map(fn: Callable, vectorized: bool) -> Callable:
    if vectorized:
        return lambda states, arg: np.asarray(fn(states, arg), dtype=float)

    def rowwise(states: np.ndarray, arg) -> np.ndarray:
        return np.stack([np.asarray(fn(x, arg), dtype=float) for x in states])

    return rowwise


def _apply_gain(gain: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # gain: (n, d) shared, or (B, n, d) state-dependent; draws: (B, d).
    if gain.ndim == 2:
        return draws @ gain.T
    return np.einsum("bnd,bd->bn", gain, draws)


class _MetricEval:
    """Distance statistic evaluator with a fast path for constant metrics."""

    def __init__(self, metric, dimension: int, statistic: str):
        if metric is None:
            metric = MetricSpec.identity(dimension)
        elif not isinstance(metric, MetricSpec):
            metric = MetricSpec.constant(np.asarray(metric, dtype=float))
        if metric.dimension != dimension:
            raise DimensionMismatch(
                f"metric dimension {metric.dimension} != system dimension {dimension}")
        self.metric = metric
        self.statistic = statistic
        self._theta = metric.factor() if metric.kind == "constant" else None

    def values(self, diff: np.ndarray, t: float, side: str) -> np.ndarray:
        theta = self._theta if self._theta is not None \
            else self.metric.factor(t, "post" if side == "interior" else side)
        sq = ((diff @ theta.T) ** 2).sum(axis=1)
        return sq if self.statistic == "ms" else np.sqrt(sq)


def _initial_states(config: EnsembleConfig, dimension: int,
                    gen_a: np.random.Generator, gen_b: np.random.Generator,
                    ) -> tuple[np.ndarray, np.ndarray]:
    init = config.initial
    if isinstance(init, InitialPointPair):
        a = np.broadcast_to(np.asarray(init.a, dtype=float), (dimension,)).copy()
        b = np.broadcast_to(np.asarray(init.b, dtype=float), (dimension,)).copy()
        return a, b
    lows = np.broadcast_to(np.asarray(init.lows, dtype=float), (dimension,))
    highs = np.broadcast_to(np.asarray(init.highs, dtype=float), (dimension,))
    return gen_a.uniform(lows, highs), gen_b.uniform(lows, highs)


def _interior_offsets(steps_per_dwell: int, interior_per_dwell: int) -> list[int]:
    if interior_per_dwell == 0 or steps_per_dwell < 2:
        return []
    raw = [round(j * steps_per_dwell / (interior_per_dwell + 1))
           for j in range(1, interior_per_dwell + 1)]
    return sorted({j for j in raw if 1 <= j <= steps_per_dwell - 1})


@dataclass(frozen=True)
class _Grid:
    times: np.ndarray
    sides: tuple[str, ...]


def _hybrid_grid(n_dwell: int, tau: float, h: float, offsets: Sequence[int]) -> _Grid:
    """Sample grid of a hybrid run: both sides of the reset at t = 0, then per
    dwell k the interior samples after `offsets` flow steps of size h and both
    sides of the reset at (k + 1) tau."""
    times = [0.0, 0.0]
    sides = ["pre", "post"]
    for k in range(n_dwell):
        for j in offsets:
            times.append(k * tau + j * h)
            sides.append("interior")
        times.extend([(k + 1) * tau, (k + 1) * tau])
        sides.extend(["pre", "post"])
    return _Grid(times=np.asarray(times), sides=tuple(sides))


def _grid_for(system, config: EnsembleConfig) -> _Grid:
    if isinstance(system, DiscreteMapSystem):
        steps = int(round(config.horizon))
        if steps < 1 or abs(steps - config.horizon) > 0:
            raise ValueError(f"discrete horizon must be a positive step count, got {config.horizon}")
        return _Grid(times=np.arange(steps + 1, dtype=float),
                     sides=("interior",) * (steps + 1))
    if isinstance(system, ContinuousSDESystem):
        if config.step_size is None:
            raise ValueError("step_size is required for continuous systems")
        steps = _check_step_count(config.horizon, config.step_size, "horizon")
        if steps % config.record_every != 0:
            raise ValueError(f"record_every {config.record_every} does not divide {steps} steps")
        idx = np.arange(0, steps + 1, config.record_every)
        return _Grid(times=idx * config.step_size, sides=("interior",) * idx.size)
    if isinstance(system, HybridSystem):
        if config.step_size is None:
            raise ValueError("step_size is required for hybrid systems")
        tau = system.dwell_time
        n_dwell = _check_step_count(config.horizon, tau, "horizon")
        steps_per_dwell = _check_step_count(tau, config.step_size, "dwell time")
        offsets = _interior_offsets(steps_per_dwell, config.interior_per_dwell)
        return _hybrid_grid(n_dwell, tau, config.step_size, offsets)
    raise TypeError(f"unsupported system type {type(system).__name__}")


def _discrete_block(system: DiscreteMapSystem, config: EnsembleConfig,
                    pair_indices: range, evaluator: _MetricEval) -> np.ndarray:
    steps = int(round(config.horizon))
    batch = len(pair_indices)
    gens = [(derive_stream(config.master_seed, i, 0), derive_stream(config.master_seed, i, 1))
            for i in pair_indices]
    starts = [_initial_states(config, system.dimension, ga, gb) for ga, gb in gens]
    xa = np.stack([s[0] for s in starts])
    xb = np.stack([s[1] for s in starts])
    d = system.noise.dimension
    transform = system.noise._transform
    wa = np.stack([ga.standard_normal((steps, d)) for ga, _ in gens]) @ transform.T
    if config.pairing_mode == "two-noisy":
        wb = np.stack([gb.standard_normal((steps, d)) for _, gb in gens]) @ transform.T
    else:
        wb = np.zeros((batch, steps, d))
    fmap = _batched_map(system.map, system.vectorized)
    fgain = _batched_map(system.noise_gain, system.vectorized)
    out = np.empty((batch, steps + 1))
    out[:, 0] = evaluator.values(xa - xb, 0.0, "interior")
    for k in range(steps):
        xa = fmap(xa, k) + _apply_gain(fgain(xa, k), wa[:, k])
        xb = fmap(xb, k) + _apply_gain(fgain(xb, k), wb[:, k])
        out[:, k + 1] = evaluator.values(xa - xb, float(k + 1), "interior")
    return out


def _continuous_block(system: ContinuousSDESystem, config: EnsembleConfig,
                      pair_indices: range, evaluator: _MetricEval) -> np.ndarray:
    h = config.step_size
    steps = _check_step_count(config.horizon, h, "horizon")
    every = config.record_every
    batch = len(pair_indices)
    gens = [(derive_stream(config.master_seed, i, 0), derive_stream(config.master_seed, i, 1))
            for i in pair_indices]
    starts = [_initial_states(config, system.dimension, ga, gb) for ga, gb in gens]
    xa = np.stack([s[0] for s in starts])
    xb = np.stack([s[1] for s in starts])
    d = system.noise_dim
    za = np.stack([ga.standard_normal((steps, d)) for ga, _ in gens])
    zb = np.stack([gb.standard_normal((steps, d)) for _, gb in gens]) \
        if config.pairing_mode == "two-noisy" else np.zeros((batch, steps, d))
    drift = _batched_map(system.drift, system.vectorized)
    diffusion = _batched_map(system.diffusion, system.vectorized)
    sqrt_h = math.sqrt(h)
    out = np.empty((batch, steps // every + 1))
    out[:, 0] = evaluator.values(xa - xb, 0.0, "interior")
    g = 1
    for j in range(steps):
        t = j * h
        xa = xa + drift(xa, t) * h + _apply_gain(diffusion(xa, t), sqrt_h * za[:, j])
        xb = xb + drift(xb, t) * h + _apply_gain(diffusion(xb, t), sqrt_h * zb[:, j])
        if (j + 1) % every == 0:
            out[:, g] = evaluator.values(xa - xb, (j + 1) * h, "interior")
            g += 1
    return out


def _hybrid_block(system: HybridSystem, config: EnsembleConfig,
                  pair_indices: range, evaluator: _MetricEval,
                  grid: _Grid) -> np.ndarray:
    cont, reset, tau = system.continuous, system.reset, system.dwell_time
    h = config.step_size
    n_dwell = _check_step_count(config.horizon, tau, "horizon")
    steps_per_dwell = _check_step_count(tau, h, "dwell time")
    offsets = set(_interior_offsets(steps_per_dwell, config.interior_per_dwell))
    batch = len(pair_indices)
    two_noisy = config.pairing_mode == "two-noisy"
    gens = [(derive_stream(config.master_seed, i, 0), derive_stream(config.master_seed, i, 1))
            for i in pair_indices]
    starts = [_initial_states(config, cont.dimension, ga, gb) for ga, gb in gens]
    xa = np.stack([s[0] for s in starts])
    xb = np.stack([s[1] for s in starts])
    d_reset = reset.noise.dimension
    d_flow = cont.noise_dim
    transform = reset.noise._transform
    fmap = _batched_map(reset.map, reset.vectorized)
    fgain = _batched_map(reset.noise_gain, reset.vectorized)
    drift = _batched_map(cont.drift, cont.vectorized)
    diffusion = _batched_map(cont.diffusion, cont.vectorized)
    sqrt_h = math.sqrt(h)
    out = np.empty((batch, grid.times.size))
    g = 0

    def do_reset(k: int, xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        wa = np.stack([ga.standard_normal(d_reset) for ga, _ in gens]) @ transform.T
        wb = np.stack([gb.standard_normal(d_reset) for _, gb in gens]) @ transform.T \
            if two_noisy else np.zeros((batch, d_reset))
        xa = fmap(xa, k) + _apply_gain(fgain(xa, k), wa)
        xb = fmap(xb, k) + _apply_gain(fgain(xb, k), wb)
        return xa, xb

    out[:, g] = evaluator.values(xa - xb, 0.0, "pre")
    g += 1
    xa, xb = do_reset(0, xa, xb)
    out[:, g] = evaluator.values(xa - xb, 0.0, "post")
    g += 1
    for k in range(n_dwell):
        za = np.stack([ga.standard_normal((steps_per_dwell, d_flow)) for ga, _ in gens])
        zb = np.stack([gb.standard_normal((steps_per_dwell, d_flow)) for _, gb in gens]) \
            if two_noisy else np.zeros((batch, steps_per_dwell, d_flow))
        for j in range(steps_per_dwell):
            t = k * tau + j * h
            xa = xa + drift(xa, t) * h + _apply_gain(diffusion(xa, t), sqrt_h * za[:, j])
            xb = xb + drift(xb, t) * h + _apply_gain(diffusion(xb, t), sqrt_h * zb[:, j])
            if (j + 1) in offsets:
                out[:, g] = evaluator.values(xa - xb, k * tau + (j + 1) * h, "interior")
                g += 1
        out[:, g] = evaluator.values(xa - xb, (k + 1) * tau, "pre")
        g += 1
        xa, xb = do_reset(k + 1, xa, xb)
        out[:, g] = evaluator.values(xa - xb, (k + 1) * tau, "post")
        g += 1
    return out


def _welford_row(row: np.ndarray, count: np.ndarray, mean: np.ndarray,
                 msq: np.ndarray) -> np.ndarray:
    """Fold one pair's samples into the per-time Welford sums `count`, `mean`
    and `msq` in place, and return the pair's alive mask: True up to its first
    non-finite sample, False from there on."""
    alive = np.isfinite(row)
    if not alive.all():
        # a pair never comes back once non-finite
        alive[int(np.argmin(alive)):] = False
    count[alive] += 1
    delta = np.where(alive, row - mean, 0.0)
    mean[alive] += delta[alive] / count[alive]
    msq[alive] += delta[alive] * (row[alive] - mean[alive])
    return alive


def run_pair_ensemble(system, config: EnsembleConfig, metric=None) -> EnsembleStats:
    """Simulate pair_count independent trajectory pairs and reduce their
    distance statistic to per-time means and standard errors.

    Pairs are independent work units; the reduction visits them in pair-index
    order regardless of internal blocking, so the output is reproducible
    bit-for-bit from (system, config, metric) alone.  Pairs whose state leaves
    the finite floats stop contributing from the first bad sample on and are
    counted in `failures`, never silently dropped.
    """
    grid = _grid_for(system, config)
    dimension = system.continuous.dimension if isinstance(system, HybridSystem) \
        else system.dimension
    evaluator = _MetricEval(metric, dimension, config.statistic)
    size = grid.times.size
    count = np.zeros(size, dtype=np.int64)
    mean = np.zeros(size)
    msq = np.zeros(size)
    failures = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, config.pair_count, _BLOCK):
            pairs = range(lo, min(lo + _BLOCK, config.pair_count))
            if isinstance(system, DiscreteMapSystem):
                block = _discrete_block(system, config, pairs, evaluator)
            elif isinstance(system, ContinuousSDESystem):
                block = _continuous_block(system, config, pairs, evaluator)
            elif isinstance(system, HybridSystem):
                block = _hybrid_block(system, config, pairs, evaluator, grid)
            else:
                raise TypeError(f"unsupported system type {type(system).__name__}")
            for row in block:
                if not _welford_row(row, count, mean, msq).all():
                    failures += 1
    stderr = np.zeros(size)
    settled = count > 1
    stderr[settled] = np.sqrt(msq[settled] / (count[settled] - 1) / count[settled])
    return EnsembleStats(times=grid.times, sides=grid.sides, mean_sq=mean,
                         stderr=stderr, n_pairs=config.pair_count, n_alive=count,
                         failures=failures, statistic=config.statistic)


# --- comparison against bound trajectories ----------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """Pointwise comparison of an ensemble against a bound trajectory."""

    ok: bool
    n_checked: int
    n_violations: int
    worst_slack: float  # min over grid of (bound + slack*stderr - mean); >= 0 iff ok
    bounds: np.ndarray
    passed: np.ndarray


def check_bound_respect(stats: EnsembleStats, bound, slack: float = 3.0) -> BoundCheck:
    """Check mean <= bound + slack * stderr at every grid point.

    The statistical allowance sits on the bound side because the bounds are
    tight for linear systems: the true moment can sit exactly at the bound,
    and only an excess beyond Monte Carlo error is evidence of a violation.
    `bound` is a BoundReport (discrete reports are indexed by step, hybrid
    reports by time and side) or a callable (time, side) -> float.  Infinite
    bound values pass trivially.
    """
    if isinstance(bound, BoundReport):
        if bound.regime.startswith("discrete"):
            bound_fn = lambda t, side: bound.bound_at_step(int(round(t)))  # noqa: E731
        else:
            bound_fn = bound.bound_at_time
    else:
        bound_fn = bound
    values = np.asarray([bound_fn(float(t), side)
                         for t, side in zip(stats.times, stats.sides)])
    margin = values + slack * stats.stderr - stats.mean_sq
    with np.errstate(invalid="ignore"):
        passed = ~(margin < 0)  # inf bound passes; NaN mean counts as violation
    passed &= np.isfinite(stats.mean_sq)
    n_violations = int((~passed).sum())
    finite = np.isfinite(margin)
    worst = float(margin[finite].min()) if finite.any() else math.inf
    return BoundCheck(ok=n_violations == 0, n_checked=int(values.size),
                      n_violations=n_violations, worst_slack=worst,
                      bounds=values, passed=passed)


def fit_geometric_decay(values: np.ndarray, asymptote: float,
                        stderr: np.ndarray | None = None,
                        noise_floor_sigma: float = 5.0) -> float:
    """Per-step geometric decay factor of (values - asymptote).

    Least-squares slope of log deviations over the leading steps where the
    deviation clears both zero and noise_floor_sigma times its standard error
    (Monte Carlo tails below the floor carry no decay information).  Requires
    at least three usable points.
    """
    values = np.asarray(values, dtype=float)
    deviations = values - asymptote
    floor = np.zeros_like(deviations) if stderr is None \
        else noise_floor_sigma * np.asarray(stderr, dtype=float)
    usable = deviations > np.maximum(floor, 0.0)
    cutoff = int(np.argmin(usable)) if not usable.all() else values.size
    if cutoff < 3:
        raise ValueError(f"only {cutoff} usable points above the noise floor; need >= 3")
    k = np.arange(cutoff, dtype=float)
    slope = np.polyfit(k, np.log(deviations[:cutoff]), 1)[0]
    return float(math.exp(slope))
