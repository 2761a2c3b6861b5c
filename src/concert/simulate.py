"""Monte Carlo machinery: seeded streams, steppers, and pair ensembles.

Trajectory pairs evolve under independent noise realizations of the same
system; the per-time mean squared metric distance between the members is the
empirical quantity every bound in this package speaks about.  Streams are
keyed by (master seed, pair index, member index), so any member's noise
sequence is reproducible in isolation and results are independent of execution
order.  A member's stream is PCG64 seeded by SeedSequence((seed, pair, member)),
bit-identical to np.random.default_rng((seed, pair, member)); the seed hash is
computed for 1,024 consecutive pairs at once, which changes no bits.  Hybrid
runs apply the boundary reset at the initial instant first and record both
one-sided samples at every reset time.

Euler-Maruyama is the only integrator: x <- x + f(x, t) h + sigma(x, t) sqrt(h) z
with standard-normal z.  One engine steps every run: a plan splits the run into
segments of map applications and flow steps, and a block of runs moves through
them in lockstep.  Blocks have a fixed size and are reduced in run-index order,
so the reduction does not depend on the blocking.  A block holding a single
run is stepped as two identical rows, so that its matrix products do not take
NumPy's one-row kernel.  For hopf-cpg, blocks of 4, 3 and 2 runs give the same
bits; a BLAS that picks its kernels by row count at larger sizes could still
make a run's last bits depend on the size of its block.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundReport
from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         HybridSystem, _as_metric)

_BLOCK = 1024  # runs simulated lockstep and reduced per block; fixed


class NonFiniteState(RuntimeError):
    """A trajectory left the finite floats; carries the failing step index."""

    def __init__(self, step_index: int, message: str | None = None):
        super().__init__(message or f"state became non-finite at step {step_index}")
        self.step_index = step_index


def derive_stream(master_seed: int, pair_index: int, member_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trajectory member.

    Distinct (pair, member) keys give statistically independent streams; the
    same key always gives the same stream, regardless of how many other
    streams were derived or in which order.  The stream is that of
    np.random.default_rng((master_seed, pair_index, member_index)), bit for bit.
    """
    key = (int(master_seed), int(pair_index), int(member_index))
    if 0 <= min(key) and max(key) < 2**32:
        words = _chunk_words(key[0], key[1] // _CHUNK, key[2])[key[1] % _CHUNK]
        return np.random.Generator(np.random.PCG64(_seed_words_type()(key, words)))
    return np.random.default_rng(key)


# NumPy's SeedSequence (numpy/random/bit_generator.pyx), for keys of three
# uint32 words: a pool of 4 words, each call of its `hashmix` xors the value
# with a running constant, multiplies it by the next one and xorshifts by 16
_CHUNK = 1024  # keys (seed, pair, member) hashed at once: consecutive pairs


def _hash_constants(init: int, mult: int, calls: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of `calls` successive hashmix calls from constant init."""
    out = []
    for _ in range(calls):
        nxt = init * mult & 0xFFFFFFFF
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return out


_POOL_CONSTANTS = _hash_constants(0x43b0d7e5, 0x931e8875, 4 + 4 * 3)  # fill, then mix
_STATE_CONSTANTS = _hash_constants(0x8b51f9dd, 0x58f38ded, 8)  # generate_state(4, uint64)
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


def _hashmix(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


@functools.lru_cache(maxsize=4)  # a block derives member 0's chunk, then member 1's
def _chunk_words(master_seed: int, chunk: int, member_index: int) -> np.ndarray:
    """Read-only (_CHUNK, 4) uint64 array whose row r holds
    SeedSequence((master_seed, chunk * _CHUNK + r, member_index))
    .generate_state(4, np.uint64), computed for the whole chunk at once in
    wrapping uint32 arithmetic."""
    pairs = np.arange(_CHUNK, dtype=np.uint32) + np.uint32(chunk * _CHUNK)
    entropy = [np.full(_CHUNK, master_seed, dtype=np.uint32), pairs,
               np.full(_CHUNK, member_index, dtype=np.uint32), np.zeros(_CHUNK, np.uint32)]
    constants = iter(_POOL_CONSTANTS)
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], *next(constants))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((_CHUNK, 8), dtype="<u4")
    for i, (xor, mult) in enumerate(_STATE_CONSTANTS):
        state[:, i] = _hashmix(pool[i % 4], xor, mult)
    words = state.view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 precomputed seed words; built on first
    use, so that importing the package does not load numpy.random."""
    from numpy.random.bit_generator import ISpawnableSeedSequence, SeedSequence

    class SeedWords(ISpawnableSeedSequence):
        """SeedSequence(key) with its generate_state(4, np.uint64) already
        known; anything else is asked of that SeedSequence, built on demand."""

        def __init__(self, key: tuple[int, int, int], words: np.ndarray):
            self.key, self.words, self._sequence = key, words, None

        def sequence(self) -> SeedSequence:
            if self._sequence is None:
                self._sequence = SeedSequence(np.array(self.key, dtype=np.uint32))
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return self.words
            return self.sequence().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self.sequence().spawn(n_children)

        def __getattr__(self, name):  # entropy, spawn_key, pool, state, ...
            if name.startswith("_"):  # e.g. _sequence before __init__ ran
                raise AttributeError(name)
            return getattr(self.sequence(), name)

        def __reduce__(self):  # pickles as the SeedSequence it stands for
            return self.sequence().__reduce__()

    return SeedWords


def _write_csv(path, header: list[str], rows) -> None:
    """Write the header and rows (sequences of strings) as comma-separated
    lines to a file path or an open text handle."""
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


@dataclass(frozen=True)
class SDEPath:
    """Euler-Maruyama sample path on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray


def _check_step_count(span: float, h: float, what: str, unit: str = "step") -> int:
    if not (h > 0):
        raise ValueError(f"step size must be positive, got {h}")
    ratio = span / h
    if not math.isfinite(ratio):  # an infinite or NaN span, or h too small
        raise ValueError(f"{what} {span} divided by {unit} {h} is not finite")
    count = round(ratio)
    if count < 1 or abs(count * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"{what} {span} is not a positive integer multiple of {unit} {h}")
    return count


def integrate_sde(system: ContinuousSDESystem, x0: np.ndarray, t0: float, t1: float,
                  h: float, rng: np.random.Generator) -> SDEPath:
    """Euler-Maruyama path from t0 to t1; (t1 - t0)/h must be an integer.

    Raises NonFiniteState with the failing step index if the state leaves the
    finite floats.
    """
    _check_step_count(t1 - t0, h, "time span")
    times, _, segments = _plan(system, t1 - t0, h, 0, 1, t0)
    return SDEPath(times=times, states=_sample_path(system.dimension, segments, x0, rng))


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
    Raises NonFiniteState at the first sample that leaves the finite floats;
    its step_index is that sample's index in the path.
    """
    steps_per_dwell = _check_step_count(system.dwell_time, h, "dwell time")
    times, sides, segments = _plan(system, horizon, h, steps_per_dwell - 1, 1)
    return HybridPath(times=times, sides=sides,
                      states=_sample_path(system.continuous.dimension, segments, x0, rng))


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
        _write_csv(path, ["time", "side", "mean_sq_dist", "stderr", "n_alive", *extras],
                   ([repr(float(self.times[i])), self.sides[i],
                     repr(float(self.mean_sq[i])), repr(float(self.stderr[i])),
                     str(int(self.n_alive[i])), *(str(extras[name][i]) for name in extras)]
                    for i in range(self.times.size)))

    def steady_state(self, window_frac: float = 0.2) -> tuple[float, float]:
        """Mean of the statistic over the trailing window, with a conservative
        standard error (the window average of per-time standard errors; no
        independence across times is assumed)."""
        count = max(1, int(round(window_frac * self.times.size)))
        return (float(self.mean_sq[-count:].mean()), float(self.stderr[-count:].mean()))


def _batched_map(fn: Callable, vectorized: bool, lone: bool) -> Callable:
    if vectorized:
        return lambda states, arg: np.asarray(fn(states, arg), dtype=float)

    def once(states: np.ndarray, arg) -> np.ndarray:
        # both rows of a lone run's block hold the same state
        y = np.asarray(fn(states[0], arg), dtype=float)
        return np.stack([y, y])

    def rowwise(states: np.ndarray, arg) -> np.ndarray:
        return np.stack([np.asarray(fn(x, arg), dtype=float) for x in states])

    return once if lone else rowwise


def _apply_gain(gain: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # gain: (n, d) shared, or (B, n, d) state-dependent; draws: (B, d).
    if gain.ndim == 2:
        return draws @ gain.T
    return np.einsum("bnd,bd->bn", gain, draws)


class _MetricEval:
    """Distance statistic evaluator with a fast path for constant metrics."""

    def __init__(self, metric, dimension: int, statistic: str):
        self.metric = _as_metric(metric, dimension)
        self.statistic = statistic
        self._theta = self.metric.factor() if self.metric.kind == "constant" else None

    def values(self, diff: np.ndarray, t: float, side: str) -> np.ndarray:
        theta = self._theta if self._theta is not None \
            else self.metric.factor(t, "post" if side == "interior" else side)
        sq = ((diff @ theta.T) ** 2).sum(axis=1)
        return sq if self.statistic == "ms" else np.sqrt(sq)


def _initial_states(init: InitialPointPair | InitialBox, dimension: int,
                    gens) -> list[np.ndarray]:
    """Start states (runs, dimension) of both members of a block of pairs;
    gens[m] holds member m's generators in run order."""
    runs = len(gens[0])
    if isinstance(init, InitialPointPair):
        points = [np.broadcast_to(np.asarray(p, dtype=float), (dimension,))
                  for p in (init.a, init.b)]
        return [np.broadcast_to(p, (runs, dimension)).copy() for p in points]
    lows = np.broadcast_to(np.asarray(init.lows, dtype=float), (dimension,))
    highs = np.broadcast_to(np.asarray(init.highs, dtype=float), (dimension,))
    return [np.stack([g.uniform(lows, highs) for g in member]) for member in gens]


def _interior_offsets(steps_per_dwell: int, interior_per_dwell: int) -> list[int]:
    if interior_per_dwell == 0 or steps_per_dwell < 2:
        return []
    raw = [round(j * steps_per_dwell / (interior_per_dwell + 1))
           for j in range(1, interior_per_dwell + 1)]
    return sorted({j for j in raw if 1 <= j <= steps_per_dwell - 1})


# --- the trajectory engine --------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    """`steps` updates of a run by one subsystem: map applications at indices
    start, start + 1, ... (stride 1) or Euler-Maruyama steps from times start,
    start + h, ... (stride h).  Each member draws one standard-normal block of
    shape `draw` for the whole segment; a sample is taken after every update
    whose 1-based count is in `marks`."""

    part: DiscreteMapSystem | ContinuousSDESystem
    start: float
    stride: float
    steps: int
    draw: tuple[int, ...]
    marks: frozenset[int]


def _plan(system, horizon: float, h: float | None, interior_per_dwell: int,
          record_every: int, t0: float = 0.0):
    """Sample grid (times, sides) and update segments, in stream order, of one
    run of `system` over `horizon` (a step count for discrete systems).

    A discrete run is one segment of map applications and a continuous run one
    flow segment from t0, sampled every `record_every` steps.  A hybrid run is
    the reset at t = 0, then per dwell a flow segment with `interior_per_dwell`
    interior samples followed by a reset; both sides of every reset are sampled.
    """
    if isinstance(system, DiscreteMapSystem):
        if not math.isfinite(horizon):
            raise ValueError(f"discrete horizon must be finite, got {horizon}")
        steps = int(round(horizon))
        if steps < 1 or abs(steps - horizon) > 0:
            raise ValueError(f"discrete horizon must be a positive step count, got {horizon}")
        segment = _Segment(system, 0, 1, steps, (steps, system.noise.dimension),
                           frozenset(range(1, steps + 1)))
        return np.arange(steps + 1, dtype=float), ("interior",) * (steps + 1), [segment]
    if isinstance(system, ContinuousSDESystem):
        if h is None:
            raise ValueError("step_size is required for continuous systems")
        steps = _check_step_count(horizon, h, "horizon")
        if steps % record_every != 0:
            raise ValueError(f"record_every {record_every} does not divide {steps} steps")
        idx = np.arange(0, steps + 1, record_every)
        segment = _Segment(system, t0, h, steps, (steps, system.noise_dim),
                           frozenset(range(record_every, steps + 1, record_every)))
        return t0 + idx * h, ("interior",) * idx.size, [segment]
    if not isinstance(system, HybridSystem):
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if h is None:
        raise ValueError("step_size is required for hybrid systems")
    cont, reset, tau = system.continuous, system.reset, system.dwell_time
    n_dwell = _check_step_count(horizon, tau, "horizon", "the dwell time")
    steps = _check_step_count(tau, h, "dwell time")
    offsets = _interior_offsets(steps, interior_per_dwell)
    flow_marks = frozenset([*offsets, steps])
    segments = [_Segment(reset, 0, 1, 1, (reset.noise.dimension,), frozenset({1}))]
    times, sides = [0.0, 0.0], ["pre", "post"]
    for k in range(n_dwell):
        segments += [_Segment(cont, k * tau, h, steps, (steps, cont.noise_dim), flow_marks),
                     _Segment(reset, k + 1, 1, 1, (reset.noise.dimension,), frozenset({1}))]
        times += [k * tau + j * h for j in offsets] + [(k + 1) * tau] * 2
        sides += ["interior"] * len(offsets) + ["pre", "post"]
    return np.asarray(times), tuple(sides), segments


def _stepper(part, h: float, lone: bool) -> tuple[Callable, Callable]:
    """(advance, shape) of one subsystem: shape(z) turns a segment's block of
    standard normals into its noise, and advance(x, at, w) is one map
    application at index `at` or one Euler-Maruyama step from time `at`.
    With lone, x is a lone run's two identical rows, and a callable that is
    not vectorized is called once per step, for the first."""
    if isinstance(part, DiscreteMapSystem):
        fmap = _batched_map(part.map, part.vectorized, lone)
        fgain = _batched_map(part.noise_gain, part.vectorized, lone)
        transform = part.noise._transform
        return (lambda x, k, w: fmap(x, k) + _apply_gain(fgain(x, k), w),
                lambda z: z @ transform.T)
    drift = _batched_map(part.drift, part.vectorized, lone)
    diffusion = _batched_map(part.diffusion, part.vectorized, lone)
    sqrt_h = math.sqrt(h)

    def euler(x, t, w):
        # x + f h + g in one new array; never writes into what a callable returned
        out = np.multiply(drift(x, t), h, out=np.empty_like(x))
        out += x
        out += _apply_gain(diffusion(x, t), w)
        return out

    return euler, lambda z: np.multiply(sqrt_h, z, out=z)


def _run_block(segments, gens, states, noisy, record) -> np.ndarray:
    """Step a block of runs in lockstep through `segments`; return their samples
    stacked as (runs, samples, ...).

    Member m of run i starts at states[m][i] and draws from gens[m][i], one
    standard-normal block per segment; it draws nothing and runs noise-free
    unless noisy[m].  record(states, g) returns sample g of every run.  A lone
    run is stepped as two identical rows (its draws copied, not drawn twice),
    so that no matrix product sees a single row.
    """
    runs = len(gens[0])
    rows = max(runs, 2)
    states = [np.concatenate([x, x]) if runs == 1 else x for x in states]
    samples = [record(states, 0)]
    for seg in segments:
        advance, shape = _stepper(seg.part, seg.stride, runs == 1)
        noise = []
        for member, on in zip(gens, noisy):
            if on:
                z = np.empty((rows, *seg.draw))
                for i, g in enumerate(member):
                    g.standard_normal(out=z[i])
                z[runs:] = z[0]  # the copy row of a lone run
                z = shape(z)
            else:
                z = np.zeros((rows, *seg.draw))
            noise.append(z.reshape(rows, seg.steps, -1))
        for j in range(seg.steps):
            at = seg.start + j * seg.stride
            for m, w in enumerate(noise):
                states[m] = advance(states[m], at, w[:, j])
            if j + 1 in seg.marks:
                samples.append(record(states, len(samples)))
    return np.stack(samples, axis=1)[:runs]


def _sample_path(dimension: int, segments, x0: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """States of one run through `segments`, drawing from rng; raises NonFiniteState
    with the sample's index at the first non-finite sample."""
    x = np.array(x0, dtype=float)
    if x.shape != (dimension,):
        raise DimensionMismatch(f"state shape {x.shape}, expected {(dimension,)}")

    def record(states, g):
        if not np.all(np.isfinite(states[0])):
            raise NonFiniteState(g)
        return states[0]

    return _run_block(segments, [[rng]], [x[None]], (True,), record)[0]


def _moments(run_count: int, size: int, block_of, on_row=None):
    """Per-sample Welford moments over runs 0 .. run_count - 1, folded in run
    index order.

    block_of(runs) returns the (len(runs), size) samples of a block of at most
    _BLOCK runs.  A run counts as a failure and stops contributing from its
    first non-finite sample on; on_row(row, alive) sees each run's samples with
    that alive mask.  Returns (count, mean, stderr, failures).
    """
    count = np.zeros(size, dtype=np.int64)
    mean = np.zeros(size)
    msq = np.zeros(size)
    delta = np.empty(size)
    term = np.empty(size)
    failures = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, run_count, _BLOCK):
            block = block_of(range(lo, min(lo + _BLOCK, run_count)))
            finite = np.isfinite(block)
            whole = finite.all(axis=1)
            for row, alive, fold in zip(block, finite, whole.tolist()):
                k = size
                if not fold:
                    # a run never comes back once non-finite: alive is a prefix
                    k = int(np.argmin(alive))
                    alive[k:] = False
                    failures += 1
                c, m, s, d, t = count[:k], mean[:k], msq[:k], delta[:k], term[:k]
                c += 1
                np.subtract(row[:k], m, out=d)
                np.divide(d, c, out=t)
                m += t
                np.subtract(row[:k], m, out=t)
                np.multiply(d, t, out=t)
                s += t
                if on_row is not None:
                    on_row(row, alive)
    stderr = np.zeros(size)
    settled = count > 1
    stderr[settled] = np.sqrt(msq[settled] / (count[settled] - 1) / count[settled])
    return count, mean, stderr, failures


def run_pair_ensemble(system, config: EnsembleConfig, metric=None) -> EnsembleStats:
    """Simulate pair_count independent trajectory pairs and reduce their
    distance statistic to per-time means and standard errors.

    Pairs are independent work units; the reduction visits them in pair-index
    order regardless of internal blocking, so the output is reproducible
    bit-for-bit from (system, config, metric) alone.  Pairs whose state leaves
    the finite floats stop contributing from the first bad sample on and are
    counted in `failures`, never silently dropped.
    """
    times, sides, segments = _plan(system, config.horizon, config.step_size,
                                   config.interior_per_dwell, config.record_every)
    dimension = system.continuous.dimension if isinstance(system, HybridSystem) \
        else system.dimension
    evaluator = _MetricEval(metric, dimension, config.statistic)
    noisy = (True, config.pairing_mode == "two-noisy")

    def record(states, g):
        return evaluator.values(states[0] - states[1], float(times[g]), sides[g])

    def block_of(pairs):
        gens = [[derive_stream(config.master_seed, i, m) for i in pairs] for m in (0, 1)]
        return _run_block(segments, gens, _initial_states(config.initial, dimension, gens),
                          noisy, record)

    count, mean, stderr, failures = _moments(config.pair_count, times.size, block_of)
    return EnsembleStats(times=times, sides=sides, mean_sq=mean,
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
