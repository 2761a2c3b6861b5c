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
them in lockstep.  The two members of every pair in a block are stepped as one
state, member after member, so each system callable is called once per update
for the whole block.  The per-sample moments are reduced in fixed chunks of
_FOLD = 1,024 consecutive runs, whatever the block size: two passes over a
chunk, each summing its runs in run order, give the chunk's mean and sum of
squared deviations, and the chunks are merged in run-index order by Chan,
Golub & LeVeque's update (1979).  Blocks only join or cut into chunks, so the
reduction does not depend on the blocking.  A member draws a long
segment's noise in slices of about _DRAW_VALUES values for the whole block, in
stream order, so its memory does not grow with the horizon and its bits are
those of one draw per segment; a hybrid run draws the reset opening a dwell in
the same call as the dwell's flow noise.  Map and reset noise is shaped by one
2-D product over a member's rows and steps, so its bits do not depend on the
horizon.  Products that change no bits are skipped: a distance in the
constant identity metric squares the member difference directly, and a (1, 1)
gain multiplies the draws elementwise, which the matmul also rounds once (only
the sign of an exactly zero term may differ).  A box start whose coordinates
share one low and one high takes NumPy's scalar uniform, bit for bit the
array call.  A lone run of a single member is stepped as two identical rows, so
that its matrix products do not take NumPy's one-row kernel; a lone pair shapes
a member's noise and takes its metric distance on two copies of the row, for
the same reason.  For hopf-cpg, blocks of 4, 3 and 2 runs give the same bits; a
BLAS that picks its kernels by row count at larger sizes could still make a
run's last bits depend on the size of its block.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundReport
from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         HybridSystem, _as_metric, _batched_map)

_BLOCK = 1024  # runs simulated in lockstep per block; fixed
_FOLD = 1024  # consecutive runs reduced together, whatever _BLOCK is; fixed
_DRAW_VALUES = 2**18  # most standard normals in one member's noise buffer (2 MiB)
STEPS_PER_DWELL = 100  # default flow steps per dwell of a hybrid system
_INTERIOR_PER_DWELL = 4  # default interior samples per dwell of a hybrid pair ensemble
STEADY_FRAC = 0.2  # trailing fraction of a run that steady values average over


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
    index = operator.index  # integers only, as default_rng; a float raises TypeError
    seed, pair, member = index(master_seed), index(pair_index), index(member_index)
    if 0 <= seed < _WORD and 0 <= pair < _WORD and 0 <= member < _WORD:
        chunk, row = divmod(pair, _CHUNK)
        generator, pcg64, seed_words = _stream_types()
        return generator(pcg64(seed_words((seed, pair, member),
                                          _chunk_words(seed, chunk, member)[row])))
    return np.random.default_rng((seed, pair, member))


# NumPy's SeedSequence (numpy/random/bit_generator.pyx), for keys of three
# uint32 words: a pool of 4 words, each call of its `hashmix` xors the value
# with a running constant, multiplies it by the next one and xorshifts by 16
_CHUNK = 1024  # keys (seed, pair, member) hashed at once: consecutive pairs
_WORD = 2**32  # each key part below it is one uint32 word


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
def _chunk_words(master_seed: int, chunk: int, member_index: int) -> list[np.ndarray]:
    """The _CHUNK read-only uint64 rows of 4 words whose row r is
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
    return list(words)


@functools.cache
def _stream_types() -> tuple[type, type, type]:
    """(Generator, PCG64, SeedWords), SeedWords being an ISeedSequence that
    hands PCG64 precomputed seed words; bound on first use, so that importing
    the package does not load numpy.random."""
    from numpy.random import PCG64, Generator
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

    return Generator, PCG64, SeedWords


def _write_csv(path, columns: dict[str, Sequence]) -> None:
    """Write the named columns of equal length as comma-separated lines to a
    file path or an open text handle; floats by repr(float), the rest by str."""
    rows = ([repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            for row in zip(*columns.values(), strict=True))
    text = "".join(",".join(row) + "\n" for row in [list(columns), *rows])
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


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


@dataclass(frozen=True)
class SamplePath:
    """One sampled trajectory.  sides[i] is "pre" or "post" at reset instants
    (which appear twice at the same time) and "interior" everywhere else."""

    times: np.ndarray
    sides: tuple[str, ...]
    states: np.ndarray


def sample_path(system, x0: np.ndarray, horizon: float, h: float | None,
                rng: np.random.Generator) -> SamplePath:
    """One trajectory of `system` from x0 over [0, horizon], drawing from rng
    in the ensemble's stream order.

    horizon is a step count for discrete systems, which take h=None; flows and
    hybrid systems take the Euler-Maruyama step h, and hybrid horizons and
    dwell times must be integer multiples of the dwell time and of h.  Every
    map application and flow step is sampled, and both sides of every reset,
    the k = 0 reset first and the closing one at the horizon last.  Raises
    NonFiniteState at the first sample that leaves the finite floats; its
    step_index is that sample's index in the path.
    """
    times, sides, segments = _plan(system, horizon, h, None, 1)
    x = np.array(x0, dtype=float)
    dimension = _dimension(system)
    if x.shape != (dimension,):
        raise DimensionMismatch(f"state shape {x.shape}, expected {(dimension,)}")

    def record(states, g):
        if not np.all(np.isfinite(states[0])):
            raise NonFiniteState(g)
        return states[0]

    return SamplePath(times=times, sides=sides,
                      states=_run_block(segments, [[rng]], [x[None]], (True,), record)[0])


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
    is the flow step h, None for discrete systems; hybrid dwell times must be
    integer multiples of it.  record_every thins the samples of continuous
    runs and must stay 1 for the other kinds; interior_per_dwell is the number
    of samples inside each dwell of a hybrid run (None: 4) and must stay None
    for the other kinds.
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
    interior_per_dwell: int | None = None
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.pair_count < 1:
            raise ValueError(f"pair_count must be >= 1, got {self.pair_count}")
        if self.pairing_mode not in ("two-noisy", "noisy-vs-noisefree"):
            raise ValueError(f"unknown pairing_mode {self.pairing_mode!r}")
        if self.statistic not in ("ms", "distance"):
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.interior_per_dwell is not None and self.interior_per_dwell < 0:
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
        _write_csv(path, {"time": self.times, "side": self.sides, "mean_sq_dist": self.mean_sq,
                          "stderr": self.stderr, "n_alive": self.n_alive,
                          **(extra_columns or {})})

    def steady_state(self, window_frac: float = STEADY_FRAC) -> tuple[float, float]:
        """Mean of the statistic over the trailing window, with a conservative
        standard error (the window average of per-time standard errors; no
        independence across times is assumed)."""
        count = max(1, int(round(window_frac * self.times.size)))
        return (float(self.mean_sq[-count:].mean()), float(self.stderr[-count:].mean()))


def _apply_gain(gain: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # gain: (n, d) shared, or (B, n, d) state-dependent; draws: (B, d).  A
    # (1, 1) gain is one product per row, which the matmul rounds once too
    if gain.shape == (1, 1):
        return draws * gain[0]
    if gain.ndim == 2:
        return draws @ gain.T
    return np.einsum("bnd,bd->bn", gain, draws)


def _dimension(system) -> int:
    return system.continuous.dimension if isinstance(system, HybridSystem) \
        else system.dimension


def _corners(init: InitialPointPair | InitialBox, dimension: int) -> list[np.ndarray]:
    """The two points of a point pair, or a box's lows and highs, as (dimension,)."""
    pair = (init.a, init.b) if isinstance(init, InitialPointPair) else (init.lows, init.highs)
    return [np.broadcast_to(np.asarray(p, dtype=float), (dimension,)) for p in pair]


def _initial_states(init: InitialPointPair | InitialBox, dimension: int,
                    gens) -> list[np.ndarray]:
    """Start states (runs, dimension) of the members of a block of runs;
    gens[m] holds member m's generators in run order.  A point pair needs two
    members; a box draws each start from the run's own generator."""
    first, second = _corners(init, dimension)
    if isinstance(init, InitialPointPair):
        return [np.broadcast_to(p, (len(gens[0]), dimension)).copy() for p in (first, second)]
    if first.tobytes() == first[:1].tobytes() * dimension \
            and second.tobytes() == second[:1].tobytes() * dimension:
        # one low and one high for every coordinate: NumPy's scalar path runs
        # the same low + (high - low) * u as the array path, with less checking
        low, high = float(first[0]), float(second[0])
        return [np.stack([g.uniform(low, high, dimension) for g in member]) for member in gens]
    return [np.stack([g.uniform(first, second) for g in member]) for member in gens]


def initial_ms(init: InitialPointPair | InitialBox, dimension: int) -> float:
    """Exact mean squared separation E|a - b|^2 of a pair's two start states:
    |a - b|^2 for a point pair, and sum (high - low)^2 / 6 for independent
    uniform draws from a box.  Squares by Python's float ** 2, as the closed
    forms of the bounds do."""
    first, second = (p.tolist() for p in _corners(init, dimension))
    ms = sum((x - y) ** 2 for x, y in zip(first, second))
    return ms if isinstance(init, InitialPointPair) else ms / 6


def _interior_offsets(steps_per_dwell: int, interior_per_dwell: int | None) -> list[int]:
    if interior_per_dwell is None:  # every flow step
        return list(range(1, steps_per_dwell))
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
    start + h, ... (stride h).  Each member draws `width` standard normals per
    update, in stream order, in one call for the whole segment or per _slices
    range of a long one; a segment that `joins_next` (the reset opening a
    dwell) is drawn in the same call as the first range of the next segment.
    A sample is taken after every update whose 1-based count is in `marks`."""

    part: DiscreteMapSystem | ContinuousSDESystem
    start: float
    stride: float
    steps: int
    width: int
    marks: frozenset[int]
    joins_next: bool = False


def _plan(system, horizon: float, h: float | None, interior_per_dwell: int | None,
          record_every: int):
    """Sample grid (times, sides) and update segments, in stream order, of one
    run of `system` over `horizon` (a step count for discrete systems).

    A discrete run is one segment of map applications, sampled after each, and
    takes no step size.  A continuous run is one flow segment from t = 0,
    sampled every `record_every` steps.  A hybrid run is the reset at t = 0,
    then per dwell a flow segment with `interior_per_dwell` interior samples
    (None: every flow step) followed by a reset; both sides of every reset are
    sampled.  record_every applies to continuous runs only, and
    interior_per_dwell, which other kinds take as None, to hybrid runs only.
    """
    if not isinstance(system, ContinuousSDESystem) and record_every != 1:
        raise ValueError(f"record_every {record_every} applies to continuous systems only")
    if not isinstance(system, HybridSystem) and interior_per_dwell is not None:
        raise ValueError(f"interior_per_dwell {interior_per_dwell} applies to hybrid "
                         "systems only")
    if isinstance(system, DiscreteMapSystem):
        if h is not None:
            raise ValueError(f"step_size {h} does not apply to discrete systems")
        if not math.isfinite(horizon):
            raise ValueError(f"discrete horizon must be finite, got {horizon}")
        steps = int(round(horizon))
        if steps < 1 or abs(steps - horizon) > 0:
            raise ValueError(f"discrete horizon must be a positive step count, got {horizon}")
        segment = _Segment(system, 0, 1, steps, system.noise.dimension,
                           frozenset(range(1, steps + 1)))
        return np.arange(steps + 1, dtype=float), ("interior",) * (steps + 1), [segment]
    if isinstance(system, ContinuousSDESystem):
        if h is None:
            raise ValueError("step_size is required for continuous systems")
        steps = _check_step_count(horizon, h, "horizon")
        if steps % record_every != 0:
            raise ValueError(f"record_every {record_every} does not divide {steps} steps")
        idx = np.arange(0, steps + 1, record_every)
        segment = _Segment(system, 0, h, steps, system.noise_dim,
                           frozenset(range(record_every, steps + 1, record_every)))
        return idx * h, ("interior",) * idx.size, [segment]
    if not isinstance(system, HybridSystem):
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if h is None:
        raise ValueError("step_size is required for hybrid systems")
    cont, reset, tau = system.continuous, system.reset, system.dwell_time
    n_dwell = _check_step_count(horizon, tau, "horizon", "the dwell time")
    steps = _check_step_count(tau, h, "dwell time")
    offsets = _interior_offsets(steps, interior_per_dwell)
    flow_marks = frozenset([*offsets, steps])
    segments = [_Segment(reset, 0, 1, 1, reset.noise.dimension, frozenset({1}), True)]
    times, sides = [0.0, 0.0], ["pre", "post"]
    for k in range(n_dwell):
        segments += [_Segment(cont, k * tau, h, steps, cont.noise_dim, flow_marks),
                     _Segment(reset, k + 1, 1, 1, reset.noise.dimension, frozenset({1}),
                              k + 1 < n_dwell)]
        times += [k * tau + j * h for j in offsets] + [(k + 1) * tau] * 2
        sides += ["interior"] * len(offsets) + ["pre", "post"]
    return np.asarray(times), tuple(sides), segments


def _stepper(part, h: float, lone: bool) -> tuple[Callable, Callable]:
    """(advance, shape) of one subsystem: shape(z) turns a member's standard
    normals z, (rows, steps, width), into its noise in place, and
    advance(x, at, w) is one map application at index `at` or one
    Euler-Maruyama step from time `at` of the stacked state x.  With lone, x is
    a lone run's two identical rows, and a callable that is not vectorized is
    called once per step, for the first."""
    if isinstance(part, DiscreteMapSystem):
        fmap = _batched_map(part.map, part.vectorized, lone)
        fgain = _batched_map(part.noise_gain, part.vectorized, lone)
        transform_t = part.noise._transform.T

        def shape(z):
            # one 2-D product (rows * steps, width), whatever the steps
            z[...] = _product(z.reshape(-1, z.shape[-1]), transform_t).reshape(z.shape)

        return lambda x, k, w: fmap(x, k) + _apply_gain(fgain(x, k), w), shape
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, computing a single row as two: NumPy's one-row
    kernel may round differently from the kernel that takes every other row
    count."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _slices(steps: int, per_step: int) -> list[tuple[int, int]]:
    """Consecutive step ranges [lo, hi) covering `steps` steps, each drawing
    at most _DRAW_VALUES values at per_step values a step (and at least one
    step)."""
    edges = [*range(0, steps, max(1, _DRAW_VALUES // per_step)), steps]
    return list(zip(edges, edges[1:]))


def _draws(segments, rows: int):
    """The pieces (segment, lo, hi) of `segments` grouped by the one
    standard-normal call per member run that draws them, in stream order: each
    segment is cut into _slices ranges for `rows` rows per member, and a
    segment that joins_next is drawn with the first range of the next."""
    held = []
    for seg in segments:
        for lo, hi in _slices(seg.steps, rows * seg.width):
            held.append((seg, lo, hi))
            if not seg.joins_next:
                yield held
                held = []


def _run_block(segments, gens, states, noisy, record) -> np.ndarray:
    """Step a block of runs in lockstep through `segments`; return their samples
    stacked as (runs, samples, ...).

    Member m of run i starts at states[m][i] and draws from gens[m][i]; it
    draws nothing and runs noise-free unless noisy[m].  The members are stepped
    as one state, member after member, so every subsystem callable is called
    once per update for the whole block, and share one noise buffer per
    _draws group: each run draws the group in one call.  record(states, g)
    returns sample g of every run, given the state as (members, runs, ...)
    (a lone run's two rows for runs).  A lone run of a single member is
    stepped as two identical rows (its draws copied, not drawn twice), so that
    no matrix product sees a single row.
    """
    members, runs = len(gens), len(gens[0])
    x = np.concatenate(states)
    lone = len(x) == 1
    if lone:
        x = np.concatenate([x, x])
    rows = len(x) // members  # per member
    spans = [slice(m * rows, (m + 1) * rows) for m in range(members)]
    samples = [record(x.reshape(members, rows, -1), 0)]
    for pieces in _draws(segments, rows):
        buf = np.empty((len(x), sum((hi - lo) * seg.width for seg, lo, hi in pieces)))
        for span, member, on in zip(spans, gens, noisy):
            z = buf[span]
            if not on:
                z[...] = 0.0
                continue
            for i, g in enumerate(member):  # no row view outlives the loop
                g.standard_normal(out=z[i])
            z[runs:] = z[0]  # the copy row of a lone run
        at_col = 0
        for seg, lo, hi in pieces:
            advance, shape = _stepper(seg.part, seg.stride, lone)
            n = (hi - lo) * seg.width
            noise = buf[:, at_col:at_col + n].reshape(len(x), hi - lo, seg.width)
            at_col += n
            for span, on in zip(spans, noisy):
                if on:
                    shape(noise[span])
            for j, w in enumerate(noise.swapaxes(0, 1), lo):
                x = advance(x, seg.start + j * seg.stride, w)
                if j + 1 in seg.marks:
                    samples.append(record(x.reshape(members, rows, -1), len(samples)))
        del buf, z, noise, w  # not held while the next group is drawn
    return np.stack(samples, axis=1)[:runs]


def _fold_chunk(chunk: np.ndarray, count: np.ndarray, mean: np.ndarray,
                msq: np.ndarray) -> int:
    """Fold a chunk of runs into the per-sample moments (count, mean, msq) in
    place and return how many of its runs failed; the chunk's array is
    overwritten.  A run never comes back once non-finite, so it counts up to
    its first non-finite sample.

    Two passes give the chunk's own mean and sum of squared deviations, each a
    sum over the runs in run order (NumPy reduces axis 0 of a C-ordered array
    row after row when a row holds more than one sample), and Chan, Golub &
    LeVeque's update merges them in:  n' = n + n_c,  d = mean_c - mean,
    mean' = mean + d (n_c / n'),  msq' = msq + M2_c + d^2 n (n_c / n'), whose
    last term is 0 where n = 0.  The samples are at least two, as on every
    grid of the engine.
    """
    alive = np.logical_and.accumulate(np.isfinite(chunk), axis=1)
    n = alive.sum(axis=0)  # never grows along the samples
    failures = len(chunk) - int(n[-1])
    reached = int(np.count_nonzero(n))  # samples that some run of the chunk reaches
    # the passes take at least two samples, as a single column would be summed
    # pairwise; a sample that no run reaches holds zeros and is merged nowhere
    width = max(reached, 2)
    x, alive = chunk[:, :width], alive[:, :width]
    if failures:
        np.copyto(x, 0.0, where=~alive)
    chunk_mean = np.add.reduce(x, axis=0) / n[:width]
    np.subtract(x, chunk_mean, out=x, where=alive if failures else True)
    np.multiply(x, x, out=x)
    old, n = count[:reached], n[:reached]
    total = old + n
    delta = chunk_mean[:reached] - mean[:reached]
    weight = n / total
    mean[:reached] += delta * weight
    msq[:reached] += np.add.reduce(x, axis=0)[:reached]
    # exactly 0 where no run came before, even where delta * delta overflows
    msq[:reached] += np.where(old > 0, delta * delta * old * weight, 0.0)
    count[:reached] = total
    return failures


def _moments(run_count: int, size: int, block_of):
    """Per-sample moments over runs 0 .. run_count - 1, folded chunk after
    chunk in run-index order.

    block_of(runs) returns the (len(runs), size) samples of a block of at most
    _BLOCK runs, as an array the fold may overwrite.  The runs are reduced in
    chunks of _FOLD consecutive runs (the last may be shorter), whatever
    _BLOCK is: a block that holds whole chunks is cut into views, and blocks
    smaller than a chunk are joined by a copy, so the moments do not depend on
    the blocking.  A run counts as a failure and stops contributing from its
    first non-finite sample on.  Returns (count, mean, stderr, failures).
    """
    count = np.zeros(size, dtype=np.int64)
    mean = np.zeros(size)
    msq = np.zeros(size)
    failures = 0
    pieces = []  # the chunk gathered so far
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, run_count, _BLOCK):
            block = block_of(range(lo, min(lo + _BLOCK, run_count)))
            at = 0
            while at < len(block):
                end = min(len(block), at + _FOLD - (lo + at) % _FOLD)
                pieces.append(block[at:end])
                at = end
                if (lo + at) % _FOLD == 0 or lo + at == run_count:
                    failures += _fold_chunk(
                        pieces[0] if len(pieces) == 1 else np.concatenate(pieces),
                        count, mean, msq)
                    pieces = []
            del block  # not held while the next block is simulated
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
    interior = config.interior_per_dwell
    if interior is None and isinstance(system, HybridSystem):
        interior = _INTERIOR_PER_DWELL  # _plan's None samples every flow step
    times, sides, segments = _plan(system, config.horizon, config.step_size, interior,
                                   config.record_every)
    dimension = _dimension(system)
    metric = _as_metric(metric, dimension)
    noisy = (True, config.pairing_mode == "two-noisy")
    # a product by the identity factor changes no distance
    plain = metric.kind == "constant" and np.array_equal(metric.factor(), np.eye(dimension))

    def record(states, g):
        diff = states[0] - states[1]
        if not plain:
            side = "post" if sides[g] == "interior" else sides[g]
            diff = _product(diff, metric.factor(float(times[g]), side).T)
        sq = (diff ** 2).sum(axis=1)
        return sq if config.statistic == "ms" else np.sqrt(sq)

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
    worst_slack: float  # min over measured points of (bound + slack*stderr - mean)
    bounds: np.ndarray
    passed: np.ndarray


def check_bound_respect(stats: EnsembleStats, bound, slack: float = 3.0) -> BoundCheck:
    """Check mean <= bound + slack * stderr at every grid point.

    The statistical allowance sits on the bound side because the bounds are
    tight for linear systems: the true moment can sit exactly at the bound,
    and only an excess beyond Monte Carlo error is evidence of a violation.
    `bound` is a BoundReport (discrete reports are indexed by step, hybrid
    reports by time and side) or a callable (time, side) -> float.  Infinite
    bound values pass trivially.  A point where no pair is alive measures
    nothing and counts as a violation whatever the bound, as does a non-finite
    mean; neither enters worst_slack.
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
    measured = np.isfinite(stats.mean_sq) & (stats.n_alive > 0)
    with np.errstate(invalid="ignore"):
        passed = ~(margin < 0) & measured  # an infinite bound passes a measured point
    n_violations = int((~passed).sum())
    finite = np.isfinite(margin) & measured
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
