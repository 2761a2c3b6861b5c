"""Monte Carlo machinery: seeded streams, steppers, and pair ensembles.

Trajectory pairs evolve under independent noise realizations of the same
system; the per-time mean squared metric distance between the members is the
empirical quantity every bound in this package speaks about.  Streams are
keyed by (master seed, pair index, member index), so any member's noise
sequence is reproducible in isolation and results are independent of execution
order.  A member's stream is PCG64 seeded by SeedSequence((seed, pair, member)),
bit-identical to np.random.default_rng((seed, pair, member)); the seed hash is
computed for 1,024 consecutive pairs at once, which changes no bits.  The
engine derives a member's generator at its first draw (a box start, then its
first noise) and keeps it only while a later draw call needs it: a run drawn
in one call drops it at once, so a block does not hold its generators
together; a run drawn in several calls (long flows and hybrids) keeps its noisy
members' generators until the block's last call.  Hybrid
runs apply the boundary reset at the initial instant first and record both
one-sided samples at every reset time.

Euler-Maruyama is the only integrator: x <- x + f(x, t) h + sigma(x, t) sqrt(h) z
with standard-normal z.  One engine steps every run: a plan splits the run into
segments of map applications and flow steps, and a block of runs moves through
them in lockstep.  The two members of every pair in a block are stepped as one
state, member after member, so each system callable is called once per update
for the whole block.  A block builds each subsystem's stepper once; every step
calls vectorized callables directly, with no wrapper in between, and reads
their values by statespace's one shape rule.  The per-sample moments are
reduced in fixed chunks of
_FOLD = 1,024 consecutive runs, whatever the block size: two passes over a
chunk, each summing its runs in run order, give the chunk's mean and sum of
squared deviations, and the chunks are merged in run-index order by Chan,
Golub & LeVeque's update (1979).  The blocks tile each chunk, so the
reduction does not depend on the blocking; a 1,024-run block is one chunk,
folded in place with no copy.  A member draws its normals in
stream order, in calls that take the run's next updates, across segment
boundaries, while they fit _DRAW_VALUES values for the whole block (and at
least one update), so its memory does not grow with the horizon and its bits
are those of one draw per run.  A map's noise is its standard
normal draws and a flow's is its draws times sqrt(h), each shaped only by its
gain.  Products that change no bits are skipped: a distance in the constant
identity metric squares the member difference directly, and a (1, 1) gain
multiplies the draws elementwise, which the matmul also rounds once (only the
sign of an exactly zero term may differ).  A box start whose coordinates
share one low and one high takes NumPy's scalar uniform, bit for bit the
array call.  One rule keeps NumPy's one-row kernel out of every product: a
block of a single run, whatever its member count, steps each member as two
identical rows (its start and draws copied, not drawn twice), so no product
ever sees a single row.  For hopf-cpg, blocks of 4, 3 and 2 runs give the same
bits; a BLAS that picks its kernels by row count at larger sizes could still
make a run's last bits depend on the size of its block.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         HybridSystem, MetricSpec, _as_metric, _batched_map, _check_count,
                         _reader)

_BLOCK = 1024  # runs simulated in lockstep per block; fixed
_FOLD = 1024  # consecutive runs reduced together, whatever _BLOCK is; fixed
_DRAW_VALUES = 2**17  # most standard normals in one member's noise buffer (1 MiB)
STEPS_PER_DWELL = 100  # default flow steps per dwell of a hybrid system
_INTERIOR_PER_DWELL = 4  # default interior samples per dwell of a hybrid pair ensemble
STEADY_FRAC = 0.2  # trailing fraction of a run's time that steady values average over


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


def sample_path(system, x0: np.ndarray | InitialBox, horizon: float, h: float | None,
                rng: np.random.Generator) -> SamplePath:
    """One trajectory of `system` over [0, horizon] from the point x0 (a
    scalar broadcasts) or from a start drawn from the InitialBox x0, drawing
    from rng in the ensemble's stream order: the box start, then the noise.

    horizon is a step count for discrete systems, which take h=None; flows and
    hybrid systems take the Euler-Maruyama step h, and hybrid horizons and
    dwell times must be integer multiples of the dwell time and of h.  Every
    map application and flow step is sampled, and both sides of every reset,
    the k = 0 reset first and the closing one at the horizon last.  Raises
    NonFiniteState at the first sample that leaves the finite floats; its
    step_index is that sample's index in the path.
    """
    times, sides, segments = _plan(system, horizon, h, None, 1)
    if not isinstance(x0, InitialBox):
        x0 = InitialPointPair(x0, x0)  # shape-checked by _corners, as ensemble starts are
        if not np.all(np.isfinite(_corners(x0, system.dimension)[0])):
            raise NonFiniteState(0)  # before anything is drawn from rng

    def record(states, g):
        if not np.all(np.isfinite(states[0])):
            raise NonFiniteState(g)
        return states[0]

    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteState
        states = _run_block(segments, range(1), lambda m, i: rng, x0, (True,), record)[0]
    return SamplePath(times=times, sides=sides, states=states)


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
    for the other kinds.  master_seed is an integer >= 0, as the counts are.
    pairing_mode "noisy-vs-noisefree" silences member b's noise (it still
    draws its initial condition).
    """

    pair_count: int
    horizon: float
    master_seed: int
    initial: InitialPointPair | InitialBox
    step_size: float | None = None
    pairing_mode: str = "two-noisy"
    interior_per_dwell: int | None = None
    record_every: int = 1

    def __post_init__(self) -> None:
        _check_count("pair_count", self.pair_count)
        _check_count("master_seed", self.master_seed, 0)
        if self.pairing_mode not in ("two-noisy", "noisy-vs-noisefree"):
            raise ValueError(f"unknown pairing_mode {self.pairing_mode!r}")
        if self.interior_per_dwell is not None:
            _check_count("interior_per_dwell", self.interior_per_dwell, 0)
        _check_count("record_every", self.record_every)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time empirical moments of the squared pair distance (or of the
    recorded statistic, such as the ring's phase-locking delta).

    mean_sq holds the mean squared distance between a pair's members, in the
    ensemble's one constant metric, over pairs still finite at that time;
    n_alive counts them, and failures counts pairs that left the finite floats
    anywhere on the grid.
    steady_mean and steady_stderr fold each pair's mean over the steady
    window, every sample at t >= (1 - STEADY_FRAC) * horizon, over the pairs
    finite on the whole grid.  Any mean over no pair is NaN, any stderr over fewer than two.
    """

    times: np.ndarray
    sides: tuple[str, ...]
    mean_sq: np.ndarray
    stderr: np.ndarray
    n_pairs: int
    n_alive: np.ndarray
    failures: int
    steady_mean: float = math.nan
    steady_stderr: float = math.nan

    def to_csv(self, path, extra_columns: dict[str, Sequence] | None = None) -> None:
        """Write `time,side,mean_sq_dist,stderr,n_alive` rows (plus any extras)."""
        _write_csv(path, {"time": self.times, "side": self.sides, "mean_sq_dist": self.mean_sq,
                          "stderr": self.stderr, "n_alive": self.n_alive,
                          **(extra_columns or {})})

    def steady_state(self) -> tuple[float, float]:
        """(steady_mean, steady_stderr)."""
        return self.steady_mean, self.steady_stderr


def _apply_gain(gain: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # gain: (n, d) shared, or (B, n, d) state-dependent; draws: (B, d).  A
    # (1, 1) gain is one product per row, which the matmul rounds once too.
    # A shared gain's transpose is copied to C order.  On NumPy 2.4 with
    # OpenBLAS 0.3.31 (Haswell kernels) that product took less time than the
    # one of the transposed view and gave its bits over a sweep of shapes; no
    # other BLAS build was checked (see the README)
    if gain.shape == (1, 1):
        return draws * gain[0]
    if gain.ndim == 2:
        return draws @ np.ascontiguousarray(gain.T)
    return np.einsum("bnd,bd->bn", gain, draws)


def _corners(init: InitialPointPair | InitialBox, dimension: int) -> list[np.ndarray]:
    """The two points of a point pair, or a box's lows and highs, as (dimension,);
    a scalar point broadcasts.  A box coordinate whose low or high is not
    finite, or whose high - low is negative, -0.0 over 0.0 too, raises
    ValueError, as NumPy's uniform would raise for the latter."""
    pair = [np.asarray(p, dtype=float) for p in
            ((init.a, init.b) if isinstance(init, InitialPointPair) else (init.lows, init.highs))]
    if any(p.shape not in ((), (dimension,)) for p in pair):
        raise DimensionMismatch(f"initial points of shapes {pair[0].shape} and {pair[1].shape}, "
                                f"expected scalars or {(dimension,)}")
    lows, highs = (np.broadcast_to(p, (dimension,)) for p in pair)
    if isinstance(init, InitialBox):
        unbounded = np.flatnonzero(~(np.isfinite(lows) & np.isfinite(highs)))
        if unbounded.size:
            k = int(unbounded[0])
            raise ValueError(f"initial box coordinate {k} has low {float(lows[k])!r} and "
                             f"high {float(highs[k])!r}; both must be finite")
        with np.errstate(over="ignore"):
            inverted = np.flatnonzero(np.signbit(highs - lows))
        if inverted.size:
            k = int(inverted[0])
            raise ValueError(f"initial box coordinate {k} has high {float(highs[k])!r} "
                             f"below its low {float(lows[k])!r}")
    return [lows, highs]


def _box_start(box: InitialBox, dimension: int) -> Callable[[np.random.Generator], np.ndarray]:
    """g -> one start (dimension,) drawn uniformly from the box by generator g.
    When every coordinate shares one low and one high (compared as bytes, so
    -0.0 and 0.0 differ), NumPy's scalar uniform runs the same
    low + (high - low) * u as the array call, with less checking."""
    lows, highs = _corners(box, dimension)
    if lows.tobytes() == lows[:1].tobytes() * dimension \
            and highs.tobytes() == highs[:1].tobytes() * dimension:
        low, high = float(lows[0]), float(highs[0])
        return lambda g: g.uniform(low, high, dimension)
    return lambda g: g.uniform(lows, highs)


def _squared_distance(metric, dimension: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(a, b) -> |Theta (a - b)|^2 per row of two (m, dimension) arrays, in the
    constant metric M = Theta^T Theta (a matrix, a MetricSpec, or None for the
    identity); a product by the identity factor changes no distance, so it is
    skipped."""
    factor_t = _as_metric(metric, dimension).factor().T
    if np.array_equal(factor_t, np.eye(dimension)):
        return lambda a, b: ((a - b) ** 2).sum(axis=1)
    return lambda a, b: (((a - b) @ factor_t) ** 2).sum(axis=1)


def initial_ms(init: InitialPointPair | InitialBox, metric: MetricSpec) -> float:
    """Exact mean squared separation E|Theta (a - b)|^2 of a pair's two start
    states in a constant metric M = Theta^T Theta: for a point pair, the
    engine's t = 0 sample bit for bit (taken over two identical rows, as the
    engine never multiplies a single row), and sum M_kk (high_k - low_k)^2 / 6
    for independent uniform draws from a box."""
    a, b = _corners(init, metric.dimension)
    try:
        with np.errstate(over="raise"):  # an OverflowError, as Python's float ** raises
            if isinstance(init, InitialPointPair):
                return float(_squared_distance(metric, metric.dimension)(
                    np.stack([a, a]), np.stack([b, b]))[0])
            # a box's independent coordinates leave no cross terms
            return float(np.diag(metric.value()) @ (a - b) ** 2) / 6
    except FloatingPointError as err:
        raise OverflowError(err) from None


def _interior_offsets(steps: int, interior_per_dwell: int | None) -> list[int]:
    """The n = min(interior_per_dwell, steps - 1) flow steps (None: all steps - 1)
    after which a dwell of `steps` is sampled inside, round(j steps / (n + 1))
    for j = 1 .. n: spaced by at least 1, so distinct and in 1 .. steps - 1."""
    n = steps - 1 if interior_per_dwell is None else min(interior_per_dwell, steps - 1)
    return [round(j * steps / (n + 1)) for j in range(1, n + 1)]


# --- the trajectory engine --------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    """`steps` updates of a run by one subsystem: map applications at indices
    start, start + 1, ... (stride 1) or Euler-Maruyama steps from times start,
    start + h, ... (stride h).  Each member draws `width` standard normals per
    update, in stream order, in the _draws calls that hold the update.  A
    sample is taken after every update whose 1-based count is in `marks`."""

    part: DiscreteMapSystem | ContinuousSDESystem
    start: float
    stride: float
    steps: int
    width: int
    marks: frozenset[int]


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
    segments = [_Segment(reset, 0, 1, 1, reset.noise.dimension, frozenset({1}))]
    times, sides = [0.0, 0.0], ["pre", "post"]
    for k in range(n_dwell):
        segments += [_Segment(cont, k * tau, h, steps, cont.noise_dim, flow_marks),
                     _Segment(reset, k + 1, 1, 1, reset.noise.dimension, frozenset({1}))]
        times += [k * tau + j * h for j in offsets] + [(k + 1) * tau] * 2
        sides += ["interior"] * len(offsets) + ["pre", "post"]
    return np.asarray(times), tuple(sides), segments


def _stepper(part, h: float, lone: bool) -> Callable:
    """advance(x, at, w) of one subsystem: one map application at index `at`
    or one Euler-Maruyama step from time `at` of the stacked state x, at least
    two rows per member, with noise w; with lone, each member is a lone run's
    two identical rows, and a callable that is not vectorized is called once
    per member and step.  Vectorized callables are called directly, with no
    wrapper, and every value is read by statespace's one shape rule, so a
    value of another shape raises DimensionMismatch instead of broadcasting."""
    if isinstance(part, DiscreteMapSystem):
        names, f, g, width = ("map", "noise_gain"), part.map, part.noise_gain, part.noise.dimension
    else:
        names, f, g, width = ("drift", "diffusion"), part.drift, part.diffusion, part.noise_dim
    if not part.vectorized:
        f, g = _batched_map(f, lone), _batched_map(g, lone)
    read_f = _reader(part, names[0], (part.dimension,))
    read_g = _reader(part, names[1], (part.dimension, width))

    if isinstance(part, DiscreteMapSystem):
        def advance(x, k, w):
            return read_f(f(x, k), len(x)) + _apply_gain(read_g(g(x, k), len(x)), w)
        return advance

    def euler(x, t, w):
        # x + f h + g w in one new array; never writes into what a callable returned
        out = np.multiply(read_f(f(x, t), len(x)), h, out=np.empty_like(x))
        out += x
        out += _apply_gain(read_g(g(x, t), len(x)), w)
        return out

    return euler


def _draws(segments, rows: int):
    """The pieces (segment, lo, hi) of `segments` grouped by the one
    standard-normal call per member run that draws them, in stream order: a
    call takes the next updates, across segment boundaries, while they fit
    _DRAW_VALUES // rows values per row, and at least one update."""
    budget, held, used = _DRAW_VALUES // rows, [], 0
    for seg in segments:
        lo = 0
        while lo < seg.steps:
            fit = (budget - used) // seg.width
            if fit < 1 and held:
                yield held
                held, used = [], 0
                continue
            hi = min(seg.steps, lo + max(fit, 1))
            held.append((seg, lo, hi))
            used, lo = used + (hi - lo) * seg.width, hi
    yield held


def _run_block(segments, runs: range, stream, start, noisy, record) -> np.ndarray:
    """Step a block of runs in lockstep through `segments`; return their samples
    stacked as (runs, samples, ...).

    Member m of run i draws from the generator stream(m, i), derived at the
    member run's first draw: in the first _draws group each member run, in
    stream order, derives its generator, draws its start from the box when
    `start` is an InitialBox, then draws the group's normals.  With a single
    draw group a generator is dropped right after its draws, so no two of a
    block are alive at once; with more groups, the noisy members' generators
    are kept until the last.  `start` is otherwise an InitialPointPair, whose
    point a (b) every run of member 0 (1) starts at.  A member draws no
    normals and runs noise-free unless noisy[m]; given starts, it derives none.

    The members are stepped as one state, member after member, so every
    subsystem callable is called once per update for the whole block, and
    share one noise buffer per _draws group: each run draws the group in one
    call.  record(states, g) returns sample g of every run, given the state as
    (members, rows, ...).  A block of a single run, whatever its member count,
    steps each member as two identical rows (start and draws copied, not drawn
    twice), so that no matrix product sees a single row.
    """
    members, count = len(noisy), len(runs)
    lone = count == 1
    rows = 2 if lone else count  # per member
    dimension = segments[0].part.dimension
    x = np.empty((members * rows, dimension))
    spans = [slice(m * rows, (m + 1) * rows) for m in range(members)]
    box = _box_start(start, dimension) if isinstance(start, InitialBox) else None
    if box is None:
        for span, point in zip(spans, _corners(start, dimension)):
            x[span] = point
    groups = list(_draws(segments, rows))
    steppers = {}  # advance of each part and stride, built once per block
    for seg in segments:
        key = (id(seg.part), seg.stride)
        if key not in steppers:
            steppers[key] = _stepper(seg.part, seg.stride, lone)
    kept = [[] for _ in noisy] if len(groups) > 1 else None  # generators for later groups
    samples = []
    for group, pieces in enumerate(groups):
        buf = np.empty((len(x), sum((hi - lo) * seg.width for seg, lo, hi in pieces)))
        for m, (span, on) in enumerate(zip(spans, noisy)):
            z = buf[span]
            if group:
                for i, g in enumerate(kept[m]):  # no row view outlives the loop
                    g.standard_normal(out=z[i])
            elif on or box is not None:  # a member run that draws nothing derives no stream
                for i, run in enumerate(runs):
                    g = stream(m, run)
                    if box is not None:
                        x[span.start + i] = box(g)
                    if on:
                        g.standard_normal(out=z[i])
                        if kept is not None:
                            kept[m].append(g)
                    del g  # dropped before the next generator is derived
                x[span.start + count:span.stop] = x[span.start]  # the copy row of a lone run
            if on:
                z[count:] = z[0]
            else:
                z[...] = 0.0
        if not group:
            samples.append(record(x.reshape(members, rows, -1), 0))
        at_col = 0
        for seg, lo, hi in pieces:
            advance = steppers[id(seg.part), seg.stride]
            t0, stride, marks = seg.start, seg.stride, seg.marks
            n = (hi - lo) * seg.width
            noise = buf[:, at_col:at_col + n].reshape(len(x), hi - lo, seg.width)
            at_col += n
            if isinstance(seg.part, ContinuousSDESystem):  # noise-free zeros stay zeros
                np.multiply(noise, math.sqrt(stride), out=noise)
            for j, w in enumerate(noise.swapaxes(0, 1), lo):
                x = advance(x, t0 + j * stride, w)
                if j + 1 in marks:
                    samples.append(record(x.reshape(members, rows, -1), len(samples)))
        del buf, z, noise, w  # not held while the next group is drawn
    return np.stack(samples, axis=1)[:count]


def _fold_chunk(chunk: np.ndarray, count: np.ndarray, mean: np.ndarray,
                msq: np.ndarray) -> None:
    """Fold a chunk of runs into the per-sample moments (count, mean, msq) in
    place, overwriting the chunk.  A run counts up to its first non-finite
    sample; a mask drops the rest, and changes no bit where every run is finite.

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
    reached = int(np.count_nonzero(n))  # samples that some run of the chunk reaches
    # the passes take at least two samples, as a single column would be summed
    # pairwise; a sample that no run reaches holds zeros and is merged nowhere
    width = max(reached, 2)
    x, alive = chunk[:, :width], alive[:, :width]
    np.copyto(x, 0.0, where=~alive)
    chunk_mean = np.add.reduce(x, axis=0) / n[:width]
    np.subtract(x, chunk_mean, out=x, where=alive)
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


def _moments(run_count: int, size: int, block_of):
    """Per-sample moments over runs 0 .. run_count - 1, folded chunk after
    chunk in run-index order.

    block_of(runs) returns the (len(runs), size) samples of a block of at most
    _BLOCK runs, as an array the fold may overwrite.  The runs are reduced in
    chunks of _FOLD consecutive runs (the last may be shorter), and the blocks
    tile each chunk, so the moments do not depend on the blocking: a 1,024-run
    block is one chunk, folded in place with no copy, and smaller blocks are
    joined by one.  A run stops contributing from its first non-finite sample
    on, so count[-1] counts the runs finite on every sample.  Returns
    (count, mean, stderr): NaN mean over no run, NaN stderr over fewer than two.
    """
    count = np.zeros(size, dtype=np.int64)
    mean = np.zeros(size)
    msq = np.zeros(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, run_count, _FOLD):
            hi = min(lo + _FOLD, run_count)
            blocks = [block_of(range(at, min(at + _BLOCK, hi))) for at in range(lo, hi, _BLOCK)]
            _fold_chunk(blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
                        count, mean, msq)
            del blocks  # not held while the next chunk is simulated
    mean[count == 0] = math.nan
    stderr = np.full(size, math.nan)
    settled = count > 1
    stderr[settled] = np.sqrt(msq[settled] / (count[settled] - 1) / count[settled])
    return count, mean, stderr


def _ensemble(system, config: EnsembleConfig, noisy: tuple[bool, ...],
              record) -> tuple[EnsembleStats, float]:
    """(EnsembleStats, window start) of the runs of `config`: planned, stepped
    block after block and folded, each run's mean over the steady window
    (EnsembleStats) as its last sample.  Member m of run i draws from the
    stream (master_seed, i, m), noisy when noisy[m]; record(states) is a
    sample of a block's runs, states (members, rows, ...).
    """
    interior = config.interior_per_dwell
    if interior is None and isinstance(system, HybridSystem):
        interior = _INTERIOR_PER_DWELL  # _plan's None samples every flow step
    times, sides, segments = _plan(system, config.horizon, config.step_size, interior,
                                   config.record_every)
    window_start = (1.0 - STEADY_FRAC) * config.horizon
    window = times >= window_start

    def block_of(runs):
        block = _run_block(segments, runs, lambda m, i: derive_stream(config.master_seed, i, m),
                           config.initial, noisy, lambda states, g: record(states))
        # each run's window summed in time order, in a block of one run too
        total = np.add.accumulate(block[:, window], axis=1)[:, -1]
        return np.column_stack([block, total / np.count_nonzero(window)])

    count, mean, stderr = _moments(config.pair_count, times.size + 1, block_of)
    return EnsembleStats(times=times, sides=sides, mean_sq=mean[:-1], stderr=stderr[:-1],
                         n_pairs=config.pair_count, n_alive=count[:-1],
                         failures=config.pair_count - int(count[-2]),
                         steady_mean=float(mean[-1]), steady_stderr=float(stderr[-1])
                         ), window_start


def run_pair_ensemble(system, config: EnsembleConfig, metric=None) -> EnsembleStats:
    """Simulate pair_count independent trajectory pairs and reduce their
    squared distance in `metric` (a matrix, a MetricSpec, or None for the
    identity) to per-time means and standard errors, and steady values.

    Pairs are independent work units; the reduction visits them in pair-index
    order regardless of internal blocking, so the output is reproducible
    bit-for-bit from (system, config, metric) alone.  Pairs whose state leaves
    the finite floats stop contributing from the first bad sample on and are
    counted in `failures`, never silently dropped.
    """
    distance = _squared_distance(metric, system.dimension)
    return _ensemble(system, config, (True, config.pairing_mode == "two-noisy"),
                     lambda states: distance(states[0], states[1]))[0]


# --- comparison against bound trajectories ----------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """Pointwise comparison of an ensemble against a bound trajectory.
    n_checked counts the grid points, n_finite the measured ones among them
    whose bound is finite."""

    ok: bool
    n_checked: int
    n_finite: int
    n_violations: int
    worst_slack: float  # min over measured points of (bound + slack*stderr - mean)
    bounds: np.ndarray
    passed: np.ndarray


def check_bound_respect(stats: EnsembleStats, bound, slack: float = 3.0) -> BoundCheck:
    """Check mean <= bound + slack * stderr at every grid point.

    The statistical allowance sits on the bound side because the bounds are
    tight for linear systems: the true moment can sit exactly at the bound,
    and only an excess beyond Monte Carlo error is evidence of a violation.
    `bound` is any callable (time, side) -> float evaluated at every grid
    sample, such as a BoundReport, which reads itself on the grid.  Infinite
    bound values pass trivially, a NaN bound fails its point, and only measured
    points with a finite bound count in n_finite; with none, nothing was
    checked and ok is False.  A point whose mean or stderr is not finite (NaN
    over too few pairs, or overflowed) measures nothing: a violation whatever
    the bound, outside worst_slack.
    A slack that is NaN, infinite or negative raises ValueError.
    """
    if not 0.0 <= slack < math.inf:  # NaN too
        raise ValueError(f"slack must be finite and >= 0, got {slack}")
    values = np.asarray([bound(float(t), side) for t, side in zip(stats.times, stats.sides)])
    measured = np.isfinite(stats.mean_sq) & np.isfinite(stats.stderr)
    with np.errstate(invalid="ignore"):  # inf - inf where a mean overflowed
        margin = values + slack * stats.stderr - stats.mean_sq
        passed = (margin >= 0) & measured  # an infinite bound passes, a NaN one fails
    n_violations = int((~passed).sum())
    finite = np.isfinite(margin) & measured
    worst = float(margin[finite].min()) if finite.any() else math.inf
    n_finite = int(np.count_nonzero(np.isfinite(values) & measured))
    return BoundCheck(ok=n_violations == 0 and n_finite > 0, n_checked=int(values.size),
                      n_finite=n_finite, n_violations=n_violations, worst_slack=worst,
                      bounds=values, passed=passed)

