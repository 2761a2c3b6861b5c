"""Trajectory simulation, pair ensembles, bound checks, decay fits."""
from __future__ import annotations

import functools
import io
import math
import operator
import os
import pickle
import re
import signal
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import concert.cpg as cpg
import concert.simulate as simulate
from concert import (
    ContinuousSDESystem,
    DimensionMismatch,
    DiscreteMapSystem,
    EnsembleConfig,
    GaussianNoiseSpec,
    HybridSystem,
    InitialBox,
    InitialPointPair,
    MetricSpec,
    NonFiniteState,
    SamplingRegion,
    certified_bound,
    certify_discrete,
    check_bound_respect,
    derive_stream,
    discrete_ms_bound,
    run_pair_ensemble,
    sample_path,
)
from concert.systems import dwell_step_default, get_recipe, resolve_params
from helpers import fit_geometric_decay


def branched_interior_offsets(steps_per_dwell, interior_per_dwell):
    """The interior offsets by the earlier rule, a branch per special case: None,
    a zero count, a one-step dwell, and a filter of the rounded offsets."""
    if interior_per_dwell is None:  # every flow step
        return list(range(1, steps_per_dwell))
    if interior_per_dwell == 0 or steps_per_dwell < 2:
        return []
    n = min(interior_per_dwell, steps_per_dwell - 1)
    raw = [round(j * steps_per_dwell / (n + 1)) for j in range(1, n + 1)]
    return sorted({j for j in raw if 1 <= j <= steps_per_dwell - 1})


def linear_map(rho=0.5, dim=1, sigma=1.0):
    return DiscreteMapSystem(
        dimension=dim,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: sigma * np.eye(dim),
        noise=GaussianNoiseSpec(dim))


def linear_flow(a=1.0, dim=1, sigma=1.0):
    return ContinuousSDESystem(
        dimension=dim,
        drift=lambda x, t: -a * np.asarray(x, dtype=float),
        diffusion=lambda x, t: sigma * np.eye(dim),
        noise_dim=dim)


def scalar_moments(rows):
    """(count, mean, stderr) of _moments, one float at a time, and the rows
    that fail: each row counts up to its first non-finite value.  The rows are
    taken in chunks of 1,024; per sample, a chunk's mean and sum of squared
    deviations are sums over its rows in row order, merged into the running
    moments in chunk order by Chan, Golub & LeVeque's update.  The mean over
    no row is NaN, and so is the stderr over fewer than two."""
    rows = np.asarray(rows, dtype=float).tolist()
    size = len(rows[0])
    count, mean, msq, failures = [0] * size, [0.0] * size, [0.0] * size, 0
    for lo in range(0, len(rows), 1024):
        chunk = []
        for row in rows[lo:lo + 1024]:
            k = next((j for j, v in enumerate(row) if not math.isfinite(v)), size)
            failures += k < size
            chunk.append(row[:k])
        for j in range(size):
            live = [row[j] for row in chunk if j < len(row)]
            if not live:
                continue
            total = 0.0
            for v in live:
                total += v
            chunk_mean = total / len(live)
            m2 = 0.0
            for v in live:
                m2 += (v - chunk_mean) * (v - chunk_mean)
            n = count[j] + len(live)
            delta = chunk_mean - mean[j]
            weight = len(live) / n
            mean[j] += delta * weight
            msq[j] = msq[j] + m2 + (delta * delta * count[j] * weight if count[j] else 0.0)
            count[j] = n
    mean = [m if c else math.nan for m, c in zip(mean, count)]
    stderr = [math.sqrt(m / (c - 1) / c) if c > 1 else math.nan for m, c in zip(msq, count)]
    return count, mean, stderr, failures


def hybrid_linear(a=1.0, rho=0.5, tau=0.5, sigma_c=1.0, sigma_d=1.0, dim=1):
    return HybridSystem(
        continuous=linear_flow(a, dim, sigma_c),
        reset=linear_map(rho, dim, sigma_d),
        dwell_time=tau)


def counting(calls, part, *names):
    """part with its callables `names` counting their calls in calls[name]."""
    def counted(name, fn):
        def wrapped(x, arg):
            calls[name] += 1
            return fn(x, arg)
        return wrapped
    return replace(part, **{name: counted(name, getattr(part, name)) for name in names})


# --- the plain reference engine ---------------------------------------------
# Every bit-identity test of the engine compares against these: they follow the
# documented stream order and keep every product, with no blocking, slicing,
# lazy streams or skipped products.

def _call(fn, vectorized, x, arg):
    return np.asarray(fn(x, arg) if vectorized else [fn(row, arg) for row in x], dtype=float)


def reference_member(system, gens, x, noisy, horizon, h=None, interior=None, record_every=1):
    """(times, sides, samples) of one member of len(gens) runs from the start
    rows x.  Each run draws each segment's standard normals whole from its
    generator, unless not noisy; the runs step as one array of at least two
    rows, a lone run's copied, and samples is (rows, samples, dimension).
    interior is a hybrid's interior samples per dwell, None for every step."""
    x = np.concatenate([x, x])[:max(len(gens), 2)]

    def run(part, start, stride, steps):  # the states after each update
        nonlocal x
        flow = isinstance(part, ContinuousSDESystem)
        shape = (len(x), steps, part.noise_dim if flow else part.noise.dimension)
        z = np.stack([g.standard_normal(shape[1:]) for g in gens]) if noisy else np.zeros(shape)
        z = np.concatenate([z, z])[:len(x)]
        if flow:
            z = math.sqrt(h) * z
        fn, gain = (part.drift, part.diffusion) if flow else (part.map, part.noise_gain)
        out = []
        for j in range(steps):
            at = start + j * stride
            f, g = _call(fn, part.vectorized, x, at), _call(gain, part.vectorized, x, at)
            w = z[:, j] @ g.T if g.ndim == 2 else np.einsum("bnd,bd->bn", g, z[:, j])
            x = (f * h + x if flow else f) + w
            out.append(x)
        return out

    if not isinstance(system, HybridSystem):  # maps and flows
        stride, every = (1, 1) if isinstance(system, DiscreteMapSystem) else (h, record_every)
        states = ([x] + run(system, 0, stride, round(horizon / stride)))[::every]
        times = [float(j * every * stride) for j in range(len(states))]
        sides = ["interior"] * len(states)
    else:
        cont, reset, tau = system.continuous, system.reset, system.dwell_time
        steps = round(tau / h)
        marks = range(1, steps) if interior is None else sorted(
            {round(j * steps / (interior + 1)) for j in range(1, interior + 1)}
            & {*range(1, steps)})
        states, times, sides = [x] + run(reset, 0, 1, 1), [0.0, 0.0], ["pre", "post"]
        for k in range(round(horizon / tau)):
            flow = run(cont, k * tau, h, steps)
            states += [flow[j - 1] for j in marks] + [flow[-1]] + run(reset, k + 1, 1, 1)
            times += [k * tau + j * h for j in marks] + [(k + 1) * tau] * 2
            sides += ["interior"] * len(marks) + ["pre", "post"]
    return np.asarray(times), tuple(sides), np.stack(states, axis=1)


def window_means(rows, window):
    """Each row's mean over the window: its samples summed in time order, one
    float at a time, over their count."""
    return [functools.reduce(operator.add, row) / len(row) for row in rows[:, window].tolist()]


def reference_ensemble(system, config, metric=None):
    """run_pair_ensemble(system, config, metric) by reference_member: every
    member run's stream derived up front, box starts drawn by the array
    uniform, every squared distance taken through the metric's factor, and the
    per-pair rows reduced by scalar_moments, each pair's mean over the samples
    at t >= 0.8 times the horizon folded as one more sample."""
    dim = system.continuous.dimension if isinstance(system, HybridSystem) else system.dimension
    if not isinstance(metric, MetricSpec):
        metric = MetricSpec.constant(np.eye(dim) if metric is None else metric)
    interior = 4 if config.interior_per_dwell is None else config.interior_per_dwell
    init, pairs = config.initial, config.pair_count
    members = []
    for m, noisy in enumerate((True, config.pairing_mode == "two-noisy")):
        gens = [derive_stream(config.master_seed, i, m) for i in range(pairs)]
        if isinstance(init, InitialBox):
            lows, highs = (np.broadcast_to(np.asarray(p, dtype=float), dim)
                           for p in (init.lows, init.highs))
            x = np.stack([g.uniform(lows, highs) for g in gens])
        else:
            x = np.broadcast_to(np.asarray(init.b if m else init.a, dtype=float), (pairs, dim))
        times, sides, states = reference_member(system, gens, x, noisy, config.horizon,
                                                config.step_size, interior, config.record_every)
        members.append(states)
    factor = metric.factor()
    rows = [(((members[0][:, g] - members[1][:, g]) @ factor.T) ** 2).sum(axis=1)
            for g in range(len(times))]
    rows = np.stack(rows, axis=1)[:pairs]
    count, mean, stderr, failures = scalar_moments(
        np.column_stack([rows, window_means(rows, times >= 0.8 * config.horizon)]))
    return simulate.EnsembleStats(times=times, sides=sides, mean_sq=np.array(mean[:-1]),
                                  stderr=np.array(stderr[:-1]), n_pairs=pairs,
                                  n_alive=np.array(count[:-1]), failures=failures,
                                  steady_mean=mean[-1], steady_stderr=stderr[-1])


def assert_bit_equal(got, want):
    for field in ("times", "mean_sq", "stderr", "n_alive"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert (got.sides, got.failures) == (want.sides, want.failures)
    assert np.array(got.steady_state()).tobytes() == np.array(want.steady_state()).tobytes()


def assert_equals_reference(system, config, metric=None):
    assert_bit_equal(run_pair_ensemble(system, config, metric),
                     reference_ensemble(system, config, metric))


class TestDeriveStream:
    def test_same_key_same_stream(self):
        a = derive_stream(7, 3, 1).standard_normal(5)
        b = derive_stream(7, 3, 1).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = derive_stream(7, 3, 1).standard_normal(5)
        for key in [(8, 3, 1), (7, 4, 1), (7, 3, 0)]:
            assert not np.array_equal(base, derive_stream(*key).standard_normal(5))

    def test_order_independent(self):
        # deriving other streams in between must not disturb a stream
        first = derive_stream(0, 10, 0).standard_normal(4)
        for i in range(5):
            derive_stream(0, i, 0).standard_normal(100)
        second = derive_stream(0, 10, 0).standard_normal(4)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("key", [(0, 0, 0), (2**32 - 1, 5, 1), (7, 2**32 - 1, 0),
                                     (7, 3, 2**32), (2**40, 0, 1)])
    def test_state_is_that_of_default_rng_on_the_key(self, key):
        expected = np.random.default_rng(key).bit_generator.state
        assert derive_stream(*key).bit_generator.state == expected

    def test_seed_words_answer_other_requests_as_the_seed_sequence(self):
        # a request other than PCG64's (4, uint64) is asked of SeedSequence(key)
        seq = derive_stream(7, 3, 1).bit_generator.seed_seq
        assert np.array_equal(seq.generate_state(8),
                              np.random.SeedSequence((7, 3, 1)).generate_state(8))
        assert np.array_equal(seq.entropy, (7, 3, 1))
        with pytest.raises(AttributeError, match="^_private$"):
            seq._private

    @pytest.mark.parametrize("pair", [1023, 1024, 2047, 2**32 - 1])
    def test_streams_at_chunk_edges_are_those_of_default_rng(self, pair):
        for key in [(seed, pair, member) for seed in (0, 9) for member in (0, 1)]:
            got, expected = derive_stream(*key), np.random.default_rng(key)
            assert got.bit_generator.state == expected.bit_generator.state, key
            assert np.array_equal(got.standard_normal(8), expected.standard_normal(8)), key
        row = simulate._chunk_words(9, pair // 1024, 1)[pair % 1024]
        assert not row.flags.writeable

    @staticmethod
    def seed_sequence_stream(key):
        words = np.array(key, dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def test_chunked_seeds_match_seed_sequence_bit_for_bit(self):
        # chunk edges, the extreme uint32 words and both members, then a
        # seeded sweep over small and full-range pair indices
        edges = [(seed, pair, member) for seed in (0, 1, 2**32 - 1)
                 for pair in (0, 1, 1023, 1024, 2047, 2048, 2**32 - 1025, 2**32 - 1)
                 for member in (0, 1)]
        edges += [(0, 0, 2**32 - 1), (2**32 - 1, 2**32 - 1, 2**32 - 1)]
        rng = np.random.default_rng(20081008)
        small = np.column_stack([rng.integers(0, 2**32, 1000), rng.integers(0, 5000, 1000),
                                 rng.integers(0, 2, 1000)])
        wide = rng.integers(0, 2**32, (1000, 3))
        keys = edges + [tuple(int(v) for v in row) for row in np.concatenate([small, wide])]
        assert len(keys) >= 2000
        for key in keys:
            got, expected = derive_stream(*key), self.seed_sequence_stream(key)
            assert got.bit_generator.state == expected.bit_generator.state, key
            assert np.array_equal(got.standard_normal(16), expected.standard_normal(16)), key

    def test_stream_survives_chunk_cache_eviction(self):
        key = (3, 1500, 1)
        first = derive_stream(*key).bit_generator.state
        evict = 2 * simulate._chunk_words.cache_info().maxsize
        for seed in range(evict):
            for chunk in range(evict):
                derive_stream(seed, chunk * 1024 + 7, chunk % 2)
        assert derive_stream(*key).bit_generator.state == first
        assert first == self.seed_sequence_stream(key).bit_generator.state

    def test_stream_keeps_its_seed_sequence(self):
        got, expected = derive_stream(5, 7, 1), np.random.default_rng((5, 7, 1))
        assert np.array_equal(got.bit_generator.seed_seq.entropy, [5, 7, 1])
        assert [g.standard_normal() for g in got.spawn(2)] == \
            [g.standard_normal() for g in expected.spawn(2)]
        copied = pickle.loads(pickle.dumps(got))
        assert copied.bit_generator.state == got.bit_generator.state

    def test_numpy_random_loads_with_the_first_stream(self):
        # a fresh interpreter running this checkout's source tree: importing
        # the package and its CLI leaves numpy.random unloaded
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = """
import sys
import concert
import concert.cli
print("numpy.random" in sys.modules)
concert.derive_stream(0, 0, 0)
print("numpy.random" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("key", [(-1, 0, 0), (0, -3, 1), (0, 0, -1)])
    def test_negative_key_part_raises(self, key):
        with pytest.raises(ValueError):
            derive_stream(*key)

    @pytest.mark.parametrize("key", [(1.7, 0, 0), (1, 2.0, 0), (1, 0, 1.0)])
    def test_non_integer_key_part_raises_as_default_rng_does(self, key):
        # no truncation: 1.7 is not the key 1
        with pytest.raises(TypeError):
            np.random.default_rng(key)
        with pytest.raises(TypeError):
            derive_stream(*key)

    def test_numpy_integer_keys_are_the_python_keys(self):
        key = (np.uint32(7), np.int64(1500), np.uint8(1))
        assert derive_stream(*key).bit_generator.state == \
            derive_stream(7, 1500, 1).bit_generator.state

    def test_non_integer_master_seed_raises_in_an_ensemble(self):
        # at construction, naming the field, not at the first draw
        with pytest.raises(ValueError, match="^master_seed must be an integer >= 0, got 2.9$"):
            EnsembleConfig(pair_count=2, horizon=3, master_seed=2.9,
                           initial=InitialPointPair(np.array([1.0]), np.array([0.0])))


class TestSamplePathMap:
    def test_zero_noise_path_is_the_geometric_sequence(self):
        path = sample_path(linear_map(0.5, sigma=0.0), np.array([3.0]), 6, None,
                           np.random.default_rng(0))
        assert np.array_equal(path.times, np.arange(7.0))
        assert path.sides == ("interior",) * 7
        assert np.array_equal(path.states[:, 0], [3.0 * 0.5**k for k in range(7)])

    def test_matches_the_ensemble_stream(self):
        # member 0 of pair 0 draws one (steps, d) block for the whole run
        system = linear_map(0.5, sigma=0.7)
        path = sample_path(system, np.array([1.0]), 5, None, derive_stream(3, 0, 0))
        want = reference_member(system, [derive_stream(3, 0, 0)], np.ones((1, 1)), True, 5)
        assert path.states.tobytes() == want[2][0].tobytes()

    def test_step_size_rejected(self):
        with pytest.raises(ValueError, match="step_size"):
            sample_path(linear_map(), np.array([1.0]), 5, 0.3, np.random.default_rng(0))


class TestSamplePathFlow:
    def test_zero_noise_matches_exact_decay(self):
        system = linear_flow(a=1.0, sigma=0.0)
        rng = np.random.default_rng(0)
        path = sample_path(system, np.array([1.0]), 1.0, 1e-4, rng)
        assert path.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-3)
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(1.0)
        assert path.states.shape == (10001, 1)
        assert path.sides == ("interior",) * 10001

    def test_non_integer_span_rejected(self):
        system = linear_flow()
        with pytest.raises(ValueError):
            sample_path(system, np.array([1.0]), 1.05, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_path(system, np.array([1.0]), 1.0, -0.1, np.random.default_rng(0))

    def test_nonfinite_state_carries_step_index(self):
        blowup = ContinuousSDESystem(
            dimension=1,
            drift=lambda x, t: np.array([np.inf]),
            diffusion=lambda x, t: np.zeros((1, 1)),
            noise_dim=1)
        with pytest.raises(NonFiniteState) as err:
            sample_path(blowup, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        assert err.value.step_index == 1

    def test_wrong_state_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            sample_path(linear_flow(dim=2), np.zeros(3), 1.0, 0.1, np.random.default_rng(0))


class TestSamplePathHybrid:
    def test_layout_and_sides(self):
        system = hybrid_linear(tau=0.5)
        path = sample_path(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        assert path.sides[0] == "pre"
        assert path.sides[1] == "post"
        assert path.times[0] == 0.0 and path.times[1] == 0.0
        assert path.sides[-2:] == ("pre", "post")
        assert path.times[-1] == pytest.approx(1.0)
        # each dwell contributes 4 interior samples plus the two-sided reset
        assert path.sides.count("pre") == 3
        assert path.sides.count("post") == 3
        assert path.sides.count("interior") == 8

    def test_zero_noise_zero_drift_reset_product(self):
        # with a frozen flow the state after k resets is rho^k x0
        system = HybridSystem(
            continuous=ContinuousSDESystem(
                dimension=1,
                drift=lambda x, t: np.zeros(1),
                diffusion=lambda x, t: np.zeros((1, 1)),
                noise_dim=1),
            reset=DiscreteMapSystem(
                dimension=1,
                map=lambda x, k: 0.5 * np.asarray(x, dtype=float),
                noise_gain=lambda x, k: np.zeros((1, 1)),
                noise=GaussianNoiseSpec(1)),
            dwell_time=1.0)
        path = sample_path(system, np.array([8.0]), 3.0, 0.25, np.random.default_rng(0))
        post = [s for s, side in zip(path.states, path.sides) if side == "post"]
        assert [p[0] for p in post] == pytest.approx([4.0, 2.0, 1.0, 0.5])

    def test_horizon_must_be_dwell_multiple(self):
        with pytest.raises(ValueError):
            sample_path(hybrid_linear(tau=0.5), np.array([1.0]), 1.3, 0.1,
                        np.random.default_rng(0))

    def test_nonfinite_closing_reset_raises(self):
        # only the reset at the horizon (k = 2) leaves the finite floats
        system = HybridSystem(
            continuous=linear_flow(),
            reset=DiscreteMapSystem(
                dimension=1,
                map=lambda x, k: np.asarray(x, dtype=float) * (np.inf if k == 2 else 0.5),
                noise_gain=lambda x, k: np.eye(1),
                noise=GaussianNoiseSpec(1)),
            dwell_time=0.5)
        with pytest.raises(NonFiniteState) as err:
            sample_path(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        # 2 samples at t = 0, then per dwell 4 interior samples and 2 reset
        # sides: the closing post-reset sample is the last, index 13
        assert err.value.step_index == 13

    def test_rowwise_callables_called_once_per_step(self):
        calls = Counter()
        base = hybrid_linear(tau=0.5)
        system = replace(base, continuous=counting(calls, base.continuous, "drift", "diffusion"),
                         reset=counting(calls, base.reset, "map", "noise_gain"))
        path = sample_path(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        # 2 dwells of 5 flow steps, and resets at k = 0, 1, 2
        assert calls == {"drift": 10, "diffusion": 10, "map": 3, "noise_gain": 3}
        reference = sample_path(base, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        assert np.array_equal(path.states, reference.states)


class TestEnsembleConfigValidation:
    def test_rejects_bad_fields(self):
        init = InitialPointPair(np.array([0.0]), np.array([1.0]))
        # a count that is not a Python or NumPy integer is rejected by name too
        for fields in ({"pair_count": 0}, {"pair_count": 2.5}, {"pair_count": "3"},
                       {"pairing_mode": "both-noisy"}, {"record_every": 0},
                       {"record_every": 2.5}, {"interior_per_dwell": -1},
                       {"interior_per_dwell": 1.5}, {"pair_count": True},
                       {"master_seed": -1}, {"master_seed": 1.5}, {"master_seed": True}):
            with pytest.raises(ValueError, match=f"^(unknown )?{next(iter(fields))} "):
                EnsembleConfig(**{"pair_count": 1, "horizon": 5, "master_seed": 0,
                                  "initial": init, **fields})

    @pytest.mark.parametrize("seed", [2**32, 2**40, np.uint64(2**63)])
    def test_master_seeds_beyond_one_word_stay_valid(self, seed):
        config = EnsembleConfig(pair_count=3, horizon=4, master_seed=seed,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        stats = run_pair_ensemble(linear_map(), config)
        assert stats.failures == 0 and np.all(np.isfinite(stats.mean_sq))

    def test_numpy_integer_counts_are_accepted(self):
        system = hybrid_linear(tau=0.5)
        fields = dict(horizon=1.0, master_seed=2, step_size=0.05,
                      initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        plain = run_pair_ensemble(system, EnsembleConfig(pair_count=3, interior_per_dwell=2,
                                                         **fields))
        numpy = run_pair_ensemble(system, EnsembleConfig(
            pair_count=np.int64(3), interior_per_dwell=np.uint8(2), **fields))
        assert_bit_equal(plain, numpy)

    def test_one_formula_gives_the_offsets_of_the_branched_rule(self):
        # every dwell of 1-300 steps at every count up to 3 steps + 2, None and
        # huge counts; the reference clamps its count too, so it is evaluated
        # once per clamped count
        for steps in range(1, 301):
            want = [branched_interior_offsets(steps, count) for count in range(steps)]
            assert simulate._interior_offsets(steps, None) \
                == branched_interior_offsets(steps, None) == want[-1]
            for count in [*range(3 * steps + 3), 10**6, 10**12]:
                assert simulate._interior_offsets(steps, count) == want[min(count, steps - 1)]

    def test_huge_interior_count_samples_every_flow_step_at_once(self):
        # more interior samples than a dwell has flow steps gives every flow
        # step; the count is clamped before any list is built, so 10**12 costs
        # what 9 do.  The alarm stops a loop over the count within a second
        def too_slow(signum, frame):
            raise TimeoutError("interior offsets take time in proportion to the count")

        system = hybrid_linear(tau=0.5)
        fields = dict(pair_count=3, horizon=1.0, master_seed=2, step_size=0.05,
                      initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            assert simulate._interior_offsets(10, 10**12) == list(range(1, 10))
            huge = run_pair_ensemble(system, EnsembleConfig(**fields, interior_per_dwell=10**12))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        every = run_pair_ensemble(system, EnsembleConfig(**fields, interior_per_dwell=9))
        assert huge.sides[2:13] == ("interior",) * 9 + ("pre", "post")
        assert_bit_equal(huge, every)

    def test_hybrid_run_needs_a_step_size(self):
        config = EnsembleConfig(pair_count=1, horizon=1.0, master_seed=0,
                                initial=InitialPointPair(np.zeros(1), np.ones(1)))
        with pytest.raises(ValueError, match="^step_size is required for hybrid systems$"):
            run_pair_ensemble(hybrid_linear(tau=0.5), config)

    @pytest.mark.parametrize("system, horizon, fields", [
        (linear_map(), 14, {"record_every": 7}),
        (linear_map(), 14, {"step_size": 0.3}),
        (hybrid_linear(tau=0.5), 1.0, {"record_every": 5, "step_size": 0.1}),
        (linear_map(), 14, {"interior_per_dwell": 4}),
        (linear_flow(), 1.0, {"interior_per_dwell": 0, "step_size": 0.1}),
    ])
    def test_field_that_does_not_apply_is_rejected(self, system, horizon, fields):
        config = EnsembleConfig(pair_count=1, horizon=horizon, master_seed=0,
                                initial=InitialPointPair(np.zeros(1), np.ones(1)), **fields)
        with pytest.raises(ValueError, match=next(iter(fields))):
            run_pair_ensemble(system, config)


    def test_hybrid_interior_samples_default_to_four_per_dwell(self):
        system = hybrid_linear(tau=0.5)
        fields = dict(pair_count=3, horizon=1.0, master_seed=2, step_size=0.05,
                      initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        default = run_pair_ensemble(system, EnsembleConfig(**fields))
        four = run_pair_ensemble(system, EnsembleConfig(**fields, interior_per_dwell=4))
        assert EnsembleConfig(**fields).interior_per_dwell is None
        assert default.sides == four.sides
        assert default.sides[2:8] == ("interior",) * 4 + ("pre", "post")
        assert_bit_equal(default, four)


class TestInitialMeanSquare:
    # differences whose x ** 2 (libm pow) and x * x differ in the last bit on
    # a glibc host, then a seeded sweep: E0 squares by x * x, as the engine does
    EDGES = [(-0.8406999297115503, -0.3805132771308859),
             (3.550129466143078, 1.9508999115946697),
             (1.7225184859824019, 4.360180888190753)]

    def test_equals_the_closed_forms_squared_as_products(self):
        rng = np.random.default_rng(31)
        for low, high in self.EDGES + rng.uniform(-5, 5, (2000, 2)).tolist():
            pair = InitialPointPair(np.array([high]), np.array([low]))
            # a box is given low below high; its square is the same
            box = InitialBox(np.array([min(low, high)]), np.array([max(low, high)]))
            d = high - low
            assert simulate.initial_ms(pair, MetricSpec.identity(1)) == d * d
            assert simulate.initial_ms(box, MetricSpec.identity(1)) == d * d / 6.0

    def test_a_point_pair_is_the_engines_first_sample_in_every_metric(self):
        # two pairs: the mean of two equal t = 0 samples is exact, so this
        # compares E0 with the engine's sample, bit for bit
        rng = np.random.default_rng(59)
        system = linear_map(0.5, dim=2)
        starts = [(np.array([high, 0.0]), np.array([low, 0.0])) for low, high in self.EDGES]
        starts += list(rng.uniform(-5, 5, (400, 2, 2)))
        for i, (a, b) in enumerate(starts):
            root = rng.normal(size=(2, 2))
            metric = (MetricSpec.identity(2) if i % 4 == 0
                      else MetricSpec.constant(root.T @ root + 0.1 * np.eye(2)))
            start = InitialPointPair(a, b)
            config = EnsembleConfig(pair_count=2, horizon=1, master_seed=i, initial=start)
            first = run_pair_ensemble(system, config, metric).mean_sq[0]
            assert first == simulate.initial_ms(start, metric), (i, a, b)

    def test_overflow_raises_as_python_float_power_does(self):
        for start in (InitialPointPair(1e200, -1e200), InitialBox(-1e200, 1e200)):
            with pytest.raises(OverflowError):
                simulate.initial_ms(start, MetricSpec.identity(2))

    def test_broadcasts_to_the_dimension(self):
        assert simulate.initial_ms(InitialBox(-1.0, 1.0), MetricSpec.identity(6)) == 4.0
        assert simulate.initial_ms(InitialPointPair(np.zeros(3), np.ones(3)),
                                   MetricSpec.identity(3)) == 3.0

    def test_in_a_metric(self):
        # the mean of (a - b)^T M (a - b): for independent uniform coordinates
        # the cross terms vanish and each variance is (high - low)^2 / 6
        rng = np.random.default_rng(4)
        for _ in range(50):
            root = rng.normal(size=(3, 3))
            metric = MetricSpec.constant(root.T @ root + 0.1 * np.eye(3))
            m = metric.value()
            a, b = rng.uniform(-3, 3, (2, 3))
            d = a - b
            assert simulate.initial_ms(InitialPointPair(a, b), metric) \
                == pytest.approx(d @ m @ d, rel=1e-12, abs=1e-12)
            assert simulate.initial_ms(InitialBox(np.minimum(a, b), np.maximum(a, b)), metric) \
                == pytest.approx(np.sum(np.diag(m) * d**2) / 6, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("initial, shapes", [
        (InitialPointPair(np.zeros(3), np.zeros(2)), r"\(3,\) and \(2,\)"),
        (InitialPointPair(np.zeros(1), np.zeros(3)), r"\(1,\) and \(3,\)"),
        (InitialBox(np.zeros((3, 1)), 1.0), r"\(3, 1\) and \(\)"),
        (InitialBox(-1.0, np.ones((1, 3))), r"\(\) and \(1, 3\)")])
    def test_a_point_neither_scalar_nor_of_the_dimension_is_a_mismatch(self, initial,
                                                                        shapes):
        # named with both shapes, not left to NumPy's broadcast
        config = EnsembleConfig(pair_count=2, horizon=2, master_seed=0, initial=initial)
        message = rf"initial points of shapes {shapes}, expected scalars or \(3,\)"
        with pytest.raises(DimensionMismatch, match=message):
            simulate.initial_ms(initial, MetricSpec.identity(3))
        with pytest.raises(DimensionMismatch, match=message):
            run_pair_ensemble(linear_map(0.5, dim=3), config)


class TestRunPairEnsembleDiscrete:
    def test_manual_replay_of_one_pair(self):
        # the ensemble must consume draws in the documented order:
        # per member, initial condition (box only) then one whole-horizon
        # standard normal block
        system = linear_map(0.5)
        config = EnsembleConfig(pair_count=3, horizon=4, master_seed=11,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        stats = run_pair_ensemble(system, config)

        def replay(pair):
            ga = derive_stream(11, pair, 0)
            gb = derive_stream(11, pair, 1)
            xa = ga.uniform(np.array([-1.0]), np.array([1.0]))
            xb = gb.uniform(np.array([-1.0]), np.array([1.0]))
            wa = ga.standard_normal((4, 1))
            wb = gb.standard_normal((4, 1))
            values = [float(((xa - xb) ** 2).item())]
            for k in range(4):
                xa = 0.5 * xa + wa[k]
                xb = 0.5 * xb + wb[k]
                values.append(float(((xa - xb) ** 2).item()))
            return values

        per_pair = np.array([replay(i) for i in range(3)])
        assert np.allclose(stats.mean_sq, per_pair.mean(axis=0), rtol=1e-12, atol=0.0)
        assert stats.n_pairs == 3
        assert stats.failures == 0
        assert np.all(stats.n_alive == 3)

    def test_noisefree_member_is_deterministic(self):
        system = linear_map(0.5)
        config = EnsembleConfig(pair_count=2, horizon=3, master_seed=5,
                                initial=InitialPointPair(np.array([4.0]), np.array([2.0])),
                                pairing_mode="noisy-vs-noisefree")
        stats = run_pair_ensemble(system, config)
        per_pair = []
        for pair in range(2):
            wa = derive_stream(5, pair, 0).standard_normal((3, 1))
            xa, xb = np.array([4.0]), np.array([2.0])
            values = [float(((xa - xb) ** 2).item())]
            for k in range(3):
                xa = 0.5 * xa + wa[k]
                xb = 0.5 * xb  # member b evolves without noise
                values.append(float(((xa - xb) ** 2).item()))
            per_pair.append(values)
        manual = (np.array(per_pair[0]) + np.array(per_pair[1])) / 2.0
        assert np.allclose(stats.mean_sq, manual, rtol=1e-12, atol=0.0)

    def test_records_the_squared_distance(self):
        system = linear_map(0.5, sigma=0.0)
        config = EnsembleConfig(pair_count=1, horizon=2, master_seed=0,
                                initial=InitialPointPair(np.array([4.0]), np.array([0.0])))
        stats = run_pair_ensemble(system, config)
        assert stats.mean_sq.tolist() == [16.0, 4.0, 1.0]

    def test_blocking_does_not_change_output(self, monkeypatch):
        system = linear_map(0.5)
        config = EnsembleConfig(pair_count=7, horizon=5, master_seed=3,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        full = run_pair_ensemble(system, config)
        monkeypatch.setattr(simulate, "_BLOCK", 2)
        chopped = run_pair_ensemble(system, config)
        assert_bit_equal(full, chopped)

    @pytest.mark.parametrize("block", [300, 7])
    def test_blocking_across_chunk_edges_does_not_change_output(self, monkeypatch, block):
        # 2,500 pairs are reduced in chunks of 1,024, 1,024 and 452 pairs,
        # whatever the blocks; a pair fails once a member leaves (-2, 2)
        def cubic(x, k):
            return np.where(np.abs(x) < 2.0, 0.5 * x + x ** 3, np.inf)

        system = DiscreteMapSystem(dimension=1, map=cubic,
                                   noise_gain=lambda x, k: 0.3 * np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        config = EnsembleConfig(pair_count=2500, horizon=12, master_seed=2,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        full = run_pair_ensemble(system, config)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        chopped = run_pair_ensemble(system, config)
        assert 0 < full.failures == chopped.failures < 2500
        assert_bit_equal(full, chopped)

    def test_point_pair_arrays_left_unmodified(self):
        # a map that rescales its argument in place works on the engine's copy
        system = DiscreteMapSystem(
            dimension=2,
            map=lambda x, k: np.multiply(x, 0.5, out=x),
            noise_gain=lambda x, k: np.eye(2),
            noise=GaussianNoiseSpec(2))
        a, b = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        config = EnsembleConfig(pair_count=3, horizon=4, master_seed=0,
                                initial=InitialPointPair(a, b))
        stats = run_pair_ensemble(system, config)
        assert stats.failures == 0
        assert np.array_equal(a, [1.0, -2.0])
        assert np.array_equal(b, [0.5, 0.25])

    def test_divergent_pairs_counted_not_dropped(self):
        system = DiscreteMapSystem(
            dimension=1,
            map=lambda x, k: np.asarray(x, dtype=float) ** 3,
            noise_gain=lambda x, k: np.zeros((1, 1)),
            noise=GaussianNoiseSpec(1))
        config = EnsembleConfig(pair_count=2, horizon=1500, master_seed=0,
                                initial=InitialPointPair(np.array([2.0]), np.array([0.0])))
        stats = run_pair_ensemble(system, config)
        assert stats.failures == 2
        assert stats.n_alive[0] == 2
        assert stats.n_alive[-1] == 0

    def test_fractional_discrete_horizon_rejected(self):
        system = linear_map(0.5)
        config = EnsembleConfig(pair_count=1, horizon=2.5, master_seed=0,
                                initial=InitialPointPair(np.array([0.0]), np.array([1.0])))
        with pytest.raises(ValueError):
            run_pair_ensemble(system, config)


class TestMoments:
    @staticmethod
    def moments(rows):
        """_moments, and its failures: the runs not finite at the last sample."""
        count, mean, stderr = simulate._moments(rows.shape[0], rows.shape[1],
                                                lambda runs: rows[list(runs)])
        return count, mean, stderr, len(rows) - int(count[-1])

    def assert_equals_scalar_reference(self, rows):
        count, mean, stderr, failures = self.moments(rows)
        expected = scalar_moments(rows)
        assert count.tolist() == expected[0]
        assert mean.tobytes() == np.array(expected[1]).tobytes()
        assert stderr.tobytes() == np.array(expected[2]).tobytes()
        assert failures == expected[3]
        return failures

    def test_bit_equal_to_scalar_reference_with_joined_blocks(self, monkeypatch):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((11, 9)) * 3.0 + 1.0
        rows[2, 4] = np.inf   # runs going non-finite mid-grid, some finite again later
        rows[5, 1] = np.nan
        rows[6, 6:] = -np.inf
        rows[9, 8] = np.nan
        monkeypatch.setattr(simulate, "_BLOCK", 4)  # blocks of 4, 4 and 3 join one chunk
        assert self.assert_equals_scalar_reference(rows) == 4

    def test_bit_equal_to_scalar_reference_across_block_edges(self, monkeypatch):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((13, 7)) * 2.0 - 0.5
        rows[0, 0] = np.nan   # fails at the first sample
        rows[3, 6] = np.inf   # at the last sample, in the last run of block 0
        rows[4, 3] = -np.inf  # mid-run, in the first run of block 1
        rows[4, 5] = np.nan   # a second non-finite value after the first
        rows[7, 1] = np.nan   # finite again afterwards
        rows[8, 0] = np.inf   # the first run of block 2 fails at once
        monkeypatch.setattr(simulate, "_BLOCK", 4)
        assert self.assert_equals_scalar_reference(rows) == 5

    @staticmethod
    def failing_rows(runs, size, seed):
        """Positive seeded samples whose level differs between chunks of
        1,024 runs; a tenth of the runs fail, at the first sample, at the last
        or mid-grid, and a few are finite again later."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((runs, size)) ** 2 * rng.uniform(0.5, 50.0, (runs, 1))
        rows += 1000.0 * (np.arange(runs) // 1024 % 2)[:, None]
        for i in rng.choice(runs, runs // 10, replace=False):
            rows[i, rng.choice([0, size - 1, rng.integers(1, size - 1)])] = \
                rng.choice([np.nan, np.inf, -np.inf])
        for i in rng.choice(runs, runs // 50, replace=False):
            rows[i, rng.integers(0, size - 1)] = np.nan
            rows[i, -1] = 1.0
        rows[1023, -1] = rows[1024, 0] = rows[2047, 3] = np.inf  # at the chunk edges
        return rows

    @pytest.mark.parametrize("block", [1024, 300, 7])
    def test_bit_equal_to_scalar_reference_across_chunk_edges(self, monkeypatch, block):
        # 2,500 runs are three chunks, 1,024 + 1,024 + 452, whatever the blocks
        monkeypatch.setattr(simulate, "_BLOCK", block)
        assert self.assert_equals_scalar_reference(self.failing_rows(2500, 9, 5)) > 250

    def test_blocks_tile_the_chunks(self, monkeypatch):
        # blocks of 300 over 2,500 runs: no block crosses a multiple of 1,024,
        # so chunk 0 is blocks [0, 300) ... [900, 1024) and chunk 1 starts anew
        monkeypatch.setattr(simulate, "_BLOCK", 300)
        rows = self.failing_rows(2500, 9, 5)
        asked = []

        def block_of(runs):
            asked.append(runs)
            return rows[list(runs)]

        simulate._moments(2500, 9, block_of)
        assert [i for runs in asked for i in runs] == list(range(2500))
        assert all(len(runs) <= 300 and runs.start // 1024 == (runs.stop - 1) // 1024
                   for runs in asked)
        assert [runs.start for runs in asked][:6] == [0, 300, 600, 900, 1024, 1324]

    def test_chunk_whose_runs_all_fail_at_the_second_sample(self):
        # one sample reached: still summed in run order, not pairwise
        rng = np.random.default_rng(1)
        for _ in range(5):
            rows = rng.standard_normal((300, 5)) * rng.uniform(0.1, 1e3, (300, 1))
            rows[:, 1] = np.nan
            assert self.assert_equals_scalar_reference(rows) == 300

    @staticmethod
    def welford(rows):
        count = np.zeros(rows.shape[1], dtype=np.int64)
        mean = np.zeros(rows.shape[1])
        msq = np.zeros(rows.shape[1])
        failures = 0
        for row in rows:
            alive = np.isfinite(row)
            if not alive.all():
                alive[int(np.argmin(alive)):] = False
                failures += 1
            count[alive] += 1
            delta = np.where(alive, row - mean, 0.0)
            mean[alive] += delta[alive] / count[alive]
            msq[alive] += delta[alive] * (row[alive] - mean[alive])
        stderr = np.zeros(rows.shape[1])
        settled = count > 1
        stderr[settled] = np.sqrt(msq[settled] / (count[settled] - 1) / count[settled])
        return count, mean, stderr, failures

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_close_to_welford(self, seed):
        rows = self.failing_rows(2600, 11, seed)
        count, mean, stderr, failures = self.moments(rows)
        with np.errstate(invalid="ignore"):
            expected = self.welford(rows)
        assert np.array_equal(count, expected[0])
        assert failures == expected[3] > 260
        assert np.allclose(mean, expected[1], rtol=1e-12, atol=0.0)
        assert np.allclose(stderr, expected[2], rtol=1e-12, atol=0.0)

    def test_huge_finite_samples_give_welfords_stderr(self):
        # squared deviations of 1e200 overflow, and so does the square of the
        # first chunk's mean: stderr is 0 for equal samples and inf otherwise
        rows = np.full((5, 3), 1e200)
        rows[:, 1] = [1e200, 3e200, 2e200, 1e200, 5e200]
        count, mean, stderr, failures = self.moments(rows)
        with np.errstate(over="ignore"):
            expected = self.welford(rows)
        assert stderr.tolist() == expected[2].tolist() == [0.0, math.inf, 0.0]
        assert np.allclose(mean, expected[1], rtol=1e-15, atol=0.0)
        self.assert_equals_scalar_reference(rows)

    def test_fold_overwrites_the_block_it_is_handed(self):
        # at the default blocking a chunk is a block, folded without a copy
        rows = self.failing_rows(2500, 6, 3)
        handed = []

        def block_of(runs):
            handed.append(rows[list(runs)])
            return handed[-1]

        simulate._moments(len(rows), rows.shape[1], block_of)
        assert [len(block) for block in handed] == [1024, 1024, 452]
        assert not np.array_equal(handed[0], rows[:1024], equal_nan=True)


class TestRunPairEnsembleContinuous:
    def test_record_every_divisibility(self):
        system = linear_flow()
        init = InitialPointPair(np.array([1.0]), np.array([-1.0]))
        bad = EnsembleConfig(pair_count=1, horizon=1.0, master_seed=0, initial=init,
                             step_size=0.1, record_every=3)
        with pytest.raises(ValueError):
            run_pair_ensemble(system, bad)
        good = EnsembleConfig(pair_count=1, horizon=1.0, master_seed=0, initial=init,
                              step_size=0.1, record_every=5)
        stats = run_pair_ensemble(system, good)
        assert np.allclose(stats.times, [0.0, 0.5, 1.0])

    def test_manual_replay_of_box_ensemble(self):
        # per member: the initial condition, then one whole-horizon standard
        # normal block; every second step is recorded
        system = linear_flow(a=1.0, sigma=0.5)
        config = EnsembleConfig(pair_count=2, horizon=0.4, master_seed=4,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])),
                                step_size=0.1, record_every=2)
        stats = run_pair_ensemble(system, config)

        def member(pair, member_index):
            gen = derive_stream(4, pair, member_index)
            x = gen.uniform(np.array([-1.0]), np.array([1.0]))
            z = gen.standard_normal((4, 1))
            values = [x.copy()]
            for j in range(4):
                x = x - x * 0.1 + 0.5 * math.sqrt(0.1) * z[j]
                if (j + 1) % 2 == 0:
                    values.append(x.copy())
            return np.array(values)[:, 0]

        per_pair = np.array([(member(i, 0) - member(i, 1)) ** 2 for i in range(2)])
        assert stats.times == pytest.approx([0.0, 0.2, 0.4])
        assert stats.mean_sq == pytest.approx(per_pair.mean(axis=0), rel=1e-12)

    def test_step_size_required(self):
        system = linear_flow()
        config = EnsembleConfig(pair_count=1, horizon=1.0, master_seed=0,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        with pytest.raises(ValueError):
            run_pair_ensemble(system, config)

    def test_zero_noise_pair_decays_exactly(self):
        system = linear_flow(a=1.0, sigma=0.0)
        config = EnsembleConfig(pair_count=1, horizon=1.0, master_seed=0,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])),
                                step_size=0.001, record_every=1000)
        stats = run_pair_ensemble(system, config)
        assert stats.mean_sq[-1] == pytest.approx(math.exp(-2.0), rel=2e-3)

    @pytest.mark.parametrize("system, horizon, step", [
        (linear_map(0.5), math.inf, None),
        (linear_map(0.5), math.nan, None),
        (linear_flow(), math.inf, 0.1),
        (linear_flow(), math.nan, 0.1),
        (linear_flow(), 10.0, 1e-320),
        (hybrid_linear(tau=0.5), math.inf, 0.05),
        (hybrid_linear(tau=0.5), 1.0, 1e-320),
    ])
    def test_nonfinite_horizon_or_step_count_rejected(self, system, horizon, step):
        config = EnsembleConfig(pair_count=1, horizon=horizon, master_seed=0,
                                initial=InitialPointPair(np.array([0.0]), np.array([1.0])),
                                step_size=step)
        with pytest.raises(ValueError, match="finite"):
            run_pair_ensemble(system, config)


class TestEulerStepLeavesCallerArraysAlone:
    """The update x + f h + g builds a new array; callables may return one
    stored array on every call, and nothing the caller passed in is written."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_stored_drift_gain_and_start_points_unchanged(self, vectorized):
        drift = np.array([0.75, -1.5])
        gain = np.array([[0.5, 0.25], [-0.125, 2.0]])
        a, b = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        arrays = [drift, gain, a, b]
        before = [x.copy() for x in arrays]
        system = ContinuousSDESystem(dimension=2, drift=lambda x, t: drift,
                                     diffusion=lambda x, t: gain, noise_dim=2,
                                     vectorized=vectorized)
        h, steps = 0.1, 10
        config = EnsembleConfig(pair_count=3, horizon=steps * h, master_seed=0,
                                initial=InitialPointPair(a, b), step_size=h)
        stats = run_pair_ensemble(system, config)
        path = sample_path(system, a, steps * h, h, derive_stream(5, 0, 0))
        assert stats.failures == 0
        for array, old in zip(arrays, before):
            assert np.array_equal(array, old)
        assert_bit_equal(stats, reference_ensemble(system, config))
        want = reference_member(system, [derive_stream(5, 0, 0)], a[None], True, steps * h, h)
        assert path.states.tobytes() == want[2][0].tobytes()


class TestSteppers:
    """A block builds each part's stepper once, and every step calls
    vectorized callables itself, with no wrapper between."""

    PAIRS = EnsembleConfig(pair_count=4, horizon=3, master_seed=0,
                           initial=InitialPointPair(np.ones(2), -np.ones(2)))

    def test_a_map_value_of_another_shape_raises(self):
        # x[:, :1] broadcast over both coordinates would run without a failure
        narrow = DiscreteMapSystem(dimension=2, map=lambda x, k: x[:, :1],
                                   noise_gain=lambda x, k: np.eye(2),
                                   noise=GaussianNoiseSpec(2), vectorized=True, name="narrow")
        with pytest.raises(DimensionMismatch, match=r"^map of 'narrow' returned shape "
                                                    r"\(8, 1\), expected \(2,\) or \(8, 2\)$"):
            run_pair_ensemble(narrow, self.PAIRS)

    def test_a_gain_of_another_shape_raises(self):
        # one noise column per state, broadcast by einsum over both draws
        thin = ContinuousSDESystem(dimension=2, drift=lambda x, t: -x,
                                   diffusion=lambda x, t: np.eye(2)[:, :1], noise_dim=2,
                                   name="thin")
        config = replace(self.PAIRS, horizon=1.0, step_size=0.1)
        message = r"^diffusion of 'thin' returned shape \(2, 1\), expected \(2, 2\)$"
        with pytest.raises(DimensionMismatch, match=message):
            run_pair_ensemble(thin, config)

    def test_a_rowwise_vector_gain_raises_on_every_path(self):
        # over a single path's two rows the (2,) values stack to (2, 2): only a
        # vectorized callable returns one matrix for every row
        rowwise = DiscreteMapSystem(dimension=2, map=lambda x, k: 0.5 * x,
                                    noise_gain=lambda x, k: x + 1.0,
                                    noise=GaussianNoiseSpec(2), name="rowwise")
        message = r"^noise_gain of 'rowwise' returned shape \(2,\), expected \(2, 2\)$"
        with pytest.raises(DimensionMismatch, match=message):
            sample_path(rowwise, np.array([0.3, -0.2]), 3, None, derive_stream(0, 0, 0))
        for pairs in (1, 3):
            with pytest.raises(DimensionMismatch, match=message):
                run_pair_ensemble(rowwise, replace(self.PAIRS, pair_count=pairs))

    def test_built_once_per_part_and_block(self, monkeypatch):
        built = []
        stepper = simulate._stepper
        monkeypatch.setattr(simulate, "_stepper",
                            lambda part, h, lone: built.append(id(part)) or stepper(part, h, lone))
        system = hybrid_linear()
        # two blocks of ten dwells each
        run_pair_ensemble(system, EnsembleConfig(
            pair_count=1025, horizon=5.0, master_seed=0, step_size=0.1,
            initial=InitialPointPair(np.ones(1), -np.ones(1))))
        assert built == [id(system.reset), id(system.continuous)] * 2

    def test_vectorized_callables_are_called_by_the_step(self):
        callers = []

        def caller():
            callers.append(sys._getframe(2).f_code.co_name)

        system = ContinuousSDESystem(
            dimension=2, drift=lambda x, t: caller() or -x,
            diffusion=lambda x, t: caller() or np.eye(2), noise_dim=2, vectorized=True)
        run_pair_ensemble(system, EnsembleConfig(
            pair_count=3, horizon=0.5, master_seed=0, step_size=0.1,
            initial=InitialPointPair(np.ones(2), -np.ones(2))))
        assert callers == ["euler"] * 10
        callers.clear()
        system = DiscreteMapSystem(
            dimension=2, map=lambda x, k: caller() or 0.5 * x,
            noise_gain=lambda x, k: caller() or np.eye(2), noise=GaussianNoiseSpec(2),
            vectorized=True)
        run_pair_ensemble(system, self.PAIRS)
        assert callers == ["advance"] * 6  # a map and a gain per step


class TestSlicedDraws:
    """A segment whose noise holds more than _DRAW_VALUES values per member is
    drawn in slices; every run must equal the reference, which draws each
    segment whole, bit for bit."""

    A = np.array([[0.3, -0.2, 0.1], [0.25, 0.1, -0.3], [-0.1, 0.2, 0.4]])
    # a gain times the Cholesky factor of a covariance correlates the draws
    GAIN = np.array([[1.0, 0.5, 0.0], [-0.3, 0.8, 0.2], [0.4, 0.0, 1.2]]) @ np.linalg.cholesky(
        np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]]))

    def correlated_map(self):
        return DiscreteMapSystem(dimension=3, map=lambda x, k: x @ self.A.T,
                                 noise_gain=lambda x, k: self.GAIN,
                                 noise=GaussianNoiseSpec(3), vectorized=True)

    def test_map_with_correlated_noise(self, monkeypatch):
        pairs, steps = 5, 13
        config = EnsembleConfig(pair_count=pairs, horizon=steps, master_seed=8,
                                initial=InitialBox(-np.ones(3), np.ones(3)))
        # calls of 3 steps, and the lone 13th step in a call of its own
        monkeypatch.setattr(simulate, "_DRAW_VALUES", pairs * 3 * 3)
        segments = simulate._plan(self.correlated_map(), steps, None, None, 1)[2]
        assert [[(lo, hi) for _, lo, hi in group] for group in simulate._draws(segments, pairs)] \
            == [[(0, 3)], [(3, 6)], [(6, 9)], [(9, 12)], [(12, 13)]]
        assert_equals_reference(self.correlated_map(), config)

    def test_map_noise_does_not_depend_on_the_horizon(self):
        # a map's noise is its draws, multiplied by the gain one step at a
        # time over at least two rows: a one-step run's first step equals the
        # first step of a longer run, bit for bit
        rng = np.random.default_rng(12)
        for seed in range(40):
            a, gain, root = (rng.normal(size=(4, 4)) for _ in range(3))
            system = DiscreteMapSystem(dimension=4, map=lambda x, k, a=a: 0.3 * x @ a.T,
                                       noise_gain=lambda x, k, gain=gain @ root: gain,
                                       noise=GaussianNoiseSpec(4), vectorized=True)
            first = [run_pair_ensemble(system, EnsembleConfig(
                pair_count=pairs, horizon=horizon, master_seed=seed,
                initial=InitialBox(-np.ones(4), np.ones(4)))).mean_sq[1]
                for pairs in (1, 7) for horizon in (1, 5)]
            assert first[0] == first[1] and first[2] == first[3], seed

    def test_flow_with_correlated_diffusion(self, monkeypatch):
        a = np.array([[-1.0, 0.4], [-0.3, -0.8]])
        sigma = np.array([[0.7, 0.2], [-0.4, 0.5]])
        system = ContinuousSDESystem(dimension=2, drift=lambda x, t: x @ a.T,
                                     diffusion=lambda x, t: sigma, noise_dim=2,
                                     vectorized=True)
        pairs, steps, h = 6, 20, 0.05
        config = EnsembleConfig(pair_count=pairs, horizon=steps * h, master_seed=3,
                                initial=InitialBox(-np.ones(2), np.ones(2)), step_size=h)
        monkeypatch.setattr(simulate, "_DRAW_VALUES", pairs * 2 * 7)  # slices of 7 steps
        assert_equals_reference(system, config)

    def test_lone_sample_path(self, monkeypatch):
        system = self.correlated_map()
        x0, steps = np.array([1.0, -0.5, 2.0]), 13
        want = reference_member(system, [derive_stream(4, 0, 0)], x0[None], True, steps)[2][0]
        monkeypatch.setattr(simulate, "_DRAW_VALUES", 2 * 3 * 2)  # slices of 2 steps
        path = sample_path(system, x0, steps, None, derive_stream(4, 0, 0))
        assert path.states.tobytes() == want.tobytes()

    def test_noise_memory_does_not_grow_with_the_horizon(self):
        # 256 pairs x 10,000 flow steps: drawn whole, the two members' noise
        # alone would take 41 MB
        system = ContinuousSDESystem(dimension=1, drift=lambda x, t: -x,
                                     diffusion=lambda x, t: np.ones((1, 1)), noise_dim=1,
                                     vectorized=True)
        config = EnsembleConfig(pair_count=256, horizon=100.0, master_seed=0,
                                initial=InitialPointPair(np.ones(1), -np.ones(1)),
                                step_size=0.01, record_every=100)
        tracemalloc.start()
        try:
            stats = run_pair_ensemble(system, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.times.size == 101 and stats.failures == 0
        assert peak < 12e6, peak


class TestRunPairEnsembleHybrid:
    def test_lone_run_block_does_not_change_output(self, monkeypatch):
        # the ring's coupling reset multiplies states by a matrix; with blocks
        # of three, pair 3 of 4 runs alone in its block
        recipe = get_recipe("hopf-cpg")
        params = resolve_params(recipe)
        config = EnsembleConfig(pair_count=4, horizon=0.5, master_seed=1,
                                initial=recipe.initial(params),
                                step_size=dwell_step_default(recipe, params))
        full = run_pair_ensemble(recipe.build(params), config)
        monkeypatch.setattr(simulate, "_BLOCK", 3)
        chopped = run_pair_ensemble(recipe.build(params), config)
        assert_bit_equal(full, chopped)

    def test_grid_layout(self):
        system = hybrid_linear(tau=0.5)
        config = EnsembleConfig(pair_count=2, horizon=1.0, master_seed=0,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])),
                                step_size=0.05, interior_per_dwell=1)
        stats = run_pair_ensemble(system, config)
        assert stats.sides[:2] == ("pre", "post")
        assert stats.times[0] == 0.0
        # per dwell: one interior sample then the two-sided reset
        assert stats.sides[2:5] == ("interior", "pre", "post")
        assert stats.times[2] == pytest.approx(0.25)
        assert stats.times[3] == stats.times[4] == pytest.approx(0.5)
        assert stats.times[-1] == pytest.approx(1.0)

    def test_manual_replay_single_pair(self):
        system = hybrid_linear(a=1.0, rho=0.5, tau=0.2, sigma_c=1.0, sigma_d=1.0)
        config = EnsembleConfig(pair_count=1, horizon=0.4, master_seed=9,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])),
                                step_size=0.05, interior_per_dwell=0)
        stats = run_pair_ensemble(system, config)

        def member(member_index):
            gen = derive_stream(9, 0, member_index)
            values = [gen.uniform(np.array([-1.0]), np.array([1.0]))]
            for k in range(3):
                # the reset draw precedes the dwell's flow draws
                values.append(0.5 * values[-1] + gen.standard_normal(1))
                if k < 2:  # the closing reset at the horizon ends the run
                    x, z = values[-1], gen.standard_normal((4, 1))
                    for j in range(4):
                        x = x - x * 0.05 + math.sqrt(0.05) * z[j]
                    values.append(x)
            return np.array(values)[:, 0]

        assert stats.sides == ("pre", "post") * 3
        assert stats.times == pytest.approx([0.0, 0.0, 0.2, 0.2, 0.4, 0.4])
        assert stats.mean_sq == pytest.approx((member(0) - member(1)) ** 2, rel=1e-12)

    def test_manual_replay_noisefree_member(self):
        # member b draws its initial condition but no reset or flow noise
        system = hybrid_linear(a=1.0, rho=0.5, tau=0.2, sigma_c=1.0, sigma_d=1.0)
        config = EnsembleConfig(pair_count=2, horizon=0.4, master_seed=6,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])),
                                step_size=0.05, interior_per_dwell=1,
                                pairing_mode="noisy-vs-noisefree")
        stats = run_pair_ensemble(system, config)

        def member(pair, member_index, noisy):
            gen = derive_stream(6, pair, member_index)
            x = gen.uniform(np.array([-1.0]), np.array([1.0]))
            draw = gen.standard_normal if noisy else np.zeros
            values = [x.copy()]
            x = 0.5 * x + draw(1)
            values.append(x.copy())
            for _ in range(2):
                z = draw((4, 1))
                for j in range(4):
                    x = x - x * 0.05 + math.sqrt(0.05) * z[j]
                    if j + 1 == 2:
                        values.append(x.copy())
                values.append(x.copy())
                x = 0.5 * x + draw(1)
                values.append(x.copy())
            return np.array(values)[:, 0]

        per_pair = np.array([(member(i, 0, True) - member(i, 1, False)) ** 2
                             for i in range(2)])
        assert stats.sides[:5] == ("pre", "post", "interior", "pre", "post")
        assert stats.mean_sq == pytest.approx(per_pair.mean(axis=0), rel=1e-12)


class TestStackedMembers:
    """The members of a block are stepped as one state, and a hybrid run draws
    its resets' and flows' noise in calls across segment boundaries; the
    reference steps each member on its own and draws every segment in a call
    of its own."""

    A = np.array([[-1.0, 0.5], [-0.2, -0.6]])
    RHO = np.array([[0.5, 0.2], [-0.1, 0.4]])
    SIGMA = np.array([[0.7, 0.2], [-0.4, 0.5]])
    # a gain times the Cholesky factor of a covariance correlates the draws
    GAIN = np.array([[1.0, 0.4], [-0.3, 0.8]]) @ np.linalg.cholesky(
        np.array([[1.5, 0.6], [0.6, 0.7]]))

    def system(self, vectorized=True, state_gains=False):
        def scale(x):  # a state-dependent gain is (rows, n, d) for (rows, d) states
            return (1.0 + 0.5 * np.tanh(x))[..., None] if state_gains else 1.0

        continuous = ContinuousSDESystem(
            dimension=2, drift=lambda x, t: x @ self.A.T - 0.1 * x ** 3 + math.cos(t),
            diffusion=lambda x, t: scale(x) * self.SIGMA, noise_dim=2,
            vectorized=vectorized)
        reset = DiscreteMapSystem(dimension=2, map=lambda x, k: x @ self.RHO.T + 0.1 * k,
                                  noise_gain=lambda x, k: scale(x) * self.GAIN,
                                  noise=GaussianNoiseSpec(2), vectorized=vectorized)
        return HybridSystem(continuous=continuous, reset=reset, dwell_time=0.5)

    @staticmethod
    def config(pairs, pairing_mode="two-noisy"):
        # every flow step is sampled: 9 interior samples in each dwell of 10 steps
        return EnsembleConfig(pair_count=pairs, horizon=1.5, master_seed=4,
                              initial=InitialBox(-np.ones(2), np.ones(2)), step_size=0.05,
                              pairing_mode=pairing_mode, interior_per_dwell=9)

    def test_noisy_vs_noisefree(self):
        assert_equals_reference(self.system(), self.config(3, "noisy-vs-noisefree"))

    def test_one_pair_with_rowwise_callables(self):
        assert_equals_reference(self.system(vectorized=False), self.config(1))

    def test_state_dependent_gains(self):
        assert_equals_reference(self.system(state_gains=True), self.config(4))

    def test_dwell_sliced_by_the_draw_budget(self, monkeypatch):
        # calls of 3 updates, across segment boundaries: the first holds the
        # opening reset and two flow steps, the fourth the first dwell's last
        # two steps and the reset closing it
        monkeypatch.setattr(simulate, "_DRAW_VALUES", 4 * 2 * 3)
        segments = simulate._plan(self.system(), 1.5, 0.05, 9, 1)[2]
        groups = [[(seg.steps, lo, hi) for seg, lo, hi in group]
                  for group in simulate._draws(segments, 4)]
        assert groups[0] == [(1, 0, 1), (10, 0, 2)] and groups[3] == [(10, 8, 10), (1, 0, 1)]
        # 34 updates: 11 calls of 3, and the closing reset alone
        assert [sum(hi - lo for _, lo, hi in group) for group in groups] == [3] * 11 + [1]
        assert_equals_reference(self.system(), self.config(4))

    @pytest.mark.parametrize("budget, calls_per_run", [(None, 1), (6 * 22, 2)])
    def test_one_callable_call_per_update_and_per_draw_call(self, monkeypatch, budget,
                                                            calls_per_run):
        # a run draws 68 values: the opening reset's 2, then 20 a dwell's flow
        # and 2 its closing reset.  6 * 22 values leave 44 a row in the block
        # of 3 pairs and 66 in the block of 2, so both draw in two calls
        calls, draws = Counter(), Counter()
        if budget is not None:
            monkeypatch.setattr(simulate, "_DRAW_VALUES", budget)

        class CountingGenerator:
            def __init__(self, key):
                self.key, self.gen = key, derive_stream(*key)
                draws[key] = 0

            def __getattr__(self, name):  # standard_normal and uniform
                draws[self.key] += 1
                return getattr(self.gen, name)

        base = self.system()
        system = replace(base, continuous=counting(calls, base.continuous, "drift"),
                         reset=counting(calls, base.reset, "map"))
        monkeypatch.setattr(simulate, "derive_stream",
                            lambda *key: CountingGenerator(key))
        monkeypatch.setattr(simulate, "_BLOCK", 3)  # blocks of 3 and 2 pairs
        stats = run_pair_ensemble(system, self.config(5))
        assert stats.failures == 0
        blocks, dwells, steps = 2, 3, 10
        assert calls == {"drift": blocks * dwells * steps, "map": blocks * (dwells + 1)}
        # the initial box, then the run's noise calls
        assert draws == {(4, i, m): 1 + calls_per_run for i in range(5) for m in (0, 1)}

    def test_lone_pair_metric_product_does_not_depend_on_blocking(self, monkeypatch):
        # pair 2 of 3 runs alone in its block; its distance under a
        # non-identity metric is not taken by NumPy's one-row kernel
        system, config = self.system(), self.config(3)
        metric = np.array([[2.0, 0.7], [0.7, 1.3]])
        whole = run_pair_ensemble(system, config, metric)
        monkeypatch.setattr(simulate, "_BLOCK", 2)
        chopped = run_pair_ensemble(system, config, metric)
        assert_bit_equal(whole, chopped)


class TestEnsembleStatsOutput:
    def test_to_csv_exact_format(self):
        system = linear_map(0.5, sigma=0.0)
        config = EnsembleConfig(pair_count=2, horizon=1, master_seed=0,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        stats = run_pair_ensemble(system, config)
        buffer = io.StringIO()
        stats.to_csv(buffer, extra_columns={"bound": [2.0, 1.5], "ok": [True, True]})
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "time,side,mean_sq_dist,stderr,n_alive,bound,ok"
        assert lines[1] == "0.0,interior,1.0,0.0,2,2.0,True"
        assert lines[2] == "1.0,interior,0.25,0.0,2,1.5,True"

    def test_to_csv_rejects_a_short_extra_column(self):
        stats = run_pair_ensemble(linear_map(0.5, sigma=0.0), EnsembleConfig(
            pair_count=1, horizon=1, master_seed=0,
            initial=InitialPointPair(np.array([1.0]), np.array([0.0]))))
        with pytest.raises(ValueError):
            stats.to_csv(io.StringIO(), extra_columns={"bound": [2.0]})

    @staticmethod
    def cubic(kind):
        """(system, config) of 40 pairs of a cubic map, flow or hybrid from a
        box in which 13 to 18 pairs leave the finite floats."""
        fields = dict(pair_count=40, master_seed=6, initial=InitialBox(-1.2, 1.2))
        cube = DiscreteMapSystem(dimension=1, map=lambda x, k: 1.2 * np.asarray(x) ** 3,
                                 noise_gain=lambda x, k: 0.1 * np.eye(1),
                                 noise=GaussianNoiseSpec(1), vectorized=True)
        flow = ContinuousSDESystem(dimension=1,
                                   drift=lambda x, t: np.asarray(x) ** 3 - np.asarray(x),
                                   diffusion=lambda x, t: 0.1 * np.eye(1), noise_dim=1,
                                   vectorized=True)
        if kind == "map":
            return cube, EnsembleConfig(horizon=12, **fields)
        if kind == "flow":  # a window of 9 samples
            return flow, EnsembleConfig(horizon=2.0, step_size=0.05, **fields)
        return HybridSystem(continuous=flow, reset=linear_map(1.0, sigma=0.1),
                            dwell_time=1.0), EnsembleConfig(horizon=2.0, step_size=0.05,
                                                            **fields)

    @pytest.mark.parametrize("kind", ["map", "flow", "hybrid"])
    @pytest.mark.parametrize("block", [3, 1000])
    def test_steady_pair_bit_equal_to_reference_with_failing_pairs(self, monkeypatch, kind,
                                                                   block):
        # the reference folds each pair's window mean as one more sample; with
        # blocks of 3, pair 39 runs alone in its block
        monkeypatch.setattr(simulate, "_BLOCK", block)
        system, config = self.cubic(kind)
        got = run_pair_ensemble(system, config)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_ensemble(system, config)
        assert 12 < got.failures < 20
        assert math.isfinite(got.steady_mean) and got.steady_stderr > 0.0
        assert_bit_equal(got, want)

    def test_a_window_mean_that_overflows_is_no_failure(self):
        # squared distances of 4.1e307 are finite, but a window of 13 of them
        # sums past the floats: no pair failed, and none has a steady value
        config = EnsembleConfig(pair_count=3, horizon=60, master_seed=0,
                                initial=InitialPointPair(np.array([3.2e153]),
                                                         np.array([-3.2e153])))
        stats = run_pair_ensemble(linear_map(1.0, sigma=0.0), config)
        assert np.all(np.isfinite(stats.mean_sq)) and np.all(stats.n_alive == 3)
        assert stats.failures == 0
        assert math.isnan(stats.steady_mean) and math.isnan(stats.steady_stderr)

    @staticmethod
    def capture_blocks(monkeypatch, poison=None):
        """The samples of every block the engine steps, after poison(block)
        edits them in place."""
        blocks, engine = [], simulate._run_block

        def captured(*args):
            block = engine(*args)
            if poison is not None:
                poison(block)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(simulate, "_run_block", captured)
        return blocks

    @pytest.mark.parametrize("name, size", [("linear-map", 13), ("hybrid-linear", 26)])
    def test_steady_window_is_the_last_fifth_of_the_horizon(self, monkeypatch, name, size):
        # every sample at t >= 0.8 times the horizon, both sides of a reset
        # included: 13 of linear-map's 61 points, 26 of hybrid-linear's 122;
        # the steady pair is the mean and stderr of the pairs' window means
        recipe = get_recipe(name)
        params = resolve_params(recipe, {})
        horizon = recipe.sim_defaults["horizon"]
        blocks = self.capture_blocks(monkeypatch)
        stats = run_pair_ensemble(recipe.build(params), EnsembleConfig(
            pair_count=30, horizon=horizon, master_seed=2, initial=recipe.initial(params),
            step_size=dwell_step_default(recipe, params)))
        window = stats.times >= 0.8 * horizon
        assert int(window.sum()) == size and window[-size:].all()
        means = blocks[0][:, window].mean(axis=1)
        assert stats.steady_mean == pytest.approx(means.mean(), rel=1e-14, abs=0.0)
        assert stats.steady_stderr == pytest.approx(means.std(ddof=1) / math.sqrt(30),
                                                    rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("pairs", [1, 2, 4])
    @pytest.mark.parametrize("first_bad", [3, 50, 60])
    def test_steady_pair_counts_only_pairs_finite_on_the_whole_grid(self, monkeypatch, pairs,
                                                                    first_bad):
        # pair 0 leaves the floats at sample first_bad of 61: before the
        # window (t >= 48), inside it, or at its last sample; a single steady
        # pair has a NaN stderr, and none a NaN mean
        def explode(block):
            block[0, first_bad] = np.inf
            block[0, first_bad + 1:] = np.nan

        config = EnsembleConfig(pair_count=pairs, horizon=60, master_seed=4,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        clean = self.capture_blocks(monkeypatch)
        run_pair_ensemble(linear_map(0.9), config)
        monkeypatch.undo()
        self.capture_blocks(monkeypatch, explode)
        stats = run_pair_ensemble(linear_map(0.9), config)
        assert stats.failures == 1
        means = clean[0][1:, 48:].mean(axis=1)
        if pairs == 1:
            assert math.isnan(stats.steady_mean)
        else:
            assert stats.steady_mean == pytest.approx(means.mean(), rel=1e-14, abs=0.0)
        if pairs > 2:
            assert stats.steady_stderr == pytest.approx(
                means.std(ddof=1) / math.sqrt(pairs - 1), rel=1e-14, abs=0.0)
        else:
            assert math.isnan(stats.steady_stderr)


class TestTooFewRuns:
    """One rule for a moment over too few runs, per time and for the steady
    values alike: a NaN mean where no run is alive, a NaN stderr where fewer
    than two are, each NumPy's positive NaN."""

    @staticmethod
    def assert_nan_where_too_few(stats):
        assert np.isnan(stats.mean_sq).tolist() == (stats.n_alive == 0).tolist()
        assert np.isnan(stats.stderr).tolist() == (stats.n_alive < 2).tolist()
        steady = stats.n_pairs - stats.failures  # every window mean here is finite
        assert math.isnan(stats.steady_mean) == (steady == 0)
        assert math.isnan(stats.steady_stderr) == (steady < 2)
        values = np.concatenate([stats.mean_sq, stats.stderr,
                                 [stats.steady_mean, stats.steady_stderr]])
        assert not np.signbit(values[np.isnan(values)]).any()

    @pytest.mark.parametrize("seed, last_alive", [(0, 0), (4, 1), (1, 2)])
    def test_pairs_lost_along_the_grid(self, seed, last_alive):
        # a pair fails once a member leaves (-2, 2): 4 pairs end with 0, 1 or
        # 2 alive, the first passing through 1 alive on its way to 0
        def cubic(x, k):
            return np.where(np.abs(x) < 2.0, 0.5 * x + x ** 3, np.inf)

        system = DiscreteMapSystem(dimension=1, map=cubic,
                                   noise_gain=lambda x, k: 0.3 * np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        stats = run_pair_ensemble(system, EnsembleConfig(
            pair_count=4, horizon=12, master_seed=seed,
            initial=InitialBox(np.array([-1.0]), np.array([1.0]))))
        assert stats.n_alive[0] == 4 and stats.n_alive[-1] == last_alive
        assert (1 in stats.n_alive) == (last_alive < 2)
        self.assert_nan_where_too_few(stats)

    @pytest.mark.parametrize("runs, horizon, sigma_c", [(1, 1.0, None), (3, 0.3, 300.0)])
    def test_ring_runs(self, runs, horizon, sigma_c):
        # a lone run, and three runs of a ring so noisy that one is left
        params = cpg.STRONG_COUPLING if sigma_c is None else \
            replace(cpg.STRONG_COUPLING, sigma_c=sigma_c)
        result = cpg.run_cpg_experiment(params, run_count=runs, horizon=horizon,
                                        master_seed=0)
        assert result.n_alive[-1] == 1 and set(result.n_alive.tolist()) <= {1, 2, 3}
        self.assert_nan_where_too_few(result)


class TestCheckBoundRespect:
    def make_stats(self, mean, stderr):
        mean = np.asarray(mean, dtype=float)
        n = mean.size
        return simulate.EnsembleStats(
            times=np.arange(n, dtype=float), sides=("interior",) * n,
            mean_sq=mean, stderr=np.asarray(stderr, dtype=float),
            n_pairs=10, n_alive=np.full(n, 10), failures=0)

    def test_callable_bound_pass_and_fail(self):
        stats = self.make_stats([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        ok = check_bound_respect(stats, lambda t, side: 1.05, slack=3.0)
        assert ok.ok and ok.n_violations == 0
        assert ok.worst_slack == pytest.approx(0.35)
        bad = check_bound_respect(stats, lambda t, side: 0.5, slack=3.0)
        assert not bad.ok
        assert bad.n_violations == 3
        assert bad.worst_slack == pytest.approx(0.5 + 0.3 - 1.0)

    def test_mean_may_sit_at_bound_within_slack(self):
        stats = self.make_stats([1.02], [0.01])
        result = check_bound_respect(stats, lambda t, side: 1.0, slack=3.0)
        assert result.ok  # 1.02 <= 1.0 + 3 * 0.01

    def test_infinite_bound_passes(self):
        stats = self.make_stats([1e12], [0.0])
        result = check_bound_respect(stats, lambda t, side: math.inf)
        assert result.passed.all()
        assert not result.ok  # no finite bound, so nothing was checked
        assert result.worst_slack == math.inf
        assert (result.n_checked, result.n_finite) == (1, 0)

    def test_finite_bounds_at_measured_points_are_counted(self):
        stats = self.make_stats([1.0, 1.0, math.nan, 1.0], [0.1] * 4)
        bounds = [2.0, math.inf, 2.0, 2.0]
        result = check_bound_respect(stats, lambda t, side: bounds[int(t)])
        assert (result.n_checked, result.n_finite, result.n_violations) == (4, 2, 1)

    def test_a_nan_bound_fails_its_point(self):
        # x <- 0.5 x + w from (1, -1): every point passes the bound 1e9 but
        # the one whose bound is NaN, which counts in neither n_finite nor
        # worst_slack
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: 0.5 * np.asarray(x),
                                   noise_gain=lambda x, k: np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        config = EnsembleConfig(pair_count=200, horizon=10, master_seed=0,
                                initial=InitialPointPair(np.array([1.0]), np.array([-1.0])))
        stats = run_pair_ensemble(system, config)
        result = check_bound_respect(stats, lambda t, side: math.nan if t == 3 else 1e9)
        assert not result.ok and result.n_violations == 1
        assert result.passed.tolist() == [t != 3 for t in range(11)]
        assert result.n_finite == 10
        margins = 1e9 + 3.0 * stats.stderr - stats.mean_sq
        assert result.worst_slack == np.delete(margins, 3).min()

    def test_nan_mean_is_violation(self):
        stats = self.make_stats([math.nan], [0.0])
        result = check_bound_respect(stats, lambda t, side: math.inf)
        assert not result.ok

    def test_a_point_whose_stderr_is_not_finite_is_never_passed(self):
        # a NaN stderr (fewer than two pairs) or one that overflowed, also
        # with a mean that overflowed, measures nothing whatever the bound
        stats = self.make_stats([1.0, 1.0, 1.0, math.inf], [0.1, math.nan, math.inf, math.inf])
        for value, finite, worst in ((2.0, 1, 1.3), (math.inf, 0, math.inf)):
            result = check_bound_respect(stats, lambda t, side: value)
            assert result.passed.tolist() == [True, False, False, False]
            assert not result.ok and result.n_violations == 3
            assert result.n_finite == finite
            assert result.worst_slack == pytest.approx(worst)

    def test_a_diverging_ensemble_fails(self):
        # x <- 0.5 x + 0.3 x^3 + 0.35 w is certified on [-0.5, 0.5] only;
        # about half of 4,000 pairs leave the floats, and the survivors' stderr
        # overflows, so from step 9 on no point is passed
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: 0.5 * x + 0.3 * x ** 3,
                                   noise_gain=lambda x, k: 0.35 * np.eye(1),
                                   noise=GaussianNoiseSpec(1),
                                   jacobian=lambda x, k: (0.5 + 0.9 * x ** 2)[..., None],
                                   vectorized=True)
        cert = certify_discrete(system, SamplingRegion.box([-0.5], [0.5], 256))
        start = InitialPointPair(np.array([0.2]), np.array([-0.2]))
        stats = run_pair_ensemble(system, EnsembleConfig(pair_count=4000, horizon=60,
                                                         master_seed=0, initial=start))
        result = check_bound_respect(stats, certified_bound(cert, start))
        assert 1000 < stats.failures < 4000 and np.isinf(stats.stderr).any()
        assert not result.ok
        assert result.passed.tolist() == [True] * 9 + [False] * 52

    def test_points_where_no_pair_is_alive_are_violations(self):
        # x * x * 1e100 overflows by step 3, so no pair is left to measure
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: x * x * 1e100,
                                   noise_gain=lambda x, k: np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        stats = run_pair_ensemble(system, EnsembleConfig(
            pair_count=5, horizon=6, master_seed=0,
            initial=InitialPointPair(np.ones(1), -np.ones(1))))
        assert stats.n_alive.tolist() == [5, 5, 5, 0, 0, 0, 0]
        for value, finite in ((1e300, 3), (math.inf, 0)):
            result = check_bound_respect(stats, lambda t, side: value)
            assert not result.ok and result.n_violations == 4
            assert result.n_finite == finite
            assert result.passed.tolist() == [True] * 3 + [False] * 4
            assert result.worst_slack == value  # taken over the measured points only

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_slack_that_is_not_finite_and_nonnegative_is_rejected(self, slack):
        # x <- 3 x + w leaves the bound from step 1; a slack of NaN or inf
        # would pass every measured point
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: 3.0 * x,
                                   noise_gain=lambda x, k: np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        stats = run_pair_ensemble(system, EnsembleConfig(
            pair_count=200, horizon=10, master_seed=0,
            initial=InitialPointPair(np.ones(1), -np.ones(1))))
        report = discrete_ms_bound(0.25, 1.0, 4.0, point_mass=True)
        result = check_bound_respect(stats, report, slack=3.0)
        assert not result.ok and result.n_violations == 10
        assert check_bound_respect(stats, report, slack=0.0).n_violations == 10
        with pytest.raises(ValueError, match="slack"):
            check_bound_respect(stats, report, slack=slack)

    def test_bound_report_indexed_by_step(self):
        system = linear_map(0.5, sigma=0.0)
        config = EnsembleConfig(pair_count=2, horizon=4, master_seed=0,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        stats = run_pair_ensemble(system, config)
        report = discrete_ms_bound(0.25, 0.0, 1.0)
        result = check_bound_respect(stats, report)
        assert result.ok
        assert result.n_checked == 5
        assert np.allclose(result.bounds, [report.bound_at_step(k) for k in range(5)])

    # (system, overrides, horizon): the CLI's linear-map and hybrid-linear
    # runs, at defaults and at the hybrid configurations of test_golden.py
    CLI_GRIDS = [
        ("linear-map", {}, None),
        ("hybrid-linear", {}, None),
        ("hybrid-linear", {"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0},
         10.0),
        ("hybrid-linear", {"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763,
                           "tau": 0.65}, 6.5),
        ("hybrid-linear", {"a": 1.0, "rho": 0.999, "tau": 5.0}, 10.0),
    ]

    @pytest.mark.parametrize("noise_free", [False, True])
    @pytest.mark.parametrize("name, overrides, horizon", CLI_GRIDS,
                             ids=["linear-map", "hybrid-linear", "neutral", "expanding",
                                  "unbounded"])
    def test_a_report_reads_itself_on_the_cli_grid(self, name, overrides, horizon,
                                                   noise_free):
        recipe = get_recipe(name)
        params = resolve_params(recipe, overrides)
        report = recipe.bound_report(params, noise_free)
        config = EnsembleConfig(
            pair_count=20, horizon=horizon or recipe.sim_defaults["horizon"], master_seed=2,
            initial=recipe.initial(params), step_size=dwell_step_default(recipe, params),
            pairing_mode="noisy-vs-noisefree" if noise_free else "two-noisy")
        stats = run_pair_ensemble(recipe.build(params), config)
        if recipe.kind == "discrete":
            want = [report.bound_at_step(k) for k in range(stats.times.size)]
            by_hand = lambda t, side: report.bound_at_step(int(round(t)))  # noqa: E731
        else:
            want = [report.bound_at_time(t, side)
                    for t, side in zip(stats.times.tolist(), stats.sides)]
            by_hand = report.bound_at_time
        got = [report(t, side) for t, side in zip(stats.times.tolist(), stats.sides)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        check, again = (check_bound_respect(stats, bound) for bound in (report, by_hand))
        assert check.bounds.tobytes() == again.bounds.tobytes()
        assert check.passed.tolist() == again.passed.tolist()
        assert (check.ok, check.n_checked, check.n_finite, check.n_violations) \
            == (again.ok, again.n_checked, again.n_finite, again.n_violations)
        assert check.worst_slack.hex() == again.worst_slack.hex()


class TestFitGeometricDecay:
    def test_exact_recovery(self):
        k = np.arange(12)
        values = 3.0 + 5.0 * 0.25**k
        assert fit_geometric_decay(values, 3.0) == pytest.approx(0.25, rel=1e-9)

    def test_noise_floor_cuts_tail(self):
        k = np.arange(12)
        values = 3.0 + 5.0 * 0.25**k
        values[6:] = 3.0 + 1e-9  # tail drowned in Monte Carlo noise
        stderr = np.full(12, 1e-3)
        fitted = fit_geometric_decay(values, 3.0, stderr=stderr)
        assert fitted == pytest.approx(0.25, rel=1e-6)

    def test_insufficient_points_raise(self):
        values = np.array([3.0 + 1.0, 3.0 + 1e-12, 3.0 - 1.0])
        with pytest.raises(ValueError):
            fit_geometric_decay(values, 3.0, stderr=np.full(3, 1.0))


class TestNoOpProducts:
    """An identity metric distance and a (1, 1) gain skip their matrix
    products, and every other metric and gain keeps them; the reference keeps
    every product."""

    @pytest.mark.parametrize("name", ["linear-map", "ou1d", "brownian", "hybrid-linear",
                                      "hopf-cpg"])
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    def test_builtin_defaults_equal_the_products(self, name, pairing):
        recipe = get_recipe(name)
        params = resolve_params(recipe)
        assert_equals_reference(recipe.build(params), EnsembleConfig(
            pair_count=min(recipe.sim_defaults["pair_count"], 64),
            horizon=recipe.sim_defaults["horizon"], master_seed=5,
            initial=recipe.initial(params), step_size=dwell_step_default(recipe, params),
            pairing_mode=pairing, record_every=recipe.sim_defaults["record_every"]))

    def test_lone_pair(self):
        for count in (1, 5):
            assert_equals_reference(linear_map(0.9), EnsembleConfig(
                pair_count=count, horizon=30, master_seed=2,
                initial=InitialPointPair(np.array([1.0]), np.array([0.0]))))

    def test_other_metrics_and_gains_keep_their_products(self):
        gain = np.array([[0.7, 0.2], [-0.1, 0.4]])
        metric = np.array([[2.0, 0.3], [0.3, 0.5]])
        system = DiscreteMapSystem(
            dimension=2, map=lambda x, k: 0.6 * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: gain, noise=GaussianNoiseSpec(2), vectorized=True)
        for count in (1, 3, 40):
            config = EnsembleConfig(pair_count=count, horizon=25, master_seed=9,
                                    initial=InitialBox(-np.ones(2), np.ones(2)))
            for spec in (metric, MetricSpec.constant(metric)):
                assert_equals_reference(system, config, spec)
            assert_equals_reference(linear_map(0.8, sigma=1.3), EnsembleConfig(
                pair_count=count, horizon=25, master_seed=9, initial=InitialBox(-1.0, 1.0)),
                np.array([[3.0]]))

    @pytest.mark.parametrize("name", ["linear-map", "hybrid-linear"])
    @pytest.mark.parametrize("pairs", [1, 40])
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    def test_scalar_noise_shaping_equals_the_product(self, name, pairs, pairing):
        # a one-dimensional map and reset noise is its draws times the (1, 1)
        # gain, elementwise
        recipe = get_recipe(name)
        params = resolve_params(recipe)
        system = recipe.build(params)
        assert system.dimension == 1
        assert_equals_reference(system, EnsembleConfig(
            pair_count=pairs, horizon=recipe.sim_defaults["horizon"], master_seed=6,
            initial=recipe.initial(params), step_size=dwell_step_default(recipe, params),
            pairing_mode=pairing, record_every=recipe.sim_defaults["record_every"]))

    def test_scalar_gain_is_elementwise(self):
        draws = np.random.default_rng(4).standard_normal((7, 1))
        gain = np.array([[1.7]])
        assert np.array_equal(simulate._apply_gain(gain, draws), draws @ gain.T)


class TestBoxStarts:
    # every coordinate of these boxes shares one low and one high, so a start
    # is drawn through NumPy's scalar uniform
    BOXES = [(-1.0, 1.0, 6), (0.0, 1e-300, 3), (-1e300, 1e300, 2), (-0.0, 0.0, 4),
             (-0.0, -0.0, 1), (2.5, 2.5, 2), (-3.0, 7.25, 1)]

    def test_shared_bounds_equal_the_array_draw(self):
        for low, high, dim in self.BOXES:
            for seed in range(200):
                box = InitialBox(np.full(dim, low), np.full(dim, high))
                draw = simulate._box_start(box, dim)
                for key in [(seed, i, m) for i in range(2) for m in (0, 1)]:
                    gen, ref = np.random.default_rng(key), np.random.default_rng(key)
                    want = ref.uniform(np.full(dim, low), np.full(dim, high))
                    assert draw(gen).tobytes() == want.tobytes()
                    # the streams go on alike
                    assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    @pytest.mark.parametrize("low, high", [(0.0, -0.0), (1.0, 0.5)])
    def test_a_high_below_the_low_fails_alike(self, low, high):
        # NumPy's uniform rejects the box; the engine and initial_ms reject
        # it first, naming the coordinate and both bounds
        with pytest.raises(ValueError, match=r"^high - low < 0$"):
            np.random.default_rng(0).uniform(np.full(3, low), np.full(3, high))
        message = f"^initial box coordinate 0 has high {high!r} below its low {low!r}$"
        box = InitialBox(np.full(3, low), np.full(3, high))
        with pytest.raises(ValueError, match=message):
            simulate._box_start(box, 3)
        with pytest.raises(ValueError, match=message):
            simulate.initial_ms(box, MetricSpec.identity(3))
        lows, highs = np.zeros(3), np.ones(3)
        lows[2], highs[2] = low, high
        with pytest.raises(ValueError, match=message.replace("coordinate 0", "coordinate 2")):
            run_pair_ensemble(linear_map(dim=3), EnsembleConfig(
                pair_count=2, horizon=3, master_seed=0, initial=InitialBox(lows, highs)))

    @pytest.mark.parametrize("low, high", [(math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)])
    def test_a_bound_that_is_not_finite_fails_before_any_draw(self, low, high):
        # NumPy's uniform would end in an OverflowError, and the box's exact
        # mean square would read nan or inf; all three entry points name the
        # coordinate and both bounds instead
        lows, highs = np.zeros(3), np.ones(3)
        lows[1], highs[1] = low, high
        box = InitialBox(lows, highs)
        message = "^" + re.escape(f"initial box coordinate 1 has low {low!r} and high "
                                  f"{high!r}; both must be finite") + "$"
        with pytest.raises(ValueError, match=message):
            simulate.initial_ms(box, MetricSpec.identity(3))
        with pytest.raises(ValueError, match=message):
            run_pair_ensemble(linear_map(dim=3), EnsembleConfig(
                pair_count=2, horizon=3, master_seed=0, initial=box))
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match=message):
            sample_path(linear_map(dim=3), box, 3, None, rng)
        # nothing was drawn from the path's generator
        untouched = np.random.default_rng(7).standard_normal(4)
        assert rng.standard_normal(4).tobytes() == untouched.tobytes()

    def test_per_coordinate_bounds_keep_the_array_draw(self):
        for lows, highs in (([0.0, -0.0], [1.0, 1.0]), ([-1.0, 0.0], [1.0, 2.0]),
                            ([0.0, 0.0], [1.0, 1.5])):
            box = InitialBox(np.array(lows), np.array(highs))
            draw = simulate._box_start(box, 2)
            for i in range(3):
                want = np.random.default_rng((1, i, 0)).uniform(np.array(lows), np.array(highs))
                assert draw(np.random.default_rng((1, i, 0))).tobytes() == want.tobytes()

    def test_ring_start_is_a_shared_box(self):
        from concert.cpg import RING_START
        low, high = np.broadcast_to(RING_START.lows, 6), np.broadcast_to(RING_START.highs, 6)
        assert len(set(low.tolist())) == 1 and len(set(high.tolist())) == 1


class TestLazyStreams:
    """A member run's generator is derived at its first draw, and a single
    draw group drops it right after; the reference derives every stream up
    front."""

    @staticmethod
    def case(name, pairs, pairing="two-noisy"):
        """(system, config) of a named plan; its draw groups per block are
        noted beside it."""
        box = InitialBox(-np.ones(2), np.ones(2))
        fields = dict(pair_count=pairs, master_seed=11, pairing_mode=pairing)
        mapping = DiscreteMapSystem(
            dimension=2, map=lambda x, k: np.asarray(x) @ np.array([[0.5, 0.2], [-0.1, 0.4]]),
            noise_gain=lambda x, k: np.linalg.cholesky(np.array([[1.5, 0.6], [0.6, 0.7]])),
            noise=GaussianNoiseSpec(2), vectorized=True)
        starts = {"discrete-points": InitialPointPair(np.array([1.0, 2.0]), np.zeros(2)),
                  "discrete-box": box,
                  "discrete-per-coordinate-box": InitialBox(np.array([-1.0, 0.0]),
                                                            np.array([1.0, 3.0]))}
        if name in starts:  # one group
            return mapping, EnsembleConfig(horizon=12, initial=starts[name], **fields)
        if name in ("continuous", "continuous-sliced"):  # one group, or sliced
            return linear_flow(0.8, dim=2), EnsembleConfig(horizon=2.0, step_size=0.1,
                                                           initial=box, **fields)
        if name in ("hybrid", "hybrid-sliced"):  # one group, or several
            return hybrid_linear(dim=2), EnsembleConfig(horizon=1.0, step_size=0.1,
                                                        initial=box, **fields)
        recipe = get_recipe("hopf-cpg")  # one group at these sizes
        params = resolve_params(recipe)
        return recipe.build(params), EnsembleConfig(
            horizon=0.5, initial=recipe.initial(params),
            step_size=dwell_step_default(recipe, params), **fields)

    CASES = ["discrete-points", "discrete-box", "discrete-per-coordinate-box", "continuous",
             "continuous-sliced", "hybrid", "hybrid-sliced", "hopf-cpg"]

    @staticmethod
    def prepare(monkeypatch, name, block):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        if name == "continuous-sliced":  # 3 steps a call at 7 rows of 2 normals
            monkeypatch.setattr(simulate, "_DRAW_VALUES", 7 * 2 * 3)
        if name == "hybrid-sliced":  # 4 updates a call at 5 rows of 2 normals
            monkeypatch.setattr(simulate, "_DRAW_VALUES", 5 * 2 * 4)

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    @pytest.mark.parametrize("pairs", [1, 7])
    @pytest.mark.parametrize("block", [3, 1000])
    def test_bit_equal_to_upfront_streams(self, monkeypatch, name, pairing, pairs, block):
        self.prepare(monkeypatch, name, block)
        assert_equals_reference(*self.case(name, pairs, pairing))

    @pytest.mark.parametrize("runs", [1, 4, 5])
    @pytest.mark.parametrize("block", [3, 1000])
    def test_ring_experiment_and_sample_path_bit_equal_to_upfront(self, monkeypatch, runs,
                                                                   block):
        # with blocks of 3, run 3 of 4 runs alone in its block; the window
        # holds 11 samples, so summing them pairwise would change its bits
        monkeypatch.setattr(simulate, "_BLOCK", block)
        params = cpg.CPGParams(gamma=0.2)
        system = cpg.build_cpg_system(params)
        got = cpg.run_cpg_experiment(params, run_count=runs, horizon=1.5, master_seed=3)
        # the ring's runs are member 0 of its keys, with one interior sample a dwell
        gens = [derive_stream(3, i, 0) for i in range(runs)]
        x = np.stack([g.uniform(-np.ones(6), np.ones(6)) for g in gens])
        times, _, states = reference_member(system, gens, x, True, 1.5, params.tau / 100, 1)
        delta = np.stack([cpg.phase_locking_delta(states[:, g]) for g in range(len(times))],
                         axis=1)[:runs]
        _, mean, stderr, _ = scalar_moments(delta)
        assert got.times.tobytes() == times.tobytes()
        assert got.mean_sq.tobytes() == np.array(mean).tobytes()
        assert got.stderr.tobytes() == np.array(stderr).tobytes()
        # the window means are one more sample, reduced by the same fold
        window = window_means(delta, times >= 0.8 * 1.5)
        _, (steady_mean,), (steady_stderr,), _ = scalar_moments(np.array(window)[:, None])
        assert np.array([got.steady_mean, got.steady_stderr]).tobytes() == \
            np.array([steady_mean, steady_stderr]).tobytes()
        path = sample_path(system, x[0], 0.3, 0.001, derive_stream(3, 1, 0))
        want = reference_member(system, [derive_stream(3, 1, 0)], x[:1], True, 0.3, 0.001)
        assert path.states.tobytes() == want[2][0].tobytes()

    @staticmethod
    def drawing(config):
        """The members that draw: a noise-free member with a given start draws
        nothing."""
        noisy = config.pairing_mode == "two-noisy" or isinstance(config.initial, InitialBox)
        return (0, 1) if noisy else (0,)

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    def test_one_derivation_per_member_run(self, monkeypatch, name, pairing):
        # exactly one derivation per member run that draws, and none for the
        # noise-free member of a point-pair plan
        keys = Counter()

        def counted(*key):
            keys[key] += 1
            return derive(*key)

        derive = simulate.derive_stream
        self.prepare(monkeypatch, name, 3)
        monkeypatch.setattr(simulate, "derive_stream", counted)
        system, config = self.case(name, 7, pairing)
        run_pair_ensemble(system, config)
        assert keys == Counter({(11, i, m): 1 for i in range(7) for m in self.drawing(config)})
        keys.clear()
        cpg.run_cpg_experiment(cpg.CPGParams(gamma=0.2), run_count=4, horizon=0.2,
                               master_seed=2)
        assert keys == Counter({(2, i, 0): 1 for i in range(4)})

    @pytest.mark.parametrize("name, groups", [("discrete-points", 1), ("discrete-box", 1),
                                              ("continuous", 1), ("continuous-sliced", 5),
                                              ("hybrid", 1), ("hybrid-sliced", 4)])
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    def test_generators_alive(self, monkeypatch, name, groups, pairing):
        # a generator's SeedWords lives exactly as long as the generator
        refs, most = [], []

        def tracked(*key):
            most.append(sum(ref() is not None for ref in refs))
            gen = derive(*key)
            refs.append(weakref.ref(gen.bit_generator.seed_seq))
            return gen

        def checked(*args):
            out = engine(*args)
            assert all(ref() is None for ref in refs)  # none outlives its block
            refs.clear()
            return out

        derive, engine = simulate.derive_stream, simulate._run_block
        self.prepare(monkeypatch, name, 5)
        monkeypatch.setattr(simulate, "derive_stream", tracked)
        monkeypatch.setattr(simulate, "_run_block", checked)
        system, config = self.case(name, 7, pairing)
        assert len(list(simulate._draws(simulate._plan(
            system, config.horizon, config.step_size, None, 1)[2], 5))) == groups
        run_pair_ensemble(system, config)
        assert len(most) == 7 * len(self.drawing(config)) and not refs
        if groups == 1:  # no two generators of a block alive at once
            assert max(most) == 0
        else:
            # the noisy members' generators are kept until the block's last
            # group: at the first block's last derivation, the other 9 of two
            # noisy members, or the 5 of the noisy member alone
            assert max(most) == (9 if pairing == "two-noisy" else 5)

    def test_non_finite_start_draws_nothing(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(NonFiniteState) as err:
            sample_path(linear_map(), np.array([math.nan]), 5, None, rng)
        assert err.value.step_index == 0
        assert rng.standard_normal() == ref.standard_normal()
