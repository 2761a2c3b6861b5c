"""Trajectory simulation, pair ensembles, bound checks, decay fits."""
from __future__ import annotations

import io
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
    check_bound_respect,
    derive_stream,
    discrete_ms_bound,
    fit_geometric_decay,
    run_pair_ensemble,
    sample_path,
)
from concert.systems import dwell_step_default, get_recipe, resolve_params


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
    """(count, mean, stderr, failures) of _moments, one float at a time: each
    row counts up to its first non-finite value.  The rows are taken in chunks
    of 1,024; per sample, a chunk's mean and sum of squared deviations are
    sums over its rows in row order, merged into the running moments in chunk
    order by Chan, Golub & LeVeque's update."""
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
    stderr = [math.sqrt(m / (c - 1) / c) if c > 1 else 0.0 for m, c in zip(msq, count)]
    return count, mean, stderr, failures


def hybrid_linear(a=1.0, rho=0.5, tau=0.5, sigma_c=1.0, sigma_d=1.0, dim=1):
    return HybridSystem(
        continuous=linear_flow(a, dim, sigma_c),
        reset=linear_map(rho, dim, sigma_d),
        dwell_time=tau)


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
        config = EnsembleConfig(pair_count=2, horizon=3, master_seed=2.9,
                                initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
        with pytest.raises(TypeError):
            run_pair_ensemble(linear_map(), config)


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
        z = derive_stream(3, 0, 0).standard_normal((5, 1))
        x, expected = np.array([1.0]), [1.0]
        for k in range(5):
            x = 0.5 * x + z[k] @ np.array([[0.7]]).T
            expected.append(x[0])
        assert np.array_equal(path.states[:, 0], expected)

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
        calls = {"drift": 0, "diffusion": 0, "map": 0, "noise_gain": 0}

        def counted(name, fn):
            def wrapped(x, arg):
                calls[name] += 1
                return fn(x, arg)
            return wrapped

        base = hybrid_linear(tau=0.5)
        flow, reset = base.continuous, base.reset
        system = HybridSystem(
            continuous=ContinuousSDESystem(
                dimension=1, noise_dim=1,
                drift=counted("drift", flow.drift),
                diffusion=counted("diffusion", flow.diffusion)),
            reset=DiscreteMapSystem(
                dimension=1, noise=GaussianNoiseSpec(1),
                map=counted("map", reset.map),
                noise_gain=counted("noise_gain", reset.noise_gain)),
            dwell_time=0.5)
        path = sample_path(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        # 2 dwells of 5 flow steps, and resets at k = 0, 1, 2
        assert calls == {"drift": 10, "diffusion": 10, "map": 3, "noise_gain": 3}
        reference = sample_path(base, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        assert np.array_equal(path.states, reference.states)


class TestEnsembleConfigValidation:
    def test_rejects_bad_fields(self):
        init = InitialPointPair(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            EnsembleConfig(pair_count=0, horizon=5, master_seed=0, initial=init)
        with pytest.raises(ValueError):
            EnsembleConfig(pair_count=1, horizon=5, master_seed=0, initial=init,
                           pairing_mode="both-noisy")
        with pytest.raises(ValueError):
            EnsembleConfig(pair_count=1, horizon=5, master_seed=0, initial=init,
                           statistic="rms")
        with pytest.raises(ValueError):
            EnsembleConfig(pair_count=1, horizon=5, master_seed=0, initial=init,
                           record_every=0)
        with pytest.raises(ValueError):
            EnsembleConfig(pair_count=1, horizon=5, master_seed=0, initial=init,
                           interior_per_dwell=-1)

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
        assert np.array_equal(default.times, four.times)
        assert np.array_equal(default.mean_sq, four.mean_sq)


class TestInitialMeanSquare:
    # differences whose x ** 2 (libm pow) and x * x differ in the last bit on
    # a glibc host, then a seeded sweep
    EDGES = [(-0.8406999297115503, -0.3805132771308859),
             (3.550129466143078, 1.9508999115946697),
             (1.7225184859824019, 4.360180888190753)]

    def test_equals_the_closed_forms_squared_in_python(self):
        rng = np.random.default_rng(31)
        for low, high in self.EDGES + rng.uniform(-5, 5, (2000, 2)).tolist():
            pair = InitialPointPair(np.array([high]), np.array([low]))
            box = InitialBox(np.array([low]), np.array([high]))
            assert simulate.initial_ms(pair, 1) == (high - low) ** 2
            assert simulate.initial_ms(box, 1) == (high - low) ** 2 / 6.0

    def test_broadcasts_to_the_dimension(self):
        assert simulate.initial_ms(InitialBox(-1.0, 1.0), 6) == 4.0
        assert simulate.initial_ms(InitialPointPair(np.zeros(3), np.ones(3)), 3) == 3.0


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

        ga = derive_stream(5, 0, 0)
        wa = ga.standard_normal((3, 1))
        xa, xb = np.array([4.0]), np.array([2.0])
        expected = [float(((xa - xb) ** 2).item())]
        for k in range(3):
            xa = 0.5 * xa + wa[k]
            xb = 0.5 * xb  # member b evolves without noise
            expected.append(float(((xa - xb) ** 2).item()))
        gb = derive_stream(5, 1, 0)
        wbk = gb.standard_normal((3, 1))
        ya, yb = np.array([4.0]), np.array([2.0])
        other = [float(((ya - yb) ** 2).item())]
        for k in range(3):
            ya = 0.5 * ya + wbk[k]
            yb = 0.5 * yb
            other.append(float(((ya - yb) ** 2).item()))
        manual = (np.array(expected) + np.array(other)) / 2.0
        assert np.allclose(stats.mean_sq, manual, rtol=1e-12, atol=0.0)

    def test_distance_statistic(self):
        system = linear_map(0.5, sigma=0.0)
        config = EnsembleConfig(pair_count=1, horizon=2, master_seed=0,
                                initial=InitialPointPair(np.array([4.0]), np.array([0.0])),
                                statistic="distance")
        stats = run_pair_ensemble(system, config)
        assert stats.mean_sq == pytest.approx([4.0, 2.0, 1.0])

    def test_blocking_does_not_change_output(self, monkeypatch):
        system = linear_map(0.5)
        config = EnsembleConfig(pair_count=7, horizon=5, master_seed=3,
                                initial=InitialBox(np.array([-1.0]), np.array([1.0])))
        full = run_pair_ensemble(system, config)
        monkeypatch.setattr(simulate, "_BLOCK", 2)
        chopped = run_pair_ensemble(system, config)
        assert np.array_equal(full.mean_sq, chopped.mean_sq)
        assert np.array_equal(full.stderr, chopped.stderr)

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
        assert np.array_equal(full.n_alive, chopped.n_alive)
        assert np.array_equal(full.mean_sq, chopped.mean_sq)
        assert np.array_equal(full.stderr, chopped.stderr)

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
        return simulate._moments(rows.shape[0], rows.shape[1], lambda runs: rows[list(runs)])

    def assert_equals_scalar_reference(self, rows):
        count, mean, stderr, failures = self.moments(rows)
        expected = scalar_moments(rows)
        assert count.tolist() == expected[0]
        assert mean.tolist() == expected[1]
        assert stderr.tolist() == expected[2]
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
        # a lone run is stepped as two identical rows of one scaled draw block
        z = derive_stream(5, 0, 0).standard_normal((steps, 2))
        w = np.multiply(math.sqrt(h), np.stack([z, z]))
        x = np.stack([a, a])
        expected = [x[0]]
        for j in range(steps):
            x = x + drift * h + w[:, j] @ gain.T
            expected.append(x[0])
        assert np.array_equal(path.states, np.array(expected))


class TestSlicedDraws:
    """A segment whose noise holds more than _DRAW_VALUES values per member is
    drawn in slices; every run must equal the same run drawn whole, bit for
    bit.  The references below draw each member's whole run in one call."""

    A = np.array([[0.3, -0.2, 0.1], [0.25, 0.1, -0.3], [-0.1, 0.2, 0.4]])
    GAIN = np.array([[1.0, 0.5, 0.0], [-0.3, 0.8, 0.2], [0.4, 0.0, 1.2]])
    COV = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])

    def correlated_map(self):
        return DiscreteMapSystem(dimension=3, map=lambda x, k: x @ self.A.T,
                                 noise_gain=lambda x, k: self.GAIN,
                                 noise=GaussianNoiseSpec(3, covariance=self.COV),
                                 vectorized=True)

    @staticmethod
    def assert_reduces_to(stats, per_pair):
        count, mean, stderr, failures = scalar_moments(per_pair)
        assert stats.failures == failures == 0
        assert stats.n_alive.tolist() == count
        assert stats.mean_sq.tolist() == mean
        assert stats.stderr.tolist() == stderr

    @staticmethod
    def box_starts(gens, dimension):
        return np.stack([g.uniform(-np.ones(dimension), np.ones(dimension)) for g in gens])

    def test_map_with_correlated_noise(self, monkeypatch):
        system = self.correlated_map()
        transform = system.noise._transform
        pairs, steps = 5, 13
        config = EnsembleConfig(pair_count=pairs, horizon=steps, master_seed=8,
                                initial=InitialBox(-np.ones(3), np.ones(3)))

        def member(m):
            gens = [derive_stream(8, i, m) for i in range(pairs)]
            x = self.box_starts(gens, 3)
            w = np.stack([g.standard_normal((steps, 3)) for g in gens]) @ transform.T
            states = [x]
            for k in range(steps):
                x = x @ self.A.T + w[:, k] @ self.GAIN.T
                states.append(x)
            return np.stack(states, axis=1)

        per_pair = ((member(0) - member(1)) ** 2).sum(axis=2)
        # slices of 3 steps, and the lone 13th step in a slice of its own
        monkeypatch.setattr(simulate, "_DRAW_VALUES", pairs * 3 * 3)
        assert simulate._slices(steps, pairs * 3) == [(0, 3), (3, 6), (6, 9), (9, 12), (12, 13)]
        self.assert_reduces_to(run_pair_ensemble(system, config), per_pair)

    def test_map_noise_does_not_depend_on_the_horizon(self):
        # a map's noise is shaped by one 2-D product over every row and step,
        # so a one-step run is not shaped by NumPy's one-row kernel: its first
        # step equals the first step of a longer run, bit for bit
        rng = np.random.default_rng(12)
        for seed in range(40):
            a, gain, root = (rng.normal(size=(4, 4)) for _ in range(3))
            system = DiscreteMapSystem(dimension=4, map=lambda x, k, a=a: 0.3 * x @ a.T,
                                       noise_gain=lambda x, k, gain=gain: gain,
                                       noise=GaussianNoiseSpec(4, covariance=root @ root.T),
                                       vectorized=True)
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

        def member(m):
            gens = [derive_stream(3, i, m) for i in range(pairs)]
            x = self.box_starts(gens, 2)
            z = np.stack([g.standard_normal((steps, 2)) for g in gens])
            w = np.multiply(math.sqrt(h), z)
            states = [x]
            for j in range(steps):
                x = (x @ a.T) * h + x + w[:, j] @ sigma.T
                states.append(x)
            return np.stack(states, axis=1)

        per_pair = ((member(0) - member(1)) ** 2).sum(axis=2)
        monkeypatch.setattr(simulate, "_DRAW_VALUES", pairs * 2 * 7)  # slices of 7 steps
        self.assert_reduces_to(run_pair_ensemble(system, config), per_pair)

    def test_lone_sample_path(self, monkeypatch):
        system = self.correlated_map()
        transform = system.noise._transform
        x0, steps = np.array([1.0, -0.5, 2.0]), 13
        # a lone run: two identical rows of one draw block, shaped together
        z = derive_stream(4, 0, 0).standard_normal((steps, 3))
        w = np.stack([z, z]) @ transform.T
        x = np.stack([x0, x0])
        expected = [x[0]]
        for k in range(steps):
            x = x @ self.A.T + w[:, k] @ self.GAIN.T
            expected.append(x[0])
        monkeypatch.setattr(simulate, "_DRAW_VALUES", 2 * 3 * 2)  # slices of 2 steps
        path = sample_path(system, x0, steps, None, derive_stream(4, 0, 0))
        assert np.array_equal(path.states, np.array(expected))

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
        assert np.array_equal(full.mean_sq, chopped.mean_sq)
        assert np.array_equal(full.stderr, chopped.stderr)

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
            x = gen.uniform(np.array([-1.0]), np.array([1.0]))
            values = {}
            values[(0.0, "pre")] = x.copy()
            sqrt_h = math.sqrt(0.05)
            for k in range(2):
                # reset draw precedes the dwell's flow draws
                w = gen.standard_normal(1)
                x = 0.5 * x + w
                if k == 0:
                    values[(0.0, "post")] = x.copy()
                else:
                    values[(0.2, "post")] = x.copy()
                z = gen.standard_normal((4, 1))
                for j in range(4):
                    x = x - x * 0.05 + sqrt_h * z[j]
                values[((k + 1) * 0.2, "pre")] = x.copy()
            # closing reset at the horizon
            w = gen.standard_normal(1)
            x = 0.5 * x + w
            values[(0.4, "post")] = x.copy()
            return values

        va, vb = member(0), member(1)
        for i, (t, side) in enumerate(zip(stats.times, stats.sides)):
            key = (round(float(t), 10), side)
            diff = va[key] - vb[key]
            assert stats.mean_sq[i] == pytest.approx(float((diff**2).item()), rel=1e-12)

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
    each dwell's reset and flow noise in one call.  The reference steps each
    member on its own and draws every segment in a call of its own; a member
    with a single run is stepped as two identical rows, shaped together."""

    A = np.array([[-1.0, 0.5], [-0.2, -0.6]])
    RHO = np.array([[0.5, 0.2], [-0.1, 0.4]])
    SIGMA = np.array([[0.7, 0.2], [-0.4, 0.5]])
    GAIN = np.array([[1.0, 0.4], [-0.3, 0.8]])
    COV = np.array([[1.5, 0.6], [0.6, 0.7]])

    def system(self, vectorized=True, state_gains=False):
        def scale(x):  # a state-dependent gain is (rows, n, d) for (rows, d) states
            return (1.0 + 0.5 * np.tanh(x))[..., None] if state_gains else 1.0

        continuous = ContinuousSDESystem(
            dimension=2, drift=lambda x, t: x @ self.A.T - 0.1 * x ** 3 + math.cos(t),
            diffusion=lambda x, t: scale(x) * self.SIGMA, noise_dim=2,
            vectorized=vectorized)
        reset = DiscreteMapSystem(dimension=2, map=lambda x, k: x @ self.RHO.T + 0.1 * k,
                                  noise_gain=lambda x, k: scale(x) * self.GAIN,
                                  noise=GaussianNoiseSpec(2, covariance=self.COV),
                                  vectorized=vectorized)
        return HybridSystem(continuous=continuous, reset=reset, dwell_time=0.5)

    @staticmethod
    def config(pairs, pairing_mode="two-noisy"):
        # every flow step is sampled: 9 interior samples in each dwell of 10 steps
        return EnsembleConfig(pair_count=pairs, horizon=1.5, master_seed=4,
                              initial=InitialBox(-np.ones(2), np.ones(2)), step_size=0.05,
                              pairing_mode=pairing_mode, interior_per_dwell=9)

    @staticmethod
    def reference(system, config, member):
        """Samples (pairs, samples, 2) of one member of every pair."""
        cont, reset, tau, h = (system.continuous, system.reset, system.dwell_time,
                               config.step_size)
        gens = [derive_stream(config.master_seed, i, member) for i in range(config.pair_count)]
        noisy = member == 0 or config.pairing_mode == "two-noisy"
        rows = max(len(gens), 2)

        def call(fn, vectorized, x, arg):
            if vectorized:
                return np.asarray(fn(x, arg), dtype=float)
            return np.stack([np.asarray(fn(row, arg), dtype=float) for row in x])

        def gain(g, w):
            return w @ g.T if g.ndim == 2 else np.einsum("bnd,bd->bn", g, w)

        def draw(shape):
            if not noisy:
                return np.zeros((rows, *shape))
            z = np.stack([g.standard_normal(shape) for g in gens])
            return np.concatenate([z, z])[:rows]

        def apply_reset(x, k):
            w = draw((2,))
            if noisy:
                w = w @ reset.noise._transform.T
            return call(reset.map, reset.vectorized, x, k) + gain(
                call(reset.noise_gain, reset.vectorized, x, k), w)

        x = np.stack([g.uniform(-np.ones(2), np.ones(2)) for g in gens])
        x = np.concatenate([x, x])[:rows]
        samples = [x]
        x = apply_reset(x, 0)
        samples.append(x)
        for k in range(3):
            z = math.sqrt(h) * draw((10, 2))
            for j in range(10):
                t = k * tau + j * h
                x = call(cont.drift, cont.vectorized, x, t) * h + x + gain(
                    call(cont.diffusion, cont.vectorized, x, t), z[:, j])
                samples.append(x)
            x = apply_reset(x, k + 1)
            samples.append(x)
        return np.stack(samples, axis=1)[:len(gens)]

    def assert_equals_reference(self, system, config):
        stats = run_pair_ensemble(system, config)
        per_pair = ((self.reference(system, config, 0)
                     - self.reference(system, config, 1)) ** 2).sum(axis=2)
        TestSlicedDraws.assert_reduces_to(stats, per_pair)

    def test_noisy_vs_noisefree(self):
        self.assert_equals_reference(self.system(), self.config(3, "noisy-vs-noisefree"))

    def test_one_pair_with_rowwise_callables(self):
        self.assert_equals_reference(self.system(vectorized=False), self.config(1))

    def test_state_dependent_gains(self):
        self.assert_equals_reference(self.system(state_gains=True), self.config(4))

    def test_dwell_sliced_by_the_draw_budget(self, monkeypatch):
        # each dwell's flow is drawn in ranges of 3, 3, 3 and 1 steps; the reset
        # opening it is drawn with the first
        monkeypatch.setattr(simulate, "_DRAW_VALUES", 4 * 2 * 3)
        self.assert_equals_reference(self.system(), self.config(4))

    def test_one_callable_call_per_update_and_one_draw_per_dwell(self, monkeypatch):
        calls = {"drift": 0, "map": 0}
        draws = {}

        class CountingGenerator:
            def __init__(self, key):
                self.key, self.gen = key, derive_stream(*key)
                draws[key] = 0

            def __getattr__(self, name):  # standard_normal and uniform
                draws[self.key] += 1
                return getattr(self.gen, name)

        def counted(name, fn):
            def wrapper(x, arg):
                calls[name] += 1
                return fn(x, arg)
            return wrapper

        base = self.system()
        system = HybridSystem(
            continuous=ContinuousSDESystem(
                dimension=2, drift=counted("drift", base.continuous.drift),
                diffusion=base.continuous.diffusion, noise_dim=2, vectorized=True),
            reset=DiscreteMapSystem(
                dimension=2, map=counted("map", base.reset.map),
                noise_gain=base.reset.noise_gain, noise=base.reset.noise, vectorized=True),
            dwell_time=base.dwell_time)
        monkeypatch.setattr(simulate, "derive_stream",
                            lambda *key: CountingGenerator(key))
        monkeypatch.setattr(simulate, "_BLOCK", 3)  # blocks of 3 and 2 pairs
        stats = run_pair_ensemble(system, self.config(5))
        assert stats.failures == 0
        blocks, dwells, steps = 2, 3, 10
        assert calls == {"drift": blocks * dwells * steps, "map": blocks * (dwells + 1)}
        # the initial box, one call per dwell, and the closing reset
        assert draws == {(4, i, m): 1 + dwells + 1 for i in range(5) for m in (0, 1)}

    def test_lone_pair_metric_product_does_not_depend_on_blocking(self, monkeypatch):
        # pair 2 of 3 runs alone in its block; its distance under a
        # non-identity metric is not taken by NumPy's one-row kernel
        system, config = self.system(), self.config(3)
        metric = np.array([[2.0, 0.7], [0.7, 1.3]])
        whole = run_pair_ensemble(system, config, metric)
        monkeypatch.setattr(simulate, "_BLOCK", 2)
        chopped = run_pair_ensemble(system, config, metric)
        assert np.array_equal(whole.mean_sq, chopped.mean_sq)
        assert np.array_equal(whole.stderr, chopped.stderr)


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

    def test_steady_state_window(self):
        stats = simulate.EnsembleStats(
            times=np.arange(10, dtype=float), sides=("interior",) * 10,
            mean_sq=np.arange(10, dtype=float), stderr=np.full(10, 0.5),
            n_pairs=4, n_alive=np.full(10, 4), failures=0)
        mean, err = stats.steady_state(window_frac=0.2)
        assert mean == pytest.approx(8.5)
        assert err == pytest.approx(0.5)


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
        assert result.ok
        assert result.worst_slack == math.inf

    def test_nan_mean_is_violation(self):
        stats = self.make_stats([math.nan], [0.0])
        result = check_bound_respect(stats, lambda t, side: math.inf)
        assert not result.ok

    def test_points_where_no_pair_is_alive_are_violations(self):
        # x * x * 1e100 overflows by step 3, so no pair is left to measure
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: x * x * 1e100,
                                   noise_gain=lambda x, k: np.eye(1),
                                   noise=GaussianNoiseSpec(1), vectorized=True)
        stats = run_pair_ensemble(system, EnsembleConfig(
            pair_count=5, horizon=6, master_seed=0,
            initial=InitialPointPair(np.ones(1), -np.ones(1))))
        assert stats.n_alive.tolist() == [5, 5, 5, 0, 0, 0, 0]
        for value in (1e300, math.inf):
            result = check_bound_respect(stats, lambda t, side: value)
            assert not result.ok and result.n_violations == 4
            assert result.passed.tolist() == [True] * 3 + [False] * 4
            assert result.worst_slack == value  # taken over the measured points only

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
    products, and every other metric and gain keeps them; references below
    keep every product, as the engine did before."""

    @staticmethod
    def matmul_gain(gain, draws):
        if gain.ndim == 2:
            return draws @ gain.T
        return np.einsum("bnd,bd->bn", gain, draws)

    @staticmethod
    def scheduled(matrix):
        # a metric of fixed value that is not a constant one, so its distance
        # is always taken through the product with its factor
        return MetricSpec.scheduled(lambda t, side: matrix, len(matrix), 1e-3)

    def assert_same(self, got, want):
        for field in ("mean_sq", "stderr", "n_alive"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.tobytes() == b.tobytes(), field
        assert got.failures == want.failures

    @pytest.mark.parametrize("name", ["linear-map", "ou1d", "brownian", "hybrid-linear",
                                      "hopf-cpg"])
    @pytest.mark.parametrize("pairing", ["two-noisy", "noisy-vs-noisefree"])
    def test_builtin_defaults_equal_the_products(self, monkeypatch, name, pairing):
        recipe = get_recipe(name)
        params = resolve_params(recipe)
        system = recipe.build(params)
        config = EnsembleConfig(
            pair_count=min(recipe.sim_defaults["pair_count"], 64),
            horizon=recipe.sim_defaults["horizon"], master_seed=5,
            initial=recipe.initial(params), step_size=dwell_step_default(recipe, params),
            pairing_mode=pairing, record_every=recipe.sim_defaults["record_every"])
        got = run_pair_ensemble(system, config)
        dim = simulate._dimension(system)
        monkeypatch.setattr(simulate, "_apply_gain", self.matmul_gain)
        self.assert_same(got, run_pair_ensemble(system, config, self.scheduled(np.eye(dim))))

    def test_lone_pair_and_distance_statistic(self, monkeypatch):
        system = linear_map(0.9)
        configs = [EnsembleConfig(pair_count=count, horizon=30, master_seed=2, statistic=stat,
                                  initial=InitialPointPair(np.array([1.0]), np.array([0.0])))
                   for count in (1, 5) for stat in ("ms", "distance")]
        got = [run_pair_ensemble(system, config) for config in configs]
        monkeypatch.setattr(simulate, "_apply_gain", self.matmul_gain)
        for stats, config in zip(got, configs):
            self.assert_same(stats, run_pair_ensemble(system, config, self.scheduled(np.eye(1))))

    def test_other_metrics_and_gains_keep_their_products(self, monkeypatch):
        gain = np.array([[0.7, 0.2], [-0.1, 0.4]])
        metric = np.array([[2.0, 0.3], [0.3, 0.5]])
        system = DiscreteMapSystem(
            dimension=2, map=lambda x, k: 0.6 * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: gain, noise=GaussianNoiseSpec(2), vectorized=True)
        scalar = linear_map(0.8, sigma=1.3)
        for count in (1, 3, 40):
            config = EnsembleConfig(pair_count=count, horizon=25, master_seed=9,
                                    initial=InitialBox(-np.ones(2), np.ones(2)))
            got = run_pair_ensemble(system, config, metric)
            one = EnsembleConfig(pair_count=count, horizon=25, master_seed=9,
                                 initial=InitialBox(-1.0, 1.0))
            scaled = run_pair_ensemble(scalar, one, np.array([[3.0]]))
            with monkeypatch.context() as patched:
                patched.setattr(simulate, "_apply_gain", self.matmul_gain)
                self.assert_same(got, run_pair_ensemble(system, config, self.scheduled(metric)))
                self.assert_same(scaled, run_pair_ensemble(
                    scalar, one, self.scheduled(np.array([[3.0]]))))

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
                gens = [[np.random.default_rng((seed, i, m)) for i in range(2)]
                        for m in (0, 1)]
                refs = [[np.random.default_rng((seed, i, m)) for i in range(2)]
                        for m in (0, 1)]
                starts = simulate._initial_states(box, dim, gens)
                for member, ref in zip(starts, refs):
                    want = np.stack([g.uniform(np.full(dim, low), np.full(dim, high))
                                     for g in ref])
                    assert member.tobytes() == want.tobytes()
                for gen, ref in zip(sum(gens, []), sum(refs, [])):  # the streams go on alike
                    assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    @pytest.mark.parametrize("low, high", [(0.0, -0.0), (1.0, 0.5)])
    def test_a_high_below_the_low_fails_alike(self, low, high):
        box = InitialBox(np.full(3, low), np.full(3, high))
        with pytest.raises(ValueError) as shared:
            simulate._initial_states(box, 3, [[np.random.default_rng(0)]])
        with pytest.raises(ValueError) as array:
            np.random.default_rng(0).uniform(np.full(3, low), np.full(3, high))
        assert str(shared.value) == str(array.value)

    def test_per_coordinate_bounds_keep_the_array_draw(self):
        for lows, highs in (([0.0, -0.0], [1.0, 1.0]), ([-1.0, 0.0], [1.0, 2.0]),
                            ([0.0, 0.0], [1.0, 1.5])):
            box = InitialBox(np.array(lows), np.array(highs))
            gens = [[np.random.default_rng((1, i, 0)) for i in range(3)]]
            refs = [np.random.default_rng((1, i, 0)) for i in range(3)]
            want = np.stack([g.uniform(np.array(lows), np.array(highs)) for g in refs])
            assert simulate._initial_states(box, 2, gens)[0].tobytes() == want.tobytes()

    def test_ring_start_is_a_shared_box(self):
        from concert.cpg import RING_START
        low, high = np.broadcast_to(RING_START.lows, 6), np.broadcast_to(RING_START.highs, 6)
        assert len(set(low.tolist())) == 1 and len(set(high.tolist())) == 1
