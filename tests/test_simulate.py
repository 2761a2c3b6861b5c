"""Trajectory simulation, pair ensembles, bound checks, decay fits."""
from __future__ import annotations

import io
import math
import os
import pickle
import subprocess
import sys
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
    NonFiniteState,
    check_bound_respect,
    derive_stream,
    discrete_ms_bound,
    fit_geometric_decay,
    integrate_sde,
    run_hybrid,
    run_pair_ensemble,
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


class TestIntegrateSDE:
    def test_zero_noise_matches_exact_decay(self):
        system = linear_flow(a=1.0, sigma=0.0)
        rng = np.random.default_rng(0)
        path = integrate_sde(system, np.array([1.0]), 0.0, 1.0, 1e-4, rng)
        assert path.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-3)
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(1.0)
        assert path.states.shape == (10001, 1)

    def test_non_integer_span_rejected(self):
        system = linear_flow()
        with pytest.raises(ValueError):
            integrate_sde(system, np.array([1.0]), 0.0, 1.05, 0.1,
                          np.random.default_rng(0))
        with pytest.raises(ValueError):
            integrate_sde(system, np.array([1.0]), 0.0, 1.0, -0.1,
                          np.random.default_rng(0))

    def test_nonfinite_state_carries_step_index(self):
        blowup = ContinuousSDESystem(
            dimension=1,
            drift=lambda x, t: np.array([np.inf]),
            diffusion=lambda x, t: np.zeros((1, 1)),
            noise_dim=1)
        with pytest.raises(NonFiniteState) as err:
            integrate_sde(blowup, np.array([1.0]), 0.0, 1.0, 0.1,
                          np.random.default_rng(0))
        assert err.value.step_index == 1

    def test_wrong_state_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            integrate_sde(linear_flow(dim=2), np.zeros(3), 0.0, 1.0, 0.1,
                          np.random.default_rng(0))


class TestRunHybrid:
    def test_layout_and_sides(self):
        system = hybrid_linear(tau=0.5)
        path = run_hybrid(system, np.array([1.0]), 1.0, 0.1,
                          np.random.default_rng(0))
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
        path = run_hybrid(system, np.array([8.0]), 3.0, 0.25,
                          np.random.default_rng(0))
        post = [s for s, side in zip(path.states, path.sides) if side == "post"]
        assert [p[0] for p in post] == pytest.approx([4.0, 2.0, 1.0, 0.5])

    def test_horizon_must_be_dwell_multiple(self):
        with pytest.raises(ValueError):
            run_hybrid(hybrid_linear(tau=0.5), np.array([1.0]), 1.3, 0.1,
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
            run_hybrid(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
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
        path = run_hybrid(system, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
        # 2 dwells of 5 flow steps, and resets at k = 0, 1, 2
        assert calls == {"drift": 10, "diffusion": 10, "map": 3, "noise_gain": 3}
        reference = run_hybrid(base, np.array([1.0]), 1.0, 0.1, np.random.default_rng(0))
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
    def masked_welford(rows):
        count = np.zeros(rows.shape[1], dtype=np.int64)
        mean = np.zeros(rows.shape[1])
        msq = np.zeros(rows.shape[1])
        failures, masks = 0, []
        for row in rows:
            alive = np.isfinite(row)
            if not alive.all():
                alive[int(np.argmin(alive)):] = False
                failures += 1
            count[alive] += 1
            delta = np.where(alive, row - mean, 0.0)
            mean[alive] += delta[alive] / count[alive]
            msq[alive] += delta[alive] * (row[alive] - mean[alive])
            masks.append(alive)
        stderr = np.zeros(rows.shape[1])
        settled = count > 1
        stderr[settled] = np.sqrt(msq[settled] / (count[settled] - 1) / count[settled])
        return count, mean, stderr, failures, masks

    def test_bit_equal_to_masked_welford(self, monkeypatch):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((11, 9)) * 3.0 + 1.0
        rows[2, 4] = np.inf   # runs going non-finite mid-grid, some finite again later
        rows[5, 1] = np.nan
        rows[6, 6:] = -np.inf
        rows[9, 8] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            count, mean, stderr, failures, masks = self.masked_welford(rows)
        monkeypatch.setattr(simulate, "_BLOCK", 4)
        seen = []
        got = simulate._moments(rows.shape[0], rows.shape[1], lambda runs: rows[list(runs)],
                                lambda row, alive: seen.append(alive.copy()))
        assert np.array_equal(got[0], count)
        assert np.array_equal(got[1], mean)
        assert np.array_equal(got[2], stderr)
        assert got[3] == failures == 4
        assert len(seen) == rows.shape[0]
        assert all(np.array_equal(s, m) for s, m in zip(seen, masks))


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
        path = integrate_sde(system, a, 0.0, steps * h, h, derive_stream(5, 0, 0))
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
