"""Three-oscillator ring: geometry, reduced constants, bound oracles, runs."""
from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from concert import (
    CPGParams,
    EnsembleStats,
    GLOBAL_FLOW_RATE,
    NonFiniteState,
    ParameterRange,
    ROTATION_THIRD,
    STRONG_COUPLING,
    WEAK_COUPLING,
    build_cpg_system,
    check_bound_respect,
    coupling_contraction_factor,
    coupling_matrix,
    continuous_bound_at,
    derive_stream,
    discrete_ms_bound,
    hybrid_bound,
    locking_condition,
    numerical_jacobian,
    phase_aligned_components,
    phase_locking_delta,
    reduced_constants,
    ring_drift,
    ring_jacobian,
    run_cpg_experiment,
    sample_path,
    theoretical_delta_bound,
)
import concert.cpg as cpg
import concert.simulate as simulate
from concert.cpg import RING_START
from helpers import build_projections

# frozen oracle values at gamma=0.2, sigma_d=0.05, sigma_c=0.1, tau=0.1
STRONG_PIPELINE = 0.18457778538021472


class TestRotation:
    def test_third_turn_cubes_to_identity(self):
        r = ROTATION_THIRD
        assert np.allclose(r @ r @ r, np.eye(2), atol=1e-15)
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-15)
        angle = 2.0 * math.pi / 3.0
        assert np.allclose(r, [[math.cos(angle), -math.sin(angle)],
                               [math.sin(angle), math.cos(angle)]], atol=1e-15)


class TestCouplingMatrix:
    def test_block_structure(self):
        gamma = 0.3
        l = coupling_matrix(gamma)
        assert l.shape == (6, 6)
        r = ROTATION_THIRD
        for i in range(3):
            rows = slice(2 * i, 2 * i + 2)
            assert np.allclose(l[rows, rows], (1 - gamma) * np.eye(2))
            nxt = slice(2 * ((i + 1) % 3), 2 * ((i + 1) % 3) + 2)
            assert np.allclose(l[rows, nxt], gamma * r)

    def test_each_entry_is_one_exact_product(self):
        # byte-equal to the loop that writes (1 - gamma) I_2 and gamma R into
        # the blocks of a zero matrix, at seeded and extreme gammas
        rng = np.random.default_rng(0)
        for gamma in [*rng.uniform(0.0, 1.0, 500).tolist(), 1e-300, 0.999999, 0.2]:
            expected = np.zeros((6, 6))
            for i in range(3):
                j = (i + 1) % 3
                expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = (1.0 - gamma) * np.eye(2)
                expected[2 * i:2 * i + 2, 2 * j:2 * j + 2] = gamma * ROTATION_THIRD
            assert coupling_matrix(gamma).tobytes() == expected.tobytes()

    def test_locked_set_invariant(self):
        locked, _ = build_projections()
        l = coupling_matrix(0.25)
        assert np.allclose(l @ locked, locked, atol=1e-14)

    def test_factor_closed_form_matches_eigenvalues(self):
        _, transverse = build_projections()
        rng = np.random.default_rng(4)
        for gamma in [0.0, 0.01, 0.2, 0.5, 0.7, float(rng.uniform(0, 1))]:
            l = coupling_matrix(gamma)
            block = transverse.T @ l.T @ l @ transverse
            eigs = np.linalg.eigvalsh(block)
            closed = coupling_contraction_factor(gamma)
            # all four transverse squared singular values coincide
            assert np.allclose(eigs, closed, atol=1e-12)

    def test_factor_minimum_at_half(self):
        assert coupling_contraction_factor(0.5) == pytest.approx(0.25)
        assert coupling_contraction_factor(0.0) == 1.0
        assert coupling_contraction_factor(1.0) == 1.0


class TestProjections:
    def test_orthonormal_and_complementary(self):
        locked, transverse = build_projections()
        assert locked.shape == (6, 2)
        assert transverse.shape == (6, 4)
        assert np.allclose(locked.T @ locked, np.eye(2), atol=1e-14)
        assert np.allclose(transverse.T @ transverse, np.eye(4), atol=1e-14)
        assert np.allclose(locked.T @ transverse, 0.0, atol=1e-14)

    def test_locked_states_have_zero_delta(self):
        locked, _ = build_projections()
        rng = np.random.default_rng(0)
        coeff = rng.standard_normal((10, 2))
        states = coeff @ locked.T
        assert np.allclose(phase_locking_delta(states), 0.0, atol=1e-26)

    def test_delta_equals_three_times_transverse_energy(self):
        _, transverse = build_projections()
        rng = np.random.default_rng(1)
        states = rng.standard_normal((64, 6))
        direct = phase_locking_delta(states)
        energy = np.square(states @ transverse).sum(axis=1)
        assert np.allclose(direct, 3.0 * energy, rtol=1e-12, atol=1e-13)


class TestPhaseLockingDelta:
    @staticmethod
    def stacked(states):
        # each state's neighbours rotated by its own (3, 2) @ (2, 2) product
        u = states.reshape(*states.shape[:-1], 3, 2)
        diff = u[..., [1, 2, 0], :] @ ROTATION_THIRD.T - u
        return (diff * diff).sum(axis=(-1, -2))

    # a single state, a lone run, the doubled rows of a lone run, the ring's
    # run count, a full block and a stacked leading shape
    @pytest.mark.parametrize("shape", [(6,), (1, 6), (2, 6), (200, 6), (1024, 6), (3, 4, 6)])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_stacked_products(self, shape, seed):
        # exact zeros of either sign in the state, as in the drift's test
        states = np.random.default_rng(seed).standard_normal(shape) * 1.5
        states.reshape(-1)[::5] = 0.0
        states.reshape(-1)[3::7] = -0.0
        delta, want = phase_locking_delta(states), self.stacked(states)
        assert type(delta) is type(want) and np.shape(delta) == shape[:-1]
        assert delta.tobytes() == want.tobytes()


class TestPhaseAlignment:
    def test_locked_state_components_coincide(self):
        locked, _ = build_projections()
        states = np.array([[1.7, -0.3]]) @ locked.T
        cols = phase_aligned_components(states)
        assert np.allclose(cols[:, 0:2], cols[:, 2:4], atol=1e-14)
        assert np.allclose(cols[:, 0:2], cols[:, 4:6], atol=1e-14)


class TestRingDrift:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((5, 6))
        batch = ring_drift(states)
        for i in range(5):
            assert np.allclose(batch[i], ring_drift(states[i]), atol=1e-15)

    # a lone run's doubled rows (a lone pair's four), the engine's block sizes,
    # stacked members
    @pytest.mark.parametrize("shape", [(6,), (2, 6), (4, 6), (5, 6), (200, 6), (1024, 6),
                                       (3, 4, 6), (4, 5, 6)])
    @pytest.mark.parametrize("omega", [0.0, -0.0, 1.0, 1.3, -1.3, 2.5])
    def test_bit_equal_to_blockwise_formula(self, shape, omega):
        # (1 - |u|^2) u + omega * spin(u), evaluated per planar block; exact
        # zeros of either sign in the state (array_equal takes -0.0 == 0.0)
        state = np.random.default_rng(8).standard_normal(shape) * 1.5
        state.reshape(-1)[::5] = 0.0
        state.reshape(-1)[3::7] = -0.0
        u = state.reshape(*shape[:-1], 3, 2)
        sq = (u * u).sum(axis=-1, keepdims=True)
        spun = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        expected = ((1.0 - sq) * u + omega * spun).reshape(shape)
        assert np.array_equal(ring_drift(state, 0.0, omega), expected)

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (200, 6), (3, 4, 6)])
    @pytest.mark.parametrize("omega", [0.0, -0.0, 1.3, -1.3])
    def test_bit_equal_to_matmul_form(self, shape, omega):
        # the products by np.dot give the matmul form's bytes, zero signs
        # included; 0.0 and -0.0 give the spin's zero entries opposite signs
        state = np.random.default_rng(8).standard_normal(shape)
        state.reshape(-1)[::5] = 0.0
        state.reshape(-1)[3::7] = -0.0
        out = (state * state) @ cpg._PAIR_SUM
        np.subtract(1.0, out, out=out)
        out *= state
        out += state @ (omega * cpg._RING_SPIN_T)
        assert ring_drift(state, 0.0, omega).tobytes() == out.tobytes()

    def test_first_nonfinite_sample_of_an_exploding_ring(self):
        # |u_1| = 100 blows up within a few flow steps; a NaN spreading to the
        # other oscillators' drift must not move the first non-finite sample
        system = build_cpg_system(CPGParams(gamma=0.2))
        x0 = np.array([100.0, 0.0, 0.5, 0.5, 0.0, 0.2])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState) as err:
            sample_path(system, x0, 1.0, 0.001, derive_stream(0, 0, 0))
        assert err.value.step_index == 8

    def test_unit_circle_is_invariant_per_oscillator(self):
        # on |u_i| = 1 the radial component vanishes, only rotation remains
        state = np.array([1.0, 0.0, 0.0, 1.0, -1.0, 0.0])
        d = ring_drift(state, omega=1.0)
        u = state.reshape(3, 2)
        du = d.reshape(3, 2)
        radial = (u * du).sum(axis=1)
        assert np.allclose(radial, 0.0, atol=1e-15)

    def test_rotational_equivariance(self):
        # the drift commutes with a simultaneous rotation of all oscillators
        rng = np.random.default_rng(3)
        state = rng.standard_normal(6)
        c, s = math.cos(0.81), math.sin(0.81)
        q = np.array([[c, -s], [s, c]])
        big_q = np.kron(np.eye(3), q)
        assert np.allclose(ring_drift(big_q @ state), big_q @ ring_drift(state),
                           atol=1e-13)

    def test_jacobian_matches_numerical(self):
        rng = np.random.default_rng(5)
        state = rng.standard_normal(6) * 0.7
        jac = ring_jacobian(state)
        num = numerical_jacobian(lambda x: ring_drift(x), state)
        assert np.allclose(jac, num, atol=1e-6)

    def test_flow_expansion(self):
        # expansion, the top eigenvalue of the Jacobian's symmetric part, is
        # largest where an oscillator sits at the origin
        def expansion(state):
            jac = ring_jacobian(state)
            return np.linalg.eigvalsh((jac + jac.T) / 2.0).max()

        assert expansion(np.zeros(6)) == pytest.approx(1.0, abs=1e-12)
        contracted = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        assert expansion(contracted) == pytest.approx(-3.0, abs=1e-12)


class TestReducedConstants:
    def test_certificates_of_the_planar_difference(self):
        flow, reset = reduced_constants(CPGParams(gamma=0.2, sigma_d=0.05, sigma_c=0.1,
                                                  tau=0.1))
        assert (flow.kind, reset.kind) == ("continuous", "discrete")
        assert reset.rate == pytest.approx(3 * 0.04 - 3 * 0.2 + 1, rel=1e-12)
        assert flow.rate == GLOBAL_FLOW_RATE == -1.0
        assert reset.noise_bound == pytest.approx(2 * 0.2**2 * 0.05**2, rel=1e-12)
        assert flow.noise_bound == pytest.approx(2 * 0.1**2, rel=1e-12)
        for cert in (flow, reset):
            assert np.array_equal(cert.metric.value(), np.eye(2))
            assert cert.is_global_claim and cert.region is None

    def test_locking_condition(self):
        holds, beta, threshold = locking_condition(STRONG_COUPLING)
        assert holds
        assert beta == pytest.approx(0.52, rel=1e-12)
        assert threshold == pytest.approx(math.exp(-0.2), rel=1e-12)
        holds_weak, beta_weak, _ = locking_condition(WEAK_COUPLING)
        assert not holds_weak
        assert beta_weak == pytest.approx(0.9703, rel=1e-12)

    # r2 = beta exp(2 tau) = 0.999999999999997 at this coupling, inside the
    # critical band of 1, where beta < exp(-2 tau) alone would report a lock
    CRITICAL_GAMMA = 0.06459568480243587

    @pytest.mark.parametrize("offset, regime", [
        (-1e-12, "hybrid-expanding-unbounded"), (-3e-14, "hybrid-expanding-critical"),
        (0.0, "hybrid-expanding-critical"), (3e-14, "hybrid-expanding-critical"),
        (1e-12, "hybrid-expanding-bounded")])
    def test_lock_is_the_bound_regime(self, offset, regime):
        params = CPGParams(gamma=self.CRITICAL_GAMMA + offset)
        holds, beta, threshold = locking_condition(params)
        assert theoretical_delta_bound(params).per_difference_report.regime == regime
        assert holds == (regime == "hybrid-expanding-bounded")
        assert (beta, threshold) == (coupling_contraction_factor(params.gamma),
                                     math.exp(-2.0 * params.tau))


class TestTheoreticalDeltaBound:
    def test_strong_coupling_frozen_oracles(self):
        summary = theoretical_delta_bound(STRONG_COUPLING)
        assert summary.per_difference_report.regime == "hybrid-expanding-bounded"
        assert summary.pipeline == pytest.approx(STRONG_PIPELINE, rel=1e-12)
        assert not summary.per_difference_report.noise_free
        assert summary.pipeline == pytest.approx(
            3.0 * summary.per_difference_report.asymptotic_bound, rel=1e-15)

    @pytest.mark.parametrize("params", [WEAK_COUPLING, STRONG_COUPLING,
                                        CPGParams(gamma=0.06459568480243587)],
                             ids=["weak", "strong", "critical"])
    def test_chain_equals_the_direct_hybrid_bound(self, params):
        # two-sided noise: each per-member energy whole, from the locked set
        beta = coupling_contraction_factor(params.gamma)
        direct = hybrid_bound(beta, -1.0, 2.0 * params.gamma**2 * params.sigma_d**2,
                              2.0 * params.sigma_c**2, params.tau, 0.0)
        summary = theoretical_delta_bound(params)
        assert summary.per_difference_report == direct
        report = summary.per_difference_report
        assert (report.inputs["beta"], report.regime) == (beta, direct.regime)
        assert report.inputs["r2"] == direct.inputs["r2"]
        assert summary.pipeline == 3.0 * direct.asymptotic_bound

    @pytest.mark.parametrize("params", [WEAK_COUPLING, STRONG_COUPLING,
                                        CPGParams(gamma=0.6, sigma_d=0.3, sigma_c=0.7,
                                                  tau=0.4)],
                             ids=["weak", "strong", "noisy"])
    def test_chain_injects_the_noise_that_reaches_delta(self, params):
        # delta = 3 |V^T x|^2, so a noise of gain G puts 3 tr(V^T G G^T V)
        # into delta: 3 sigma_c^2 tr P = 12 sigma_c^2 per unit time of flow
        # and 12 gamma^2 sigma_d^2 per reset.  The chain puts in, over its
        # three differences, three times what its comparison system injects
        # into one from zero: a neutral flow over unit time, and one reset
        # that contracts fully
        _, transverse = build_projections()
        system = build_cpg_system(params)
        x = np.zeros(6)
        exact = [3.0 * np.trace(transverse.T @ gain @ gain.T @ transverse)
                 for gain in (system.continuous.diffusion(x, 0.0), system.reset.noise_gain(x, 0))]
        assert exact == pytest.approx([12.0 * params.sigma_c**2,
                                       12.0 * params.gamma**2 * params.sigma_d**2], rel=1e-12)
        inputs = theoretical_delta_bound(params).per_difference_report.inputs
        chained = [3.0 * continuous_bound_at(0.0, inputs["C_c"], 0.0, 1.0),
                   3.0 * discrete_ms_bound(0.0, inputs["C_d"], 0.0).asymptotic_bound]
        assert chained == pytest.approx(exact, rel=1e-12)

    def test_locked_start_spreads_within_the_two_sided_flow_bound(self):
        # 4,000 Euler-Maruyama runs of the strong ring's flow from a locked
        # state on the unit circle, h = tau / 100, no reset: at t = 0.05,
        # E delta is about 0.0058, within three times the flow bound that the
        # printed per-difference report chains from zero (0.0063) and above
        # three times its half (0.0032), the bound of one-sided noise
        params = STRONG_COUPLING
        locked, _ = build_projections()
        start = math.sqrt(3.0) * locked[:, 0]
        assert phase_locking_delta(start[None])[0] == pytest.approx(0.0, abs=1e-24)
        rng = np.random.default_rng(0)
        h, steps, runs = params.tau / simulate.STEPS_PER_DWELL, 50, 4000
        x = np.tile(start, (runs, 1))
        for _ in range(steps):
            x = x + h * ring_drift(x, 0.0, params.omega) \
                + params.sigma_c * math.sqrt(h) * rng.standard_normal(x.shape)
        delta = phase_locking_delta(x)
        mean, stderr = float(delta.mean()), float(delta.std(ddof=1)) / math.sqrt(runs)
        inputs = theoretical_delta_bound(params).per_difference_report.inputs
        whole, halved = (3.0 * continuous_bound_at(inputs["lam"], energy, 0.0, steps * h)
                         for energy in (inputs["C_c"], inputs["C_c"] / 2.0))
        assert mean + 3.0 * stderr <= whole
        assert mean - 3.0 * stderr > halved

    def test_weak_coupling_unbounded(self):
        summary = theoretical_delta_bound(WEAK_COUPLING)
        assert summary.per_difference_report.regime == "hybrid-expanding-unbounded"
        assert math.isinf(summary.pipeline)
        assert summary.per_difference_report.inputs["r2"] > 1.0

    def test_json_round_trip(self):
        for params in (STRONG_COUPLING, WEAK_COUPLING):
            d = theoretical_delta_bound(params).to_json_dict()
            text = json.dumps(d, sort_keys=True)
            parsed = json.loads(text)
            assert set(parsed) == {"pipeline", "per_difference"}


class TestCPGParamsValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CPGParams(gamma=-0.1)
        with pytest.raises(ValueError):
            CPGParams(gamma=1.5)
        with pytest.raises(ValueError):
            CPGParams(gamma=0.2, sigma_d=-1.0)
        with pytest.raises(ValueError):
            CPGParams(gamma=0.2, tau=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["sigma_d", "sigma_c", "tau", "omega"])
    def test_rejects_a_value_that_is_not_finite(self, field, value):
        # at construction: a NaN sigma_c ran a whole ensemble before its bound
        # was refused, and a NaN omega lost every run yet printed a bound
        with pytest.raises(ParameterRange, match=f"^{field} must be (finite|positive), got "):
            CPGParams(gamma=0.2, **{field: value})


class TestBuildCPGSystem:
    def test_validates(self):
        system = build_cpg_system(STRONG_COUPLING)
        flow, reset = system.continuous, system.reset
        x = np.zeros(6)
        assert np.shape(flow.drift(x, 0.0)) == (6,)
        assert np.shape(flow.diffusion(x, 0.0)) == (6, flow.noise_dim)
        assert np.shape(flow.jacobian(x, 0.0)) == (6, 6)
        assert np.shape(reset.map(x, 0)) == (6,)
        assert np.shape(reset.noise_gain(x, 0)) == (6, reset.noise.dimension)
        assert np.shape(reset.jacobian(x, 0)) == (6, 6)
        assert system.dwell_time == STRONG_COUPLING.tau
        assert system.continuous.dimension == 6

    def test_reset_applies_coupling(self):
        system = build_cpg_system(CPGParams(gamma=0.3, sigma_d=0.05))
        state = np.arange(6.0).reshape(1, 6)
        out = system.reset.map(state, 0)
        assert np.allclose(out, state @ coupling_matrix(0.3).T, atol=1e-14)


class TestRunCPGExperiment:
    def test_small_run_deterministic_and_sane(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=16, horizon=2.0,
                                    master_seed=7)
        again = run_cpg_experiment(STRONG_COUPLING, run_count=16, horizon=2.0,
                                   master_seed=7)
        assert np.array_equal(result.mean_sq, again.mean_sq)
        assert np.array_equal(result.stderr, again.stderr)
        assert result.failures == 0
        assert result.n_pairs == 16
        assert result.times[0] == 0.0
        assert result.sides[0] == "pre"
        assert result.window_start_time == pytest.approx(1.6)
        assert np.all(result.mean_sq >= 0.0)
        assert math.isfinite(result.steady_mean)
        assert result.steady_stderr > 0.0

    @pytest.mark.parametrize("run_count", [0, -3, 2.5, "4"])
    def test_run_count_must_be_a_positive_integer(self, run_count):
        with pytest.raises(ValueError, match="^run_count must be an integer >= 1, got "):
            run_cpg_experiment(STRONG_COUPLING, run_count=run_count, horizon=1.0)

    def test_seed_changes_output(self):
        a = run_cpg_experiment(STRONG_COUPLING, run_count=8, horizon=1.0,
                               master_seed=0)
        b = run_cpg_experiment(STRONG_COUPLING, run_count=8, horizon=1.0,
                               master_seed=1)
        assert not np.array_equal(a.mean_sq, b.mean_sq)

    def test_zero_noise_locked_start_stays_locked(self):
        # without noise the locked set is invariant: from the origin, which
        # lies in it, delta stays at zero
        params = CPGParams(gamma=0.2, sigma_d=0.0, sigma_c=0.0, tau=0.1)
        path = sample_path(build_cpg_system(params), np.zeros(6), 1.0, 0.001,
                           derive_stream(0, 0, 0))
        assert np.allclose(phase_locking_delta(path.states), 0.0, atol=1e-20)

    @pytest.mark.parametrize("gamma", [0.2, 0.01])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_sample_path_replays_run_zero(self, gamma, seed):
        # what `concert cpg` traces: run 0's stream, start and steps, sampled
        # at every flow step; the experiment samples a subset of that grid
        params = CPGParams(gamma=gamma)
        h = params.tau / 100
        path = sample_path(build_cpg_system(params), RING_START, 20 * params.tau, h,
                           derive_stream(seed, 0, 0))
        traced = dict(zip(zip(path.times.tolist(), path.sides),
                          phase_locking_delta(path.states)))
        result = run_cpg_experiment(params, run_count=1, horizon=20 * params.tau,
                                    master_seed=seed, step_size=h)
        assert result.times.size == 62
        replayed = [traced[key] for key in zip(result.times.tolist(), result.sides)]
        assert np.array_equal(replayed, result.mean_sq)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sample_path_draws_a_box_start_first(self, seed):
        # a box start is the first draw of the path's generator, then its noise
        system = build_cpg_system(STRONG_COUPLING)
        boxed = sample_path(system, RING_START, 0.5, 0.001, derive_stream(seed, 0, 0))
        rng = derive_stream(seed, 0, 0)
        x0 = rng.uniform(-np.ones(6), np.ones(6))
        by_hand = sample_path(system, x0, 0.5, 0.001, rng)
        assert boxed.states.tobytes() == by_hand.states.tobytes()
        assert boxed.states[0].tobytes() == x0.tobytes()

    @staticmethod
    def capture_blocks(monkeypatch, poison=None):
        """The delta samples of every block run_cpg_experiment steps, after
        poison(block) edits them in place."""
        blocks, engine = [], simulate._run_block

        def captured(*args):
            block = engine(*args)
            if poison is not None:
                poison(block)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(simulate, "_run_block", captured)
        return blocks

    @staticmethod
    def window_means(result, rows):
        return rows[:, result.times >= result.window_start_time].mean(axis=1)

    def test_steady_values_are_the_per_run_formula(self, monkeypatch):
        # `concert cpg --ensemble 40 --horizon 3 --seed 1`
        blocks = self.capture_blocks(monkeypatch)
        comparison = cpg.run_locking_comparison(run_count=40, horizon=3.0, master_seed=1)
        for result, rows in zip((comparison.weak, comparison.strong), blocks):
            window = self.window_means(result, rows)
            assert result.steady_mean == pytest.approx(window.mean(), rel=1e-14, abs=0.0)
            assert result.steady_stderr == pytest.approx(
                window.std(ddof=1) / math.sqrt(40), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("runs", [1, 2, 4])
    @pytest.mark.parametrize("first_bad", [3, 27, 31])
    def test_an_exploding_run_is_left_out_of_the_steady_values(self, monkeypatch, runs,
                                                               first_bad):
        # run 0 leaves the floats at sample first_bad of 32: before the window
        # (t >= 0.8), inside it, or at its last sample; a single steady run has
        # a NaN stderr, and none a NaN mean
        def explode(block):
            block[0, first_bad] = np.inf
            block[0, first_bad + 1:] = np.nan

        clean = self.capture_blocks(monkeypatch)
        run_cpg_experiment(STRONG_COUPLING, run_count=runs, horizon=1.0, master_seed=4)
        monkeypatch.undo()
        self.capture_blocks(monkeypatch, explode)
        result = run_cpg_experiment(STRONG_COUPLING, run_count=runs, horizon=1.0,
                                    master_seed=4)
        assert result.times.size == 32 and result.times[27] >= result.window_start_time
        assert result.failures == 1
        window = self.window_means(result, clean[0][1:])
        if runs == 1:
            assert math.isnan(result.steady_mean)
        else:
            assert result.steady_mean == pytest.approx(window.mean(), rel=1e-14, abs=0.0)
        if runs > 2:
            assert result.steady_stderr == pytest.approx(
                window.std(ddof=1) / math.sqrt(runs - 1), rel=1e-14, abs=0.0)
        else:
            assert math.isnan(result.steady_stderr)

    def test_to_csv_header(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=2, horizon=0.5,
                                    master_seed=0)
        buffer = io.StringIO()
        result.to_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "time,side,mean_sq_dist,stderr,n_alive"
        assert len(lines) == result.times.size + 1

    def test_check_bound_respect_judges_the_ring_result_at_every_point(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=16, horizon=2.0, master_seed=7)
        assert isinstance(result, EnsembleStats)
        report = result.bounds.per_difference_report
        check = check_bound_respect(result, lambda t, side: 3.0 * report(t, side))
        want = [3.0 * report(float(t), side) for t, side in zip(result.times, result.sides)]
        assert check.n_checked == check.n_finite == result.times.size
        assert check.bounds.tolist() == want
        assert check.passed.tolist() == (result.mean_sq <= check.bounds
                                         + 3.0 * result.stderr).tolist()
        # started from the locked set (E0 = 0), the report does not bound the
        # ring's first samples, whose delta starts near 4
        assert not check.passed[0] and result.mean_sq[0] > 3.0

    def test_json_dict_serializable(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=2, horizon=0.5,
                                    master_seed=0)
        parsed = json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
        assert parsed["gamma"] == 0.2
        assert parsed["run_count"] == 2
