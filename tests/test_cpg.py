"""Three-oscillator ring: geometry, reduced constants, bound oracles, runs."""
from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from concert import (
    CPGParams,
    GLOBAL_FLOW_RATE,
    NonFiniteState,
    ROTATION_THIRD,
    STRONG_COUPLING,
    WEAK_COUPLING,
    build_cpg_system,
    build_projections,
    coupling_contraction_factor,
    coupling_matrix,
    derive_stream,
    flow_expansion_at,
    locking_condition,
    numerical_jacobian,
    phase_aligned_components,
    phase_locking_delta,
    reduced_constants,
    ring_drift,
    ring_jacobian,
    run_cpg_experiment,
    run_hybrid,
    theoretical_delta_bound,
    validate_system,
)

# frozen oracle values at gamma=0.2, sigma_d=0.05, sigma_c=0.1, tau=0.1
STRONG_PIPELINE = 0.09228889269010736


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

    # a lone run's doubled rows, the engine's block sizes, stacked members
    @pytest.mark.parametrize("shape", [(6,), (2, 6), (5, 6), (200, 6), (1024, 6),
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

    def test_first_nonfinite_sample_of_an_exploding_ring(self):
        # |u_1| = 100 blows up within a few flow steps; a NaN spreading to the
        # other oscillators' drift must not move the first non-finite sample
        system = build_cpg_system(CPGParams(gamma=0.2))
        x0 = np.array([100.0, 0.0, 0.5, 0.5, 0.0, 0.2])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState) as err:
            run_hybrid(system, x0, 1.0, 0.001, derive_stream(0, 0, 0))
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
        # expansion is largest where an oscillator sits at the origin
        state = np.zeros(6)
        assert flow_expansion_at(state) == pytest.approx(1.0)
        jac = ring_jacobian(state)
        top = np.linalg.eigvalsh((jac + jac.T) / 2.0).max()
        assert top == pytest.approx(1.0, abs=1e-12)
        contracted = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        assert flow_expansion_at(contracted) == pytest.approx(-3.0)


class TestReducedConstants:
    def test_values(self):
        red = reduced_constants(CPGParams(gamma=0.2, sigma_d=0.05, sigma_c=0.1, tau=0.1))
        assert red.beta == pytest.approx(3 * 0.04 - 3 * 0.2 + 1, rel=1e-12)
        assert red.rate == GLOBAL_FLOW_RATE == -1.0
        assert red.noise_energy_reset == pytest.approx(2 * 0.2**2 * 0.05**2, rel=1e-12)
        assert red.noise_energy_flow == pytest.approx(2 * 0.1**2, rel=1e-12)
        assert red.tau == 0.1

    def test_locking_condition(self):
        holds, beta, threshold = locking_condition(STRONG_COUPLING)
        assert holds
        assert beta == pytest.approx(0.52, rel=1e-12)
        assert threshold == pytest.approx(math.exp(-0.2), rel=1e-12)
        holds_weak, beta_weak, _ = locking_condition(WEAK_COUPLING)
        assert not holds_weak
        assert beta_weak == pytest.approx(0.9703, rel=1e-12)


class TestTheoreticalDeltaBound:
    def test_strong_coupling_frozen_oracles(self):
        summary = theoretical_delta_bound(STRONG_COUPLING)
        assert summary.regime == "hybrid-expanding-bounded"
        assert summary.pipeline == pytest.approx(STRONG_PIPELINE, rel=1e-12)
        assert summary.per_difference_report.noise_free
        assert summary.pipeline == pytest.approx(
            3.0 * summary.per_difference_report.asymptotic_bound, rel=1e-15)

    def test_weak_coupling_unbounded(self):
        summary = theoretical_delta_bound(WEAK_COUPLING)
        assert summary.regime == "hybrid-expanding-unbounded"
        assert math.isinf(summary.pipeline)
        assert summary.r2 > 1.0

    def test_json_round_trip(self):
        for params in (STRONG_COUPLING, WEAK_COUPLING):
            d = theoretical_delta_bound(params).to_json_dict()
            text = json.dumps(d, sort_keys=True)
            parsed = json.loads(text)
            assert set(parsed) == {"beta", "r2", "regime", "pipeline", "per_difference"}


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


class TestBuildCPGSystem:
    def test_validates(self):
        system = build_cpg_system(STRONG_COUPLING)
        report = validate_system(system)
        assert report.ok, report.violations
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
        assert np.array_equal(result.delta_mean, again.delta_mean)
        assert np.array_equal(result.delta_stderr, again.delta_stderr)
        assert result.failures == 0
        assert result.run_count == 16
        assert result.times[0] == 0.0
        assert result.sides[0] == "pre"
        assert result.window_start_time == pytest.approx(1.6)
        assert np.all(result.delta_mean >= 0.0)
        assert math.isfinite(result.steady_mean)
        assert result.steady_stderr > 0.0

    def test_seed_changes_output(self):
        a = run_cpg_experiment(STRONG_COUPLING, run_count=8, horizon=1.0,
                               master_seed=0)
        b = run_cpg_experiment(STRONG_COUPLING, run_count=8, horizon=1.0,
                               master_seed=1)
        assert not np.array_equal(a.delta_mean, b.delta_mean)

    def test_zero_noise_locked_start_stays_locked(self):
        # without noise the locked set is invariant: delta stays at zero
        params = CPGParams(gamma=0.2, sigma_d=0.0, sigma_c=0.0, tau=0.1)
        result = run_cpg_experiment(params, run_count=2, horizon=1.0,
                                    master_seed=0, init_half_width=0.0)
        # zero half width starts every run on the diagonal (0, ..., 0),
        # which lies in the locked set
        assert np.allclose(result.delta_mean, 0.0, atol=1e-20)

    def test_to_csv_header(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=2, horizon=0.5,
                                    master_seed=0)
        buffer = io.StringIO()
        result.to_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "time,side,delta_mean,delta_stderr"
        assert len(lines) == result.times.size + 1

    def test_json_dict_serializable(self):
        result = run_cpg_experiment(STRONG_COUPLING, run_count=2, horizon=0.5,
                                    master_seed=0)
        parsed = json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
        assert parsed["gamma"] == 0.2
        assert parsed["run_count"] == 2
