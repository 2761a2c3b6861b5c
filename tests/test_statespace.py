"""System containers, metric factorization, noise specs."""
from __future__ import annotations

import numpy as np
import pytest

from concert import (
    ContinuousSDESystem,
    DimensionMismatch,
    DiscreteMapSystem,
    GaussianNoiseSpec,
    HybridSystem,
    MetricSpec,
    NotPositiveDefinite,
    factor_metric,
    sample_path,
)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestFactorMetric:
    def test_reconstructs_matrix(self):
        for seed in range(5):
            m = random_spd(4, seed)
            theta = factor_metric(m)
            assert np.allclose(theta.T @ theta, m, rtol=1e-12, atol=1e-12)

    def test_factor_is_upper_triangular(self):
        theta = factor_metric(random_spd(5, 7))
        assert np.allclose(theta, np.triu(theta))

    def test_identity_factors_to_identity(self):
        assert np.allclose(factor_metric(np.eye(3)), np.eye(3))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            factor_metric(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite):
            factor_metric(np.diag([1.0, 0.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            factor_metric(np.ones((2, 3)))


class TestMetricSpec:
    def test_constant_value_and_factor(self):
        m = random_spd(3, 1)
        spec = MetricSpec.constant(m)
        assert spec.kind == "constant"
        assert spec.dimension == 3
        assert np.allclose(spec.value(), m)
        th = spec.factor()
        assert np.allclose(th.T @ th, m)
        # constant metric has zero derivative
        assert np.allclose(spec.factor_dot(), 0.0)

    def test_identity(self):
        spec = MetricSpec.identity(4)
        assert np.allclose(spec.value(), np.eye(4))
        assert np.allclose(spec.factor(), np.eye(4))

    def test_scheduled_takes_time_and_side(self):
        spec = MetricSpec.scheduled(
            lambda t, side: np.eye(2) * ((1.0 + t) if side == "post" else 2.0 * (1.0 + t)),
            dimension=2, uniform_lower_bound=1.0)
        assert np.allclose(spec.value(0.0), np.eye(2))
        assert np.allclose(spec.value(3.0), 4.0 * np.eye(2))
        assert np.allclose(spec.value(3.0, side="pre"), 8.0 * np.eye(2))
        th = spec.factor(3.0)
        assert np.allclose(th.T @ th, 4.0 * np.eye(2))

    def test_scheduled_factor_dot_defaults_to_zero(self):
        spec = MetricSpec.scheduled(
            lambda t, side: np.eye(2) * (1.0 + t) ** 2,
            dimension=2, uniform_lower_bound=1.0)
        assert np.allclose(spec.factor_dot(1.0), 0.0)

    def test_scheduled_factor_dot_explicit_override(self):
        spec = MetricSpec.scheduled(
            lambda t, side: np.eye(2), dimension=2, uniform_lower_bound=1.0,
            factor_dot_fn=lambda t: 7.0 * np.eye(2))
        assert np.allclose(spec.factor_dot(0.0), 7.0 * np.eye(2))

    def test_scheduled_fails_fast_on_malformed_schedule(self):
        with pytest.raises(DimensionMismatch):
            MetricSpec.scheduled(
                lambda t, side: np.eye(3), dimension=2, uniform_lower_bound=1.0)

    def test_scheduled_requires_positive_lower_bound(self):
        with pytest.raises(NotPositiveDefinite):
            MetricSpec.scheduled(
                lambda t, side: np.eye(2), dimension=2, uniform_lower_bound=0.0)

    def test_side_validation(self):
        spec = MetricSpec.identity(2)
        spec.value(0.0, side="pre")
        spec.value(0.0, side="post")
        with pytest.raises(ValueError):
            spec.value(0.0, side="middle")

    def test_constant_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            MetricSpec.constant(np.diag([1.0, -2.0]))


class TestGaussianNoiseSpec:
    def test_default_is_standard_normal(self):
        spec = GaussianNoiseSpec(3)
        assert np.allclose(spec.covariance, np.eye(3))

    def test_covariance_is_respected(self):
        # the engine's draws, through x <- 0 + I w: every state after the
        # start is one draw of the noise
        cov = np.array([[4.0, 0.0], [0.0, 1.0]])
        path = sample_path(noise_only(cov), np.zeros(2), 200_000, None,
                           np.random.default_rng(1))
        z = path.states[1:]
        emp = z.T @ z / len(z)
        assert np.allclose(emp, cov, atol=0.05)

    def test_rank_deficient_covariance_accepted(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        path = sample_path(noise_only(cov), np.zeros(2), 100, None,
                           np.random.default_rng(2))
        z = path.states[1:]
        # all mass on the diagonal direction
        assert np.ptp(z[:, 0]) > 1.0
        assert np.allclose(z[:, 0], z[:, 1], atol=1e-12)

    def test_rejects_mismatched_covariance(self):
        with pytest.raises(DimensionMismatch):
            GaussianNoiseSpec(3, covariance=np.eye(2))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianNoiseSpec(2, covariance=np.diag([1.0, -1.0]))


def noise_only(cov: np.ndarray) -> DiscreteMapSystem:
    """The zero map with gain I and noise covariance cov."""
    n = cov.shape[0]
    return DiscreteMapSystem(
        dimension=n,
        map=lambda x, k: np.zeros_like(x),
        noise_gain=lambda x, k: np.eye(n),
        noise=GaussianNoiseSpec(n, covariance=cov),
        vectorized=True)


def make_discrete(dim=2, rho=0.5):
    return DiscreteMapSystem(
        dimension=dim,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: np.eye(dim),
        noise=GaussianNoiseSpec(dim))


def make_continuous(dim=2, a=1.0):
    return ContinuousSDESystem(
        dimension=dim,
        drift=lambda x, t: -a * np.asarray(x, dtype=float),
        diffusion=lambda x, t: np.eye(dim),
        noise_dim=dim)


class TestSystemsOnTheEngine:
    """Each system kind runs on the engine, and a malformed callable ends the
    run with an error instead of a path."""

    def test_ok_discrete(self):
        path = sample_path(make_discrete(), np.ones(2), 10, None, np.random.default_rng(0))
        assert path.states.shape == (11, 2)
        assert np.all(np.isfinite(path.states))

    def test_ok_continuous(self):
        path = sample_path(make_continuous(), np.ones(2), 1.0, 0.1, np.random.default_rng(0))
        assert path.states.shape == (11, 2)
        assert np.all(np.isfinite(path.states))

    def test_ok_hybrid(self):
        hybrid = HybridSystem(continuous=make_continuous(), reset=make_discrete(),
                              dwell_time=0.5)
        path = sample_path(hybrid, np.ones(2), 1.0, 0.1, np.random.default_rng(0))
        # five flow steps per dwell, and both sides of the resets at 0, 0.5 and 1
        assert path.states.shape == (2 * 5 + 3 + 1, 2)
        assert path.sides.count("pre") == path.sides.count("post") == 3
        assert np.all(np.isfinite(path.states))

    def test_bad_map_shape_raised(self):
        bad = DiscreteMapSystem(
            dimension=2, map=lambda x, k: np.zeros(3),
            noise_gain=lambda x, k: np.eye(2), noise=GaussianNoiseSpec(2))
        with pytest.raises(ValueError):
            sample_path(bad, np.zeros(2), 5, None, np.random.default_rng(0))

    def test_map_exception_propagates(self):
        def boom(x, k):
            raise RuntimeError("boom")

        bad = DiscreteMapSystem(dimension=2, map=boom, noise_gain=lambda x, k: np.eye(2),
                                noise=GaussianNoiseSpec(2))
        with pytest.raises(RuntimeError, match="boom"):
            sample_path(bad, np.zeros(2), 5, None, np.random.default_rng(0))

    def test_bad_diffusion_shape_raised(self):
        bad = ContinuousSDESystem(dimension=2, drift=lambda x, t: -x,
                                  diffusion=lambda x, t: np.eye(3), noise_dim=2)
        with pytest.raises(ValueError):
            sample_path(bad, np.zeros(2), 1.0, 0.1, np.random.default_rng(0))


class TestHybridSystem:
    def test_mismatched_dimensions_rejected(self):
        # a 1-D flow with a 2-D reset would broadcast the flow noise over both
        # coordinates of every state, and report numbers in silence
        with pytest.raises(DimensionMismatch,
                           match="continuous dimension 1 .* reset dimension 2"):
            HybridSystem(continuous=make_continuous(dim=1), reset=make_discrete(dim=2),
                         dwell_time=0.5)

    def test_nonpositive_dwell_rejected_by_the_engine(self):
        for tau in (0.0, -0.5):
            hybrid = HybridSystem(continuous=make_continuous(), reset=make_discrete(),
                                  dwell_time=tau)
            with pytest.raises(ValueError):
                sample_path(hybrid, np.zeros(2), 1.0, 0.1, np.random.default_rng(0))


def test_unknown_system_type_rejected_by_the_engine():
    with pytest.raises(TypeError, match="unsupported system type"):
        sample_path(object(), np.zeros(2), 1.0, 0.1, np.random.default_rng(0))
