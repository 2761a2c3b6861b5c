"""System containers, metric factorization, noise specs."""
from __future__ import annotations

import math
from dataclasses import fields

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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [factor_metric, MetricSpec.constant],
                         ids=["factor_metric", "MetricSpec.constant"])
def test_non_finite_entries_raise_the_named_error(build, value):
    # the suite turns warnings into errors: no arithmetic may run on the entry
    for matrix in (np.array([[value, 0.0], [0.0, 1.0]]), np.array([[1.0, value], [value, 1.0]])):
        with pytest.raises(NotPositiveDefinite, match="metric has an entry that is not finite"):
            build(matrix)


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
        assert spec.dimension == 3
        assert np.allclose(spec.value(), m)
        th = spec.factor()
        assert np.allclose(th.T @ th, m)

    def test_identity(self):
        spec = MetricSpec.identity(4)
        assert np.allclose(spec.value(), np.eye(4))
        assert np.allclose(spec.factor(), np.eye(4))

    def test_constant_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            MetricSpec.constant(np.diag([1.0, -2.0]))

    def test_constant_rejects_a_metric_whose_pivots_pass_but_eigenvalue_does_not(self):
        # L L^T with L unit lower triangular, -1 below the diagonal: every
        # pivot of the factorization is 1, and its smallest eigenvalue, about
        # 8e-18, lies far below eigvalsh's rounding, which on OpenBLAS's
        # LAPACK reads -1.08e-14
        lower = np.eye(30) + np.tril(-np.ones((30, 30)), -1)
        matrix = lower @ lower.T
        factor_metric(matrix)
        if np.linalg.eigvalsh(matrix).min() > 0:
            pytest.skip("this LAPACK reads the smallest eigenvalue as positive")
        with pytest.raises(NotPositiveDefinite, match="^metric has a non-positive eigenvalue$"):
            MetricSpec.constant(matrix)

    @pytest.mark.parametrize("matrix, error", [
        (np.diag([1.0, 0.0]), NotPositiveDefinite),
        (np.diag([1.0, 1e-13]), NotPositiveDefinite),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), NotPositiveDefinite),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), ValueError),
        (np.ones((2, 3)), DimensionMismatch),
        (np.ones(3), DimensionMismatch)])
    def test_constant_rejects_every_matrix_that_is_not_spd(self, matrix, error):
        with pytest.raises(error):
            MetricSpec.constant(matrix)


class TestGaussianNoiseSpec:
    def test_dimension_is_the_one_field(self):
        assert [f.name for f in fields(GaussianNoiseSpec)] == ["dimension"]
        assert GaussianNoiseSpec(np.int64(3)).dimension == 3

    # a bool too, though Python takes True as the integer 1
    @pytest.mark.parametrize("dimension", [0, -1, 2.5, 2.0, "2", None, True, np.bool_(True)])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, dimension):
        with pytest.raises(ValueError, match="noise dimension must be an integer >= 1"):
            GaussianNoiseSpec(dimension)

    def test_draws_are_shaped_by_the_gain(self):
        # the engine's draws, through x <- 0 + L w with L the Cholesky factor
        # of cov: every state after the start is one draw of the noise
        cov = np.array([[4.0, 1.2], [1.2, 1.0]])
        gain = np.linalg.cholesky(cov)
        noise_only = DiscreteMapSystem(
            dimension=2, map=lambda x, k: np.zeros_like(x), noise_gain=lambda x, k: gain,
            noise=GaussianNoiseSpec(2), vectorized=True)
        path = sample_path(noise_only, np.zeros(2), 200_000, None, np.random.default_rng(1))
        z = path.states[1:]
        assert np.allclose(z.T @ z / len(z), cov, atol=0.05)


class TestContinuousNoiseDim:
    @pytest.mark.parametrize("noise_dim", [0, 2.5, -1])
    def test_rejects_a_noise_dim_that_is_not_a_positive_integer(self, noise_dim):
        # checked at construction as a map's noise dimension is, not by the
        # engine's first draw
        with pytest.raises(ValueError, match="noise dimension must be an integer >= 1"):
            ContinuousSDESystem(dimension=1, drift=lambda x, t: -x,
                                diffusion=lambda x, t: np.eye(1), noise_dim=noise_dim)


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

    @pytest.mark.parametrize("dim", [1, 3])
    def test_dimension_is_its_flows_and_its_resets(self, dim):
        system = HybridSystem(continuous=make_continuous(dim=dim), reset=make_discrete(dim=dim),
                              dwell_time=0.5)
        assert system.dimension == system.continuous.dimension == system.reset.dimension == dim
        with pytest.raises(AttributeError):  # read-only: the flow's, never set apart
            system.dimension = dim + 1

    def test_nonpositive_dwell_rejected_at_construction(self):
        for tau in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match=r"^dwell_time must be > 0, got "):
                HybridSystem(continuous=make_continuous(), reset=make_discrete(),
                             dwell_time=tau)


def test_unknown_system_type_rejected_by_the_engine():
    with pytest.raises(TypeError, match="unsupported system type"):
        sample_path(object(), np.zeros(2), 1.0, 0.1, np.random.default_rng(0))
