"""Metric distances as the pair ensemble measures them, numerical Jacobians,
and the generalized Jacobian F = Theta_out J inv(Theta_in) as the discrete
certificate forms it: its rate is lambda_max(F.T F)."""
from __future__ import annotations

import numpy as np
import pytest

from concert import (
    DimensionMismatch,
    DiscreteMapSystem,
    EnsembleConfig,
    GaussianNoiseSpec,
    InitialPointPair,
    MetricSpec,
    NotPositiveDefinite,
    SamplingRegion,
    SingularFactor,
    certify_discrete,
    numerical_jacobian,
    run_pair_ensemble,
)
from concert.geometry import _checked_inverse


def still(n: int) -> DiscreteMapSystem:
    """x -> x with no noise: every sample of a pair keeps its start."""
    return DiscreteMapSystem(
        dimension=n,
        map=lambda x, k: np.asarray(x, dtype=float),
        noise_gain=lambda x, k: np.zeros((n, n)),
        noise=GaussianNoiseSpec(n),
        vectorized=True)


def distance_at_start(a, b, metric, n: int = 2) -> float:
    """The metric distance between starts a and b at t = 0: the root of the
    squared distance a one-pair ensemble records."""
    config = EnsembleConfig(pair_count=1, horizon=1, master_seed=0,
                            initial=InitialPointPair(np.asarray(a, dtype=float),
                                                     np.asarray(b, dtype=float)))
    return float(np.sqrt(run_pair_ensemble(still(n), config, metric).mean_sq[0]))


class TestMetricDistance:
    def test_euclidean_default(self):
        for metric in (None, MetricSpec.identity(2)):
            assert distance_at_start([3.0, 0.0], [0.0, 4.0], metric) == pytest.approx(5.0)

    def test_weighted(self):
        metric = MetricSpec.constant(np.diag([4.0, 1.0]))
        assert distance_at_start([1.0, 0.0], [0.0, 0.0], metric) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance_at_start(np.zeros(2), np.zeros(3), MetricSpec.identity(2))
        with pytest.raises(DimensionMismatch):
            distance_at_start(np.zeros(3), np.zeros(3), MetricSpec.identity(2), n=3)

    def test_indefinite_metric_matrix_rejected(self):
        # diag(1, -1) would give the square root of -1, or 0 between distinct states
        with pytest.raises(NotPositiveDefinite):
            distance_at_start([1.0, 1.0], np.zeros(2), np.diag([1.0, -1.0]))


class TestNumericalJacobian:
    def test_matches_analytic_linear(self):
        a = np.array([[1.0, 2.0], [-0.5, 0.25]])
        jac = numerical_jacobian(lambda x: a @ x, np.array([0.3, -0.7]))
        assert np.allclose(jac, a, atol=1e-8)

    def test_matches_analytic_nonlinear(self):
        def f(x):
            return np.array([np.sin(x[0]) * x[1], x[0] ** 2 + np.cos(x[1])])

        x = np.array([0.4, 1.3])
        expected = np.array([
            [np.cos(x[0]) * x[1], np.sin(x[0])],
            [2 * x[0], -np.sin(x[1])],
        ])
        assert np.allclose(numerical_jacobian(f, x), expected, atol=1e-6)


def linear_map(a: np.ndarray, analytic: bool) -> DiscreteMapSystem:
    """x -> a x with unit noise; the Jacobian is a itself when analytic, and
    central differences otherwise."""
    n = a.shape[0]
    return DiscreteMapSystem(
        dimension=n,
        map=lambda x, k: np.asarray(x, dtype=float) @ a.T,
        noise_gain=lambda x, k: np.eye(n),
        noise=GaussianNoiseSpec(n),
        jacobian=(lambda x, k: a) if analytic else None,
        vectorized=True)


def at_origin(n: int) -> SamplingRegion:
    return SamplingRegion.points([np.zeros(n)])


class TestGeneralizedJacobian:
    def test_identity_factors_pass_through(self):
        # the identity-metric rate of a non-normal map is its squared norm
        a = np.array([[0.5, 0.1], [0.0, 0.5]])
        cert = certify_discrete(linear_map(a, analytic=False), at_origin(2))
        assert cert.rate == pytest.approx(np.linalg.norm(a, 2) ** 2, abs=1e-8)

    def test_analytic_jacobian_used_exactly(self):
        # a declared Jacobian that is not the map's: the certificate takes it
        # as given, with no differencing of the map
        system = linear_map(0.5 * np.eye(2), analytic=False)
        declared = DiscreteMapSystem(
            dimension=2, map=system.map, noise_gain=system.noise_gain, noise=system.noise,
            jacobian=lambda x, k: 0.3 * np.eye(2), vectorized=True)
        assert certify_discrete(declared, at_origin(2)).rate == pytest.approx(0.09, abs=1e-15)

    def test_scalar_linear_map(self):
        rho = 0.5
        cert = certify_discrete(linear_map(np.array([[rho]]), analytic=False), at_origin(1))
        assert cert.rate == pytest.approx(rho ** 2, abs=1e-8)

    def test_largest_squared_singular_value(self):
        a = np.diag([0.9, 0.2])
        cert = certify_discrete(linear_map(a, analytic=True), at_origin(2))
        assert cert.rate == pytest.approx(0.81, abs=1e-12)

    def test_metric_conjugation(self):
        # lambda_max(F.T F) with F = Theta J inv(Theta) is the largest
        # eigenvalue of inv(M) J.T M J, whichever factor is taken
        rng = np.random.default_rng(3)
        j = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        m = b @ b.T + 3.0 * np.eye(3)
        cert = certify_discrete(linear_map(j, analytic=True), at_origin(3), metric=m)
        expected = np.linalg.eigvals(np.linalg.solve(m, j.T @ m @ j)).real.max()
        assert cert.rate == pytest.approx(expected, rel=1e-10)


class TestCheckedInverse:
    def test_singular_factor_rejected(self):
        with pytest.raises(SingularFactor):
            _checked_inverse(np.diag([1.0, 0.0]))

    def test_nonsquare_factor_rejected(self):
        with pytest.raises(SingularFactor):
            _checked_inverse(np.ones((2, 3)))
