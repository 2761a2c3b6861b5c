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

    def test_step_of_a_state_whose_dot_product_overflows(self):
        # x . x passes the floats above about 1.3e154; the step is 1e-6 ||x||
        # by a rescaled norm there, not NaN
        assert numerical_jacobian(lambda x: 0.5 * x, np.array([1e200]))[0, 0] == \
            pytest.approx(0.5, rel=1e-9)
        jac = numerical_jacobian(lambda x: 0.5 * x, np.array([[1e308, -1e308], [1.0, 2.0]]))
        assert np.allclose(jac, 0.5 * np.eye(2), rtol=0.0, atol=1e-9)

    def test_stencil_stays_in_the_floats_near_the_largest_float(self):
        # x + h passes the largest float: both points move one step toward
        # zero, to x and x - 2h, so the difference stays finite
        top = np.finfo(float).max
        assert numerical_jacobian(lambda x: 0.5 * x, np.array([top]))[0, 0] == \
            pytest.approx(0.5, rel=1e-9)
        jac = numerical_jacobian(lambda x: 0.5 * x, np.array([[-top, 1.0], [1.0, 2.0]]))
        assert np.allclose(jac, 0.5 * np.eye(2), rtol=0.0, atol=1e-9)

    def test_ordinary_states_keep_the_dot_product_step(self):
        # seeded states from 1e-300 to 1e150 in size: the step is
        # max(1e-6, 1e-6 sqrt(x . x)) by the batched dot product, bit for bit
        def f(x):
            return np.tanh(x) * x[:, ::-1] + np.sin(x)

        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 6):
            x = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-300, 150, (400, 1))
            scaled = 1e-6 * np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
            h = np.where(scaled > 1e-6, scaled, 1e-6)[:, None]
            expected = np.stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                                 for e in np.eye(n)], axis=-1)
            assert numerical_jacobian(f, x).tobytes() == expected.tobytes()


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


def test_certificate_at_a_state_whose_dot_product_overflows():
    # central differences at 1e308 give the squared gain 0.25 of x -> 0.5 x,
    # not a NaN sample that leaves the region with no value
    cert = certify_discrete(linear_map(np.array([[0.5]]), analytic=False),
                            SamplingRegion.points([[1e308]]))
    assert cert.rate == pytest.approx(0.25, rel=1e-9)


def test_certificate_at_the_largest_float():
    # the rate of x -> 0.5 x, differenced at 1 and at the largest float, is
    # its squared gain 0.25, not inf
    region = SamplingRegion.points([[1.0], [np.finfo(float).max]])
    cert = certify_discrete(linear_map(np.array([[0.5]]), analytic=False), region)
    assert cert.rate == pytest.approx(0.25, rel=1e-9)


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
        # a MetricSpec built past factor_metric, whose factor has no inverse
        singular = MetricSpec(dimension=2, _matrix=np.diag([1.0, 0.0]),
                              _factor=np.diag([1.0, 0.0]))
        with pytest.raises(SingularFactor):
            certify_discrete(linear_map(np.eye(2), analytic=True), at_origin(2), singular)
