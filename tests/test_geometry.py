"""Metric distances, generalized Jacobians, curve lengths."""
from __future__ import annotations

import numpy as np
import pytest

from concert import (
    DimensionMismatch,
    MetricSpec,
    NotPositiveDefinite,
    SampledCurve,
    SingularFactor,
    contraction_factor_at,
    curve_length,
    curve_length_refined,
    generalized_jacobian,
    metric_distance,
    numerical_jacobian,
)


class TestMetricDistance:
    def test_euclidean_default(self):
        d = metric_distance(np.array([3.0, 0.0]), np.array([0.0, 4.0]),
                            MetricSpec.identity(2))
        assert d == pytest.approx(5.0)

    def test_weighted(self):
        metric = MetricSpec.constant(np.diag([4.0, 1.0]))
        d = metric_distance(np.array([1.0, 0.0]), np.array([0.0, 0.0]), metric)
        assert d == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_distance(np.zeros(2), np.zeros(3), MetricSpec.identity(2))
        with pytest.raises(DimensionMismatch):
            metric_distance(np.zeros(3), np.zeros(3), MetricSpec.identity(2))

    def test_indefinite_metric_matrix_rejected(self):
        # diag(1, -1) would give the square root of -1, or 0 between distinct states
        with pytest.raises(NotPositiveDefinite):
            metric_distance(np.array([1.0, 1.0]), np.zeros(2), np.diag([1.0, -1.0]))


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


class TestGeneralizedJacobian:
    def test_identity_factors_pass_through(self):
        a = np.array([[0.5, 0.1], [0.0, 0.5]])
        f = generalized_jacobian(lambda x: a @ x, np.zeros(2),
                                 np.eye(2), np.eye(2))
        assert np.allclose(f, a, atol=1e-8)

    def test_analytic_jacobian_used_exactly(self):
        a = np.array([[0.5, 0.1], [0.0, 0.5]])
        f = generalized_jacobian(lambda x: a @ x, np.zeros(2),
                                 np.eye(2), np.eye(2),
                                 jacobian=lambda x: a)
        assert np.array_equal(f, a)

    def test_metric_conjugation(self):
        # F = theta_out J theta_in^{-1}, exact for explicit jacobian
        rng = np.random.default_rng(3)
        j = rng.standard_normal((3, 3))
        theta_in = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3)
        theta_out = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3)
        f = generalized_jacobian(lambda x: j @ x, np.zeros(3),
                                 theta_in, theta_out, jacobian=lambda x: j)
        assert np.allclose(f, theta_out @ j @ np.linalg.inv(theta_in),
                           rtol=1e-10, atol=1e-12)

    def test_singular_input_factor_rejected(self):
        with pytest.raises(SingularFactor):
            generalized_jacobian(lambda x: x, np.zeros(2),
                                 np.diag([1.0, 0.0]), np.eye(2))

    def test_nonsquare_input_factor_rejected(self):
        with pytest.raises(SingularFactor):
            generalized_jacobian(lambda x: x, np.zeros(2),
                                 np.ones((2, 3)), np.eye(2))


class TestContractionFactorAt:
    def test_scalar_linear_map(self):
        rho = 0.5
        val = contraction_factor_at(lambda x: rho * x, np.zeros(1),
                                    np.eye(1), np.eye(1))
        assert val == pytest.approx(rho ** 2, abs=1e-8)

    def test_largest_squared_singular_value(self):
        a = np.diag([0.9, 0.2])
        val = contraction_factor_at(lambda x: a @ x, np.zeros(2),
                                    np.eye(2), np.eye(2),
                                    jacobian=lambda x: a)
        assert val == pytest.approx(0.81, abs=1e-12)

    def test_metric_change_rescales_factor(self):
        # x -> rho x with input metric 4I and output metric I: F = rho/2 I
        rho = 0.5
        val = contraction_factor_at(lambda x: rho * x, np.zeros(2),
                                    2.0 * np.eye(2), np.eye(2),
                                    jacobian=lambda x: rho * np.eye(2))
        assert val == pytest.approx((rho / 2.0) ** 2, abs=1e-12)


class TestSampledCurve:
    def test_from_points_default_params(self):
        curve = SampledCurve.from_points(np.array([[0.0], [1.0], [2.0]]))
        assert np.allclose(curve.params, [0.0, 0.5, 1.0])
        a, b = curve.endpoints()
        assert np.allclose(a, [0.0])
        assert np.allclose(b, [2.0])

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            SampledCurve.from_points(np.array([[0.0]]))

    def test_params_must_run_zero_to_one_strictly(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            SampledCurve(points=pts, params=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            SampledCurve(points=np.array([[0.0], [1.0], [2.0]]),
                         params=np.array([0.0, 0.0, 1.0]))


class TestCurveLength:
    def test_straight_line_equals_distance(self):
        metric = MetricSpec.constant(np.diag([4.0, 1.0]))
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 2.0])
        pts = np.linspace(a, b, 9)
        curve = SampledCurve.from_points(pts)
        assert curve_length(curve, metric) == pytest.approx(
            metric_distance(a, b, metric), rel=1e-12)

    def test_polyline_sums_chords(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        curve = SampledCurve.from_points(pts)
        assert curve_length(curve, MetricSpec.identity(2)) == pytest.approx(2.0)


class TestCurveLengthRefined:
    def test_half_circle_arc_length(self):
        def path(s):
            angle = np.pi * s
            return np.array([np.cos(angle), np.sin(angle)])

        length = curve_length_refined(path, MetricSpec.identity(2), rel_tol=1e-9)
        assert length == pytest.approx(np.pi, rel=1e-7)

    def test_weighted_metric_scales_length(self):
        def path(s):
            return np.array([s, 0.0])

        metric = MetricSpec.constant(np.diag([9.0, 1.0]))
        length = curve_length_refined(path, metric)
        assert length == pytest.approx(3.0, rel=1e-9)

    def test_budget_exhaustion_raises(self):
        def path(s):
            return np.array([np.sin(500.0 * s) / 500.0, s])

        with pytest.raises(RuntimeError):
            curve_length_refined(path, MetricSpec.identity(2),
                                 rel_tol=1e-15, max_doublings=3)
