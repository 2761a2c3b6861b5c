"""Metric geometry helpers: distances, generalized Jacobians, curve lengths.

For an SPD metric M with factor Theta (Theta.T @ Theta = M) the distance
between states is ||Theta (x - y)||_2.  A differentiable map f is measured
through its generalized Jacobian F = Theta_out @ Df(x) @ Theta_in^{-1}; the
squared gain lambda_max(F.T F) is the one-step contraction factor at x.  Curve
lengths are piecewise-linear sums of factored chord norms, which converge to
the metric length from below as the partition refines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statespace import DimensionMismatch, MetricSpec, _as_metric

# Condition-number ceiling above which an input factor is treated as singular.
_COND_LIMIT = 1e12


class SingularFactor(ValueError):
    """Raised when the input-side factor cannot be inverted reliably."""


def _required_metric(metric, dimension: int) -> MetricSpec:
    if metric is None:
        raise ValueError("metric is required")
    return _as_metric(metric, dimension)


def metric_distance(x: np.ndarray, y: np.ndarray, metric) -> float:
    """Distance sqrt((x-y)^T M (x-y)) in the metric M (matrix or MetricSpec)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"states must share shape (n,), got {x.shape} and {y.shape}")
    m = _required_metric(metric, x.size).value()
    diff = x - y
    return float(np.sqrt(diff @ m @ diff))


def numerical_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with step max(1e-6, 1e-6 ||x||)."""
    x = np.asarray(x, dtype=float)
    h = max(1e-6, 1e-6 * float(np.linalg.norm(x)))
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((np.asarray(f(x + step), dtype=float)
                     - np.asarray(f(x - step), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def generalized_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                         theta_in: np.ndarray, theta_out: np.ndarray,
                         jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                         ) -> np.ndarray:
    """Factored Jacobian Theta_out @ Df(x) @ Theta_in^{-1} at a point.

    Df comes from `jacobian` when supplied and central differences otherwise.
    Raises SingularFactor when theta_in is not invertible to working precision.
    """
    x = np.asarray(x, dtype=float)
    theta_in = np.asarray(theta_in, dtype=float)
    theta_out = np.asarray(theta_out, dtype=float)
    jac = np.asarray(jacobian(x), dtype=float) if jacobian is not None \
        else numerical_jacobian(f, x)
    if theta_in.shape[0] != theta_in.shape[1]:
        raise SingularFactor(f"input factor must be square, got shape {theta_in.shape}")
    if jac.shape[-1] != theta_in.shape[0]:
        raise DimensionMismatch(
            f"Jacobian shape {jac.shape} does not match input factor {theta_in.shape}")
    if np.linalg.cond(theta_in) > _COND_LIMIT:
        raise SingularFactor("input factor is singular to working precision")
    # J @ inv(Theta_in) without forming the inverse.
    right = np.linalg.solve(theta_in.T, jac.T).T
    return theta_out @ right


def contraction_factor_at(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                          theta_in: np.ndarray, theta_out: np.ndarray,
                          jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                          ) -> float:
    """Squared local gain lambda_max(F.T F) of the generalized Jacobian at x.

    Values below one mean the map contracts the factored metric pair at x;
    the square of any induced-norm bound on F dominates this quantity.
    """
    gen = generalized_jacobian(f, x, theta_in, theta_out, jacobian=jacobian)
    return float(np.linalg.eigvalsh(gen.T @ gen).max())


@dataclass(frozen=True)
class SampledCurve:
    """Polyline curve: sample points (m, n) at strictly increasing params in [0, 1]."""

    points: np.ndarray
    params: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise DimensionMismatch(f"need at least two points of shape (m, n), got {pts.shape}")
        prm = np.asarray(self.params, dtype=float)
        if prm.shape != (pts.shape[0],):
            raise DimensionMismatch(f"params shape {prm.shape} does not match {pts.shape[0]} points")
        if prm[0] != 0.0 or prm[-1] != 1.0 or np.any(np.diff(prm) <= 0):
            raise ValueError("params must increase strictly from 0 to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "params", prm)

    @classmethod
    def from_points(cls, points: np.ndarray, params: np.ndarray | None = None) -> "SampledCurve":
        pts = np.asarray(points, dtype=float)
        if params is None:
            params = np.linspace(0.0, 1.0, pts.shape[0])
        return cls(points=pts, params=np.asarray(params, dtype=float))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points[0], self.points[-1]


def curve_length(curve: SampledCurve, metric) -> float:
    """Piecewise-linear metric length: sum of ||Theta (p_{i+1} - p_i)||_2."""
    theta = _required_metric(metric, curve.points.shape[1]).factor()
    chords = np.diff(curve.points, axis=0) @ theta.T
    return float(np.linalg.norm(chords, axis=1).sum())


def curve_length_refined(path: Callable[[np.ndarray], np.ndarray], metric,
                         rel_tol: float = 1e-6, initial_points: int = 17,
                         max_doublings: int = 18) -> float:
    """Length of a smooth path s in [0,1] -> R^n, refined until stable.

    The uniform partition is doubled until one more doubling changes the
    length by less than rel_tol relatively; raises RuntimeError if the
    refinement budget runs out before that.
    """
    def length_at(count: int) -> float:
        params = np.linspace(0.0, 1.0, count)
        points = np.asarray([path(s) for s in params], dtype=float)
        return curve_length(SampledCurve(points=points, params=params), metric)

    count = max(3, initial_points)
    prev = length_at(count)
    for _ in range(max_doublings):
        count = 2 * count - 1
        cur = length_at(count)
        if abs(cur - prev) <= rel_tol * max(abs(cur), np.finfo(float).tiny):
            return cur
        prev = cur
    raise RuntimeError(f"curve length did not stabilize within {max_doublings} doublings")
