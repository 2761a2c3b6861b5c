"""Metric geometry helpers: distances and generalized Jacobians.

For an SPD metric M with factor Theta (Theta.T @ Theta = M) the distance
between states is ||Theta (x - y)||_2.  A differentiable map f is measured
through its generalized Jacobian F = Theta_out @ Df(x) @ Theta_in^{-1}; the
squared gain lambda_max(F.T F) is the one-step contraction factor at x.  The
certificates in `concert.certify` evaluate F and its squared gain through
this module, with Theta_in checked and inverted once per certificate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .statespace import DimensionMismatch, _as_metric

# Condition-number ceiling above which an input factor is treated as singular.
_COND_LIMIT = 1e12


class SingularFactor(ValueError):
    """Raised when the input-side factor cannot be inverted reliably."""


def metric_distance(x: np.ndarray, y: np.ndarray, metric) -> float:
    """Distance sqrt((x-y)^T M (x-y)) in the metric M (matrix or MetricSpec)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"states must share shape (n,), got {x.shape} and {y.shape}")
    if metric is None:
        raise ValueError("metric is required")
    m = _as_metric(metric, x.size).value()
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


def _checked_inverse(theta: np.ndarray) -> np.ndarray:
    """inv(theta), or SingularFactor when theta is not square or not invertible
    to working precision."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise SingularFactor(f"input factor must be square, got shape {theta.shape}")
    if np.linalg.cond(theta) > _COND_LIMIT:
        raise SingularFactor("input factor is singular to working precision")
    return np.linalg.inv(theta)


def _factored(jac: np.ndarray, theta_in_inv: np.ndarray, theta_out: np.ndarray) -> np.ndarray:
    """F = Theta_out @ J @ Theta_in^{-1}, given the inverted input factor."""
    if jac.shape[-1] != theta_in_inv.shape[0]:
        raise DimensionMismatch(
            f"Jacobian shape {jac.shape} does not match input factor {theta_in_inv.shape}")
    return theta_out @ jac @ theta_in_inv


def _squared_gain(gen: np.ndarray) -> float:
    """lambda_max(F.T F) of a generalized Jacobian F."""
    return float(np.linalg.eigvalsh(gen.T @ gen).max())


def generalized_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                         theta_in: np.ndarray, theta_out: np.ndarray,
                         jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                         ) -> np.ndarray:
    """Factored Jacobian Theta_out @ Df(x) @ Theta_in^{-1} at a point.

    Df comes from `jacobian` when supplied and central differences otherwise.
    Raises SingularFactor when theta_in is not invertible to working precision.
    """
    x = np.asarray(x, dtype=float)
    jac = np.asarray(jacobian(x), dtype=float) if jacobian is not None \
        else numerical_jacobian(f, x)
    return _factored(jac, _checked_inverse(theta_in), np.asarray(theta_out, dtype=float))


def contraction_factor_at(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                          theta_in: np.ndarray, theta_out: np.ndarray,
                          jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                          ) -> float:
    """Squared local gain lambda_max(F.T F) of the generalized Jacobian at x.

    Values below one mean the map contracts the factored metric pair at x;
    the square of any induced-norm bound on F dominates this quantity.
    """
    return _squared_gain(generalized_jacobian(f, x, theta_in, theta_out, jacobian=jacobian))
