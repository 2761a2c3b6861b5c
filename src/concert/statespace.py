"""System and metric descriptions shared by the whole package.

A system is one of three records: a noisy discrete map, an Ito diffusion, or a
hybrid combination that integrates the diffusion on dwell intervals of fixed
length and applies the noisy map at the interval boundaries.  A metric is one
constant symmetric positive definite matrix M, used everywhere through its
upper-triangular factor Theta with Theta.T @ Theta = M, so squared metric
distances are plain Euclidean norms of Theta-transformed differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NotPositiveDefinite(ValueError):
    """Raised when a matrix required to be (semi)definite fails a pivot test
    or has an entry that is not finite."""


class DimensionMismatch(ValueError):
    """Raised when array shapes are inconsistent with a declared dimension."""


def _as_square(matrix: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise NotPositiveDefinite(f"{what} has an entry that is not finite")
    return out


def _check_symmetric(matrix: np.ndarray, what: str, tol: float = 1e-10) -> None:
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > tol * scale:
        raise ValueError(f"{what} is not symmetric")


def factor_metric(metric: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Upper-triangular factor Theta of an SPD matrix, Theta.T @ Theta = metric.

    The factor is the transposed Cholesky factor, so it is unique with positive
    diagonal.  A pivot at or below tol (relative to the largest diagonal entry
    of the metric) raises NotPositiveDefinite, as does any indefinite input.
    """
    m = _as_square(metric, "metric")
    _check_symmetric(m, "metric")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"metric is not positive definite: {err}") from None
    pivots = np.diag(lower) ** 2
    pivot_floor = tol * max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    if np.any(pivots <= pivot_floor):
        raise NotPositiveDefinite(
            f"metric pivot {pivots.min():.3e} at or below tolerance {pivot_floor:.3e}")
    return lower.T.copy()


@dataclass(frozen=True)
class MetricSpec:
    """A constant symmetric positive definite metric M with its factor Theta."""

    dimension: int
    _matrix: np.ndarray
    _factor: np.ndarray

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "MetricSpec":
        m = _as_square(matrix, "metric")
        theta = factor_metric(m)  # also validates SPD
        if float(np.linalg.eigvalsh(m).min()) <= 0:
            raise NotPositiveDefinite("metric has a non-positive eigenvalue")
        return cls(dimension=m.shape[0], _matrix=m, _factor=theta)

    @classmethod
    def identity(cls, dimension: int) -> "MetricSpec":
        return cls.constant(np.eye(dimension))

    def value(self) -> np.ndarray:
        return self._matrix

    def factor(self) -> np.ndarray:
        return self._factor


def _as_metric(metric, dimension: int) -> MetricSpec:
    """A metric argument as a MetricSpec of the given dimension: None means the
    identity, and a matrix must be symmetric positive definite."""
    if metric is None:
        return MetricSpec.identity(dimension)
    if not isinstance(metric, MetricSpec):
        metric = MetricSpec.constant(np.asarray(metric, dtype=float))
    if metric.dimension != dimension:
        raise DimensionMismatch(
            f"metric dimension {metric.dimension} does not match system dimension {dimension}")
    return metric


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """Zero-mean Gaussian noise source with covariance Q (PSD allowed).

    Draws are produced as S @ z for standard-normal z, where S comes from the
    eigendecomposition of Q with eigenvalues clamped at zero, so rank-deficient
    covariances are accepted deterministically.
    """

    dimension: int
    covariance: np.ndarray = None  # type: ignore[assignment]
    _transform: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        q = np.eye(self.dimension) if self.covariance is None else \
            _as_square(self.covariance, "covariance")
        if q.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"covariance has shape {q.shape}, expected {(self.dimension,) * 2}")
        _check_symmetric(q, "covariance")
        eigvals, eigvecs = np.linalg.eigh(q)
        scale = max(1.0, float(eigvals.max(initial=0.0)))
        if eigvals.min(initial=0.0) < -1e-10 * scale:
            raise NotPositiveDefinite(f"covariance has negative eigenvalue {eigvals.min():.3e}")
        transform = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        object.__setattr__(self, "covariance", q)
        object.__setattr__(self, "_transform", transform)


def _batched_map(fn: Callable, vectorized: bool, lone: bool = False) -> Callable:
    """fn(x, arg) over stacked states (rows, dimension): one call when the
    system declares itself vectorized, and otherwise one call per row, stacked.
    With lone, rows 2i and 2i + 1 hold one state, and fn is called once for both."""
    if vectorized:
        return lambda states, arg: np.asarray(fn(states, arg), dtype=float)

    def rowwise(states: np.ndarray, arg) -> np.ndarray:
        return np.stack([np.asarray(fn(x, arg), dtype=float) for x in states])

    if lone:
        return lambda states, arg: np.repeat(rowwise(states[::2], arg), 2, axis=0)
    return rowwise


@dataclass(frozen=True)
class DiscreteMapSystem:
    """State update x_{k+1} = map(x_k, k) + noise_gain(x_k, k) @ w_k, w ~ N(0, Q).

    `vectorized` declares that map/noise_gain/jacobian also accept stacked
    states of shape (batch, dimension) and return correspondingly stacked
    output, or, for noise_gain and jacobian, one shared matrix; the
    simulators and certificates batch everything and wrap scalar-only
    callables.
    """

    dimension: int
    map: Callable
    noise_gain: Callable
    noise: GaussianNoiseSpec
    jacobian: Callable | None = None
    vectorized: bool = False
    name: str = "discrete"


@dataclass(frozen=True)
class ContinuousSDESystem:
    """Ito diffusion dx = drift(x, t) dt + diffusion(x, t) dW_t.

    The driving Brownian increments are standard (identity covariance per unit
    time, `noise_dim` components); any shaping belongs in `diffusion`.
    """

    dimension: int
    drift: Callable
    diffusion: Callable
    noise_dim: int
    jacobian: Callable | None = None
    vectorized: bool = False
    name: str = "continuous"


@dataclass(frozen=True)
class HybridSystem:
    """Diffusion on dwell intervals of length dwell_time, reset map at boundaries.

    The reset at a boundary k*tau maps the pre-reset state to the post-reset
    state; the convention everywhere in this package is that the k = 0 reset is
    applied at the initial instant before any integration.
    """

    continuous: ContinuousSDESystem
    reset: DiscreteMapSystem
    dwell_time: float
    name: str = "hybrid"

    def __post_init__(self) -> None:
        if not self.dwell_time > 0:  # NaN too
            raise ValueError(f"dwell_time must be > 0, got {self.dwell_time}")
        if self.continuous.dimension != self.reset.dimension:
            raise DimensionMismatch(
                f"continuous dimension {self.continuous.dimension} does not match "
                f"reset dimension {self.reset.dimension}")
