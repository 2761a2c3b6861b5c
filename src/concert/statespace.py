"""System and metric descriptions shared by the whole package.

A system is one of three records: a noisy discrete map, an Ito diffusion, or a
hybrid combination that integrates the diffusion on dwell intervals of fixed
length and applies the noisy map at the interval boundaries.  All noise is
standard normal draws shaped only by a gain: a map's noise_gain, a flow's
diffusion.  A metric is one constant symmetric positive definite matrix M,
used everywhere through its upper-triangular factor Theta with
Theta.T @ Theta = M, so squared metric distances are plain Euclidean norms of
Theta-transformed differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NotPositiveDefinite(ValueError):
    """Raised when a matrix required to be positive definite fails a pivot
    test or has an entry that is not finite."""


class DimensionMismatch(ValueError):
    """Raised when array shapes are inconsistent with a declared dimension."""


_PIVOT_TOL = 1e-12  # factor_metric's pivot floor, relative to the largest diagonal entry


def factor_metric(metric: np.ndarray) -> np.ndarray:
    """Upper-triangular factor Theta of an SPD matrix, Theta.T @ Theta = metric.

    The factor is the transposed Cholesky factor, so it is unique with positive
    diagonal.  A pivot at or below _PIVOT_TOL times the largest diagonal entry
    raises NotPositiveDefinite, as does any indefinite input.
    """
    m = np.asarray(metric, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"metric must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotPositiveDefinite("metric has an entry that is not finite")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ValueError("metric is not symmetric")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"metric is not positive definite: {err}") from None
    pivots = np.diag(lower) ** 2
    pivot_floor = _PIVOT_TOL * max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
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
        theta = factor_metric(matrix)  # validates SPD
        m = np.asarray(matrix, dtype=float)
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


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError, naming the count, unless value is a Python or NumPy
    integer >= least: a noise dimension, a pair or run count, a thinning."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """`dimension` independent standard normal draws per step; any shaping
    belongs in the noise gain, as a flow's belongs in its diffusion."""

    dimension: int

    def __post_init__(self) -> None:
        _check_count("noise dimension", self.dimension)


def _batched_map(fn: Callable, lone: bool = False) -> Callable:
    """fn(x, arg) of a callable that is not vectorized, over stacked states
    (rows, dimension): one call per row, stacked.  With lone, rows 2i and
    2i + 1 hold one state, and fn is called once for both."""
    def rowwise(states: np.ndarray, arg) -> np.ndarray:
        return np.stack([np.asarray(fn(x, arg), dtype=float) for x in states])

    if lone:
        return lambda states, arg: np.repeat(rowwise(states[::2], arg), 2, axis=0)
    return rowwise


def _reader(system, what: str, shape: tuple[int, ...]) -> Callable:
    """read(value, rows): the value of the callable `what` of `system` over
    `rows` stacked states, as an array of shape (rows, *shape), or of shape
    itself, one value shared by every row, when the system is vectorized.
    Any other shape raises DimensionMismatch, naming a vectorized callable's
    value whole and a row-wise one's per row, as the callable returned it."""
    def read(value, rows: int) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        if value.shape == (rows, *shape) or (system.vectorized and value.shape == shape):
            return value
        got, want = (value.shape, f"{shape} or {(rows, *shape)}") if system.vectorized \
            else (value.shape[1:], shape)
        raise DimensionMismatch(f"{what} of {system.name!r} returned shape {got}, "
                                f"expected {want}")
    return read


@dataclass(frozen=True)
class DiscreteMapSystem:
    """State update x_{k+1} = map(x_k, k) + noise_gain(x_k, k) @ w_k, with
    w_k standard normal of `noise.dimension` components.

    `vectorized` declares that map/noise_gain/jacobian also accept stacked
    states of shape (batch, dimension) and return correspondingly stacked
    output, or any of them one value shared by every state; the
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

    The driving Brownian increments are standard, `noise_dim` independent
    components of variance dt; any shaping belongs in `diffusion`.
    `vectorized` declares of drift/diffusion/jacobian what it declares of a
    DiscreteMapSystem's callables.
    """

    dimension: int
    drift: Callable
    diffusion: Callable
    noise_dim: int
    jacobian: Callable | None = None
    vectorized: bool = False
    name: str = "continuous"

    def __post_init__(self) -> None:
        _check_count("noise dimension", self.noise_dim)


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
