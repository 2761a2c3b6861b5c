"""System and metric descriptions shared by the whole package.

A system is one of three records: a noisy discrete map, an Ito diffusion, or a
hybrid combination that integrates the diffusion on dwell intervals of fixed
length and applies the noisy map at the interval boundaries.  Metrics are
uniformly positive definite and enter everywhere through an upper-triangular
factor Theta with Theta.T @ Theta = M, so squared metric distances are plain
Euclidean norms of Theta-transformed differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NotPositiveDefinite(ValueError):
    """Raised when a matrix required to be (semi)definite fails a pivot test."""


class DimensionMismatch(ValueError):
    """Raised when array shapes are inconsistent with a declared dimension."""


def _as_square(matrix: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {out.shape}")
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
    """A constant or time-scheduled uniformly positive definite metric.

    `side` selects the one-sided limit at reset instants ("pre" approaches from
    the left, "post" from the right); constant metrics ignore it.  For
    scheduled metrics a factor time-derivative may be supplied analytically;
    it defaults to zero, which is exact for constant metrics.
    """

    dimension: int
    kind: str  # "constant" | "scheduled"
    uniform_lower_bound: float  # positive lower bound on eigenvalues over time
    _matrix: np.ndarray | None = None
    _factor: np.ndarray | None = None
    _value_fn: Callable[[float, str], np.ndarray] | None = None
    _factor_dot_fn: Callable[[float], np.ndarray] | None = None

    @classmethod
    def constant(cls, matrix: np.ndarray, uniform_lower_bound: float | None = None) -> "MetricSpec":
        m = _as_square(matrix, "metric")
        theta = factor_metric(m)  # also validates SPD
        if uniform_lower_bound is None:
            uniform_lower_bound = float(np.linalg.eigvalsh(m).min())
        if uniform_lower_bound <= 0:
            raise NotPositiveDefinite("uniform_lower_bound must be positive")
        return cls(dimension=m.shape[0], kind="constant",
                   uniform_lower_bound=uniform_lower_bound, _matrix=m, _factor=theta)

    @classmethod
    def identity(cls, dimension: int) -> "MetricSpec":
        return cls.constant(np.eye(dimension), uniform_lower_bound=1.0)

    @classmethod
    def scheduled(cls, value_fn: Callable[[float, str], np.ndarray], dimension: int,
                  uniform_lower_bound: float,
                  factor_dot_fn: Callable[[float], np.ndarray] | None = None) -> "MetricSpec":
        if uniform_lower_bound <= 0:
            raise NotPositiveDefinite("uniform_lower_bound must be positive")
        spec = cls(dimension=dimension, kind="scheduled",
                   uniform_lower_bound=uniform_lower_bound,
                   _value_fn=value_fn, _factor_dot_fn=factor_dot_fn)
        spec.value(0.0, "post")  # fail fast on malformed schedules
        return spec

    def value(self, t: float = 0.0, side: str = "post") -> np.ndarray:
        if side not in ("pre", "post"):
            raise ValueError(f"side must be 'pre' or 'post', got {side!r}")
        if self.kind == "constant":
            return self._matrix
        m = _as_square(self._value_fn(t, side), "scheduled metric value")
        if m.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"scheduled metric has shape {m.shape}, expected {(self.dimension,) * 2}")
        return m

    def factor(self, t: float = 0.0, side: str = "post") -> np.ndarray:
        if self.kind == "constant":
            if side not in ("pre", "post"):
                raise ValueError(f"side must be 'pre' or 'post', got {side!r}")
            return self._factor
        return factor_metric(self.value(t, side))

    def factor_dot(self, t: float = 0.0) -> np.ndarray:
        if self._factor_dot_fn is None:
            return np.zeros((self.dimension, self.dimension))
        return np.asarray(self._factor_dot_fn(t), dtype=float)


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

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """One draw of shape (dimension,) or `size` stacked draws, ~ N(0, Q)."""
        if size is None:
            return self._transform @ rng.standard_normal(self.dimension)
        return rng.standard_normal((size, self.dimension)) @ self._transform.T


def _batched_map(fn: Callable, vectorized: bool, lone: bool = False) -> Callable:
    """fn(x, arg) over stacked states (rows, dimension): one call when the
    system declares itself vectorized, and otherwise one call per row, stacked.
    With lone, the rows are two copies of one state and fn is called once."""
    if vectorized:
        return lambda states, arg: np.asarray(fn(states, arg), dtype=float)

    def once(states: np.ndarray, arg) -> np.ndarray:
        # both rows of a lone run's block hold the same state
        y = np.asarray(fn(states[0], arg), dtype=float)
        return np.stack([y, y])

    def rowwise(states: np.ndarray, arg) -> np.ndarray:
        return np.stack([np.asarray(fn(x, arg), dtype=float) for x in states])

    return once if lone else rowwise


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_system: a list of violations, empty when well formed."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _probe(callable_, args, expect_shape, what, violations) -> None:
    try:
        out = np.asarray(callable_(*args), dtype=float)
    except Exception as err:  # noqa: BLE001 - report, never abort
        violations.append(f"{what} evaluation failed at probe point: {err!r}")
        return
    if out.shape != expect_shape:
        violations.append(f"{what} returned shape {out.shape}, expected {expect_shape}")


def validate_system(system) -> ValidationReport:
    """Check dimensional consistency and parameter ranges; report, never raise.

    The probe point is the origin; systems undefined there report a violation
    rather than aborting, keeping the check pure.
    """
    violations: list[str] = []
    if isinstance(system, DiscreteMapSystem):
        n, d = system.dimension, system.noise.dimension
        if n < 1:
            violations.append(f"dimension must be >= 1, got {n}")
        else:
            x = np.zeros(n)
            _probe(system.map, (x, 0), (n,), "map", violations)
            _probe(system.noise_gain, (x, 0), (n, d), "noise_gain", violations)
            if system.jacobian is not None:
                _probe(system.jacobian, (x, 0), (n, n), "jacobian", violations)
    elif isinstance(system, ContinuousSDESystem):
        n, d = system.dimension, system.noise_dim
        if n < 1:
            violations.append(f"dimension must be >= 1, got {n}")
        elif d < 1:
            violations.append(f"noise_dim must be >= 1, got {d}")
        else:
            x = np.zeros(n)
            _probe(system.drift, (x, 0.0), (n,), "drift", violations)
            _probe(system.diffusion, (x, 0.0), (n, d), "diffusion", violations)
            if system.jacobian is not None:
                _probe(system.jacobian, (x, 0.0), (n, n), "jacobian", violations)
    elif isinstance(system, HybridSystem):
        violations.extend(validate_system(system.continuous).violations)
        violations.extend(validate_system(system.reset).violations)
        if system.continuous.dimension != system.reset.dimension:
            violations.append(
                f"continuous dimension {system.continuous.dimension} != "
                f"reset dimension {system.reset.dimension}")
        if not (system.dwell_time > 0):
            violations.append(f"dwell_time must be positive, got {system.dwell_time}")
    else:
        violations.append(f"unknown system type {type(system).__name__}")
    return ValidationReport(violations=tuple(violations))
