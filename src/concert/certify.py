"""Sampled contraction-rate and noise-energy certificates over state regions.

Rates are suprema of local quantities: the discrete one-step squared gain
lambda_max(F.T F) of the generalized Jacobian, and for flows the largest
eigenvalue of the symmetrized factored drift Jacobian (reported negated, so
positive values mean contraction).  Noise energies are suprema of the injected
trace tr(sigma^T M sigma Q) (discrete; Q is the draw covariance) and
tr(sigma^T M sigma) (per unit time, continuous).  Suprema over a region are
estimated on a deterministic low-discrepancy sample, so a certificate built
from a region is evidence, not proof: is_global_claim stays false unless the
rate was supplied analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         MetricSpec, _as_metric)
from .geometry import _checked_inverse, _factored, _squared_gain, numerical_jacobian


def _scrambled_halton(d: int, n: int, seed) -> np.ndarray:
    """First n points of the d-dimensional Halton sequence with random digit
    permutations (Owen's scrambling), bit for bit those of SciPy's
    `qmc.Halton(d, scramble=True, seed=seed).random(n)`."""
    bases: list[int] = []  # the first d primes
    candidate = 2
    while len(bases) < d:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
    rng = np.random.default_rng(seed)
    out = np.zeros((d, n))
    for seq, base in zip(out, bases):
        # one permutation per digit, enough digits to resolve a double
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        b2r = 1.0 / base
        for perm in perms:
            seq += perm[q % base] * b2r
            b2r /= base
            q //= base
    return out.T


@dataclass(frozen=True)
class SamplingRegion:
    """Deterministic sample source over a box, a ball, or an explicit point list.

    The same region always yields the same samples (scrambled Halton sequence
    keyed by `seed`); ball regions prepend their own center so suprema that
    peak there are found exactly.
    """

    kind: str  # "box" | "ball" | "points"
    dimension: int
    sample_count: int
    seed: int = 0
    lows: np.ndarray | None = None
    highs: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    point_list: np.ndarray | None = None

    @classmethod
    def box(cls, lows, highs, sample_count: int, seed: int = 0) -> "SamplingRegion":
        lows = np.atleast_1d(np.asarray(lows, dtype=float))
        highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise DimensionMismatch(f"bounds must share shape (n,), got {lows.shape}, {highs.shape}")
        if np.any(lows >= highs):
            raise ValueError("every low bound must be strictly below its high bound")
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        return cls(kind="box", dimension=lows.size, sample_count=sample_count,
                   seed=seed, lows=lows, highs=highs)

    @classmethod
    def ball(cls, center, radius: float, sample_count: int, seed: int = 0) -> "SamplingRegion":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not (radius > 0):
            raise ValueError(f"radius must be positive, got {radius}")
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        return cls(kind="ball", dimension=center.size, sample_count=sample_count,
                   seed=seed, center=center, radius=float(radius))

    @classmethod
    def points(cls, point_list) -> "SamplingRegion":
        pts = np.asarray(point_list, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatch(f"point list must have shape (m, n), got {pts.shape}")
        return cls(kind="points", dimension=pts.shape[1], sample_count=pts.shape[0],
                   point_list=pts)

    def samples(self) -> np.ndarray:
        """Sample array of shape (m, dimension); identical on every call."""
        if self.kind == "points":
            return self.point_list.copy()
        if self.kind == "box":
            unit = _scrambled_halton(self.dimension, self.sample_count, self.seed)
            return self.lows + unit * (self.highs - self.lows)
        # importing SciPy costs more than the rest of the package together and
        # only balls need it, so it loads on the first sampled ball
        from scipy.special import ndtri
        # Ball: inverse-normal directions plus a radial u^(1/n) transform keeps
        # the low-discrepancy stream deterministic; the exact center leads.
        n = self.dimension
        unit = _scrambled_halton(n + 1, self.sample_count, self.seed)
        unit = np.clip(unit, 1e-12, 1.0 - 1e-12)
        z = ndtri(unit[:, :n])
        norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), np.finfo(float).tiny)
        radii = self.radius * unit[:, n] ** (1.0 / n)
        return np.vstack([self.center, self.center + (z / norms) * radii[:, None]])

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "dimension": self.dimension,
               "sample_count": self.sample_count}
        if self.kind == "box":
            out.update(seed=self.seed, lows=self.lows.tolist(), highs=self.highs.tolist())
        elif self.kind == "ball":
            out.update(seed=self.seed, center=self.center.tolist(), radius=self.radius)
        return out


@dataclass(frozen=True)
class SupEstimate:
    """A sampled supremum and the sample attaining it."""

    value: float
    argmax: np.ndarray

    def __float__(self) -> float:
        return self.value


def _sup(region: SamplingRegion, value_at: Callable[[np.ndarray], float]) -> SupEstimate:
    """Largest value_at(x) over the region's samples, at the first sample
    attaining it."""
    best, best_at = -np.inf, None
    for x in region.samples():
        value = value_at(x)
        if value > best:
            best, best_at = value, x
    return SupEstimate(value=best, argmax=np.asarray(best_at, dtype=float))


def _jacobian_fn(system, index) -> Callable[[np.ndarray], np.ndarray]:
    if system.jacobian is not None:
        return lambda x: np.asarray(system.jacobian(x, index), dtype=float)
    f = system.map if isinstance(system, DiscreteMapSystem) else system.drift
    return lambda x: numerical_jacobian(lambda y: f(y, index), x)


def estimate_discrete_rate(system: DiscreteMapSystem, metric_pair, region: SamplingRegion,
                           k: int = 0) -> SupEstimate:
    """Sampled sup of the one-step squared gain of a discrete map at step k.

    metric_pair is (metric at step k, metric at step k+1); either entry may be
    a matrix, a MetricSpec, or None for identity.  Returns the largest
    lambda_max(F.T F) over the region's samples with the attaining sample.
    """
    metric_in, metric_out = metric_pair if metric_pair is not None else (None, None)
    theta_in_inv = _checked_inverse(_as_metric(metric_in, system.dimension).factor())
    theta_out = _as_metric(metric_out, system.dimension).factor()
    jac = _jacobian_fn(system, k)
    return _sup(region, lambda x: _squared_gain(_factored(jac(x), theta_in_inv, theta_out)))


def estimate_continuous_rate(system: ContinuousSDESystem, metric, region: SamplingRegion,
                             t: float = 0.0) -> SupEstimate:
    """Sampled contraction rate of a flow: minus the sup over the region of
    lambda_max(((dTheta/dt + Theta J) Theta^{-1})_sym); positive values mean
    the flow contracts the metric at rate at least the returned value."""
    metric = _as_metric(metric, system.dimension)
    theta = metric.factor(t)
    theta_inv = _checked_inverse(theta)
    theta_dot = metric.factor_dot(t)
    jac = _jacobian_fn(system, t)

    def top(x: np.ndarray) -> float:
        gen = (theta_dot + theta @ jac(x)) @ theta_inv
        return float(np.linalg.eigvalsh((gen + gen.T) / 2.0).max())

    worst = _sup(region, top)
    return SupEstimate(value=-worst.value, argmax=worst.argmax)


def noise_bound_discrete(system: DiscreteMapSystem, metric_next, region: SamplingRegion,
                         k: int = 0) -> SupEstimate:
    """Sampled sup of the injected reset-noise energy tr(sigma^T M' sigma Q)."""
    m_next = _as_metric(metric_next, system.dimension).value()
    q = system.noise.covariance

    def energy(x: np.ndarray) -> float:
        gain = np.asarray(system.noise_gain(x, k), dtype=float)
        return float(np.trace(gain.T @ m_next @ gain @ q))

    return _sup(region, energy)


def noise_bound_continuous(system: ContinuousSDESystem, metric, region: SamplingRegion,
                           t: float = 0.0) -> SupEstimate:
    """Sampled sup of the per-unit-time injected energy tr(sigma^T M sigma)."""
    m = _as_metric(metric, system.dimension).value(t)

    def energy(x: np.ndarray) -> float:
        sig = np.asarray(system.diffusion(x, t), dtype=float)
        return float(np.trace(sig.T @ m @ sig))

    return _sup(region, energy)


@dataclass(frozen=True)
class ContractionCertificate:
    """A rate plus noise-energy claim for one system in one metric.

    kind "discrete" pairs the one-step squared gain with the reset-noise
    energy; kind "continuous" pairs the flow contraction rate with the
    per-unit-time energy.  is_global_claim is true only when the rate holds
    everywhere by construction (supplied analytically), never for sampled
    estimates.
    """

    kind: str  # "discrete" | "continuous"
    rate: float
    noise_bound: float
    metric: MetricSpec
    region: SamplingRegion | None
    is_global_claim: bool
    rate_argmax: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "noise_bound": self.noise_bound,
            "metric": {"kind": self.metric.kind,
                       "value": self.metric.value().tolist()},
            "region": None if self.region is None else self.region.to_json_dict(),
            "is_global_claim": self.is_global_claim,
        }


def _certificate(kind: str, est: SupEstimate, noise: SupEstimate, metric: MetricSpec,
                 region: SamplingRegion, analytic_rate: float | None) -> ContractionCertificate:
    rate = float(analytic_rate) if analytic_rate is not None else est.value
    return ContractionCertificate(kind=kind, rate=rate, noise_bound=noise.value,
                                  metric=metric, region=region,
                                  is_global_claim=analytic_rate is not None,
                                  rate_argmax=est.argmax)


def certify_discrete(system: DiscreteMapSystem, region: SamplingRegion,
                     metric=None, metric_next=None, k: int = 0,
                     analytic_rate: float | None = None) -> ContractionCertificate:
    """Assemble a discrete certificate: sampled (or analytic) rate plus noise energy.

    The rate is the gain from `metric` at step k to `metric_next` at step k+1,
    and the noise energy is measured in `metric_next`; it defaults to `metric`.
    """
    metric_spec = _as_metric(metric, system.dimension)
    if metric_next is None:
        metric_next = metric_spec
    est = estimate_discrete_rate(system, (metric_spec, metric_next), region, k=k)
    noise = noise_bound_discrete(system, metric_next, region, k=k)
    return _certificate("discrete", est, noise, metric_spec, region, analytic_rate)


def certify_continuous(system: ContinuousSDESystem, region: SamplingRegion,
                       metric=None, t: float = 0.0,
                       analytic_rate: float | None = None) -> ContractionCertificate:
    """Assemble a continuous certificate: sampled (or analytic) rate plus noise energy."""
    metric_spec = _as_metric(metric, system.dimension)
    est = estimate_continuous_rate(system, metric_spec, region, t=t)
    noise = noise_bound_continuous(system, metric_spec, region, t=t)
    return _certificate("continuous", est, noise, metric_spec, region, analytic_rate)
