"""Sampled contraction-rate and noise-energy certificates over state regions.

Every quantity is measured in one constant metric M = Theta^T Theta, in which
the distance between states is ||Theta (x - y)||_2.  Rates are suprema of
local quantities of the generalized Jacobian F = Theta Df(x) Theta^{-1}, with
Theta checked and inverted once per estimate: the discrete one-step squared
gain lambda_max(F.T F), the one-step contraction factor at x, and for flows
the largest eigenvalue of the symmetric part of F (reported negated, so
positive values mean contraction).  `numerical_jacobian` supplies Df when a
system declares no Jacobian.  Noise energies are suprema of the injected
trace tr(sigma^T M sigma) of a map's noise gain (per step) or a flow's
diffusion (per unit time).  Callables are sampled at k = 0 or t = 0.0, as for
an autonomous system.  Suprema over a region are estimated on a deterministic
low-discrepancy sample, so a certificate built from a region is evidence, not
proof: its is_global_claim is false.

A region's samples are evaluated in one batch: a vectorized system's
callables are called once on the (m, n) sample array, and one that returns
one shared value stands for every sample, read by the engine's shape rule (a
shared map or drift value differences to a Jacobian of 0); other systems are
called row by row.  The factored products, eigvalsh and traces run over the
stack, and the sup is the first sample of largest value, NaN values skipped
(a region with no value above -inf raises), as a loop over the samples would
find it, bit for bit, except where a vectorized matrix map is differentiated
numerically: NumPy multiplies the batch by gemm where a single state took gemv.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         MetricSpec, _as_metric, _batched_map, _check_count, _reader)


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
    keyed by `seed`); a ball's first sample is its own center, so suprema that
    peak there are found exactly, and the rest are the sequence's first
    sample_count - 1 points.  A region checks its numbers where it is built:
    integer sample count (>= 1) and seed (>= 0), finite bounds, center, radius.
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

    def __post_init__(self) -> None:
        _check_count("sample_count", self.sample_count)
        _check_count("seed", self.seed, 0)
        for name in ("lows", "highs", "center", "radius"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")

    @classmethod
    def box(cls, lows, highs, sample_count: int, seed: int = 0) -> "SamplingRegion":
        lows = np.atleast_1d(np.asarray(lows, dtype=float))
        highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise DimensionMismatch(f"bounds must share shape (n,), got {lows.shape}, {highs.shape}")
        if np.any(lows >= highs):
            raise ValueError("every low bound must be strictly below its high bound")
        return cls(kind="box", dimension=lows.size, sample_count=sample_count,
                   seed=seed, lows=lows, highs=highs)

    @classmethod
    def ball(cls, center, radius: float, sample_count: int, seed: int = 0) -> "SamplingRegion":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not (radius > 0):
            raise ValueError(f"radius must be positive, got {radius}")
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
        # Ball: inverse-normal directions plus a radial u^(1/n) transform keeps
        # the low-discrepancy stream deterministic; the exact center leads.
        n = self.dimension
        unit = _scrambled_halton(n + 1, self.sample_count - 1, self.seed)
        unit = np.clip(unit, 1e-12, 1.0 - 1e-12)
        from statistics import NormalDist  # Wichura's AS241, loaded only for a ball
        z = np.fromiter(map(NormalDist().inv_cdf, unit[:, :n].ravel().tolist()),
                        dtype=float).reshape(-1, n)
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


def _sup(region: SamplingRegion,
         values_at: Callable[[np.ndarray], np.ndarray]) -> SupEstimate:
    """Largest value over the region's samples, at the first sample attaining
    it; NaN values are skipped.  values_at takes the (m, n) samples and returns
    one value per sample, or one value shared by every sample.  Raises
    ValueError when no sample has a value above -inf: no data bounds nothing."""
    samples = region.samples()
    values = np.broadcast_to(values_at(samples), (len(samples),))
    ranked = np.where(values > -np.inf, values, -np.inf)  # NaN ranks with -inf
    best = int(np.argmax(ranked))  # the first of equal values
    if not ranked[best] > -np.inf:
        raise ValueError(f"no sample of the {region.kind} region has a value above -inf "
                         f"(all {len(samples)} are NaN or -inf)")
    return SupEstimate(value=float(values[best]), argmax=samples[best])


def _values(system, what: str, shape: tuple[int, ...], samples: np.ndarray) -> np.ndarray:
    """The callable field `what` of `system` at every sample, at step 0 of a
    map or time 0.0 of a flow, read by the one shape rule of the engine:
    (m, *shape), or one value of shape shared by every sample from a
    vectorized system."""
    fn = getattr(system, what)
    arg = 0 if isinstance(system, DiscreteMapSystem) else 0.0
    values = (fn if system.vectorized else _batched_map(fn))(samples, arg)
    return _reader(system, what, shape)(values, len(samples))


def numerical_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with step max(1e-6, 1e-6 ||x||).

    x is one state (n,), for an f of one state, or a batch of states (m, n)
    with a Jacobian per row, stacked as (m, ..., n), for an f that takes
    stacked states (rows, n) and returns one output per row.  A batch's f is
    called once, on all 2 n m shifted states; each row's step and differences
    are those of that state alone.  Where x +- step leaves the floats for a
    finite state, both points move one step toward zero, so the difference
    stays in the floats.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return numerical_jacobian(
            lambda ys: np.stack([np.asarray(f(y), dtype=float) for y in ys]), x[None])[0]
    m, n = x.shape
    # each row's norm by the dot product that np.linalg.norm takes, and
    # Python's max, which keeps 1e-6 against a NaN
    with np.errstate(over="ignore"):
        scaled = 1e-6 * np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    finite = np.isfinite(x).all(axis=1, keepdims=True)
    # where x . x overflowed for a finite x: 1e-6 max|x_i| times the norm of
    # x / max|x_i|, finite also where ||x|| itself passes the largest float
    big = ~np.isfinite(scaled) & finite[:, 0]
    top = np.abs(x[big]).max(axis=1, keepdims=True)
    scaled[big] = (1e-6 * top[:, 0]) * np.sqrt(((x[big] / top) ** 2).sum(axis=1))
    h = np.where(scaled > 1e-6, scaled, 1e-6)
    step = np.zeros((n, m, n))
    step[np.arange(n), :, np.arange(n)] = h  # step[i, :, i] shifts coordinate i
    with np.errstate(over="ignore"):
        outside = ~np.isfinite(x + step) | ~np.isfinite(x - step)
    shift = np.where(outside & finite, np.sign(x) * step, 0.0)
    out = np.asarray(f(np.stack([x + (step - shift), x - (step + shift)]).reshape(2 * n * m, n)),
                     dtype=float)
    out = out.reshape(2, n, m, *out.shape[1:])
    cols = (out[0] - out[1]) / (2.0 * h).reshape(m, *(1,) * (out.ndim - 3))
    return np.moveaxis(cols, 0, -1)


def _jacobians(system, samples: np.ndarray) -> np.ndarray:
    """The system's Jacobian at every sample, or central differences of its map
    or drift, whose shared value is broadcast to the shifted states (a
    Jacobian of 0), as the engine adds it to every row."""
    n = system.dimension
    if system.jacobian is not None:
        return _values(system, "jacobian", (n, n), samples)
    what = "map" if isinstance(system, DiscreteMapSystem) else "drift"
    return numerical_jacobian(
        lambda ys: np.broadcast_to(_values(system, what, (n,), ys), ys.shape), samples)


# Condition-number ceiling above which a metric factor is treated as singular.
_COND_LIMIT = 1e12


class SingularFactor(ValueError):
    """Raised when a metric factor cannot be inverted reliably."""


def _top_eigenvalue(system, metric, region: SamplingRegion,
                    symmetric: Callable[[np.ndarray], np.ndarray]) -> SupEstimate:
    """Sampled sup of the largest eigenvalue of symmetric(F) over the
    generalized Jacobians F = Theta J Theta^{-1} at the region's samples;
    SingularFactor when Theta is singular to working precision."""
    theta = _as_metric(metric, system.dimension).factor()
    if np.linalg.cond(theta) > _COND_LIMIT:
        raise SingularFactor("metric factor is singular to working precision")
    theta_inv = np.linalg.inv(theta)
    return _sup(region, lambda xs: np.linalg.eigvalsh(
        symmetric(theta @ _jacobians(system, xs) @ theta_inv)).max(axis=-1))


def estimate_discrete_rate(system: DiscreteMapSystem, metric,
                           region: SamplingRegion) -> SupEstimate:
    """Sampled sup of the one-step squared gain lambda_max(F.T F) of a discrete
    map at step 0 in `metric`, with the attaining sample."""
    return _top_eigenvalue(system, metric, region, lambda gen: gen.swapaxes(-1, -2) @ gen)


def estimate_continuous_rate(system: ContinuousSDESystem, metric,
                             region: SamplingRegion) -> SupEstimate:
    """Sampled contraction rate of a flow: minus the sup over the region of
    lambda_max((Theta J Theta^{-1})_sym); positive values mean the flow
    contracts the metric at rate at least the returned value."""
    worst = _top_eigenvalue(system, metric, region,
                            lambda gen: (gen + gen.swapaxes(-1, -2)) / 2.0)
    return SupEstimate(value=-worst.value, argmax=worst.argmax)


def noise_bound(system: DiscreteMapSystem | ContinuousSDESystem, metric,
                region: SamplingRegion) -> SupEstimate:
    """Sampled sup of the injected energy tr(sigma^T M sigma) of a map's
    noise_gain (per step) or a flow's diffusion (per unit time); a gain of
    another shape than (dimension, noise dimension) raises DimensionMismatch."""
    m = _as_metric(metric, system.dimension).value()
    if isinstance(system, DiscreteMapSystem):
        what, width = "noise_gain", system.noise.dimension
    else:
        what, width = "diffusion", system.noise_dim

    def energies(xs: np.ndarray) -> np.ndarray:
        gain = _values(system, what, (system.dimension, width), xs)
        return np.trace(gain.swapaxes(-1, -2) @ m @ gain, axis1=-2, axis2=-1)

    return _sup(region, energies)


@dataclass(frozen=True)
class ContractionCertificate:
    """A rate plus noise-energy claim for one system in one metric.

    kind "discrete" pairs the one-step squared gain with the reset-noise
    energy; kind "continuous" pairs the flow contraction rate with the
    per-unit-time energy.  is_global_claim is true only when both fields hold
    everywhere by construction (the builtins' analytic certificates), never for
    sampled estimates.
    """

    kind: str  # "discrete" | "continuous"
    rate: float
    noise_bound: float
    metric: MetricSpec
    region: SamplingRegion | None
    is_global_claim: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "noise_bound": self.noise_bound,
            "metric": {"kind": "constant", "value": self.metric.value().tolist()},
            "region": None if self.region is None else self.region.to_json_dict(),
            "is_global_claim": self.is_global_claim,
        }


def _certify(kind: str, rate: Callable, system, region: SamplingRegion,
             metric) -> ContractionCertificate:
    """The sampled rate by `rate`, then the noise energy, both in `metric`."""
    spec = _as_metric(metric, system.dimension)
    return ContractionCertificate(kind=kind, rate=rate(system, spec, region).value,
                                  noise_bound=noise_bound(system, spec, region).value,
                                  metric=spec, region=region, is_global_claim=False)


def certify_discrete(system: DiscreteMapSystem, region: SamplingRegion,
                     metric=None) -> ContractionCertificate:
    """Assemble a discrete certificate: sampled rate plus noise energy."""
    return _certify("discrete", estimate_discrete_rate, system, region, metric)


def certify_continuous(system: ContinuousSDESystem, region: SamplingRegion,
                       metric=None) -> ContractionCertificate:
    """Assemble a continuous certificate: sampled rate plus noise energy."""
    return _certify("continuous", estimate_continuous_rate, system, region, metric)
