"""Sampled contraction-rate and noise-energy certificates over state regions.

Every quantity is measured in one constant metric M = Theta^T Theta.  Rates
are suprema of local quantities of the generalized Jacobian
F = Theta J Theta^{-1}: the discrete one-step squared gain lambda_max(F.T F),
and for flows the largest eigenvalue of the symmetric part of F (reported
negated, so positive values mean contraction).  Noise energies are suprema of
the injected trace tr(sigma^T M sigma Q) (discrete; Q is the draw covariance)
and tr(sigma^T M sigma) (per unit time, continuous).  Suprema over a region are
estimated on a deterministic low-discrepancy sample, so a certificate built
from a region is evidence, not proof: its is_global_claim is false.

A region's samples are evaluated in one batch: a vectorized system's
callables are called once on the (m, n) sample array, and a matrix-valued one
that returns one shared matrix stands for every sample; other systems are
called row by row.  The factored products, eigvalsh and traces run over the
stack, and the sup is the first sample of largest value, NaN values skipped,
as a loop over the samples would find it, bit for bit, except where a
vectorized matrix map is differentiated numerically: NumPy multiplies the
batch by gemm where a single state took gemv.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         MetricSpec, _as_metric, _batched_map)
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


# Cephes ndtri (S. L. Moshier), the code scipy.special.ndtri runs: rational
# approximations in y - 1/2 where exp(-2) < y <= 1 - exp(-2), and in
# 1 / sqrt(-2 log q) in each tail, q the smaller of y and 1 - y
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_MID_P = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
          1.39312609387279679503E1, -1.23916583867381258016E0)
_MID_Q = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
          -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
          1.59056225126211695515E1, -1.18331621121330003142E0)
# the tail for q above exp(-32), where the root is below 8
_NEAR_P = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
           4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
           -1.40256079171354495875E-1, -3.50424626827848203418E-2,
           -8.57456785154685413611E-4)
_NEAR_Q = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
           1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
           -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# the tail beyond
_FAR_P = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
          1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
          3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_FAR_Q = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
          2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
          2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl (coefficients from the highest power down), or p1evl
    with monic: a leading coefficient 1 that `coef` leaves out."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _logs(x: np.ndarray) -> np.ndarray:
    # one value at a time through the C library's log, as Cephes calls it;
    # NumPy's vectorized log may differ in the last bit
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, bit for bit scipy.special.ndtri:
    -inf at 0, inf at 1 and NaN outside [0, 1]."""
    y = np.asarray(y, dtype=float)
    out = np.full(y.shape, np.nan)
    out[y == 0.0] = -np.inf
    out[y == 1.0] = np.inf
    upper = y > 1.0 - _EXP_M2
    q = np.where(upper, 1.0 - y, y)
    mid = q > _EXP_M2
    u = y[mid] - 0.5
    u2 = u * u
    out[mid] = (u + u * (u2 * _horner(u2, _MID_P) / _horner(u2, _MID_Q, True))) * _S2PI
    tail = ~mid & (y > 0.0) & (y < 1.0)
    x = np.sqrt(-2.0 * _logs(q[tail]))
    x0 = x - _logs(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _horner(z, _NEAR_P) / _horner(z, _NEAR_Q, True),
                  z * _horner(z, _FAR_P) / _horner(z, _FAR_Q, True))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass(frozen=True)
class SamplingRegion:
    """Deterministic sample source over a box, a ball, or an explicit point list.

    The same region always yields the same samples (scrambled Halton sequence
    keyed by `seed`); a ball's first sample is its own center, so suprema that
    peak there are found exactly, and the rest are the sequence's first
    sample_count - 1 points.
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
        # Ball: inverse-normal directions plus a radial u^(1/n) transform keeps
        # the low-discrepancy stream deterministic; the exact center leads.
        n = self.dimension
        unit = _scrambled_halton(n + 1, self.sample_count - 1, self.seed)
        unit = np.clip(unit, 1e-12, 1.0 - 1e-12)
        z = _ndtri(unit[:, :n])
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
    one value per sample, or one value shared by every sample."""
    samples = region.samples()
    values = np.broadcast_to(values_at(samples), (len(samples),))
    ranked = np.where(values > -np.inf, values, -np.inf)  # NaN ranks with -inf
    best = int(np.argmax(ranked))  # the first of equal values
    if not ranked[best] > -np.inf:  # no sample beats -inf
        return SupEstimate(value=-math.inf, argmax=np.asarray(None, dtype=float))
    return SupEstimate(value=float(values[best]), argmax=samples[best])


def _stacked(system, fn: Callable, samples: np.ndarray, arg) -> np.ndarray:
    """The matrix-valued callable fn(x, arg) of `system` at every sample, as a
    stack (m, rows, cols); a vectorized callable that returns one shared
    matrix gives a stack of one."""
    out = _batched_map(fn, system.vectorized)(samples, arg)
    return out[None] if out.ndim == 2 else out


def _jacobians(system, samples: np.ndarray, arg) -> np.ndarray:
    if system.jacobian is not None:
        return _stacked(system, system.jacobian, samples, arg)
    f = system.map if isinstance(system, DiscreteMapSystem) else system.drift
    batched = _batched_map(f, system.vectorized)
    return numerical_jacobian(lambda y: batched(y, arg), samples)


def estimate_discrete_rate(system: DiscreteMapSystem, metric, region: SamplingRegion,
                           k: int = 0) -> SupEstimate:
    """Sampled sup of the one-step squared gain lambda_max(F.T F) of a discrete
    map at step k in `metric`, with the attaining sample."""
    theta = _as_metric(metric, system.dimension).factor()
    theta_inv = _checked_inverse(theta)
    return _sup(region, lambda xs: _squared_gain(
        _factored(_jacobians(system, xs, k), theta, theta_inv)))


def estimate_continuous_rate(system: ContinuousSDESystem, metric, region: SamplingRegion,
                             t: float = 0.0) -> SupEstimate:
    """Sampled contraction rate of a flow: minus the sup over the region of
    lambda_max((Theta J Theta^{-1})_sym); positive values mean the flow
    contracts the metric at rate at least the returned value."""
    theta = _as_metric(metric, system.dimension).factor()
    theta_inv = _checked_inverse(theta)

    def tops(xs: np.ndarray) -> np.ndarray:
        gen = _factored(_jacobians(system, xs, t), theta, theta_inv)
        return np.linalg.eigvalsh((gen + gen.swapaxes(-1, -2)) / 2.0).max(axis=-1)

    worst = _sup(region, tops)
    return SupEstimate(value=-worst.value, argmax=worst.argmax)


def noise_bound_discrete(system: DiscreteMapSystem, metric, region: SamplingRegion,
                         k: int = 0) -> SupEstimate:
    """Sampled sup of the injected reset-noise energy tr(sigma^T M sigma Q)."""
    m = _as_metric(metric, system.dimension).value()
    q = system.noise.covariance

    def energies(xs: np.ndarray) -> np.ndarray:
        gain = _stacked(system, system.noise_gain, xs, k)
        return np.trace(gain.swapaxes(-1, -2) @ m @ gain @ q, axis1=-2, axis2=-1)

    return _sup(region, energies)


def noise_bound_continuous(system: ContinuousSDESystem, metric, region: SamplingRegion,
                           t: float = 0.0) -> SupEstimate:
    """Sampled sup of the per-unit-time injected energy tr(sigma^T M sigma)."""
    m = _as_metric(metric, system.dimension).value()

    def energies(xs: np.ndarray) -> np.ndarray:
        sig = _stacked(system, system.diffusion, xs, t)
        return np.trace(sig.swapaxes(-1, -2) @ m @ sig, axis1=-2, axis2=-1)

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


def _certificate(kind: str, est: SupEstimate, noise: SupEstimate, metric: MetricSpec,
                 region: SamplingRegion) -> ContractionCertificate:
    return ContractionCertificate(kind=kind, rate=est.value, noise_bound=noise.value,
                                  metric=metric, region=region, is_global_claim=False)


def certify_discrete(system: DiscreteMapSystem, region: SamplingRegion,
                     metric=None, k: int = 0) -> ContractionCertificate:
    """Assemble a discrete certificate: sampled rate plus noise energy, both
    in `metric`."""
    metric_spec = _as_metric(metric, system.dimension)
    est = estimate_discrete_rate(system, metric_spec, region, k=k)
    noise = noise_bound_discrete(system, metric_spec, region, k=k)
    return _certificate("discrete", est, noise, metric_spec, region)


def certify_continuous(system: ContinuousSDESystem, region: SamplingRegion,
                       metric=None, t: float = 0.0) -> ContractionCertificate:
    """Assemble a continuous certificate: sampled rate plus noise energy."""
    metric_spec = _as_metric(metric, system.dimension)
    est = estimate_continuous_rate(system, metric_spec, region, t=t)
    noise = noise_bound_continuous(system, metric_spec, region, t=t)
    return _certificate("continuous", est, noise, metric_spec, region)
