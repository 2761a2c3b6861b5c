"""Closed-form mean-square noise bounds.

Discrete case: a map with one-step squared gain beta < 1 in the chosen metric
and per-step injected noise energy C admits, for two independently driven
copies,

    E d_k^2     <= 2 C / (1 - beta) + beta^k E d_0^2

By Jensen its root bounds the mean distance E d_k, and is tighter than the
paper's 2 sqrt(C) / (1 - sqrt(beta)) + sqrt(beta)^k E d_0.

Hybrid case (diffusion on dwell intervals of length tau, noisy reset at the
boundaries, reset applied at t = 0 first): with continuous rate lambda
(positive contracting, zero neutral, negative expanding) and injected energies
C_d (reset) and C_c (diffusion), the asymptote and per-dwell transient factor
depend on the regime:

    contracting (lam > 0: C1, r1) and expanding (lam < 0: C3, r2; bounded iff
    r2 < 1, linear growth per dwell at r2 = 1, no finite bound above it):
                  C = (2 a C_d + (1-beta)(1+beta-r) g C_c) / (a (1-beta)(1-r)),
                  a = |lam|, r = beta exp(-2 lam tau), g = max(1, exp(-2 lam tau)),
                  g the most a dwell's flow scales a pair's mean square by
    neutral:      C2 = (2 C_d + 2 beta (1-beta) C_c tau) / (1-beta)^2

`classify_regime` picks the regime and `hybrid_bound` evaluates it;
`discrete_ms_bound` covers maps.  `certified_bound` chains contraction
certificates into the checkable report of a pair ensemble; comparing a noisy
copy against a noise-free one halves every injected energy there.
report(t, side) reads a BoundReport at a sample of the simulation grid: a
whole step count for a discrete report, a finite time for the others.

The hybrid asymptotes bound the post-reset sequence.  Every other sample
takes the flow map of `continuous_bound_at` from the last reset, so pre-reset
and interior bounds exceed the asymptote in the neutral and expanding regimes
and fall below it in the contracting one.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .simulate import InitialPointPair, initial_ms

HYBRID_REGIMES = ("hybrid-contracting", "hybrid-neutral", "hybrid-expanding-bounded",
                  "hybrid-expanding-critical", "hybrid-expanding-unbounded")
FLOW_REGIMES = ("flow-contracting", "flow-neutral", "flow-expanding")

# Relative half-width of the expanding-regime equality branch, and the wider
# band inside which a report carries a proximity warning.
CRITICAL_REL_TOL = 1e-12
NEAR_CRITICAL_REL_TOL = 1e-9
# largest exponent whose exponential is finite: math.exp overflows above it
_LOG_MAX = math.log(sys.float_info.max)


class BetaOutOfRange(ValueError):
    """Raised when the one-step squared gain is outside [0, 1)."""


class ParameterRange(ValueError):
    """Raised when a noise energy, dwell time, or rate is out of range."""


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0 or beta >= 1.0:
        raise BetaOutOfRange(f"one-step squared gain must lie in [0, 1), got {beta}")
    return beta


def _check_nonneg(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ParameterRange(f"{what} must be finite and >= 0, got {value}")
    return value


def _check_rate(lam: float) -> float:
    lam = float(lam)
    if not np.isfinite(lam):
        raise ParameterRange(f"continuous rate must be finite, got {lam}")
    return lam


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: regime tag, asymptote, transient factor, input echo.

    `transient_rate_per_step` is the guaranteed per-step (discrete),
    per-dwell (hybrid) or per-unit-time (flow) decay factor of the transient
    term, capped at 1.0 for regimes with no guaranteed decay.  `inputs`
    echoes every number the bound was built from; treat it as read-only.
    """

    regime: str
    asymptotic_bound: float
    transient_rate_per_step: float
    inputs: dict = field(repr=False)
    noise_free: bool = False
    warnings: tuple[str, ...] = ()

    def __call__(self, t: float, side: str = "post") -> float:
        """Bound at the grid sample (t, side); discrete grids count steps, so a
        discrete report is read at whole, finite step counts t only."""
        if self.regime == "discrete-ms":
            if not float(t).is_integer():  # inf and NaN too
                raise ValueError(f"a discrete bound is read at whole steps, got time {t}")
            return self.bound_at_step(int(t))
        return self.bound_at_time(t, side)

    def bound_at_step(self, k: int) -> float:
        """Bound value after k steps, an integer (discrete regimes only); never
        below the initial mean square E0 at k = 0, where a point-mass start's
        asymptote + (E0 - asymptote) can round below E0."""
        k = operator.index(k)  # TypeError for a float, whole or not
        if self.regime != "discrete-ms":
            raise ValueError(f"bound_at_step applies to discrete regimes, not {self.regime}")
        if k < 0:
            raise ValueError(f"step index must be >= 0, got {k}")
        rate = self.transient_rate_per_step
        value = self.asymptotic_bound + rate**k * self.inputs["initial_effective"]
        return max(value, self.inputs["initial"]) if k == 0 else value

    def bound_at_time(self, t: float, side: str = "post") -> float:
        """Bound value at time t (hybrid and flow regimes only).

        A flow's is continuous_bound_at t.  A hybrid's is Phi_s(B_post(k)):
        the flow map over the time s since the last reset k, from
        B_post(k) = asymptote + E0 r^k, or E0 + (k + 1) times the growth per
        dwell when r2 = 1.  At a reset instant k tau > 0 the "pre" sample
        ends dwell k - 1 (s = tau), the others start dwell k.
        """
        if self.regime not in HYBRID_REGIMES + FLOW_REGIMES:
            raise ValueError(f"bound_at_time applies to hybrid and flow regimes, not {self.regime}")
        if side not in ("pre", "post", "interior"):
            raise ValueError(f"side must be 'pre', 'post' or 'interior', got {side!r}")
        if not t >= 0:  # NaN too
            raise ValueError(f"time must be >= 0, got {t}")
        if t == math.inf:  # a grid sample has a finite time
            raise ValueError(f"time must be finite, got {t}")
        if self.regime in FLOW_REGIMES:
            return continuous_bound_at(self.inputs["lam"], self.inputs["C_c"],
                                       self.inputs["initial_ms"], t)
        if self.regime == "hybrid-expanding-unbounded":
            return math.inf
        k, s = _since_reset(t, self.inputs["tau"], side)
        e0 = self.inputs["initial_ms"]
        post = (e0 + (k + 1) * self.inputs["growth_per_dwell"]
                if self.regime == "hybrid-expanding-critical"
                else self.asymptotic_bound + e0 * self.transient_rate_per_step**k)
        return _flow_map(self.inputs["lam"], self.inputs["C_c"], post, s)

    def to_json_dict(self) -> dict:
        asym = self.asymptotic_bound
        return {
            "regime": self.regime,
            "asymptotic_bound": asym if math.isfinite(asym) else None,
            "finite": math.isfinite(asym),
            "transient_rate_per_step": self.transient_rate_per_step,
            "noise_free": self.noise_free,
            "warnings": list(self.warnings),
            # a non-finite echo (an overflowed r2) prints as null, as the asymptote
            "inputs": {key: _finite_or_none(value) for key, value in sorted(self.inputs.items())},
        }


def _finite_or_none(value):
    """value with every float that is not finite, also inside the dicts and
    lists it holds, replaced by None: JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _since_reset(t: float, tau: float, side: str) -> tuple[int, float]:
    """(k, s): the last reset k applied at the sample (t, side), within 1e-9
    relative of k tau, and the flow time s since it (the start at t = 0: 0)."""
    ratio = t / tau
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        k = int(nearest)
        return (k - 1, tau) if side == "pre" and k > 0 else (k, 0.0)
    k = int(math.floor(ratio))
    return k, t - k * tau


def _flow_map(lam: float, c_c: float, ms: float, s: float) -> float:
    """Phi_s(ms) = exp(-2 lam s) ms + (C_c / lam)(1 - exp(-2 lam s)), or
    ms + 2 C_c s at lam = 0 or s = 0: the exact mean square after flow time
    s of the comparison system (dE/ds = -2 lam E + 2 C_c) started at ms.
    Increasing in ms, it bounds wherever ms does; inf where exp(-2 lam s)
    overflows."""
    if lam == 0.0 or s == 0.0:
        return ms + 2.0 * c_c * s
    exponent = -2.0 * lam * s
    if exponent > _LOG_MAX:
        return math.inf
    return math.exp(exponent) * ms - (c_c / lam) * math.expm1(exponent)


def discrete_ms_bound(beta: float, noise_energy: float, initial_ms: float,
                      point_mass: bool = False) -> BoundReport:
    """Mean-square-distance bound for a discrete noisy pair.

    Asymptote 2 C / (1 - beta), transient factor beta per step applied to the
    initial mean squared distance (truncated excess under point_mass).
    """
    beta = _check_beta(beta)
    c = _check_nonneg(noise_energy, "noise energy")
    e0 = _check_nonneg(initial_ms, "initial mean square")
    asym = 2.0 * c / (1.0 - beta)
    eff = max(0.0, e0 - asym) if point_mass else e0
    inputs = {"beta": beta, "C": c, "initial": e0, "point_mass": point_mass,
              "initial_effective": eff}
    return BoundReport(regime="discrete-ms", asymptotic_bound=asym,
                       transient_rate_per_step=beta, inputs=inputs)


def classify_regime(beta: float, lam: float, tau: float) -> str:
    """Regime tag for a hybrid pair: sign of the continuous rate, and for
    expanding systems the per-dwell product beta * exp(2|lam|tau) against 1
    (within relative tolerance 1e-12 for the equality branch)."""
    beta = _check_beta(beta)
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0.0:
        raise ParameterRange(f"dwell time must be finite and > 0, got {tau}")
    lam = _check_rate(lam)
    if lam > 0.0:
        return "hybrid-contracting"
    if lam == 0.0:
        return "hybrid-neutral"
    r2 = _per_dwell_product(beta, lam, tau)
    if abs(r2 - 1.0) <= CRITICAL_REL_TOL:
        return "hybrid-expanding-critical"
    return "hybrid-expanding-bounded" if r2 < 1.0 else "hybrid-expanding-unbounded"


def _per_dwell_product(beta: float, lam: float, tau: float) -> float:
    """r = beta exp(-2 lam tau), a hybrid's per-dwell transient factor for every
    sign of lam (r1 contracting, r2 expanding); inf where the exponential
    overflows the floats and beta is a normal float: there
    r > beta * max_float >= 4.  Where beta is 0 or subnormal, the overflow
    raises OverflowError, as r is then unknown."""
    exponent = -2.0 * lam * tau
    if exponent > _LOG_MAX and beta >= sys.float_info.min:
        return math.inf
    return beta * math.exp(exponent)


def hybrid_bound(beta: float, lam: float, noise_energy_reset: float,
                 noise_energy_flow: float, tau: float, initial_ms: float) -> BoundReport:
    """Hybrid bound in the regime that `classify_regime` assigns.

    - contracting (lam > 0): asymptote C1, transient factor r1 per dwell;
    - neutral (lam = 0): asymptote C2, transient factor beta per dwell;
    - expanding, r2 < 1: asymptote C3, transient factor r2 per dwell;
    - expanding, r2 = 1 (within 1e-12 relative): linear growth per dwell,
      echoed as `growth_per_dwell`;
    - expanding, r2 > 1: no finite bound, also where exp(2|lam|tau)
      overflows the floats (r2 is then echoed as inf, printed as null).

    C1 and C3 are one expression in |lam|, r = r1 or r2 and the flow factor
    g = max(1, exp(-2 lam tau)), which also gives the critical growth.
    Expanding inputs within 1e-9 of the equality branch, but off it, carry a
    proximity warning.  `inputs` echoes r1 (contracting) or r2 (expanding).
    """
    regime = classify_regime(beta, lam, tau)
    beta, lam, tau = float(beta), float(lam), float(tau)
    c_d = _check_nonneg(noise_energy_reset, "reset noise energy")
    c_c = _check_nonneg(noise_energy_flow, "flow noise energy")
    e0 = _check_nonneg(initial_ms, "initial mean square")
    inputs = {"beta": beta, "lam": lam, "C_d": c_d, "C_c": c_c, "tau": tau,
              "initial_ms": e0}
    if regime == "hybrid-neutral":
        inputs["lam"] = 0.0
        asym = (2.0 * c_d + 2.0 * beta * (1.0 - beta) * c_c * tau) / (1.0 - beta) ** 2
        return BoundReport(regime=regime, asymptotic_bound=asym, transient_rate_per_step=beta,
                           inputs=inputs)
    alam, r = abs(lam), _per_dwell_product(beta, lam, tau)  # one r for either sign
    inputs["r1" if lam > 0.0 else "r2"] = r
    asym, rate, warnings = math.inf, 1.0, ()
    if lam < 0.0 and regime != "hybrid-expanding-critical" \
            and abs(r - 1.0) <= NEAR_CRITICAL_REL_TOL:
        warnings = (f"per-dwell product beta*exp(2|lam|tau) = {r!r} is within 1e-9 "
                    "of the equality branch; the classification is numerically fragile",)
    if regime != "hybrid-expanding-unbounded":  # r is at most about 1
        g = max(1.0, math.exp(-2.0 * lam * tau))  # the most a dwell's flow scales a mean square by
    if regime in ("hybrid-contracting", "hybrid-expanding-bounded"):
        asym = (2.0 * alam * c_d + (1.0 - beta) * (1.0 + beta - r) * g * c_c) \
            / (alam * (1.0 - beta) * (1.0 - r))
        rate = r
    elif regime == "hybrid-expanding-critical":
        # the post-reset sequence's increment per dwell when r2 is exactly 1
        inputs["growth_per_dwell"] = 2.0 * c_d / (1.0 - beta) \
            + beta * (c_c / alam) * (g - 1.0)
    return BoundReport(regime=regime, asymptotic_bound=asym, transient_rate_per_step=rate,
                       inputs=inputs, warnings=warnings)


def continuous_bound_at(lam: float, noise_energy_flow: float, initial_ms: float,
                        t: float) -> float:
    """Mean-square bound for a diffusion pair without resets: the flow map
    Phi_t(E0) (`_flow_map`), which hybrid bounds apply from each reset.  It is
    finite in every regime, and +inf only where exp(-2 lam t) overflows."""
    lam = _check_rate(lam)
    c_c = _check_nonneg(noise_energy_flow, "flow noise energy")
    e0 = _check_nonneg(initial_ms, "initial mean square")
    if not t >= 0:  # NaN too
        raise ValueError(f"time must be >= 0, got {t}")
    return _flow_map(lam, c_c, e0, t)


def certified_bound(cert, start, reset=None, tau=None,
                    noise_free: bool = False) -> BoundReport:
    """The mean-square bound that certificates give a pair started at `start`,
    from E0 = initial_ms(start, cert.metric): a discrete certificate gives
    `discrete_ms_bound` (point mass from an InitialPointPair), a continuous
    one a flow-contracting, -neutral or -expanding report read as
    `continuous_bound_at`, and a continuous one with the `reset` certificate
    of a hybrid, in the same metric, and its dwell time `tau`, `hybrid_bound`.
    With noise_free only one copy injects noise, so every noise energy is
    halved."""
    if reset is not None and (cert.kind, reset.kind) != ("continuous", "discrete"):
        raise ValueError("a hybrid takes flow and reset certificates, "
                         f"got {cert.kind} and {reset.kind}")
    if reset is not None and not np.array_equal(cert.metric.value(), reset.metric.value()):
        raise ValueError("a hybrid's flow and reset certificates must share one metric, got "
                         f"{cert.metric.value().tolist()} and {reset.metric.value().tolist()}")
    if (reset is None) != (tau is None):
        missing = "tau" if tau is None else "reset"
        raise ValueError(f"a hybrid takes both a reset certificate and tau; {missing} is missing")
    e0 = initial_ms(start, cert.metric)
    rate, c = cert.rate, cert.noise_bound / 2.0 if noise_free else cert.noise_bound
    if cert.kind == "discrete":
        report = discrete_ms_bound(rate, c, e0, point_mass=isinstance(start, InitialPointPair))
    elif reset is not None:
        c_d = reset.noise_bound / 2.0 if noise_free else reset.noise_bound
        report = hybrid_bound(reset.rate, rate, c_d, c, tau, e0)
    else:  # a flow without resets
        rate, c = _check_rate(rate), _check_nonneg(c, "flow noise energy")
        e0 = _check_nonneg(e0, "initial mean square")
        contracting = rate > 0.0
        regime = ("flow-contracting" if contracting else "flow-neutral" if rate == 0.0
                  else "flow-expanding")
        report = BoundReport(regime=regime, asymptotic_bound=c / rate if contracting else math.inf,
                             transient_rate_per_step=math.exp(-2.0 * rate) if contracting else 1.0,
                             inputs={"lam": rate, "C_c": c, "initial_ms": e0})
    return replace(report, noise_free=True) if noise_free else report
