"""Closed-form mean-square and mean-distance noise bounds.

Discrete case: a map with one-step squared gain beta < 1 in the chosen metric
and per-step injected noise energy C admits, for two independently driven
copies,

    E d_k       <= 2 sqrt(C) / (1 - sqrt(beta)) + sqrt(beta)^k E d_0
    E d_k^2     <= 2 C / (1 - beta)             + beta^k      E d_0^2

Hybrid case (diffusion on dwell intervals of length tau, noisy reset at the
boundaries, reset applied at t = 0 first): with continuous rate lambda
(positive contracting, zero neutral, negative expanding) and injected energies
C_d (reset) and C_c (diffusion), the asymptote and per-dwell transient factor
depend on the regime:

    contracting:  C1 = (2 lam C_d + (1-beta)(1+beta-r1) C_c) / (lam (1-beta)(1-r1)),
                  r1 = beta exp(-2 lam tau)
    neutral:      C2 = (2 C_d + 2 beta (1-beta) C_c tau) / (1-beta)^2
    expanding:    r2 = beta exp(2 |lam| tau); bounded iff r2 < 1 with
                  C3 = (2 |lam| C_d + (1-beta)(1+beta-r2) exp(2|lam|tau) C_c)
                       / (|lam| (1-beta)(1-r2));
                  r2 = 1 gives linear growth per dwell, r2 > 1 no finite bound.

`classify_regime` picks the regime and `hybrid_bound` evaluates it; the two
discrete constructors cover maps.  Comparing a noisy copy against a
noise-free one halves every injected energy.

The hybrid asymptotes bound the post-reset sequence.  Checked against exact
second moments of scalar systems, pre-reset and interior samples stay below
them in the contracting regime but can exceed them in the neutral and
expanding ones, an open defect; empirical comparisons on those samples need
parameters inside the validity region (see the test suite).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

DISCRETE_REGIMES = ("discrete-distance", "discrete-ms")
HYBRID_REGIMES = ("hybrid-contracting", "hybrid-neutral", "hybrid-expanding-bounded",
                  "hybrid-expanding-critical", "hybrid-expanding-unbounded")

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


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: regime tag, asymptote, transient factor, input echo.

    `transient_rate_per_step` is the guaranteed per-step (discrete) or
    per-dwell (hybrid) decay factor of the transient term, capped at 1.0 for
    regimes with no guaranteed decay.  `inputs` echoes every number the bound
    was built from; treat it as read-only.
    """

    regime: str
    asymptotic_bound: float
    transient_rate_per_step: float
    inputs: dict = field(repr=False)
    noise_free: bool = False
    warnings: tuple[str, ...] = ()

    def bound_at_step(self, k: int) -> float:
        """Bound value after k steps (discrete regimes only)."""
        if self.regime not in DISCRETE_REGIMES:
            raise ValueError(f"bound_at_step applies to discrete regimes, not {self.regime}")
        if k < 0:
            raise ValueError(f"step index must be >= 0, got {k}")
        rate = self.transient_rate_per_step
        initial = self.inputs["initial_effective"]
        return self.asymptotic_bound + rate**k * initial

    def bound_at_time(self, t: float, side: str = "post") -> float:
        """Bound value at time t (hybrid regimes only).

        `side` disambiguates samples taken exactly at a reset instant: the
        pre-reset sample has one fewer reset applied than floor(t/tau) counts,
        so "pre" steps the dwell exponent back by one there.
        """
        if self.regime not in HYBRID_REGIMES:
            raise ValueError(f"bound_at_time applies to hybrid regimes, not {self.regime}")
        if side not in ("pre", "post", "interior"):
            raise ValueError(f"side must be 'pre', 'post' or 'interior', got {side!r}")
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        tau = self.inputs["tau"]
        k = _dwell_exponent(t, tau, side)
        e0 = self.inputs["initial_ms"]
        if self.regime == "hybrid-contracting":
            lam = self.inputs["lam"]
            beta = self.inputs["beta"]
            return self.asymptotic_bound + e0 * beta**k * math.exp(-2.0 * lam * t)
        if self.regime == "hybrid-neutral":
            return self.asymptotic_bound + e0 * self.inputs["beta"] ** k
        if self.regime == "hybrid-expanding-bounded":
            blowup = math.exp(2.0 * abs(self.inputs["lam"]) * tau)
            return self.asymptotic_bound + e0 * blowup * self.inputs["r2"] ** k
        if self.regime == "hybrid-expanding-critical":
            # Per-dwell linear envelope, inflated by one dwell of growth.
            blowup = math.exp(2.0 * abs(self.inputs["lam"]) * tau)
            slope = self.inputs["growth_per_dwell"]
            interior = (self.inputs["C_c"] / abs(self.inputs["lam"])) * (blowup - 1.0)
            return interior + (k * slope + e0) * blowup
        return math.inf

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
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dwell_exponent(t: float, tau: float, side: str) -> int:
    ratio = t / tau
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        k = int(nearest)
        return max(0, k - 1) if side == "pre" else k
    return int(math.floor(ratio))


def discrete_distance_bound(beta: float, noise_energy: float, initial_distance: float,
                            point_mass: bool = False) -> BoundReport:
    """Mean-distance bound for a discrete noisy pair.

    Asymptote 2 sqrt(C) / (1 - sqrt(beta)), transient factor sqrt(beta) per
    step applied to the initial mean distance.  With point_mass=True (both
    copies start at known points) the transient uses the truncated excess
    max(0, E0 - asymptote), which is the sharper always-valid form there.
    """
    beta = _check_beta(beta)
    c = _check_nonneg(noise_energy, "noise energy")
    e0 = _check_nonneg(initial_distance, "initial distance")
    root_beta = math.sqrt(beta)
    asym = 2.0 * math.sqrt(c) / (1.0 - root_beta)
    eff = max(0.0, e0 - asym) if point_mass else e0
    inputs = {"beta": beta, "C": c, "initial": e0, "point_mass": point_mass,
              "initial_effective": eff}
    return BoundReport(regime="discrete-distance", asymptotic_bound=asym,
                       transient_rate_per_step=root_beta, inputs=inputs)


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
    lam = float(lam)
    if not np.isfinite(lam):
        raise ParameterRange(f"continuous rate must be finite, got {lam}")
    if lam > 0.0:
        return "hybrid-contracting"
    if lam == 0.0:
        return "hybrid-neutral"
    r2 = _per_dwell_product(beta, lam, tau)
    if abs(r2 - 1.0) <= CRITICAL_REL_TOL:
        return "hybrid-expanding-critical"
    return "hybrid-expanding-bounded" if r2 < 1.0 else "hybrid-expanding-unbounded"


def _per_dwell_product(beta: float, lam: float, tau: float) -> float:
    """r2 = beta exp(2|lam|tau) of an expanding hybrid, or inf where the
    exponential overflows the floats and beta is a normal float: there
    r2 > beta * max_float >= 4.  Where beta is 0 or subnormal, the overflow
    raises OverflowError, as r2 is then unknown."""
    exponent = 2.0 * abs(lam) * tau
    if exponent > _LOG_MAX and beta >= sys.float_info.min:
        return math.inf
    return beta * math.exp(exponent)


def hybrid_bound(beta: float, lam: float, noise_energy_reset: float,
                 noise_energy_flow: float, tau: float, initial_ms: float) -> BoundReport:
    """Hybrid bound in the regime that `classify_regime` assigns.

    - contracting (lam > 0): asymptote C1, transient factor r1 per dwell and
      exp(-2 lam t) continuously;
    - neutral (lam = 0): asymptote C2, transient factor beta per dwell;
    - expanding, r2 < 1: asymptote C3, transient exp(2|lam|tau) r2^k;
    - expanding, r2 = 1 (within 1e-12 relative): linear growth per dwell,
      echoed as `growth_per_dwell`;
    - expanding, r2 > 1: no finite bound, also where exp(2|lam|tau)
      overflows the floats (r2 is then echoed as inf, printed as null).

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
    warnings: tuple[str, ...] = ()
    if regime == "hybrid-contracting":
        r1 = beta * math.exp(-2.0 * lam * tau)
        inputs["r1"] = r1
        asym = (2.0 * lam * c_d + (1.0 - beta) * (1.0 + beta - r1) * c_c) \
            / (lam * (1.0 - beta) * (1.0 - r1))
        rate = r1
    elif regime == "hybrid-neutral":
        inputs["lam"] = 0.0
        asym = (2.0 * c_d + 2.0 * beta * (1.0 - beta) * c_c * tau) / (1.0 - beta) ** 2
        rate = beta
    else:
        alam = abs(lam)
        r2 = _per_dwell_product(beta, lam, tau)
        inputs["r2"] = r2
        if regime != "hybrid-expanding-critical" and abs(r2 - 1.0) <= NEAR_CRITICAL_REL_TOL:
            warnings = (f"per-dwell product beta*exp(2|lam|tau) = {r2!r} is within 1e-9 "
                        "of the equality branch; the classification is numerically fragile",)
        asym, rate = math.inf, 1.0
        if regime != "hybrid-expanding-unbounded":  # r2 is at most about 1
            blowup = math.exp(2.0 * alam * tau)
        if regime == "hybrid-expanding-bounded":
            asym = (2.0 * alam * c_d + (1.0 - beta) * (1.0 + beta - r2) * blowup * c_c) \
                / (alam * (1.0 - beta) * (1.0 - r2))
            rate = r2
        elif regime == "hybrid-expanding-critical":
            # Per-dwell increment of the post-reset sequence when the per-dwell
            # product is exactly one.
            inputs["growth_per_dwell"] = 2.0 * c_d / (1.0 - beta) \
                + beta * (c_c / alam) * (blowup - 1.0)
    return BoundReport(regime=regime, asymptotic_bound=asym, transient_rate_per_step=rate,
                       inputs=inputs, warnings=warnings)


def apply_noisefree_corollary(report: BoundReport) -> BoundReport:
    """Bound for a noisy copy tracked against a noise-free one.

    Only one copy injects noise, so every noise energy is halved and the bound
    is re-evaluated in the same regime; the discrete mean-square asymptote
    becomes C / (1 - beta).  Raises ValueError if the report is already the
    noise-free variant.
    """
    if report.noise_free:
        raise ValueError("report already carries the noise-free refinement")
    inp = report.inputs
    if report.regime == "discrete-distance":
        base = discrete_distance_bound(inp["beta"], inp["C"] / 2.0, inp["initial"],
                                       point_mass=inp["point_mass"])
    elif report.regime == "discrete-ms":
        base = discrete_ms_bound(inp["beta"], inp["C"] / 2.0, inp["initial"],
                                 point_mass=inp["point_mass"])
    elif report.regime in HYBRID_REGIMES:
        base = hybrid_bound(inp["beta"], inp["lam"], inp["C_d"] / 2.0,
                            inp["C_c"] / 2.0, inp["tau"], inp["initial_ms"])
    else:
        raise ValueError(f"unknown regime {report.regime!r}")
    return replace(base, noise_free=True)


def continuous_bound_at(lam: float, noise_energy_flow: float, initial_ms: float,
                        t: float) -> float:
    """Mean-square bound for a diffusion pair without resets.

    For rate lam > 0: C_c/lam + E0 exp(-2 lam t); for lam = 0 the linear
    envelope 2 C_c t + E0.  Expanding flows admit no finite bound (returns
    +inf); these are the within-dwell comparison bounds the hybrid constants
    are built from.
    """
    lam = float(lam)
    c_c = _check_nonneg(noise_energy_flow, "flow noise energy")
    e0 = _check_nonneg(initial_ms, "initial mean square")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if lam > 0.0:
        return c_c / lam + e0 * math.exp(-2.0 * lam * t)
    if lam == 0.0:
        return 2.0 * c_c * t + e0
    return math.inf
