"""Named ready-to-run systems: builders, certificates, bounds, sim defaults.

Every entry resolves a parameter dict against declared defaults.  A scalar
linear builtin is one or two `_scalar` parts (a hybrid's flow and reset), each
a system together with the certificate that its own coefficients give it
exactly; `_chained` builds the system and derives the printed certificate,
the printed bound and the checked bound from those parts.
The CLI and the test suite both go through this registry, so a name on the
command line and a name in a test mean the same system.
"""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .bounds import BoundReport, certified_bound, classify_regime
from .certify import ContractionCertificate, SamplingRegion, estimate_continuous_rate
from .cpg import (RING_START, STRONG_COUPLING, CPGParams, build_cpg_system, locking_condition,
                  reduced_constants, theoretical_delta_bound)
from .simulate import STEPS_PER_DWELL, InitialBox, InitialPointPair
from .statespace import (ContinuousSDESystem, DiscreteMapSystem, GaussianNoiseSpec,
                         HybridSystem, MetricSpec)


class SystemNotFound(KeyError):
    """Raised when a registry name does not exist; message lists valid names."""


class UnknownParameter(ValueError):
    """Raised when a parameter override does not belong to the chosen system."""


@dataclass(frozen=True)
class SystemRecipe:
    """Everything the CLI needs to drive one named system.

    `build` maps resolved parameters to the system object; `initial` gives the
    default pair initializer (a point pair or an independent-uniform box;
    simulate.initial_ms is its exact mean squared separation); `certificate_json`
    and `bound_json` give what `certify` and `bounds` print.  `bound_report`
    returns the checkable mean-square BoundReport for a pair ensemble, chained
    from the certificate by `certified_bound`, or None when no pair bound
    applies; `bound_json` is its `to_json_dict()` (the ring gives its delta
    summary).  `sim_defaults` seeds the simulate subcommand (step_size None
    means STEPS_PER_DWELL steps per dwell for hybrid systems).
    """

    name: str
    kind: str  # "discrete" | "continuous" | "hybrid"
    defaults: dict
    sim_defaults: dict
    build: Callable[[dict], object]
    initial: Callable[[dict], InitialPointPair | InitialBox]
    certificate_json: Callable[[dict], dict]
    bound_json: Callable[[dict, bool], dict]
    bound_report: Callable[[dict, bool], object]


def _chain_json(cert: ContractionCertificate, reset: ContractionCertificate | None = None,
                tau: float | None = None) -> dict:
    """What `certify` prints of a chain: the certificate alone, or a hybrid's
    flow and reset certificates with the regime of dwell time tau."""
    if reset is None:
        return cert.to_json_dict()
    return {"flow": cert.to_json_dict(), "reset": reset.to_json_dict(),
            "regime": classify_regime(reset.rate, cert.rate, tau)}


def _chained(name: str, kind: str, defaults: dict, sim_defaults: dict,
             initial: Callable[[dict], InitialPointPair | InitialBox],
             parts: Callable[[dict], tuple]) -> SystemRecipe:
    """A recipe whose system, printed certificate, printed bound and checked
    bound all derive from one statement of its parts: parts(p) is
    ((system, cert), None, None), or ((flow, cert), (reset, cert), tau) for a
    hybrid with dwell time tau.  Only `build` joins a hybrid's flow and reset,
    so `certify` and `bounds` report a bad tau through `classify_regime`."""
    def certificates(p: dict) -> tuple:
        (_, cert), reset, tau = parts(p)
        return cert, None if reset is None else reset[1], tau

    def build(p: dict) -> object:
        (system, _), reset, tau = parts(p)
        return system if reset is None else HybridSystem(continuous=system, reset=reset[0],
                                                         dwell_time=tau, name=name)

    def bound_report(p: dict, noise_free: bool) -> BoundReport:
        cert, reset, tau = certificates(p)
        return certified_bound(cert, initial(p), reset, tau, noise_free=noise_free)

    return SystemRecipe(name=name, kind=kind, defaults=defaults, sim_defaults=sim_defaults,
                        build=build, initial=initial,
                        certificate_json=lambda p: _chain_json(*certificates(p)),
                        bound_json=lambda p, nf: bound_report(p, nf).to_json_dict(),
                        bound_report=bound_report)


def _scalar(discrete: bool, coeff: float, sigma: float, name: str) -> tuple:
    """(system, certificate) of the scalar map x <- c x + s w (discrete) or SDE
    dx = c x dt + s dW, c = coeff and s = sigma, with the certificate it meets
    exactly: identity metric, global, squared gain c**2 for the map or rate -c
    for the flow, noise energy s**2."""
    gain = np.array([[sigma]])
    # both take (dimension, map or drift, its noise gain, noise width, jacobian)
    system_type, noise = (DiscreteMapSystem, GaussianNoiseSpec(1)) if discrete \
        else (ContinuousSDESystem, 1)
    system = system_type(1, lambda x, at: coeff * np.asarray(x, dtype=float),
                         lambda x, at: gain, noise, lambda x, at: np.array([[coeff]]),
                         vectorized=True, name=name)
    return system, ContractionCertificate(
        kind="discrete" if discrete else "continuous", rate=coeff ** 2 if discrete else -coeff,
        noise_bound=sigma ** 2, metric=MetricSpec.identity(1), region=None,
        is_global_claim=True)


def _point_pair(p: dict) -> InitialPointPair:
    return InitialPointPair(a=np.array([p["init_a"]]), b=np.array([p["init_b"]]))


# --- the scalar linear builtins: one or two _scalar parts each ---------------

_LINEAR_MAP = _chained(
    "linear-map", "discrete",
    defaults={"rho": 0.5, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 60.0, "step_size": None, "pair_count": 2000,
                  "record_every": 1},
    initial=_point_pair,
    parts=lambda p: (_scalar(True, p["rho"], p["sigma"], "linear-map"), None, None))

# mean-reverting for a > 0
_OU1D = _chained(
    "ou1d", "continuous",
    defaults={"a": 1.0, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 10.0, "step_size": 0.01, "pair_count": 1000,
                  "record_every": 10},
    initial=_point_pair,
    parts=lambda p: (_scalar(False, -p["a"], p["sigma"], "ou1d"), None, None))

# the drift coefficient -0.0 is ou1d's at a = 0
_BROWNIAN = _chained(
    "brownian", "continuous",
    defaults={"sigma": 1.0, "init_a": 0.0, "init_b": 0.0},
    sim_defaults={"horizon": 2.0, "step_size": 0.01, "pair_count": 2000,
                  "record_every": 10},
    initial=_point_pair,
    parts=lambda p: (_scalar(False, -0.0, p["sigma"], "brownian"), None, None))

# flow coefficient a (its rate is -a) on dwells of tau, then reset gain rho
_HYBRID_LINEAR = _chained(
    "hybrid-linear", "hybrid",
    defaults={"a": -1.0, "rho": 0.5, "sigma_c": 1.0, "sigma_d": 1.0, "tau": 0.5,
              "init_low": -1.0, "init_high": 1.0},
    sim_defaults={"horizon": 10.0, "step_size": None, "pair_count": 1000,
                  "record_every": 1},
    initial=lambda p: InitialBox(lows=np.array([p["init_low"]]),
                                 highs=np.array([p["init_high"]])),
    parts=lambda p: (_scalar(False, p["a"], p["sigma_c"], "hybrid-linear-flow"),
                     _scalar(True, p["rho"], p["sigma_d"], "hybrid-linear-reset"), p["tau"]))


# --- oscillator ring ----------------------------------------------------------

def _cpg_cert(p: dict) -> dict:
    """The reduced certificates that the delta bound chains, with the full
    ring flow's rate sampled on a ball around the origin, where it peaks."""
    params = CPGParams(**p)
    out = _chain_json(*reduced_constants(params), params.tau)
    region = SamplingRegion.ball(np.zeros(6), radius=1.5, sample_count=64, seed=0)
    out["flow"]["sampled_rate"] = estimate_continuous_rate(
        build_cpg_system(params).continuous, None, region).value
    holds, beta, threshold = locking_condition(params)
    out["locking_condition"] = {"holds": holds, "beta": beta, "threshold": threshold}
    return out


def _cpg_bounds(p: dict, noise_free: bool) -> dict:
    if noise_free:
        raise ValueError("the ring bound counts the noise of both oscillators of each "
                         "difference; --noise-free does not apply to hopf-cpg")
    return theoretical_delta_bound(CPGParams(**p)).to_json_dict()


_HOPF_CPG = SystemRecipe(
    name="hopf-cpg",
    kind="hybrid",
    defaults=asdict(STRONG_COUPLING),
    sim_defaults={"horizon": 5.0, "step_size": None, "pair_count": 256,
                  "record_every": 1},
    build=lambda p: build_cpg_system(CPGParams(**p)),
    initial=lambda p: RING_START,
    certificate_json=_cpg_cert,
    bound_json=_cpg_bounds,
    # full-state pair distances have no contracting reset (the locked
    # directions pass through the coupling with gain one), so no pair bound
    bound_report=lambda p, nf: None)


BUILTIN_SYSTEMS: dict[str, SystemRecipe] = {
    recipe.name: recipe
    for recipe in (_LINEAR_MAP, _OU1D, _BROWNIAN, _HYBRID_LINEAR, _HOPF_CPG)
}


def get_recipe(name: str) -> SystemRecipe:
    try:
        return BUILTIN_SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise SystemNotFound(f"unknown system {name!r}; available: {known}") from None


def resolve_params(recipe: SystemRecipe, overrides: dict | None = None) -> dict:
    """Merge overrides into the recipe defaults, rejecting unknown keys and
    values that are not finite numbers."""
    return _merge_params(recipe.name, recipe.defaults, overrides)


def _merge_params(name: str, defaults: dict, overrides: dict | None) -> dict:
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            known = ", ".join(sorted(params))
            raise UnknownParameter(f"{name} has no parameter {key!r}; available: {known}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UnknownParameter(
                f"parameter {key!r} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge JSON integers
            raise UnknownParameter(
                f"parameter {key!r} must be a finite number, got {value!r}")
        params[key] = float(value)
    return params


def dwell_step_default(recipe: SystemRecipe, params: dict) -> float | None:
    """Default integrator step: declared value, or STEPS_PER_DWELL steps per
    dwell for hybrid systems."""
    step = recipe.sim_defaults.get("step_size")
    if step is None and recipe.kind == "hybrid":
        return params["tau"] / STEPS_PER_DWELL
    return step
