"""Named ready-to-run systems: builders, certificates, bounds, sim defaults.

Every entry resolves a parameter dict against declared defaults, builds the
system object, states its analytic certificate (these examples are simple
enough that rates and noise energies are exact), and evaluates the matching
closed-form bound.  The CLI and the test suite both go through this registry,
so a name on the command line and a name in a test mean the same system.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (apply_noisefree_corollary, classify_regime, continuous_bound_at,
                     discrete_distance_bound, discrete_ms_bound, hybrid_bound)
from .certify import ContractionCertificate, SamplingRegion, estimate_continuous_rate
from .cpg import (CPGParams, build_cpg_system, coupling_contraction_factor,
                  locking_condition, theoretical_delta_bound)
from .simulate import InitialBox, InitialPointPair
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
    default pair initializer (a point pair or an independent-uniform box) with
    `initial_ms` its exact mean squared separation; `certificate_json` and
    `bound_json` evaluate the analytic certificate and the closed-form bound
    as JSON-ready dicts.  `bound_report` returns the checkable mean-square
    bound for a pair ensemble: a BoundReport, a (time, side) -> value callable
    for flows, or None when no pair bound applies.  `sim_defaults` seeds the
    simulate subcommand (step_size None means dwell/100 for hybrid systems).
    """

    name: str
    kind: str  # "discrete" | "continuous" | "hybrid"
    description: str
    defaults: dict
    sim_defaults: dict
    build: Callable[[dict], object]
    initial: Callable[[dict], InitialPointPair | InitialBox]
    initial_ms: Callable[[dict], float]
    certificate_json: Callable[[dict], dict]
    bound_json: Callable[[dict, bool], dict]
    bound_report: Callable[[dict, bool], object]


def _identity_cert(kind: str, rate: float, noise: float, dimension: int) -> dict:
    cert = ContractionCertificate(kind=kind, rate=rate, noise_bound=noise,
                                  metric=MetricSpec.identity(dimension), region=None,
                                  is_global_claim=True)
    return cert.to_json_dict()


def _flow_bound_json(rate: float, noise_energy: float, initial_ms: float,
                     noise_free: bool) -> dict:
    """Closed-form pair bound for a flow without resets.

    Contracting flows settle at noise_energy / rate with decay exponent
    2 * rate; neutral flows grow linearly at 2 * noise_energy per unit time;
    expanding flows admit no finite bound.
    """
    c = noise_energy / 2.0 if noise_free else noise_energy
    if rate > 0.0:
        regime, asym, growth = "flow-contracting", c / rate, None
    elif rate == 0.0:
        regime, asym, growth = "flow-neutral", None, 2.0 * c
    else:
        regime, asym, growth = "flow-expanding", None, None
    return {"regime": regime, "rate": rate, "noise_energy": c,
            "initial_ms": initial_ms, "asymptotic_bound": asym,
            "finite": asym is not None, "decay_exponent": 2.0 * rate if rate > 0 else None,
            "linear_growth_per_time": growth, "noise_free": noise_free}


def _flow_bound_fn(rate: float, noise_energy: float, initial_ms: float,
                   noise_free: bool) -> Callable[[float, str], float]:
    c = noise_energy / 2.0 if noise_free else noise_energy
    return lambda t, side: continuous_bound_at(rate, c, initial_ms, t)


def _point_pair(p: dict) -> InitialPointPair:
    return InitialPointPair(a=np.array([p["init_a"]]), b=np.array([p["init_b"]]))


def _point_pair_ms(p: dict) -> float:
    return (p["init_a"] - p["init_b"]) ** 2


# --- scalar noisy linear map -------------------------------------------------

def _linear_map_build(p: dict) -> DiscreteMapSystem:
    rho, sigma = p["rho"], p["sigma"]
    gain = np.array([[sigma]])
    return DiscreteMapSystem(
        dimension=1,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: gain,
        noise=GaussianNoiseSpec(1),
        jacobian=lambda x, k: np.array([[rho]]),
        vectorized=True,
        name="linear-map")


def _linear_map_report(p: dict, noise_free: bool):
    ms = discrete_ms_bound(p["rho"] ** 2, p["sigma"] ** 2, _point_pair_ms(p), point_mass=True)
    return apply_noisefree_corollary(ms) if noise_free else ms


def _linear_map_bounds(p: dict, noise_free: bool) -> dict:
    dist = discrete_distance_bound(p["rho"] ** 2, p["sigma"] ** 2,
                                   abs(p["init_a"] - p["init_b"]), point_mass=True)
    if noise_free:
        dist = apply_noisefree_corollary(dist)
    return {"mean_square": _linear_map_report(p, noise_free).to_json_dict(),
            "mean_distance": dist.to_json_dict()}


_LINEAR_MAP = SystemRecipe(
    name="linear-map",
    kind="discrete",
    description="scalar noisy linear map x <- rho x + sigma w",
    defaults={"rho": 0.5, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 60.0, "step_size": None, "pair_count": 2000,
                  "record_every": 1},
    build=_linear_map_build,
    initial=_point_pair,
    initial_ms=_point_pair_ms,
    certificate_json=lambda p: _identity_cert("discrete", p["rho"] ** 2,
                                              p["sigma"] ** 2, 1),
    bound_json=_linear_map_bounds,
    bound_report=_linear_map_report)


# --- scalar linear SDE (mean-reverting for a > 0) ----------------------------

def _ou_build(p: dict) -> ContinuousSDESystem:
    a, sigma = p["a"], p["sigma"]
    diff = np.array([[sigma]])
    return ContinuousSDESystem(
        dimension=1,
        drift=lambda x, t: -a * np.asarray(x, dtype=float),
        diffusion=lambda x, t: diff,
        noise_dim=1,
        jacobian=lambda x, t: np.array([[-a]]),
        vectorized=True,
        name="ou1d")


_OU1D = SystemRecipe(
    name="ou1d",
    kind="continuous",
    description="scalar linear SDE dx = -a x dt + sigma dW",
    defaults={"a": 1.0, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 10.0, "step_size": 0.01, "pair_count": 1000,
                  "record_every": 10},
    build=_ou_build,
    initial=_point_pair,
    initial_ms=_point_pair_ms,
    certificate_json=lambda p: _identity_cert("continuous", p["a"], p["sigma"] ** 2, 1),
    bound_json=lambda p, nf: _flow_bound_json(p["a"], p["sigma"] ** 2, _point_pair_ms(p), nf),
    bound_report=lambda p, nf: _flow_bound_fn(p["a"], p["sigma"] ** 2, _point_pair_ms(p), nf))


# --- scalar Brownian motion ---------------------------------------------------

def _brownian_build(p: dict) -> ContinuousSDESystem:
    diff = np.array([[p["sigma"]]])
    return ContinuousSDESystem(
        dimension=1,
        drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x, t: diff,
        noise_dim=1,
        jacobian=lambda x, t: np.zeros((1, 1)),
        vectorized=True,
        name="brownian")


_BROWNIAN = SystemRecipe(
    name="brownian",
    kind="continuous",
    description="scalar Brownian motion dx = sigma dW (neutral flow)",
    defaults={"sigma": 1.0, "init_a": 0.0, "init_b": 0.0},
    sim_defaults={"horizon": 2.0, "step_size": 0.01, "pair_count": 2000,
                  "record_every": 10},
    build=_brownian_build,
    initial=_point_pair,
    initial_ms=_point_pair_ms,
    certificate_json=lambda p: _identity_cert("continuous", 0.0, p["sigma"] ** 2, 1),
    bound_json=lambda p, nf: _flow_bound_json(0.0, p["sigma"] ** 2, _point_pair_ms(p), nf),
    bound_report=lambda p, nf: _flow_bound_fn(0.0, p["sigma"] ** 2, _point_pair_ms(p), nf))


# --- scalar linear hybrid -----------------------------------------------------

def _hybrid_linear_build(p: dict) -> HybridSystem:
    a, sigma_c, rho, sigma_d = p["a"], p["sigma_c"], p["rho"], p["sigma_d"]
    diff = np.array([[sigma_c]])
    gain = np.array([[sigma_d]])
    continuous = ContinuousSDESystem(
        dimension=1,
        drift=lambda x, t: a * np.asarray(x, dtype=float),
        diffusion=lambda x, t: diff,
        noise_dim=1,
        jacobian=lambda x, t: np.array([[a]]),
        vectorized=True,
        name="linear-flow")
    reset = DiscreteMapSystem(
        dimension=1,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: gain,
        noise=GaussianNoiseSpec(1),
        jacobian=lambda x, k: np.array([[rho]]),
        vectorized=True,
        name="linear-reset")
    return HybridSystem(continuous=continuous, reset=reset, dwell_time=p["tau"],
                        name="hybrid-linear")


def _hybrid_linear_initial_ms(p: dict) -> float:
    # independent uniforms on the same interval
    return (p["init_high"] - p["init_low"]) ** 2 / 6.0


def _hybrid_linear_cert(p: dict) -> dict:
    beta = p["rho"] ** 2
    lam = -p["a"]
    return {"flow": _identity_cert("continuous", lam, p["sigma_c"] ** 2, 1),
            "reset": _identity_cert("discrete", beta, p["sigma_d"] ** 2, 1),
            "regime": classify_regime(beta, lam, p["tau"])}


def _hybrid_linear_report(p: dict, noise_free: bool):
    report = hybrid_bound(p["rho"] ** 2, -p["a"], p["sigma_d"] ** 2,
                          p["sigma_c"] ** 2, p["tau"], _hybrid_linear_initial_ms(p))
    return apply_noisefree_corollary(report) if noise_free else report


_HYBRID_LINEAR = SystemRecipe(
    name="hybrid-linear",
    kind="hybrid",
    description="scalar flow dx = a x dt + sigma_c dW with reset x <- rho x + sigma_d w",
    defaults={"a": -1.0, "rho": 0.5, "sigma_c": 1.0, "sigma_d": 1.0, "tau": 0.5,
              "init_low": -1.0, "init_high": 1.0},
    sim_defaults={"horizon": 10.0, "step_size": None, "pair_count": 1000,
                  "record_every": 1},
    build=_hybrid_linear_build,
    initial=lambda p: InitialBox(lows=np.array([p["init_low"]]),
                                 highs=np.array([p["init_high"]])),
    initial_ms=_hybrid_linear_initial_ms,
    certificate_json=_hybrid_linear_cert,
    bound_json=lambda p, nf: _hybrid_linear_report(p, nf).to_json_dict(),
    bound_report=_hybrid_linear_report)


# --- oscillator ring ----------------------------------------------------------

def _cpg_params(p: dict) -> CPGParams:
    return CPGParams(gamma=p["gamma"], sigma_d=p["sigma_d"], sigma_c=p["sigma_c"],
                     tau=p["tau"], omega=p["omega"])


def _cpg_cert(p: dict) -> dict:
    params = _cpg_params(p)
    system = build_cpg_system(params)
    region = SamplingRegion.ball(np.zeros(6), radius=1.5, sample_count=64, seed=0)
    sampled = estimate_continuous_rate(system.continuous, None, region)
    holds, beta, threshold = locking_condition(params)
    flow = ContractionCertificate(kind="continuous", rate=-1.0,
                                  noise_bound=6.0 * params.sigma_c ** 2,
                                  metric=MetricSpec.identity(6), region=region,
                                  is_global_claim=True,
                                  rate_argmax=sampled.argmax).to_json_dict()
    flow["sampled_rate"] = sampled.value
    return {"flow": flow,
            "transverse_reset_factor": coupling_contraction_factor(params.gamma),
            "full_reset_factor": 1.0,
            "locking_condition": {"holds": holds, "beta": beta,
                                  "threshold": threshold}}


def _cpg_bounds(p: dict, noise_free: bool) -> dict:
    if noise_free:
        raise ValueError("the ring bound already uses one-sided noise accounting; "
                         "--noise-free does not apply to hopf-cpg")
    return theoretical_delta_bound(_cpg_params(p)).to_json_dict()


_HOPF_CPG = SystemRecipe(
    name="hopf-cpg",
    kind="hybrid",
    description="three planar limit-cycle oscillators with rotating-wave coupling resets",
    defaults={"gamma": 0.2, "sigma_d": 0.05, "sigma_c": 0.1, "tau": 0.1, "omega": 1.0},
    sim_defaults={"horizon": 5.0, "step_size": None, "pair_count": 256,
                  "record_every": 1},
    build=lambda p: build_cpg_system(_cpg_params(p)),
    initial=lambda p: InitialBox(lows=np.full(6, -1.0), highs=np.full(6, 1.0)),
    initial_ms=lambda p: 4.0,
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
    non-numeric values."""
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
        params[key] = float(value)
    return params


def dwell_step_default(recipe: SystemRecipe, params: dict) -> float | None:
    """Default integrator step: declared value, or dwell/100 for hybrid systems."""
    step = recipe.sim_defaults.get("step_size")
    if step is None and recipe.kind == "hybrid":
        return params["tau"] / 100.0
    return step
