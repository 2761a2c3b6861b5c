"""Named ready-to-run systems: builders, certificates, bounds, sim defaults.

Every entry resolves a parameter dict against declared defaults, builds the
system object, and states its analytic certificates once (these examples are
simple enough that rates and noise energies are exact); `_chained` derives
the printed certificate, the printed bound and the checked bound from them.
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


def _identity_cert(kind: str, rate: float, noise: float) -> ContractionCertificate:
    return ContractionCertificate(kind=kind, rate=rate, noise_bound=noise,
                                  metric=MetricSpec.identity(1), region=None,
                                  is_global_claim=True)


def _chain_json(cert: ContractionCertificate, reset: ContractionCertificate | None = None,
                tau: float | None = None) -> dict:
    """What `certify` prints of a chain: the certificate alone, or a hybrid's
    flow and reset certificates with the regime of dwell time tau."""
    if reset is None:
        return cert.to_json_dict()
    return {"flow": cert.to_json_dict(), "reset": reset.to_json_dict(),
            "regime": classify_regime(reset.rate, cert.rate, tau)}


def _chained(name: str, kind: str, defaults: dict, sim_defaults: dict,
             build: Callable[[dict], object],
             initial: Callable[[dict], InitialPointPair | InitialBox],
             certificates: Callable[[dict], tuple]) -> SystemRecipe:
    """A recipe whose printed certificate, printed bound and checked bound all
    derive from one statement of its certificates: certificates(p) is (cert,),
    or (flow, reset) for a hybrid with dwell time p["tau"]."""
    def chain(p: dict) -> tuple:
        cert, *reset = certificates(p)
        return (cert, reset[0], p["tau"]) if reset else (cert, None, None)

    def bound_report(p: dict, noise_free: bool) -> BoundReport:
        cert, reset, tau = chain(p)
        return certified_bound(cert, initial(p), reset, tau, noise_free=noise_free)

    return SystemRecipe(name=name, kind=kind, defaults=defaults, sim_defaults=sim_defaults,
                        build=build, initial=initial,
                        certificate_json=lambda p: _chain_json(*chain(p)),
                        bound_json=lambda p, nf: bound_report(p, nf).to_json_dict(),
                        bound_report=bound_report)


def _point_pair(p: dict) -> InitialPointPair:
    return InitialPointPair(a=np.array([p["init_a"]]), b=np.array([p["init_b"]]))


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


_LINEAR_MAP = _chained(
    "linear-map", "discrete",
    defaults={"rho": 0.5, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 60.0, "step_size": None, "pair_count": 2000,
                  "record_every": 1},
    build=_linear_map_build,
    initial=_point_pair,
    certificates=lambda p: (_identity_cert("discrete", p["rho"] ** 2, p["sigma"] ** 2),))


# --- scalar linear SDE (mean-reverting for a > 0) and Brownian motion --------

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


_OU1D = _chained(
    "ou1d", "continuous",
    defaults={"a": 1.0, "sigma": 1.0, "init_a": 1.0, "init_b": -1.0},
    sim_defaults={"horizon": 10.0, "step_size": 0.01, "pair_count": 1000,
                  "record_every": 10},
    build=_ou_build,
    initial=_point_pair,
    certificates=lambda p: (_identity_cert("continuous", p["a"], p["sigma"] ** 2),))

_BROWNIAN = _chained(
    "brownian", "continuous",
    defaults={"sigma": 1.0, "init_a": 0.0, "init_b": 0.0},
    sim_defaults={"horizon": 2.0, "step_size": 0.01, "pair_count": 2000,
                  "record_every": 10},
    build=lambda p: _ou_build({"a": 0.0, "sigma": p["sigma"]}),
    initial=_point_pair,
    certificates=lambda p: (_identity_cert("continuous", 0.0, p["sigma"] ** 2),))


# --- scalar linear hybrid -----------------------------------------------------

def _hybrid_linear_build(p: dict) -> HybridSystem:
    return HybridSystem(continuous=_ou_build({"a": -p["a"], "sigma": p["sigma_c"]}),
                        reset=_linear_map_build({"rho": p["rho"], "sigma": p["sigma_d"]}),
                        dwell_time=p["tau"], name="hybrid-linear")


def _hybrid_linear_start(p: dict) -> InitialBox:
    return InitialBox(lows=np.array([p["init_low"]]), highs=np.array([p["init_high"]]))


_HYBRID_LINEAR = _chained(
    "hybrid-linear", "hybrid",
    defaults={"a": -1.0, "rho": 0.5, "sigma_c": 1.0, "sigma_d": 1.0, "tau": 0.5,
              "init_low": -1.0, "init_high": 1.0},
    sim_defaults={"horizon": 10.0, "step_size": None, "pair_count": 1000,
                  "record_every": 1},
    build=_hybrid_linear_build,
    initial=_hybrid_linear_start,
    certificates=lambda p: (_identity_cert("continuous", -p["a"], p["sigma_c"] ** 2),
                            _identity_cert("discrete", p["rho"] ** 2, p["sigma_d"] ** 2)))


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
        raise ValueError("the ring bound already uses one-sided noise accounting; "
                         "--noise-free does not apply to hopf-cpg")
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
