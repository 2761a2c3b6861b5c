"""One chain from contraction certificate to checked bound.

Every builtin's checkable report is `certified_bound` of its analytic
certificates; these tests pin it, field for field, to the direct constructor
call on the recipe's parameters, in both pairings, and pin each stated
certificate to `certify_*` of the system the recipe builds.  A 2-D map and a
2-D flow that contract only in a weighted metric then run the whole chain in
that metric.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from concert import (
    BetaOutOfRange,
    BoundReport,
    CPGParams,
    ContinuousSDESystem,
    DiscreteMapSystem,
    EnsembleConfig,
    GaussianNoiseSpec,
    InitialPointPair,
    SamplingRegion,
    certified_bound,
    certify_continuous,
    certify_discrete,
    check_bound_respect,
    continuous_bound_at,
    discrete_ms_bound,
    get_recipe,
    hybrid_bound,
    reduced_constants,
    resolve_params,
    run_pair_ensemble,
)

# hybrid-linear off its contracting default, as scripts/cli_digest.py runs it
HYBRID_CONFIGS = {
    "default": {},
    "neutral": {"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0},
    "expanding": {"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763, "tau": 0.65},
    "critical": {"a": 0.5, "rho": 0.951229424500714, "sigma_c": 0.4, "sigma_d": 1.2,
                 "tau": 0.1, "init_low": -0.3, "init_high": 0.3},
    "unbounded": {"a": 1.0, "rho": 0.999, "tau": 5.0},
}

PAIRINGS = pytest.mark.parametrize("noise_free", [False, True], ids=["two-noisy", "noise-free"])


def chained(name: str, overrides: dict, noise_free: bool):
    recipe = get_recipe(name)
    params = resolve_params(recipe, overrides)
    return recipe.bound_report(params, noise_free), params


def energy(c: float, noise_free: bool) -> float:
    return c / 2.0 if noise_free else c


@PAIRINGS
@pytest.mark.parametrize("overrides", [{}, {"init_a": 2.3, "init_b": 0.1}],
                         ids=["default", "inexact-start"])
def test_linear_map(overrides, noise_free):
    report, p = chained("linear-map", overrides, noise_free)
    direct = discrete_ms_bound(p["rho"] ** 2, energy(p["sigma"] ** 2, noise_free),
                               (p["init_a"] - p["init_b"]) ** 2, point_mass=True)
    assert report == replace(direct, noise_free=noise_free)


@PAIRINGS
@pytest.mark.parametrize("name, overrides, rate", [
    ("ou1d", {}, 1.0), ("ou1d", {"a": 0.0}, 0.0), ("ou1d", {"a": -0.5}, -0.5),
    ("brownian", {}, 0.0), ("brownian", {"init_a": 0.5, "init_b": -0.25}, 0.0)])
def test_flows(name, overrides, rate, noise_free):
    report, p = chained(name, overrides, noise_free)
    c = energy(p["sigma"] ** 2, noise_free)
    e0 = (p["init_a"] - p["init_b"]) ** 2
    regime = ("flow-contracting" if rate > 0 else "flow-neutral" if rate == 0
              else "flow-expanding")
    direct = BoundReport(regime=regime,
                         asymptotic_bound=c / rate if rate > 0 else math.inf,
                         transient_rate_per_step=math.exp(-2.0 * rate) if rate > 0 else 1.0,
                         inputs={"lam": rate, "C_c": c, "initial_ms": e0},
                         noise_free=noise_free)
    assert report == direct
    for t in (0.0, 0.01, 1.0, 10.0):
        assert report(t, "interior") == continuous_bound_at(rate, c, e0, t)


@PAIRINGS
@pytest.mark.parametrize("tag", list(HYBRID_CONFIGS))
def test_hybrid_linear(tag, noise_free):
    report, p = chained("hybrid-linear", HYBRID_CONFIGS[tag], noise_free)
    direct = hybrid_bound(p["rho"] ** 2, -p["a"], energy(p["sigma_d"] ** 2, noise_free),
                          energy(p["sigma_c"] ** 2, noise_free), p["tau"],
                          (p["init_high"] - p["init_low"]) ** 2 / 6)
    assert report == replace(direct, noise_free=noise_free)


# the builtins' parameters swept by the certificate check below
SWEEP = {"rho": (0.0, 1.0), "a": (-3.0, 3.0), "sigma": (0.01, 3.0), "sigma_c": (0.01, 3.0),
         "sigma_d": (0.01, 3.0)}


@pytest.mark.parametrize("seed, name", enumerate(["linear-map", "ou1d", "brownian",
                                                  "hybrid-linear"]))
def test_stated_certificates_are_those_of_the_built_system(seed, name):
    """Each builtin states its certificates by hand; `certify_*` of the system
    its recipe builds (for a hybrid, of its flow and its reset) gives the same
    rate and noise energy within one ulp.  The Jacobians and noise gains are
    constant, so one sample is exact."""
    recipe = get_recipe(name)
    region = SamplingRegion.points([[0.5]])
    rng = np.random.default_rng(seed)
    for _ in range(200):
        p = resolve_params(recipe, {key: float(rng.uniform(*SWEEP[key]))
                                    for key in recipe.defaults if key in SWEEP})
        system, stated = recipe.build(p), recipe.certificate_json(p)
        if recipe.kind == "hybrid":
            checks = [(certify_continuous(system.continuous, region), stated["flow"]),
                      (certify_discrete(system.reset, region), stated["reset"])]
        else:
            certify = certify_discrete if recipe.kind == "discrete" else certify_continuous
            checks = [(certify(system, region), stated)]
        for computed, printed in checks:
            assert computed.kind == printed["kind"]
            assert computed.metric.value().tolist() == printed["metric"]["value"]
            for field in ("rate", "noise_bound"):
                x, y = getattr(computed, field), printed[field]
                assert abs(x - y) <= np.spacing(abs(y)), (p, field, x, y)


# a ring coupling whose per-dwell product lies in the critical band of 1, as
# scripts/cli_digest.py runs it
CRITICAL_RING_GAMMA = 0.06459568480243587


@pytest.mark.parametrize("seed", range(3))
def test_ring_prints_the_certificates_its_bound_chains(seed):
    """`certify hopf-cpg` prints the reduced certificates of the planar ring
    difference, which `bounds hopf-cpg` chains with each energy whole (a
    difference takes the noise of two oscillators), and reports a lock
    exactly in the bound's locked regime."""
    recipe = get_recipe("hopf-cpg")
    rng = np.random.default_rng(seed)
    overrides = [{"gamma": CRITICAL_RING_GAMMA}] + [
        {"gamma": float(rng.uniform(0.01, 0.99)), "sigma_d": float(rng.uniform(0.0, 1.0)),
         "sigma_c": float(rng.uniform(0.0, 1.0)), "tau": float(rng.uniform(0.01, 1.0))}
        for _ in range(20)]
    regimes = set()
    for override in overrides:
        p = resolve_params(recipe, override)
        printed, bound = recipe.certificate_json(p), recipe.bound_json(p, False)
        flow, reset = reduced_constants(CPGParams(**p))
        assert printed["flow"].pop("sampled_rate") == -1.0
        assert (printed["flow"], printed["reset"]) == (flow.to_json_dict(),
                                                       reset.to_json_dict())
        inputs = bound["per_difference"]["inputs"]
        assert (inputs["C_c"], inputs["C_d"]) == (flow.noise_bound, reset.noise_bound)
        regime = bound["per_difference"]["regime"]
        assert printed["regime"] == regime
        assert printed["locking_condition"]["holds"] is (regime == "hybrid-expanding-bounded")
        regimes.add(regime)
    assert "hybrid-expanding-critical" in regimes
    assert "hybrid-expanding-bounded" in regimes and "hybrid-expanding-unbounded" in regimes


class TestWeightedMetric:
    """x <- A x + 0.5 w with A = [[0.5, 2], [0, 0.5]]: spectral radius 0.5 but
    a norm above 1, so the map contracts in M, solving A^T M A / 0.6 - M = -I,
    and not in the identity metric."""

    A = np.array([[0.5, 2.0], [0.0, 0.5]])
    START = InitialPointPair(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))

    @pytest.fixture(scope="class")
    def setup(self):
        a = self.A
        m = np.linalg.solve(np.kron(a.T, a.T) / 0.6 - np.eye(4), -np.eye(2).ravel())
        m = m.reshape(2, 2)
        metric = (m + m.T) / 2.0
        system = DiscreteMapSystem(dimension=2, map=lambda x, k: x @ a.T,
                                   noise_gain=lambda x, k: 0.5 * np.eye(2),
                                   noise=GaussianNoiseSpec(2), jacobian=lambda x, k: a,
                                   vectorized=True)
        region = SamplingRegion.box(lows=-np.ones(2), highs=np.ones(2), sample_count=16, seed=0)
        return system, region, metric

    def test_identity_metric_certifies_nothing(self, setup):
        system, region, _ = setup
        cert = certify_discrete(system, region)
        assert cert.rate > 4.0
        with pytest.raises(BetaOutOfRange):
            certified_bound(cert, self.START)

    def test_chain_in_the_metric(self, setup):
        system, region, metric = setup
        assert np.allclose(self.A.T @ metric @ self.A / 0.6 - metric, -np.eye(2))
        report = certified_bound(certify_discrete(system, region, metric=metric), self.START)
        assert report.inputs["beta"] == pytest.approx(0.58795, abs=1e-5)
        assert report.inputs["C"] == pytest.approx(12.7522, abs=1e-4)
        assert report.asymptotic_bound == pytest.approx(61.896, abs=1e-3)
        d = self.START.a - self.START.b
        assert report.inputs["initial"] == pytest.approx(d @ metric @ d, rel=1e-12)

    def test_ensemble_in_the_metric_respects_the_chain(self, setup):
        system, region, metric = setup
        report = certified_bound(certify_discrete(system, region, metric=metric), self.START)
        config = EnsembleConfig(pair_count=20_000, horizon=40, master_seed=0,
                                initial=self.START)
        stats = run_pair_ensemble(system, config, metric=metric)
        check = check_bound_respect(stats, report)
        # t = 0 is left to the rounding of the mean of equal squares
        # (ROADMAP defect 4); every later point is a Monte Carlo test
        assert check.passed[1:].all()
        assert stats.failures == 0
        assert stats.steady_mean < report.asymptotic_bound


class TestWeightedFlow:
    """dx = A x dt + 0.5 dW with A = [[-1, 4], [0, -1]]: the symmetric part of
    A has the eigenvalue 1, so the flow expands the identity metric, and it
    contracts M = [[0.5, 1], [1, 4.5]], which solves A^T M + M A = -I, at the
    rate 1 / (2 lambda_max(M))."""

    A = np.array([[-1.0, 4.0], [0.0, -1.0]])
    M = np.array([[0.5, 1.0], [1.0, 4.5]])
    START = InitialPointPair(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))

    @pytest.fixture(scope="class")
    def setup(self):
        a = self.A
        system = ContinuousSDESystem(dimension=2, drift=lambda x, t: x @ a.T,
                                     diffusion=lambda x, t: 0.5 * np.eye(2), noise_dim=2,
                                     jacobian=lambda x, t: a, vectorized=True)
        region = SamplingRegion.box(lows=-np.ones(2), highs=np.ones(2), sample_count=16, seed=0)
        return system, region

    def test_identity_metric_gives_an_expanding_flow(self, setup):
        system, region = setup
        cert = certify_continuous(system, region)
        assert cert.rate == pytest.approx(-1.0, abs=1e-12)
        assert certified_bound(cert, self.START).regime == "flow-expanding"

    def test_chain_in_the_metric(self, setup):
        system, region = setup
        assert np.array_equal(self.A.T @ self.M + self.M @ self.A, -np.eye(2))
        report = certified_bound(certify_continuous(system, region, metric=self.M), self.START)
        assert report.regime == "flow-contracting"
        lam = 1.0 / (2.0 * np.linalg.eigvalsh(self.M).max())
        assert report.inputs["lam"] == pytest.approx(lam, rel=1e-12)
        assert report.inputs["lam"] == pytest.approx(0.105573, abs=1e-6)
        assert report.inputs["C_c"] == pytest.approx(0.25 * np.trace(self.M), rel=1e-12)
        assert report.inputs["initial_ms"] == pytest.approx(28.0, rel=1e-12)
        assert report.asymptotic_bound == pytest.approx(11.840, abs=1e-3)

    def test_ensemble_in_the_metric_respects_the_chain(self, setup):
        system, region = setup
        report = certified_bound(certify_continuous(system, region, metric=self.M), self.START)
        config = EnsembleConfig(pair_count=4_000, horizon=10.0, master_seed=0,
                                initial=self.START, step_size=0.01, record_every=10)
        stats = run_pair_ensemble(system, config, metric=self.M)
        check = check_bound_respect(stats, report)
        assert check.ok, check.n_violations
        assert check.n_finite == check.n_checked == stats.times.size
        assert stats.failures == 0
