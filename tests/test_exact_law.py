"""The exact mean-square law of a linear builtin's pair ensemble (the oracle
helpers.exact_ms) against the printed bound, the simulated ensemble and the
closed forms of the scalar recurrences."""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from concert import EnsembleConfig, MetricSpec, run_pair_ensemble
from concert.systems import dwell_step_default, get_recipe, resolve_params
from helpers import exact_ms

MODES = ("two-noisy", "noisy-vs-noisefree")
LINEAR_BUILTINS = ("linear-map", "ou1d", "brownian", "hybrid-linear")


def cli_config(recipe, params, mode, pair_count=None, seed=0):
    """The EnsembleConfig that `concert simulate` runs the recipe at."""
    sim = recipe.sim_defaults
    return EnsembleConfig(pair_count=pair_count or sim["pair_count"], horizon=sim["horizon"],
                          master_seed=seed, initial=recipe.initial(params),
                          step_size=dwell_step_default(recipe, params), pairing_mode=mode,
                          record_every=sim["record_every"])


class TestThePrintedBoundHoldsTheLaw:
    """The linear map's law lies below its printed bound at every step.  Flows
    and hybrids are left out: there the engine's Euler-Maruyama law exceeds
    the SDE bound that is printed (direction 1 of the roadmap)."""

    CONFIGS = 300
    # the law's recurrence and the bound's closed form round apart: where the
    # start lies above the asymptote the two are equal in exact arithmetic,
    # and this sweep's law exceeds the bound there by up to 19 units in its
    # last place
    ULPS = 32

    @pytest.mark.parametrize("mode", MODES)
    def test_linear_map_over_a_seeded_sweep(self, mode):
        recipe = get_recipe("linear-map")
        rng = np.random.default_rng(37)
        rounded_above = 0
        for i in range(self.CONFIGS):
            a, b = rng.uniform(-5.0, 5.0, 2).tolist()
            params = resolve_params(recipe, {
                "rho": float(rng.uniform(-0.99, 0.99)),
                "sigma": 0.0 if i % 25 == 0 else float(10.0 ** rng.uniform(-3.0, 0.5)),
                "init_a": a, "init_b": a if i % 10 == 0 else b})
            law = exact_ms(recipe.build(params), cli_config(recipe, params, mode, 1))
            report = recipe.bound_report(params, mode == "noisy-vs-noisefree")
            bound = np.array([report(float(k)) for k in range(law.size)])
            assert (law <= bound + self.ULPS * np.spacing(law)).all(), (params, mode)
            rounded_above += np.count_nonzero(law > bound)
        assert rounded_above > 0  # the comparison is tight: the allowance is used


class TestTheEnsembleFollowsTheLaw:
    """Each linear builtin's CLI ensemble, at a fixed seed and in both pairing
    modes, lies within a two-sided Bonferroni z of the exact law at every
    sample whose standard error is above 0."""

    ALPHA = 1e-3

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", LINEAR_BUILTINS)
    def test_at_the_cli_defaults(self, name, mode):
        recipe = get_recipe(name)
        params = resolve_params(recipe)
        config = cli_config(recipe, params, mode, seed=37)
        system = recipe.build(params)
        stats = run_pair_ensemble(system, config)
        law = exact_ms(system, config)
        assert law.shape == stats.mean_sq.shape and stats.failures == 0
        spread = stats.stderr > 0.0
        z = NormalDist().inv_cdf(1.0 - self.ALPHA / (2.0 * np.count_nonzero(spread)))
        scores = (stats.mean_sq[spread] - law[spread]) / stats.stderr[spread]
        assert np.abs(scores).max() <= z, (name, mode, float(np.abs(scores).max()), z)
        # a point pair's start is known, so its one sample without spread is t = 0
        assert np.count_nonzero(~spread) == (0 if name == "hybrid-linear" else 1)


class TestTheLawIsTheClosedForm:
    REL = 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_the_map_law(self, mode):
        recipe = get_recipe("linear-map")
        rng = np.random.default_rng(38)
        noisy = 2.0 if mode == "two-noisy" else 1.0
        for _ in range(50):
            rho, sigma = float(rng.uniform(-0.99, 0.99)), float(rng.uniform(0.0, 3.0))
            a, b = rng.uniform(-5.0, 5.0, 2).tolist()
            params = resolve_params(recipe, {"rho": rho, "sigma": sigma,
                                             "init_a": a, "init_b": b})
            law = exact_ms(recipe.build(params), cli_config(recipe, params, mode, 1))
            asym, k = noisy * sigma**2 / (1.0 - rho**2), np.arange(law.size)
            closed = asym + rho ** (2 * k) * ((a - b) ** 2 - asym)
            np.testing.assert_allclose(law, closed, rtol=self.REL)

    @pytest.mark.parametrize("mode", MODES)
    def test_the_euler_maruyama_flow_law(self, mode):
        recipe = get_recipe("ou1d")
        rng = np.random.default_rng(39)
        noisy = 2.0 if mode == "two-noisy" else 1.0
        for _ in range(8):
            a, sigma = float(rng.uniform(-1.0, 3.0)), float(rng.uniform(0.0, 2.0))
            params = resolve_params(recipe, {"a": a, "sigma": sigma})
            config = cli_config(recipe, params, mode, 1)
            law = exact_ms(recipe.build(params), config)
            h, e, want = config.step_size, 4.0, [4.0]  # the default start pair (1, -1)
            for step in range(1, 1001):
                e = (1.0 - a * h) ** 2 * e + noisy * h * sigma**2
                if step % config.record_every == 0:
                    want.append(e)
            np.testing.assert_allclose(law, want, rtol=self.REL)

    @pytest.mark.parametrize("mode", MODES)
    def test_the_hybrid_law(self, mode):
        # the start, the reset at t = 0, then per dwell 100 flow steps sampled
        # after steps 20, 40, 60, 80 and 100 (the closing pre side), and the
        # closing reset
        recipe = get_recipe("hybrid-linear")
        params = resolve_params(recipe, {"a": 0.7, "rho": -0.6, "sigma_c": 0.4,
                                         "sigma_d": 1.3, "tau": 0.25})
        config = cli_config(recipe, params, mode, 1)
        law = exact_ms(recipe.build(params), config)
        noisy = 2.0 if mode == "two-noisy" else 1.0
        h, e = config.step_size, 4.0 / 6.0  # both members uniform on [-1, 1]
        want = [e, 0.36 * e + noisy * 1.3**2]
        for _ in range(40):
            e = want[-1]
            for step in range(1, 101):
                e = (1.0 + 0.7 * h) ** 2 * e + noisy * h * 0.4**2
                if step % 20 == 0:
                    want.append(e)
            want.append(0.36 * e + noisy * 1.3**2)
        np.testing.assert_allclose(law, want, rtol=self.REL)

    def test_a_metric_scales_the_law(self):
        recipe = get_recipe("hybrid-linear")
        params = resolve_params(recipe)
        config = cli_config(recipe, params, "two-noisy", 1)
        system = recipe.build(params)
        identity = exact_ms(system, config)
        assert exact_ms(system, config, MetricSpec.identity(1)).tolist() == identity.tolist()
        np.testing.assert_allclose(exact_ms(system, config, np.array([[2.5]])), 2.5 * identity,
                                   rtol=self.REL)
        assert math.isclose(identity[0], 4.0 / 6.0)
