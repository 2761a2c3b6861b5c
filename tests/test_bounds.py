"""Closed-form pair bounds: frozen oracles, regime dispatch, error paths.

The named numeric constants below were computed once from the closed-form
expressions with mpmath at 50 digits and frozen; the tests check the float
implementation against them at 1e-12 relative.
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from concert import (
    BetaOutOfRange,
    BoundReport,
    CRITICAL_REL_TOL,
    NEAR_CRITICAL_REL_TOL,
    ParameterRange,
    apply_noisefree_corollary,
    classify_regime,
    continuous_bound_at,
    discrete_distance_bound,
    discrete_ms_bound,
    hybrid_bound,
)

# frozen oracle values (beta, lam, C_d, C_c, tau as noted)
CONTRACTING_ASYM = 4.018804352176084      # beta=0.25 lam=1 C_d=1 C_c=1 tau=1
CONTRACTING_RATE = 0.033833820809153176   # r1 = beta exp(-2 lam tau)
NEUTRAL_ASYM = 10.0                       # beta=0.5 C_d=1 C_c=1 tau=1
EXPANDING_ASYM = 13.161255012675948       # beta=0.25 lam=-1 C_d=1 C_c=1 tau=0.5
EXPANDING_RATE = 0.6795704571147613       # r2 = beta exp(2|lam|tau)


class TestDiscreteBounds:
    def test_distance_asymptote(self):
        report = discrete_distance_bound(0.25, 1.0, 0.0)
        assert report.regime == "discrete-distance"
        assert report.asymptotic_bound == pytest.approx(4.0, rel=1e-12)
        assert report.transient_rate_per_step == pytest.approx(0.5, rel=1e-12)

    def test_ms_asymptote(self):
        report = discrete_ms_bound(0.25, 1.0, 0.0)
        assert report.regime == "discrete-ms"
        assert report.asymptotic_bound == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert report.transient_rate_per_step == pytest.approx(0.25, rel=1e-12)

    def test_bound_at_step_decays_geometrically(self):
        report = discrete_ms_bound(0.25, 1.0, 9.0)
        asym = report.asymptotic_bound
        assert report.bound_at_step(0) == pytest.approx(asym + 9.0)
        assert report.bound_at_step(2) == pytest.approx(asym + 9.0 * 0.25**2)
        # monotone toward the asymptote
        values = [report.bound_at_step(k) for k in range(10)]
        assert all(a >= b >= asym for a, b in zip(values, values[1:]))

    def test_point_mass_truncates_excess(self):
        asym = discrete_ms_bound(0.25, 1.0, 0.0).asymptotic_bound
        below = discrete_ms_bound(0.25, 1.0, asym / 2.0, point_mass=True)
        assert below.inputs["initial_effective"] == 0.0
        assert below.bound_at_step(0) == pytest.approx(asym)
        above = discrete_ms_bound(0.25, 1.0, asym + 5.0, point_mass=True)
        assert above.inputs["initial_effective"] == pytest.approx(5.0)
        assert above.bound_at_step(0) == pytest.approx(asym + 5.0)

    def test_without_point_mass_initial_is_untruncated(self):
        report = discrete_ms_bound(0.25, 1.0, 1.0)
        assert report.inputs["initial_effective"] == 1.0

    def test_beta_zero_admitted(self):
        report = discrete_ms_bound(0.0, 1.0, 1.0)
        assert report.asymptotic_bound == pytest.approx(2.0)
        assert report.bound_at_step(1) == pytest.approx(2.0)

    def test_bound_at_step_rejects_negative(self):
        with pytest.raises(ValueError):
            discrete_ms_bound(0.25, 1.0, 1.0).bound_at_step(-1)

    def test_bound_at_time_rejected_for_discrete(self):
        with pytest.raises(ValueError):
            discrete_ms_bound(0.25, 1.0, 1.0).bound_at_time(1.0)

    def test_mean_distance_bounds_the_exact_scalar_pair(self):
        # `bounds linear-map --both`: x <- rho x + sigma w with the pair started
        # at points a and b.  The difference after k steps is Gaussian with mean
        # rho^k (a - b) and variance 2 sigma^2 (1 - rho^2k) / (1 - rho^2), so its
        # mean absolute value is that of a folded normal.  The two agree at
        # k = 0 and as the noise vanishes, hence the rounding allowance.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(3000):
            rho = rng.uniform(-0.99, 0.99)
            sigma = 10.0 ** rng.uniform(-6.0, 0.5)
            a, b = rng.uniform(-5.0, 5.0, 2)
            report = discrete_distance_bound(rho**2, sigma**2, abs(a - b), point_mass=True)
            for k in range(80):
                mu = rho**k * (a - b)
                sd = math.sqrt(2.0 * sigma**2 * (1.0 - rho ** (2 * k)) / (1.0 - rho**2))
                exact = abs(mu) if sd == 0.0 else (
                    sd * math.sqrt(2.0 / math.pi) * math.exp(-mu**2 / (2.0 * sd**2))
                    + mu * math.erf(mu / (sd * math.sqrt(2.0))))
                assert report.bound_at_step(k) >= exact * (1.0 - 1e-12), (rho, sigma, a, b, k)
                checked += 1
        assert checked == 240_000


class TestClassifyRegime:
    def test_five_branches(self):
        assert classify_regime(0.25, 1.0, 1.0) == "hybrid-contracting"
        assert classify_regime(0.25, 0.0, 1.0) == "hybrid-neutral"
        assert classify_regime(0.25, -1.0, 0.5) == "hybrid-expanding-bounded"
        assert classify_regime(0.25, -1.0, 5.0) == "hybrid-expanding-unbounded"
        # exact-critical construction: beta = exp(-2 |lam| tau)
        tau, lam = 0.7, -1.3
        beta = math.exp(2.0 * lam * tau)
        assert classify_regime(beta, lam, tau) == "hybrid-expanding-critical"

    def test_rejects_bad_inputs(self):
        with pytest.raises(BetaOutOfRange):
            classify_regime(1.0, 1.0, 1.0)
        with pytest.raises(BetaOutOfRange):
            classify_regime(-0.1, 1.0, 1.0)
        with pytest.raises(ParameterRange):
            classify_regime(0.5, math.nan, 1.0)
        with pytest.raises(ParameterRange):
            classify_regime(0.5, 1.0, 0.0)


class TestHybridContracting:
    def test_frozen_oracle(self):
        report = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert report.regime == "hybrid-contracting"
        assert report.asymptotic_bound == pytest.approx(CONTRACTING_ASYM, rel=1e-12)
        assert report.transient_rate_per_step == pytest.approx(CONTRACTING_RATE, rel=1e-12)

    def test_bound_at_time_side_aware(self):
        report = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 8.0)
        tau, beta, lam = 1.0, 0.25, 1.0
        asym = report.asymptotic_bound
        decay = math.exp(-2.0 * lam * tau)
        # at t = tau the pre-reset sample has no reset applied yet
        assert report.bound_at_time(tau, side="pre") == pytest.approx(
            asym + 8.0 * decay)
        assert report.bound_at_time(tau, side="post") == pytest.approx(
            asym + 8.0 * beta * decay)
        # interior samples strictly inside a dwell use floor(t/tau)
        assert report.bound_at_time(1.5, side="interior") == pytest.approx(
            asym + 8.0 * beta * math.exp(-2.0 * lam * 1.5))

    def test_bound_at_time_domain_errors(self):
        report = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            report.bound_at_time(-0.5)
        with pytest.raises(ValueError):
            report.bound_at_time(1.0, side="before")


class TestHybridNeutral:
    def test_frozen_oracle(self):
        report = hybrid_bound(0.5, 0.0, 1.0, 1.0, 1.0, 0.0)
        assert report.regime == "hybrid-neutral"
        assert report.asymptotic_bound == pytest.approx(NEUTRAL_ASYM, rel=1e-12)
        assert report.transient_rate_per_step == pytest.approx(0.5, rel=1e-12)

    def test_transient_decays_by_beta_per_dwell(self):
        report = hybrid_bound(0.5, 0.0, 1.0, 1.0, 1.0, 4.0)
        asym = report.asymptotic_bound
        assert report.bound_at_time(0.0, side="post") == pytest.approx(asym + 4.0)
        assert report.bound_at_time(2.0, side="post") == pytest.approx(
            asym + 4.0 * 0.5**2)


class TestHybridExpanding:
    def test_frozen_oracle_bounded(self):
        report = hybrid_bound(0.25, -1.0, 1.0, 1.0, 0.5, 0.0)
        assert report.regime == "hybrid-expanding-bounded"
        assert report.asymptotic_bound == pytest.approx(EXPANDING_ASYM, rel=1e-12)
        assert report.transient_rate_per_step == pytest.approx(EXPANDING_RATE, rel=1e-12)

    def test_unbounded_regime_infinite(self):
        report = hybrid_bound(0.25, -1.0, 1.0, 1.0, 5.0, 1.0)
        assert report.regime == "hybrid-expanding-unbounded"
        assert math.isinf(report.asymptotic_bound)
        assert math.isinf(report.bound_at_time(3.0))

    def test_critical_regime_linear_growth(self):
        tau, lam = 0.5, -1.0
        beta = math.exp(2.0 * lam * tau)
        report = hybrid_bound(beta, lam, 1.0, 1.0, tau, 0.0)
        assert report.regime == "hybrid-expanding-critical"
        assert math.isinf(report.asymptotic_bound)
        blowup = math.exp(2.0 * abs(lam) * tau)
        slope = 2.0 / (1.0 - beta) + beta * (blowup - 1.0)
        assert report.inputs["growth_per_dwell"] == pytest.approx(slope, rel=1e-12)
        # envelope grows linearly in the dwell count
        b1 = report.bound_at_time(1 * tau, side="post")
        b5 = report.bound_at_time(5 * tau, side="post")
        b9 = report.bound_at_time(9 * tau, side="post")
        assert b5 - b1 == pytest.approx(b9 - b5, rel=1e-9)
        assert b5 > b1

    def test_near_critical_warning(self):
        tau, lam = 0.5, -1.0
        beta = math.exp(2.0 * lam * tau) * (1.0 + 1e-10)
        report = hybrid_bound(beta, lam, 1.0, 1.0, tau, 0.0)
        assert report.regime == "hybrid-expanding-unbounded"
        assert len(report.warnings) == 1
        assert "1e-9" in report.warnings[0]

    def test_clearly_separated_inputs_carry_no_warning(self):
        report = hybrid_bound(0.25, -1.0, 1.0, 1.0, 0.5, 0.0)
        assert report.warnings == ()

    def test_overflowing_blowup_is_unbounded(self):
        # exp(2 |lam| tau) overflows past exponent log(max float) = 709.78...;
        # r2 = beta exp(...) then exceeds beta * max_float >= 4 for any normal beta
        for beta, lam, tau in ((0.25, -1000.0, 0.5), (0.52, -1.0, 1000.0),
                               (0.25, -1e200, 0.5), (sys.float_info.min, -355.0, 1.0)):
            assert classify_regime(beta, lam, tau) == "hybrid-expanding-unbounded"
            report = hybrid_bound(beta, lam, 1.0, 1.0, tau, 0.0)
            assert report.regime == "hybrid-expanding-unbounded"
            assert report.inputs["r2"] == math.inf and report.warnings == ()
            assert math.isinf(report.bound_at_time(3.0 * tau))
            text = json.dumps(report.to_json_dict(), allow_nan=False)
            assert json.loads(text)["inputs"]["r2"] is None
            halved = apply_noisefree_corollary(report)
            assert halved.regime == "hybrid-expanding-unbounded"

    def test_overflow_with_unknown_product_still_raises(self):
        # beta = 0 or subnormal: beta * exp(...) may be at most 1, so r2 is unknown
        for beta in (0.0, 5e-324, sys.float_info.min / 2.0):
            with pytest.raises(OverflowError):
                classify_regime(beta, -1000.0, 0.5)
            with pytest.raises(OverflowError):
                hybrid_bound(beta, -1000.0, 1.0, 1.0, 0.5, 0.0)

    def test_products_that_do_not_overflow_keep_their_bits(self):
        # every input that classified before the overflow rule keeps its regime
        # and its r2, up to the largest exponent whose exponential is finite
        rng = np.random.default_rng(14)
        log_max = math.log(sys.float_info.max)
        exponents = [*rng.uniform(0.0, log_max, 400), log_max]
        for exponent, beta in zip(exponents, rng.uniform(0.0, 1.0, len(exponents))):
            lam, tau = -exponent / 2.0, 1.0
            r2 = beta * math.exp(2.0 * abs(lam) * tau)
            expected = ("hybrid-expanding-critical" if abs(r2 - 1.0) <= CRITICAL_REL_TOL
                        else "hybrid-expanding-bounded" if r2 < 1.0
                        else "hybrid-expanding-unbounded")
            assert classify_regime(beta, lam, tau) == expected
            assert hybrid_bound(beta, lam, 1.0, 1.0, tau, 0.0).inputs["r2"] == r2

    def test_tolerance_constants_exposed(self):
        assert CRITICAL_REL_TOL == 1e-12
        assert NEAR_CRITICAL_REL_TOL == 1e-9
        assert CRITICAL_REL_TOL < NEAR_CRITICAL_REL_TOL


class TestHybridInputs:
    """One constructor serves every regime; its input echo and warnings
    differ only by the regime's own extras."""

    COMMON = {"beta", "lam", "C_d", "C_c", "tau", "initial_ms"}
    TAU, LAM = 0.5, -1.0
    CRITICAL_BETA = math.exp(2.0 * LAM * TAU)

    @pytest.mark.parametrize("beta, lam, tau, regime, extras, warned", [
        (0.25, 1.0, 1.0, "hybrid-contracting", {"r1"}, False),
        (0.5, 0.0, 1.0, "hybrid-neutral", set(), False),
        (0.25, LAM, TAU, "hybrid-expanding-bounded", {"r2"}, False),
        (CRITICAL_BETA, LAM, TAU, "hybrid-expanding-critical",
         {"r2", "growth_per_dwell"}, False),
        (0.25, LAM, 5.0, "hybrid-expanding-unbounded", {"r2"}, False),
        (CRITICAL_BETA * (1.0 - 1e-10), LAM, TAU, "hybrid-expanding-bounded", {"r2"}, True),
    ])
    def test_keys_and_warnings_per_regime(self, beta, lam, tau, regime, extras, warned):
        report = hybrid_bound(beta, lam, 1.0, 1.0, tau, 0.0)
        assert report.regime == regime
        assert set(report.inputs) == self.COMMON | extras
        assert len(report.warnings) == (1 if warned else 0)
        if warned:
            assert "1e-9" in report.warnings[0]

    def test_neutral_writes_rate_as_positive_zero(self):
        report = hybrid_bound(0.5, -0.0, 1.0, 1.0, 1.0, 0.0)
        assert report.regime == "hybrid-neutral"
        assert math.copysign(1.0, report.inputs["lam"]) == 1.0

    def test_noise_free_variant_keeps_regime_extras_and_warnings(self):
        beta = self.CRITICAL_BETA * (1.0 + 1e-10)
        base = hybrid_bound(beta, self.LAM, 1.0, 1.0, self.TAU, 0.0)
        halved = apply_noisefree_corollary(base)
        assert halved.noise_free
        assert halved.regime == base.regime
        assert halved.inputs["r2"] == base.inputs["r2"]
        assert halved.warnings == base.warnings


class TestErrorPaths:
    @pytest.mark.parametrize("beta", [-0.01, 1.0, 1.5, math.nan])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(BetaOutOfRange):
            discrete_ms_bound(beta, 1.0, 1.0)

    def test_negative_energies_rejected(self):
        with pytest.raises(ParameterRange):
            discrete_ms_bound(0.5, -1.0, 1.0)
        with pytest.raises(ParameterRange):
            hybrid_bound(0.5, 1.0, -1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ParameterRange):
            hybrid_bound(0.5, 1.0, 1.0, -1.0, 1.0, 0.0)

    def test_nonpositive_dwell_rejected(self):
        with pytest.raises(ParameterRange):
            hybrid_bound(0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterRange):
            hybrid_bound(0.5, 1.0, 1.0, 1.0, -1.0, 0.0)

    def test_negative_initial_rejected(self):
        with pytest.raises(ParameterRange):
            discrete_ms_bound(0.5, 1.0, -1.0)


class TestNoiseFreeCorollary:
    def test_discrete_ms_halves_energy(self):
        base = discrete_ms_bound(0.25, 1.0, 1.0)
        refined = apply_noisefree_corollary(base)
        assert refined.noise_free
        # asymptote becomes C / (1 - beta)
        assert refined.asymptotic_bound == pytest.approx(
            base.asymptotic_bound / 2.0, rel=1e-12)
        assert refined.inputs["C"] == pytest.approx(0.5)

    def test_hybrid_halves_both_energies(self):
        base = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0)
        refined = apply_noisefree_corollary(base)
        assert refined.noise_free
        assert refined.asymptotic_bound == pytest.approx(
            base.asymptotic_bound / 2.0, rel=1e-12)
        assert refined.inputs["C_d"] == pytest.approx(0.5)
        assert refined.inputs["C_c"] == pytest.approx(0.5)

    def test_double_application_rejected(self):
        refined = apply_noisefree_corollary(discrete_ms_bound(0.25, 1.0, 1.0))
        with pytest.raises(ValueError):
            apply_noisefree_corollary(refined)

    def test_unknown_regime_rejected(self):
        fake = BoundReport(regime="other", asymptotic_bound=1.0,
                           transient_rate_per_step=1.0, inputs={})
        with pytest.raises(ValueError):
            apply_noisefree_corollary(fake)


class TestContinuousBoundAt:
    def test_contracting_branch(self):
        assert continuous_bound_at(2.0, 4.0, 1.0, 0.0) == pytest.approx(3.0)
        assert continuous_bound_at(2.0, 4.0, 1.0, 100.0) == pytest.approx(2.0)

    def test_neutral_branch_linear(self):
        assert continuous_bound_at(0.0, 1.0, 0.5, 3.0) == pytest.approx(6.5)

    def test_expanding_branch_infinite(self):
        assert math.isinf(continuous_bound_at(-1.0, 1.0, 0.0, 1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            continuous_bound_at(1.0, 1.0, 0.0, -1.0)


class TestJsonSerialization:
    def test_finite_report(self):
        d = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0).to_json_dict()
        json.dumps(d)
        assert d["finite"] is True
        assert d["asymptotic_bound"] == pytest.approx(CONTRACTING_ASYM)
        assert d["noise_free"] is False

    def test_infinite_bound_becomes_null(self):
        d = hybrid_bound(0.25, -1.0, 1.0, 1.0, 5.0, 1.0).to_json_dict()
        json.dumps(d)
        assert d["finite"] is False
        assert d["asymptotic_bound"] is None


class TestProperties:
    def test_seeded_random_bounds_are_coherent(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            beta = float(rng.uniform(0.0, 0.999))
            lam = float(rng.uniform(-2.0, 2.0))
            tau = float(rng.uniform(0.05, 2.0))
            c_d = float(rng.uniform(0.0, 3.0))
            c_c = float(rng.uniform(0.0, 3.0))
            e0 = float(rng.uniform(0.0, 5.0))
            report = hybrid_bound(beta, lam, c_d, c_c, tau, e0)
            assert report.asymptotic_bound >= 0.0
            for t in (0.0, tau, 2.3 * tau):
                assert report.bound_at_time(t) >= min(report.asymptotic_bound,
                                                      np.inf)
            if math.isfinite(report.asymptotic_bound):
                refined = apply_noisefree_corollary(report)
                assert refined.asymptotic_bound <= report.asymptotic_bound + 1e-12

    def test_discrete_bound_never_below_asymptote(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = float(rng.uniform(0.0, 0.999))
            c = float(rng.uniform(0.0, 4.0))
            e0 = float(rng.uniform(0.0, 9.0))
            report = discrete_ms_bound(beta, c, e0, point_mass=bool(rng.integers(2)))
            for k in (0, 1, 5, 40):
                assert report.bound_at_step(k) >= report.asymptotic_bound - 1e-12
