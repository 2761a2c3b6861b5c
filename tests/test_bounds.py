"""Closed-form pair bounds: frozen oracles, regime dispatch, error paths.

The named numeric constants below were computed once from the closed-form
expressions with mpmath at 50 digits and frozen; the tests check the float
implementation against them at 1e-12 relative.
"""
from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from concert import (
    BetaOutOfRange,
    BoundReport,
    CRITICAL_REL_TOL,
    ContinuousSDESystem,
    ContractionCertificate,
    DiscreteMapSystem,
    GaussianNoiseSpec,
    InitialBox,
    InitialPointPair,
    MetricSpec,
    NEAR_CRITICAL_REL_TOL,
    ParameterRange,
    SamplingRegion,
    certified_bound,
    certify_continuous,
    certify_discrete,
    classify_regime,
    continuous_bound_at,
    discrete_ms_bound,
    estimate_continuous_rate,
    estimate_discrete_rate,
    hybrid_bound,
)

def cert(kind, rate, noise, dimension=1):
    """An exact certificate in the identity metric."""
    return ContractionCertificate(kind=kind, rate=rate, noise_bound=noise,
                                  metric=MetricSpec.identity(dimension), region=None,
                                  is_global_claim=True)


def chained_hybrid(beta, lam, c_d, c_c, tau, noise_free=True):
    """The hybrid bound chained from its certificates, from one start point."""
    return certified_bound(cert("continuous", lam, c_c), InitialPointPair(0.0, 0.0),
                           cert("discrete", beta, c_d), tau, noise_free=noise_free)


# frozen oracle values (beta, lam, C_d, C_c, tau as noted)
CONTRACTING_ASYM = 4.018804352176084      # beta=0.25 lam=1 C_d=1 C_c=1 tau=1
CONTRACTING_RATE = 0.033833820809153176   # r1 = beta exp(-2 lam tau)
NEUTRAL_ASYM = 10.0                       # beta=0.5 C_d=1 C_c=1 tau=1
EXPANDING_ASYM = 13.161255012675948       # beta=0.25 lam=-1 C_d=1 C_c=1 tau=0.5
EXPANDING_RATE = 0.6795704571147613       # r2 = beta exp(2|lam|tau)


class TestDiscreteBounds:
    def test_distance_asymptote(self):
        # the root of the mean-square asymptote bounds the mean distance, below
        # the paper's 2 sqrt(C) / (1 - sqrt(beta)) = 4
        report = discrete_ms_bound(0.25, 1.0, 0.0)
        assert math.sqrt(report.asymptotic_bound) == pytest.approx(math.sqrt(8.0 / 3.0),
                                                                   rel=1e-12)
        assert math.sqrt(report.asymptotic_bound) < 4.0

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

    def test_step_zero_is_never_below_the_initial_mean_square(self):
        # a point-mass start's asym + (E0 - asym) rounds one ulp below E0 in
        # about 1.6% of these cases; the bound at k = 0 takes E0 there
        rng = np.random.default_rng(0)
        cases = rng.uniform((0.0, 0.0, 0.0), (0.99, 5.0, 100.0), size=(100_000, 3))
        below = 0
        for beta, c, e0 in cases.tolist():
            report = discrete_ms_bound(beta, c, e0, point_mass=True)
            value = report.bound_at_step(0)
            below += value < e0
            assert value in (e0, report.asymptotic_bound + report.inputs["initial_effective"])
        assert below == 0

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

    def test_root_of_the_ms_report_bounds_the_exact_scalar_pair(self):
        # `bounds linear-map`: x <- rho x + sigma w with the pair started at
        # points a and b.  The difference after k steps is Gaussian with mean
        # rho^k (a - b) and variance 2 sigma^2 (1 - rho^2k) / (1 - rho^2), so its
        # mean absolute value is that of a folded normal, which the root of the
        # mean-square report bounds by Jensen.  The two agree at k = 0 and as
        # the noise vanishes, hence the rounding allowance.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(3000):
            rho = rng.uniform(-0.99, 0.99)
            sigma = 10.0 ** rng.uniform(-6.0, 0.5)
            a, b = rng.uniform(-5.0, 5.0, 2)
            report = discrete_ms_bound(rho**2, sigma**2, (a - b) ** 2, point_mass=True)
            for k in range(80):
                mu = rho**k * (a - b)
                sd = math.sqrt(2.0 * sigma**2 * (1.0 - rho ** (2 * k)) / (1.0 - rho**2))
                exact = abs(mu) if sd == 0.0 else (
                    sd * math.sqrt(2.0 / math.pi) * math.exp(-mu**2 / (2.0 * sd**2))
                    + mu * math.erf(mu / (sd * math.sqrt(2.0))))
                assert math.sqrt(report.bound_at_step(k)) >= exact * (1.0 - 1e-12), \
                    (rho, sigma, a, b, k)
                checked += 1
        assert checked == 240_000

    def test_root_of_the_ms_report_is_within_the_papers_distance_bound(self):
        # the paper's mean-distance bound of a pair started at two points
        # d0 apart, kept here as the reference the package no longer reports
        rng = np.random.default_rng(26)
        checked = 0
        for i in range(4000):
            if i % 50 == 0:
                beta = 0.0
            elif i % 2:  # near 1, where both asymptotes blow up
                beta = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
            else:
                beta = rng.uniform(0.0, 1.0)
            c = 10.0 ** rng.uniform(-8.0, 4.0)
            d0 = 0.0 if i % 10 == 0 else 10.0 ** rng.uniform(-4.0, 4.0)
            report = discrete_ms_bound(beta, c, d0**2, point_mass=True)
            asym = 2.0 * math.sqrt(c) / (1.0 - math.sqrt(beta))
            for k in range(60):
                paper = asym + math.sqrt(beta) ** k * max(0.0, d0 - asym)
                assert math.sqrt(report.bound_at_step(k)) <= paper * (1.0 + 1e-12), \
                    (beta, c, d0, k)
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
        beta, lam, c_c = 0.25, 1.0, 1.0
        asym = report.asymptotic_bound

        def flow(ms, s):  # Phi_s(ms)
            return math.exp(-2.0 * lam * s) * ms + (c_c / lam) * (1.0 - math.exp(-2.0 * lam * s))

        # the start, before any flow, and just after the reset at t = 0
        assert report.bound_at_time(0.0, side="pre") == pytest.approx(asym + 8.0)
        assert report.bound_at_time(0.0, side="post") == pytest.approx(asym + 8.0)
        # at t = tau the pre-reset sample ends the first dwell
        assert report.bound_at_time(1.0, side="pre") == pytest.approx(flow(asym + 8.0, 1.0))
        r1 = beta * math.exp(-2.0 * lam)
        assert report.bound_at_time(1.0, side="post") == pytest.approx(asym + 8.0 * r1)
        # interior samples flow from the last post-reset bound for t - floor(t/tau) tau
        assert report.bound_at_time(1.5, side="interior") == pytest.approx(
            flow(asym + 8.0 * r1, 0.5))
        # contracting: the flow carries the post-reset bound down within a dwell
        assert report.bound_at_time(1.5, side="interior") < asym + 8.0 * r1

    def test_bound_at_time_domain_errors(self):
        report = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0)
        for t in (-0.5, math.nan):
            with pytest.raises(ValueError, match=r"^time must be >= 0, got "):
                report.bound_at_time(t)
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
            halved = chained_hybrid(beta, lam, 1.0, 1.0, tau)
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


def two_branch_hybrid(beta, lam, c_d, c_c, tau, e0):
    """(regime, asymptote, rate, inputs, warnings) of the hybrid bound with its
    contracting and expanding asymptotes written apart: C1 in
    r1 = beta exp(-2 lam tau), C3 in r2 = beta exp(2 |lam| tau) and the
    blow-up exp(2 |lam| tau), which is never taken where r2 is unbounded."""
    regime = classify_regime(beta, lam, tau)
    inputs = {"beta": beta, "lam": lam, "C_d": c_d, "C_c": c_c, "tau": tau, "initial_ms": e0}
    warnings = ()
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
        exponent = 2.0 * alam * tau
        r2 = math.inf if exponent > math.log(sys.float_info.max) \
            and beta >= sys.float_info.min else beta * math.exp(exponent)
        inputs["r2"] = r2
        if regime != "hybrid-expanding-critical" and abs(r2 - 1.0) <= NEAR_CRITICAL_REL_TOL:
            warnings = (f"per-dwell product beta*exp(2|lam|tau) = {r2!r} is within 1e-9 "
                        "of the equality branch; the classification is numerically fragile",)
        asym, rate = math.inf, 1.0
        if regime != "hybrid-expanding-unbounded":
            blowup = math.exp(2.0 * alam * tau)
        if regime == "hybrid-expanding-bounded":
            asym = (2.0 * alam * c_d + (1.0 - beta) * (1.0 + beta - r2) * blowup * c_c) \
                / (alam * (1.0 - beta) * (1.0 - r2))
            rate = r2
        elif regime == "hybrid-expanding-critical":
            inputs["growth_per_dwell"] = 2.0 * c_d / (1.0 - beta) \
                + beta * (c_c / alam) * (blowup - 1.0)
    return regime, asym, rate, inputs, warnings


def hybrid_cases(count, seed):
    """Seeded hybrid inputs: lam near 0 of both signs, beta 0 and subnormal,
    dwell times at the critical tau = -ln(beta) / (2 |lam|) and 1e-13, 5e-10
    and 1e-6 relative off it, and exponents 2 |lam| tau past the floats."""
    rng = random.Random(seed)
    for _ in range(count):
        beta = rng.choice([0.0, 5e-324, 1e-310, rng.random(), 1.0 - 10.0 ** rng.uniform(-15, -1)])
        lam = rng.choice([-1.0, 1.0]) * rng.choice(
            [0.0, 10.0 ** rng.uniform(-320, -4), 10.0 ** rng.uniform(-4, 3)])
        pick = rng.randrange(3)
        if pick == 0 and beta > 0.0 and lam != 0.0:
            off = rng.choice([0.0, 1e-13, 5e-10, 1e-6]) * rng.choice([-1.0, 1.0])
            tau = -math.log(beta) / (2.0 * abs(lam)) * (1.0 + off)
        else:
            tau = 10.0 ** (rng.uniform(1, 300) if pick == 1 else rng.uniform(-3, 1))
        c_d, c_c, e0 = (rng.choice([0.0, rng.random(), 10.0 ** rng.uniform(-5, 5)])
                        for _ in range(3))
        yield beta, lam, c_d, c_c, tau, e0


class TestOneHybridAsymptote:
    def test_equals_the_two_branch_expressions_by_repr(self):
        # regime, asymptote, rate, every echo in its order, and every warning,
        # or the same error: an unknown r2, a dwell time past the floats, or a
        # denominator that underflows to 0
        def outcome(evaluate, case):
            try:
                return repr(evaluate(*case))
            except (ArithmeticError, ValueError) as err:
                return repr(err)

        def one_expression(*case):
            report = hybrid_bound(*case)
            return (report.regime, report.asymptotic_bound, report.transient_rate_per_step,
                    report.inputs, report.warnings)

        seen = Counter()
        for case in hybrid_cases(20_000, seed=33):
            want = outcome(two_branch_hybrid, case)
            assert outcome(one_expression, case) == want, case
            seen[want.split("'")[1]] += 1
            seen["warned"] += "numerically fragile" in want
        # every regime, and the errors and warnings, are reached
        assert set(seen) >= {"hybrid-contracting", "hybrid-neutral", "hybrid-expanding-bounded",
                             "hybrid-expanding-critical", "hybrid-expanding-unbounded", "warned"}
        assert seen["warned"] > 0 and min(seen.values()) >= 20, seen


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
        halved = chained_hybrid(beta, self.LAM, 1.0, 1.0, self.TAU)
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


class TestNoiseFreeChain:
    def test_discrete_ms_halves_energy(self):
        base = discrete_ms_bound(0.25, 1.0, 1.0, point_mass=True)
        refined = certified_bound(cert("discrete", 0.25, 1.0), InitialPointPair(1.0, 0.0),
                                  noise_free=True)
        assert refined.noise_free
        # asymptote becomes C / (1 - beta)
        assert refined.asymptotic_bound == pytest.approx(
            base.asymptotic_bound / 2.0, rel=1e-12)
        assert refined.inputs["C"] == pytest.approx(0.5)

    def test_hybrid_halves_both_energies(self):
        base = hybrid_bound(0.25, 1.0, 1.0, 1.0, 1.0, 0.0)
        refined = chained_hybrid(0.25, 1.0, 1.0, 1.0, 1.0)
        assert refined.noise_free
        assert refined.asymptotic_bound == pytest.approx(
            base.asymptotic_bound / 2.0, rel=1e-12)
        assert refined.inputs["C_d"] == pytest.approx(0.5)
        assert refined.inputs["C_c"] == pytest.approx(0.5)

    def test_flow_halves_its_energy(self):
        start = InitialPointPair(1.0, -1.0)
        base, refined = (certified_bound(cert("continuous", 2.0, 4.0), start, noise_free=nf)
                         for nf in (False, True))
        assert (base.noise_free, refined.noise_free) == (False, True)
        assert (base.asymptotic_bound, refined.asymptotic_bound) == (2.0, 1.0)
        assert refined(0.5, "interior") == continuous_bound_at(2.0, 2.0, 4.0, 0.5)


class TestCertifiedBound:
    """One chain from certificates to the checkable report: each kind of
    certificate reaches its constructor with E0 = initial_ms(start, metric)."""

    def test_discrete_certificate_is_the_ms_bound(self):
        for start, e0, point_mass in ((InitialPointPair(2.0, -1.0), 9.0, True),
                                      (InitialBox(-1.0, 2.0), 9.0 / 6, False)):
            report = certified_bound(cert("discrete", 0.25, 1.0), start)
            assert report == discrete_ms_bound(0.25, 1.0, e0, point_mass=point_mass)

    def test_hybrid_certificates_are_the_hybrid_bound(self):
        report = chained_hybrid(0.25, -1.0, 1.0, 2.0, 0.5, noise_free=False)
        assert report == hybrid_bound(0.25, -1.0, 1.0, 2.0, 0.5, 0.0)

    @pytest.mark.parametrize("lam, regime, asymptote, rate", [
        (2.0, "flow-contracting", 2.0, math.exp(-4.0)),
        (0.0, "flow-neutral", math.inf, 1.0),
        (-1.0, "flow-expanding", math.inf, 1.0)])
    def test_continuous_certificate_is_the_flow_map(self, lam, regime, asymptote, rate):
        report = certified_bound(cert("continuous", lam, 4.0), InitialPointPair(1.0, -1.0))
        assert (report.regime, report.asymptotic_bound, report.transient_rate_per_step) \
            == (regime, asymptote, rate)
        assert report.inputs == {"lam": lam, "C_c": 4.0, "initial_ms": 4.0}
        for t in (0.0, 0.3, 2.0):
            for side in ("pre", "post", "interior"):
                assert report(t, side) == continuous_bound_at(lam, 4.0, 4.0, t)

    def test_a_flow_report_is_read_at_times_only(self):
        report = certified_bound(cert("continuous", 1.0, 1.0), InitialPointPair(0.0, 0.0))
        with pytest.raises(ValueError, match="discrete regimes"):
            report.bound_at_step(1)
        with pytest.raises(ValueError, match="time must be >= 0"):
            report(-1.0)

    def test_a_reset_needs_a_flow_certificate_and_a_discrete_one(self):
        flow, discrete = cert("continuous", 1.0, 1.0), cert("discrete", 0.25, 1.0)
        for first, reset, tau, match in (
                (discrete, discrete, 0.5, "flow and reset certificates"),
                (flow, flow, 0.5, "flow and reset certificates"),
                (flow, discrete, None, "tau is missing"),
                (flow, None, 0.5, "reset is missing"),
                (discrete, None, 0.5, "reset is missing")):
            with pytest.raises(ValueError, match=match):
                certified_bound(first, InitialPointPair(0.0, 0.0), reset, tau)

    def test_a_flow_whose_jacobian_is_nan_everywhere_is_rejected(self):
        # no sample has a value, so there is no rate to certify
        system = ContinuousSDESystem(dimension=1, drift=lambda x, t: -x,
                                     diffusion=lambda x, t: np.eye(1), noise_dim=1,
                                     jacobian=lambda x, t: np.full((1, 1), np.nan))
        region = SamplingRegion.box(lows=-np.ones(1), highs=np.ones(1), sample_count=8, seed=0)
        with pytest.raises(ValueError, match=r"^no sample of the box region has a value"):
            certify_continuous(system, region)
        with pytest.raises(ValueError, match=r"^no sample of the box region has a value"):
            estimate_continuous_rate(system, None, region)

    def test_a_map_whose_jacobian_is_nan_everywhere_is_rejected(self):
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: 0.5 * x,
                                   noise_gain=lambda x, k: np.eye(1), noise=GaussianNoiseSpec(1),
                                   jacobian=lambda x, k: np.full((1, 1), np.nan))
        region = SamplingRegion.box(lows=-np.ones(1), highs=np.ones(1), sample_count=8, seed=0)
        with pytest.raises(ValueError, match=r"^no sample of the box region has a value"):
            certify_discrete(system, region)
        with pytest.raises(ValueError, match=r"^no sample of the box region has a value"):
            estimate_discrete_rate(system, None, region)

    def test_a_hybrid_takes_its_two_certificates_in_one_metric(self):
        # dx = -x dt + 0.1 dW between resets x <- 0.5 x + w, tau 0.5: the
        # flow certified in M = 4 and the reset in I chained to a false bound
        flow = ContinuousSDESystem(dimension=1, drift=lambda x, t: -x,
                                   diffusion=lambda x, t: np.array([[0.1]]), noise_dim=1,
                                   jacobian=lambda x, t: np.array([[-1.0]]))
        reset = DiscreteMapSystem(dimension=1, map=lambda x, k: 0.5 * x,
                                  noise_gain=lambda x, k: np.eye(1), noise=GaussianNoiseSpec(1),
                                  jacobian=lambda x, k: np.array([[0.5]]))
        region = SamplingRegion.points([[0.0]])
        four = MetricSpec.constant(np.array([[4.0]]))
        start = InitialPointPair(np.zeros(1), np.zeros(1))
        flow_cert = certify_continuous(flow, region, four)
        with pytest.raises(ValueError, match=r"one metric, got \[\[4\.0\]\] and \[\[1\.0\]\]$"):
            certified_bound(flow_cert, start, certify_discrete(reset, region), 0.5)
        report = certified_bound(flow_cert, start, certify_discrete(reset, region, four), 0.5)
        assert report.regime == "hybrid-contracting"
        assert report.asymptotic_bound == pytest.approx(11.798053174435527, rel=1e-12)

    def test_a_nan_flow_rate_is_rejected(self):
        with pytest.raises(ParameterRange, match=r"^continuous rate must be finite, got nan$"):
            certified_bound(cert("continuous", math.nan, 1.0), InitialPointPair(1.0, 0.0))

    def test_a_negative_flow_noise_energy_is_rejected(self):
        for noise_free in (False, True):
            with pytest.raises(ParameterRange, match=r"^flow noise energy must be finite"):
                certified_bound(cert("continuous", 1.0, -2.0), InitialPointPair(1.0, 0.0),
                                noise_free=noise_free)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_continuous_bound_at_rejects_a_rate_that_is_not_finite(self, lam):
        with pytest.raises(ParameterRange, match=r"^continuous rate must be finite, got "):
            continuous_bound_at(lam, 1.0, 0.0, 1.0)

    def test_start_is_measured_in_the_certificate_metric(self):
        metric = MetricSpec.constant(np.array([[2.0, 0.5], [0.5, 1.0]]))
        weighted = ContractionCertificate(kind="discrete", rate=0.25, noise_bound=1.0,
                                          metric=metric, region=None, is_global_claim=True)
        d = np.array([1.0, -2.0])
        report = certified_bound(weighted, InitialPointPair(d, np.zeros(2)))
        assert report.inputs["initial"] == pytest.approx(d @ metric.value() @ d, rel=1e-12)


class TestContinuousBoundAt:
    def test_contracting_branch(self):
        # the flow map from E0 = 1 towards C_c / lam = 2
        assert continuous_bound_at(2.0, 4.0, 1.0, 0.0) == 1.0
        assert continuous_bound_at(2.0, 4.0, 1.0, 0.5) == pytest.approx(
            math.exp(-2.0) + 2.0 * (1.0 - math.exp(-2.0)))
        assert continuous_bound_at(2.0, 4.0, 1.0, 100.0) == pytest.approx(2.0)

    def test_neutral_branch_linear(self):
        assert continuous_bound_at(0.0, 1.0, 0.5, 3.0) == pytest.approx(6.5)

    def test_expanding_branch_finite(self):
        # (C_c / lam)(1 - exp(-2 lam t)) = exp(2) - 1 at lam = -1, t = 1
        assert continuous_bound_at(-1.0, 1.0, 0.0, 1.0) == pytest.approx(math.exp(2.0) - 1.0)
        assert continuous_bound_at(-1.0, 1.0, 2.0, 1.0) == pytest.approx(
            3.0 * math.exp(2.0) - 1.0)
        # infinite only where exp(-2 lam t) overflows the floats
        assert continuous_bound_at(-1.0, 1.0, 0.0, 354.0) < math.inf
        assert continuous_bound_at(-1.0, 1.0, 0.0, 355.0) == math.inf

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match=r"^time must be >= 0, got "):
                continuous_bound_at(1.0, 1.0, 0.0, t)

    def test_time_zero_is_the_initial_mean_square(self):
        # at t = 0 the flow map is E0 itself, also where C_c / lam overflows
        # and the closed form reads inf * 0; elsewhere it is that form, bit for bit
        def closed_form(lam, c_c, e0):
            return math.exp(-2.0 * lam * 0.0) * e0 - (c_c / lam) * math.expm1(-2.0 * lam * 0.0)

        rng = random.Random(11)
        for _ in range(2000):
            lam = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323, 300)
            c_c, e0 = (rng.choice((0.0, 10.0 ** rng.uniform(-300, 300))) for _ in range(2))
            got, old = continuous_bound_at(lam, c_c, e0, 0.0), closed_form(lam, c_c, e0)
            assert repr(got) == repr(e0 if math.isnan(old) else old)
        assert continuous_bound_at(1e-320, 1.0, 1.0, 0.0) == 1.0
        assert hybrid_bound(0.5, 1e-10, 1.0, 1e300, 1.0, 1.0)(0.0, "post") == math.inf


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
            # post-reset samples; a contracting flow carries interior ones below
            for t in (0.0, tau, 2.0 * tau):
                assert report.bound_at_time(t, side="post") >= report.asymptotic_bound
            if math.isfinite(report.asymptotic_bound):
                refined = chained_hybrid(beta, lam, c_d, c_c, tau)
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


def exact_flow(lam, c_c, ms, s):
    """Exact mean square of a scalar linear pair difference after flow time s
    from mean square ms (dE/ds = -2 lam E + 2 C_c), arranged apart from the
    package's flow map: exp(x) ms + 2 C_c s (exp(x) - 1)/x, x = -2 lam s."""
    x = -2.0 * lam * s
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, where the limit is 1
        growth = np.where(x == 0.0, 1.0, np.expm1(x) / x)
    return np.exp(x) * ms + 2.0 * c_c * s * growth


class TestBoundsTheExactMoments:
    """Every bound value against the exact second moment of a scalar linear
    pair (two independently driven copies) at each sample a run records: the
    start, both sides of every reset and interior samples of every dwell."""

    CONFIGS = 2000
    DWELLS = 5
    REL = 1e-12  # rounding only: bound >= exact (1 - REL)

    def hybrid_samples(self, rng, regime):
        """(reports, columns): one report per seeded configuration of the
        regime, and the samples (t, side, exact) of every run, as arrays over
        the configurations.  Critical runs sit exactly on beta = exp(-2|lam|tau)."""
        n = self.CONFIGS
        tau = rng.uniform(0.05, 2.0, n)
        c_d, c_c = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
        e0 = rng.uniform(0.0, 5.0, n)
        if regime == "hybrid-contracting":
            lam = rng.uniform(0.0, 2.0, n)
        elif regime == "hybrid-neutral":
            lam = np.zeros(n)
        else:
            lam = -rng.uniform(0.0, 2.0, n)
        ceiling = np.exp(-2.0 * np.abs(lam) * tau)  # r2 = 1 there
        if regime == "hybrid-expanding-critical":
            beta = ceiling
        elif regime == "hybrid-expanding-bounded":
            beta = ceiling * rng.uniform(0.0, 0.999, n)
        else:
            beta = rng.uniform(0.0, 0.999, n)
        fractions = rng.uniform(0.01, 0.99, (2, n))
        reports = [hybrid_bound(*args) for args in zip(beta.tolist(), lam.tolist(),
                                                       c_d.tolist(), c_c.tolist(),
                                                       tau.tolist(), e0.tolist())]
        columns, pre = [], e0
        for k in range(self.DWELLS + 1):
            post = beta * pre + 2.0 * c_d  # the reset opening dwell k
            columns += [(k * tau, "pre", pre), (k * tau, "post", post)]
            columns += [(k * tau + f * tau, "interior", exact_flow(lam, c_c, post, f * tau))
                        for f in fractions]
            pre = exact_flow(lam, c_c, post, tau)
        return reports, columns

    @pytest.mark.parametrize("regime", ["hybrid-contracting", "hybrid-neutral",
                                        "hybrid-expanding-bounded",
                                        "hybrid-expanding-critical"])
    def test_hybrid_bound_holds_at_every_side(self, regime):
        rng = np.random.default_rng(19)
        reports, columns = self.hybrid_samples(rng, regime)
        assert {report.regime for report in reports} == {regime}
        for t, side, exact in columns:
            bound = np.array([report.bound_at_time(ti, side)
                              for report, ti in zip(reports, t.tolist())])
            assert np.isfinite(bound).all()
            assert (bound >= exact * (1.0 - self.REL)).all(), \
                (side, float(np.max(exact / bound)))

    def test_flow_bound_is_the_exact_moment(self):
        rng = np.random.default_rng(20)
        n = self.CONFIGS
        lam = rng.uniform(-2.0, 2.0, n)
        lam[::10] = 0.0
        c_c, e0 = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 5.0, n)
        horizon = rng.uniform(0.1, 5.0, n)
        for j in range(9):
            t = horizon * j / 8.0
            bound = np.array([continuous_bound_at(*args) for args in zip(
                lam.tolist(), c_c.tolist(), e0.tolist(), t.tolist())])
            exact = exact_flow(lam, c_c, e0, t)
            assert (np.abs(bound - exact) <= self.REL * exact).all()


@pytest.mark.parametrize("a, rho, sigma_c, sigma_d, tau, peak", [
    (-1.0, 0.5, 1.0, 1.0, 0.5, 0.691),  # the CLI default, contracting
    (0.0, 0.5, 1.0, 1.0, 0.2, 0.783),  # neutral
    (1.0, math.sqrt(0.5), 0.3, 1.0, 0.25, 0.494),  # expanding, r2 < 1
])
def test_euler_maruyama_law_stays_below_the_sde_bound(a, rho, sigma_c, sigma_d, tau, peak):
    # A measurement, not a theorem: the CLI checks an Euler-Maruyama ensemble
    # (h = tau/100) against the SDE bound.  The exact EM second moment of the
    # pair difference, E <- (1 + a h)^2 E + 2 h sigma_c^2 per step and
    # E <- rho^2 E + 2 sigma_d^2 per reset, from both members uniform on
    # [-1, 1], peaks at `peak` of the bound on the CLI grid over horizon 10.
    h, e0 = tau / 100.0, 2.0 / 3.0
    report = hybrid_bound(rho**2, -a, sigma_d**2, sigma_c**2, tau, e0)
    samples, ms = [(0.0, "pre", e0)], e0
    for k in range(int(round(10.0 / tau))):
        ms = rho**2 * ms + 2.0 * sigma_d**2
        samples.append((k * tau, "post", ms))
        for step in range(1, 101):
            ms = (1.0 + a * h) ** 2 * ms + 2.0 * h * sigma_c**2
            if step in (20, 40, 60, 80):
                samples.append((k * tau + step * h, "interior", ms))
        samples.append(((k + 1) * tau, "pre", ms))
    ratios = [ms / report(t, side) for t, side, ms in samples]
    assert max(ratios) <= 1.0
    assert max(ratios) == pytest.approx(peak, abs=5e-4)
