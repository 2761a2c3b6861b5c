"""Sampling regions and sampled contraction certificates."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from concert import (
    ContinuousSDESystem,
    DimensionMismatch,
    DiscreteMapSystem,
    GaussianNoiseSpec,
    MetricSpec,
    NotPositiveDefinite,
    STRONG_COUPLING,
    SamplingRegion,
    build_cpg_system,
    certify_continuous,
    certify_discrete,
    estimate_continuous_rate,
    estimate_discrete_rate,
    noise_bound_continuous,
    noise_bound_discrete,
)
from concert.certify import _scrambled_halton


class TestSamplingRegion:
    def test_box_samples_in_bounds_and_deterministic(self):
        region = SamplingRegion.box([-1.0, 0.0], [1.0, 2.0], sample_count=128, seed=3)
        s = region.samples()
        assert s.shape == (128, 2)
        assert np.all(s[:, 0] >= -1.0) and np.all(s[:, 0] <= 1.0)
        assert np.all(s[:, 1] >= 0.0) and np.all(s[:, 1] <= 2.0)
        assert np.array_equal(s, region.samples())
        again = SamplingRegion.box([-1.0, 0.0], [1.0, 2.0], sample_count=128, seed=3)
        assert np.array_equal(s, again.samples())

    def test_box_seed_changes_samples(self):
        a = SamplingRegion.box([0.0], [1.0], sample_count=32, seed=0).samples()
        b = SamplingRegion.box([0.0], [1.0], sample_count=32, seed=1).samples()
        assert not np.array_equal(a, b)

    def test_ball_center_prepended_and_radius_respected(self):
        center = np.array([1.0, -2.0, 0.5])
        region = SamplingRegion.ball(center, radius=0.7, sample_count=100, seed=5)
        s = region.samples()
        assert s.shape == (101, 3)
        assert np.array_equal(s[0], center)
        assert np.all(np.linalg.norm(s - center, axis=1) <= 0.7 + 1e-12)

    def test_points_passthrough(self):
        pts = [[0.0, 1.0], [2.0, 3.0]]
        region = SamplingRegion.points(pts)
        assert np.array_equal(region.samples(), np.asarray(pts))
        assert region.sample_count == 2

    def test_json_round_trip(self):
        for region in (
            SamplingRegion.box([0.0], [1.0], sample_count=8, seed=2),
            SamplingRegion.ball([0.0, 0.0], radius=1.0, sample_count=8, seed=2),
            SamplingRegion.points([[1.0, 2.0]]),
        ):
            d = region.to_json_dict()
            json.dumps(d)
            assert d["kind"] == region.kind
            assert d["dimension"] == region.dimension

    def test_scipy_loads_only_when_a_region_is_sampled(self):
        # a fresh interpreter running this checkout's source tree: importing
        # the package and CLI runs that sample no region leave SciPy unloaded
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = """
import contextlib, io, sys
import numpy as np
import concert
import concert.cli
def loaded():
    print(sorted(m for m in ("scipy.stats", "scipy.special") if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert concert.cli.main(["bounds", "hybrid-linear"]) == 0
    assert concert.cli.main(["simulate", "linear-map", "--ensemble", "8",
                             "--horizon", "5"]) == 0
loaded()
concert.SamplingRegion.box(-np.ones(6), np.ones(6), 64, seed=0).samples()
loaded()
concert.SamplingRegion.ball(np.zeros(6), 1.5, 64, seed=0).samples()
loaded()
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        before, after_box, after_ball = proc.stdout.splitlines()
        assert before == "[]"
        assert after_box == "[]"
        assert after_ball == "['scipy.special']"

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_halton_matches_scipy_bit_for_bit(self, seed):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for d in range(1, 10):
            for n in (1, 64, 257):
                expected = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
                assert np.array_equal(_scrambled_halton(d, n, seed), expected), (d, n)


def linear_map_system(rho=0.5, dim=1):
    return DiscreteMapSystem(
        dimension=dim,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: np.eye(dim),
        noise=GaussianNoiseSpec(dim))


def ou_system(a=1.0, sigma=1.0, dim=1):
    return ContinuousSDESystem(
        dimension=dim,
        drift=lambda x, t: -a * np.asarray(x, dtype=float),
        diffusion=lambda x, t: sigma * np.eye(dim),
        noise_dim=dim)


class TestEstimateDiscreteRate:
    def test_linear_map_rate_is_rho_squared(self):
        region = SamplingRegion.box([-2.0], [2.0], sample_count=64, seed=0)
        est = estimate_discrete_rate(linear_map_system(0.5), None, region)
        assert est.value == pytest.approx(0.25, abs=1e-8)
        assert float(est) == est.value

    def test_metric_pair_rescales_rate(self):
        # input metric 4I, output metric I: F = rho/2 so the factor is rho^2/4
        region = SamplingRegion.box([-1.0, -1.0], [1.0, 1.0], sample_count=32, seed=0)
        system = linear_map_system(0.5, dim=2)
        pair = (MetricSpec.constant(4.0 * np.eye(2)), MetricSpec.identity(2))
        est = estimate_discrete_rate(system, pair, region)
        assert est.value == pytest.approx(0.25 / 4.0, abs=1e-8)

    def test_sampled_sup_regression_value(self):
        # frozen determinism check: 1.1 sin(x) over [-1, 1], 512 samples, seed 0.
        # The exact sup of (1.1 cos x)^2 is 1.21 at x = 0; the sampled value
        # sits just below it at the sample nearest the origin.
        system = DiscreteMapSystem(
            dimension=1,
            map=lambda x, k: 1.1 * np.sin(np.asarray(x, dtype=float)),
            noise_gain=lambda x, k: np.eye(1),
            noise=GaussianNoiseSpec(1))
        region = SamplingRegion.box([-1.0], [1.0], sample_count=512, seed=0)
        est = estimate_discrete_rate(system, None, region)
        assert est.value == pytest.approx(1.209998849294923, rel=1e-12)
        assert est.value < 1.21
        assert abs(est.argmax[0]) < 0.01


class TestEstimateContinuousRate:
    def test_ou_rate_is_decay_coefficient(self):
        region = SamplingRegion.box([-3.0], [3.0], sample_count=64, seed=0)
        est = estimate_continuous_rate(ou_system(a=1.7), None, region)
        assert est.value == pytest.approx(1.7, abs=1e-8)

    def test_ring_ball_center_gives_exact_rate(self):
        # the flow linearization at the origin expands at rate +1, so the
        # reported contraction rate at the prepended center is exactly -1
        ring = build_cpg_system(STRONG_COUPLING)
        region = SamplingRegion.ball(np.zeros(6), radius=1.5, sample_count=64, seed=0)
        est = estimate_continuous_rate(ring.continuous, None, region)
        assert est.value == -1.0
        assert np.linalg.norm(est.argmax) == 0.0

    def test_sign_convention_positive_means_contracting(self):
        region = SamplingRegion.points([[0.0]])
        contracting = estimate_continuous_rate(ou_system(a=2.0), None, region)
        expanding = estimate_continuous_rate(ou_system(a=-2.0), None, region)
        assert contracting.value == pytest.approx(2.0)
        assert expanding.value == pytest.approx(-2.0)

    def test_metric_of_wrong_dimension_rejected(self):
        region = SamplingRegion.points([[0.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            estimate_continuous_rate(ou_system(dim=2), np.eye(3), region)


class TestNoiseBounds:
    def test_discrete_state_dependent_gain_sup_exact(self):
        system = DiscreteMapSystem(
            dimension=1,
            map=lambda x, k: 0.5 * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: np.array(
                [[1.0 + float(np.asarray(x).ravel()[0]) ** 2]]),
            noise=GaussianNoiseSpec(1))
        region = SamplingRegion.points([[0.0], [2.0], [-1.0]])
        nb = noise_bound_discrete(system, None, region)
        assert nb.value == pytest.approx(25.0, rel=1e-12)
        assert nb.argmax[0] == pytest.approx(2.0)

    def test_discrete_noise_covariance_enters_trace(self):
        system = DiscreteMapSystem(
            dimension=2,
            map=lambda x, k: 0.5 * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: np.eye(2),
            noise=GaussianNoiseSpec(2, covariance=np.diag([4.0, 9.0])))
        region = SamplingRegion.points([[0.0, 0.0]])
        nb = noise_bound_discrete(system, None, region)
        assert nb.value == pytest.approx(13.0, rel=1e-12)

    def test_continuous_trace_with_metric(self):
        system = ou_system(a=1.0, sigma=2.0, dim=2)
        metric = MetricSpec.constant(np.diag([3.0, 1.0]))
        region = SamplingRegion.points([[0.0, 0.0]])
        nb = noise_bound_continuous(system, metric, region)
        # tr(sigma^T M sigma) = 4 * (3 + 1)
        assert nb.value == pytest.approx(16.0, rel=1e-12)

    def test_indefinite_metric_matrix_rejected(self):
        # diag(1, -1) would cancel the two noise channels to an energy of 0
        region = SamplingRegion.points([[0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            noise_bound_continuous(ou_system(dim=2), np.diag([1.0, -1.0]), region)


class TestCertificates:
    def test_discrete_certificate_sampled(self):
        region = SamplingRegion.box([-1.0], [1.0], sample_count=32, seed=0)
        cert = certify_discrete(linear_map_system(0.5), region)
        assert cert.kind == "discrete"
        assert cert.rate == pytest.approx(0.25, abs=1e-8)
        assert cert.noise_bound == pytest.approx(1.0, rel=1e-12)
        assert not cert.is_global_claim

    def test_metric_next_defaults_to_metric(self):
        # x -> 0.5 x with unit noise, measured in M = [[4]] at both steps:
        # F = 2 * 0.5 / 2, so the gain is 0.25, and the energy is tr(1 * 4 * 1) = 4
        region = SamplingRegion.box([-1.0], [1.0], sample_count=16, seed=0)
        metric = np.array([[4.0]])
        cert = certify_discrete(linear_map_system(0.5), region, metric=metric)
        assert cert.rate == pytest.approx(0.25, abs=1e-8)
        assert cert.noise_bound == pytest.approx(4.0, rel=1e-12)
        explicit = certify_discrete(linear_map_system(0.5), region, metric=metric,
                                    metric_next=metric)
        assert (cert.rate, cert.noise_bound) == (explicit.rate, explicit.noise_bound)

    def test_analytic_rate_marks_global_claim(self):
        region = SamplingRegion.box([-1.0], [1.0], sample_count=8, seed=0)
        cert = certify_discrete(linear_map_system(0.5), region, analytic_rate=0.25)
        assert cert.is_global_claim
        assert cert.rate == 0.25

    def test_continuous_certificate(self):
        region = SamplingRegion.box([-1.0], [1.0], sample_count=16, seed=0)
        cert = certify_continuous(ou_system(a=1.5, sigma=0.5), region)
        assert cert.kind == "continuous"
        assert cert.rate == pytest.approx(1.5, abs=1e-10)
        assert cert.noise_bound == pytest.approx(0.25, rel=1e-12)

    def test_certificate_json_serializable(self):
        region = SamplingRegion.ball([0.0], radius=1.0, sample_count=8, seed=0)
        cert = certify_continuous(ou_system(), region)
        text = json.dumps(cert.to_json_dict(), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["kind"] == "continuous"
        assert parsed["is_global_claim"] is False
        assert parsed["region"]["kind"] == "ball"
