"""Sampling regions and sampled contraction certificates."""
from __future__ import annotations

import json
import math
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
from concert.certify import _ndtri, _scrambled_halton
from concert.geometry import numerical_jacobian


def _src_env() -> dict:
    # the environment of a fresh interpreter that imports this checkout's source tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


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
        assert s.shape == (100, 3)
        assert np.array_equal(s[0], center)
        assert np.all(np.linalg.norm(s - center, axis=1) <= 0.7 + 1e-12)
        # the sequence is prefix-stable, and one sample is the center alone
        fewer = SamplingRegion.ball(center, radius=0.7, sample_count=50, seed=5)
        assert np.array_equal(fewer.samples(), s[:50])
        lone = SamplingRegion.ball(center, radius=0.7, sample_count=1, seed=5)
        assert np.array_equal(lone.samples(), center[None])

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
        # the package, CLI runs and sampling a box and a ball leave SciPy
        # unloaded
        proc = subprocess.run([sys.executable, "-c", """
import contextlib, io, sys
import numpy as np
import concert
import concert.cli
def loaded():
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
with contextlib.redirect_stdout(io.StringIO()):
    assert concert.cli.main(["bounds", "hybrid-linear"]) == 0
    assert concert.cli.main(["simulate", "linear-map", "--ensemble", "8",
                             "--horizon", "5"]) == 0
loaded()
concert.SamplingRegion.box(-np.ones(6), np.ones(6), 64, seed=0).samples()
loaded()
concert.SamplingRegion.ball(np.zeros(6), 1.5, 64, seed=0).samples()
loaded()
"""], capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"] * 3

    def test_cli_runs_where_scipy_cannot_be_imported(self, tmp_path):
        # a finder that refuses every scipy module, as on a NumPy-only install
        proc = subprocess.run([sys.executable, "-c", """
import contextlib, io, sys
class NoSciPy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None
sys.meta_path.insert(0, NoSciPy())
import concert.cli
for argv in (["certify", "hopf-cpg"], ["simulate", "ou1d", "--ensemble", "8"],
             ["bounds", "hybrid-linear"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert concert.cli.main(argv) == 0, argv
"""], capture_output=True, text=True, env=_src_env(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_ndtri_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20)
        exp_m2 = math.exp(-2.0)
        y = np.concatenate([
            rng.uniform(size=400_000),
            10.0 ** rng.uniform(-300.0, 0.0, 300_000),  # the lower tail, both branches
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 200_000),  # the upper tail
            exp_m2 + rng.uniform(-1e-9, 1e-9, 40_000),  # the branch points
            1.0 - exp_m2 + rng.uniform(-1e-9, 1e-9, 40_000),
            math.exp(-32.0) * (1.0 + rng.uniform(-1e-6, 1e-6, 20_000)),
            np.clip(rng.uniform(size=20_000), 1e-12, 1.0 - 1e-12),  # as a ball clips
            [0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12, 5e-324, -0.0, -1e-300, -0.5,
             1.0 + 2**-52, 2.0, math.inf, -math.inf, math.nan],
        ])
        got, expected = _ndtri(y), special.ndtri(y)
        assert y.size >= 1_000_000
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))
        assert _ndtri(np.array([[0.5]])).shape == (1, 1)

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


# --- batched suprema against the per-sample loop ------------------------------

def loop_sup(samples, value_at):
    """The per-sample loop the batched suprema replace: the first sample with
    the largest value, NaN values never winning."""
    best, best_at = -np.inf, None
    for x in samples:
        value = value_at(x)
        if value > best:
            best, best_at = value, x
    return best, np.asarray(best_at, dtype=float)


def loop_jacobian(f, x):
    """Central differences at one state, step max(1e-6, 1e-6 |x|)."""
    h = max(1e-6, 1e-6 * float(np.linalg.norm(x)))
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((np.asarray(f(x + step), dtype=float)
                     - np.asarray(f(x - step), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def loop_sups(system, metric, region):
    """(rate, noise energy) of `system` by the per-sample loop, each as
    (value, argmax); rates as the batched estimates report them."""
    n = system.dimension
    discrete = isinstance(system, DiscreteMapSystem)
    arg = 0 if discrete else 0.0
    f = system.map if discrete else system.drift
    spec = MetricSpec.identity(n) if metric is None else MetricSpec.constant(metric)
    theta, m = spec.factor(), spec.value()
    theta_inv = np.linalg.inv(theta)

    def jac(x):
        if system.jacobian is not None:
            return np.asarray(system.jacobian(x, arg), dtype=float)
        return loop_jacobian(lambda y: f(y, arg), x)

    def gain(x):
        fn = system.noise_gain if discrete else system.diffusion
        return np.asarray(fn(x, arg), dtype=float)

    samples = region.samples()
    if discrete:
        q = system.noise.covariance

        def rate(x):
            gen = theta @ jac(x) @ theta_inv
            return float(np.linalg.eigvalsh(gen.T @ gen).max())

        def energy(x):
            g = gain(x)
            return float(np.trace(g.T @ m @ g @ q))

        return loop_sup(samples, rate), loop_sup(samples, energy)

    def top(x):
        gen = (np.zeros((n, n)) + theta @ jac(x)) @ theta_inv
        return float(np.linalg.eigvalsh((gen + gen.T) / 2.0).max())

    def energy(x):
        sig = gain(x)
        return float(np.trace(sig.T @ m @ sig))

    worst = loop_sup(samples, top)
    return (-worst[0], worst[1]), loop_sup(samples, energy)


def batched_sups(system, metric, region):
    if isinstance(system, DiscreteMapSystem):
        rate = estimate_discrete_rate(system, (metric, metric), region)
        noise = noise_bound_discrete(system, metric, region)
    else:
        rate = estimate_continuous_rate(system, metric, region)
        noise = noise_bound_continuous(system, metric, region)
    return (rate.value, rate.argmax), (noise.value, noise.argmax)


def sweep_system(kind, n, rng, vectorized, analytic, shared, matrix_map):
    """A map or flow of dimension n: elementwise, or the matrix map x @ A.T;
    with an analytic Jacobian or none; with a state-dependent (n, n + 1) gain
    or one shared matrix."""
    a = rng.uniform(-1.2, 1.2, (n, n))
    scale = rng.uniform(0.3, 1.5, n)
    g0 = rng.standard_normal((n, n + 1))

    if matrix_map:
        def f(x, arg):
            return np.asarray(x, dtype=float) @ a.T

        def df(x, arg):
            return a
    else:
        def f(x, arg):
            x = np.asarray(x, dtype=float)
            return np.tanh(scale * x) + 0.3 * np.sin(x)

        def df(x, arg):
            x = np.asarray(x, dtype=float)
            d = scale * (1.0 - np.tanh(scale * x) ** 2) + 0.3 * np.cos(x)
            return d[..., :, None] * np.eye(n)

    if shared:
        def gain(x, arg):
            return g0
    else:
        def gain(x, arg):
            x = np.asarray(x, dtype=float)
            return g0 * (1.0 + np.sin(x).sum(axis=-1))[..., None, None]

    jacobian = df if analytic else None
    if kind == "discrete":
        cov = np.eye(n + 1) + 0.2
        return DiscreteMapSystem(dimension=n, map=f, noise_gain=gain,
                                 noise=GaussianNoiseSpec(n + 1, covariance=cov),
                                 jacobian=jacobian, vectorized=vectorized)
    return ContinuousSDESystem(dimension=n, drift=f, diffusion=gain, noise_dim=n + 1,
                               jacobian=jacobian, vectorized=vectorized)


SWEEP = [(kind, n, vectorized, analytic, shared, matrix_map)
         for kind in ("discrete", "continuous") for n in (1, 2, 6)
         for vectorized in (True, False) for analytic in (False, True)
         for shared in (False, True) for matrix_map in (False, True)
         if not (shared and not vectorized)]


class TestBatchedSups:
    @pytest.mark.parametrize("kind, n, vectorized, analytic, shared, matrix_map", SWEEP)
    def test_equal_to_the_per_sample_loop(self, kind, n, vectorized, analytic, shared,
                                          matrix_map):
        rng = np.random.default_rng([n, vectorized, analytic, shared, matrix_map,
                                     kind == "discrete"])
        system = sweep_system(kind, n, rng, vectorized, analytic, shared, matrix_map)
        root = rng.uniform(-1.0, 1.0, (n, n))
        metric = root @ root.T + n * np.eye(n)
        for region in (SamplingRegion.box(-np.ones(n), 2.0 * np.ones(n), 48, seed=n),
                       SamplingRegion.ball(np.full(n, 0.3), 1.5, 40, seed=n + 1)):
            for m in (None, metric):
                got, want = batched_sups(system, m, region), loop_sups(system, m, region)
                (rate, rate_at), (energy, energy_at) = got
                (ref_rate, ref_rate_at), (ref_energy, ref_energy_at) = want
                assert energy == ref_energy and np.array_equal(energy_at, ref_energy_at)
                if matrix_map and vectorized and not analytic:
                    # the shifted states of a vectorized matrix map are one gemm
                    # where a single state took gemv; central differences divide
                    # that last-bit difference by 2h = 2e-6 max(1, |x|).  The
                    # exact rate is the same at every sample, so rounding alone
                    # picks the argmax
                    assert rate == pytest.approx(ref_rate, rel=1e-8, abs=1e-9)
                else:
                    assert rate == ref_rate and np.array_equal(rate_at, ref_rate_at)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_nan_samples_are_skipped_and_ties_go_first(self, vectorized):
        # |x| peaks at the tied samples -2 and 2, and the NaN sample never wins
        def gain(x, k):
            x = np.asarray(x, dtype=float)
            return np.abs(x)[..., None]

        def f(x, k):
            x = np.asarray(x, dtype=float)
            return np.sqrt(np.abs(x)) * np.sign(x)

        system = DiscreteMapSystem(dimension=1, map=f, noise_gain=gain,
                                   noise=GaussianNoiseSpec(1), vectorized=vectorized)
        region = SamplingRegion.points([[0.5], [np.nan], [-2.0], [2.0], [1.0]])
        energy = noise_bound_discrete(system, None, region)
        assert (energy.value, energy.argmax.tolist()) == (4.0, [-2.0])
        # the derivative 1 / (2 sqrt|x|) squared peaks at the smallest |x|
        rate = estimate_discrete_rate(system, None, region)
        (ref, ref_at), _ = loop_sups(system, None, region)
        assert rate.value == ref and np.array_equal(rate.argmax, ref_at)
        assert rate.argmax.tolist() == [0.5]

    def test_no_finite_value_gives_minus_infinity_without_argmax(self):
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: x,
                                   noise_gain=lambda x, k: np.full((1, 1), np.nan),
                                   noise=GaussianNoiseSpec(1))
        region = SamplingRegion.points([[0.0], [1.0]])
        energy = noise_bound_discrete(system, None, region)
        assert energy.value == -math.inf and np.isnan(energy.argmax)

    def test_one_batched_call_per_callable(self):
        calls = []

        def counted(fn):
            def wrapper(x, arg):
                calls.append(np.shape(x))
                return fn(x, arg)
            return wrapper

        system = DiscreteMapSystem(dimension=2, map=counted(lambda x, k: 0.5 * x),
                                   noise_gain=counted(lambda x, k: np.eye(2)),
                                   noise=GaussianNoiseSpec(2), vectorized=True)
        region = SamplingRegion.box([-1.0, -1.0], [1.0, 1.0], sample_count=64, seed=0)
        cert = certify_discrete(system, region)
        assert calls == [(2 * 2 * 64, 2), (64, 2)]  # the shifted states, then the gain
        assert cert.rate == pytest.approx(0.25, rel=1e-9)

    def test_numerical_jacobian_rows_equal_the_loop(self):
        # each row's step is its own max(1e-6, 1e-6 |x|), kept at 1e-6 where
        # the norm is NaN, so a coordinate-wise map stays finite elsewhere
        def f(x):
            return np.tanh(x) * np.array([1.0, 2.0, -0.5])

        rng = np.random.default_rng(8)
        states = np.vstack([rng.standard_normal((30, 3)) * 10.0 ** rng.uniform(-8, 8, (30, 1)),
                            [[np.nan, 1.0, 0.5], [np.inf, -2.0, 0.0], [0.0, 0.0, 0.0]]])
        with np.errstate(invalid="ignore"):
            batch = numerical_jacobian(f, states)
            loops = [loop_jacobian(f, x) for x in states]
            singles = [numerical_jacobian(f, x) for x in states]
        assert batch.shape == (33, 3, 3)
        for jac, loop, single in zip(batch, loops, singles):
            assert np.array_equal(jac, loop, equal_nan=True)
            assert np.array_equal(single, loop, equal_nan=True)
        assert np.isfinite(batch[30][1:, 1:]).all()

    def test_ring_jacobian_on_a_batch(self):
        from concert import ring_jacobian
        states = np.random.default_rng(3).standard_normal((64, 6))
        batch = ring_jacobian(states)
        assert batch.shape == (64, 6, 6)
        for state, jac in zip(states, batch):
            assert np.array_equal(ring_jacobian(state), jac)
        assert ring_jacobian(states.reshape(8, 8, 6)).shape == (8, 8, 6, 6)
