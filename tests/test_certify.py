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
    noise_bound,
)
from concert.certify import _scrambled_halton
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

    def test_points_given_as_a_flat_list_are_one_column(self):
        region = SamplingRegion.points([0.5, -1.0, 2.0])
        assert region.dimension == 1 and region.sample_count == 3
        assert np.array_equal(region.samples(), np.array([[0.5], [-1.0], [2.0]]))

    @pytest.mark.parametrize("make, error, message", [
        (lambda: SamplingRegion.box([0.0, 0.0], [1.0], 8), DimensionMismatch,
         r"^bounds must share shape \(n,\), got \(2,\), \(1,\)$"),
        (lambda: SamplingRegion.box([[0.0]], [[1.0]], 8), DimensionMismatch, "^bounds must"),
        (lambda: SamplingRegion.box([0.0, 1.0], [1.0, 1.0], 8), ValueError,
         "^every low bound must be strictly below its high bound$"),
        (lambda: SamplingRegion.box([0.0], [1.0], 0), ValueError,
         "^sample_count must be >= 1, got 0$"),
        (lambda: SamplingRegion.ball([0.0], 0.0, 8), ValueError,
         "^radius must be positive, got 0.0$"),
        (lambda: SamplingRegion.ball([0.0], float("nan"), 8), ValueError, "^radius must"),
        (lambda: SamplingRegion.ball([0.0], 1.0, 0), ValueError,
         "^sample_count must be >= 1, got 0$"),
        (lambda: SamplingRegion.points(np.zeros((2, 2, 2))), DimensionMismatch,
         r"^point list must have shape \(m, n\), got \(2, 2, 2\)$"),
        (lambda: SamplingRegion.points(np.zeros((0, 2))), DimensionMismatch, "^point list"),
    ])
    def test_bad_region_raises(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

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
        # unloaded, and of them only the ball loads the standard library's
        # statistics module
        proc = subprocess.run([sys.executable, "-c", """
import contextlib, io, sys
import numpy as np
import concert
import concert.cli
def loaded():
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
          "statistics" in sys.modules)
loaded()
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
        assert proc.stdout.splitlines() == ["[] False"] * 3 + ["[] True"]

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

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 6, 10])
    def test_ball_within_rounding_of_the_scipy_construction(self, dimension, seed):
        # the construction as SciPy ran it: Halton points, clipped, through
        # scipy.special.ndtri.  The standard library's inverse normal CDF
        # moves each coordinate of the unit ball and of the ring's ball by at
        # most two machine epsilons (4.4e-16) times the radius
        qmc = pytest.importorskip("scipy.stats.qmc")
        special = pytest.importorskip("scipy.special")
        count = 512
        unit = np.clip(qmc.Halton(dimension + 1, scramble=True, seed=seed).random(count - 1),
                       1e-12, 1.0 - 1e-12)
        z = special.ndtri(unit[:, :dimension])
        directions = z / np.linalg.norm(z, axis=1, keepdims=True)
        for radius in (1.0, 1.5):
            got = SamplingRegion.ball(np.zeros(dimension), radius, count, seed=seed).samples()
            radii = radius * unit[:, dimension] ** (1.0 / dimension)
            expected = np.vstack([np.zeros(dimension), directions * radii[:, None]])
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 2 * np.finfo(float).eps * radius

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
        nb = noise_bound(system, None, region)
        assert nb.value == pytest.approx(25.0, rel=1e-12)
        assert nb.argmax[0] == pytest.approx(2.0)

    def test_discrete_gain_enters_trace(self):
        # the draws are standard normal: tr(sigma^T sigma) = 4 + 9
        system = DiscreteMapSystem(
            dimension=2,
            map=lambda x, k: 0.5 * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: np.diag([2.0, 3.0]),
            noise=GaussianNoiseSpec(2))
        region = SamplingRegion.points([[0.0, 0.0]])
        nb = noise_bound(system, None, region)
        assert nb.value == pytest.approx(13.0, rel=1e-12)

    def test_continuous_trace_with_metric(self):
        system = ou_system(a=1.0, sigma=2.0, dim=2)
        metric = MetricSpec.constant(np.diag([3.0, 1.0]))
        region = SamplingRegion.points([[0.0, 0.0]])
        nb = noise_bound(system, metric, region)
        # tr(sigma^T M sigma) = 4 * (3 + 1)
        assert nb.value == pytest.approx(16.0, rel=1e-12)

    def test_indefinite_metric_matrix_rejected(self):
        # diag(1, -1) would cancel the two noise channels to an energy of 0
        region = SamplingRegion.points([[0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            noise_bound(ou_system(dim=2), np.diag([1.0, -1.0]), region)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_a_map_gain_of_another_shape_raises(self, vectorized):
        # a (2, 3) gain over 2 noise components: no product catches it
        wide = DiscreteMapSystem(dimension=2, map=lambda x, k: 0.5 * np.asarray(x),
                                 noise_gain=lambda x, k: np.ones((2, 3)),
                                 noise=GaussianNoiseSpec(2), vectorized=vectorized, name="wide")
        region = SamplingRegion.points([[0.0, 0.0], [1.0, 1.0]])
        # a vectorized value is named whole, a row-wise one per row
        expected = r"\(2, 2\) or \(2, 2, 2\)" if vectorized else r"\(2, 2\)"
        with pytest.raises(DimensionMismatch, match=r"^noise_gain of 'wide' returned shape "
                                                    rf"\(2, 3\), expected {expected}$"):
            noise_bound(wide, None, region)
        with pytest.raises(DimensionMismatch):
            certify_discrete(wide, region)

    def test_a_rowwise_vector_gain_is_not_one_shared_matrix(self):
        # stacked over two samples, the (2,) values make a (2, 2) array: only a
        # vectorized callable returns one matrix for every sample
        rowwise = DiscreteMapSystem(dimension=2, map=lambda x, k: 0.5 * np.asarray(x),
                                    noise_gain=lambda x, k: np.asarray(x) + 1.0,
                                    noise=GaussianNoiseSpec(2), name="rowwise")
        region = SamplingRegion.points([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatch, match=r"^noise_gain of 'rowwise' returned shape "
                                                    r"\(2,\), expected \(2, 2\)$"):
            noise_bound(rowwise, None, region)

    def test_a_flow_diffusion_of_another_shape_raises(self):
        # a (1, 3) diffusion over 2 noise components, as run_pair_ensemble rejects it
        wide = ContinuousSDESystem(dimension=1, drift=lambda x, t: -x,
                                   diffusion=lambda x, t: np.ones((1, 3)), noise_dim=2,
                                   name="wide-flow")
        region = SamplingRegion.points([[0.0]])
        with pytest.raises(DimensionMismatch, match=r"^diffusion of 'wide-flow' returned shape "
                                                    r"\(1, 3\), expected \(1, 2\)$"):
            certify_continuous(wide, region)


def odd_system(kind: str, vectorized: bool, f, jacobian=None):
    """A 2-D map or flow named 'odd' with map or drift f and unit noise."""
    if kind == "discrete":
        return DiscreteMapSystem(dimension=2, map=f, noise_gain=lambda x, k: np.eye(2),
                                 noise=GaussianNoiseSpec(2), jacobian=jacobian,
                                 vectorized=vectorized, name="odd")
    return ContinuousSDESystem(dimension=2, drift=f, diffusion=lambda x, t: np.eye(2),
                               noise_dim=2, jacobian=jacobian, vectorized=vectorized,
                               name="odd")


def certify_kind(kind: str, system, region: SamplingRegion):
    return (certify_discrete if kind == "discrete" else certify_continuous)(system, region)


KINDS = pytest.mark.parametrize("kind", ["discrete", "continuous"])


class TestJacobianShapes:
    """A certificate reads a Jacobian, and the map or drift it differences, by
    the engine's one shape rule: a vectorized value is named whole, a
    row-wise one per row."""

    REGION = SamplingRegion.points([[0.0, 0.0], [1.0, 1.0]])

    @KINDS
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_a_jacobian_of_another_shape_raises(self, kind, vectorized):
        system = odd_system(kind, vectorized, lambda x, a: 0.5 * np.asarray(x),
                            jacobian=lambda x, a: np.ones((1, 2)))
        expected = r"\(2, 2\) or \(2, 2, 2\)" if vectorized else r"\(2, 2\)"
        with pytest.raises(DimensionMismatch, match=r"^jacobian of 'odd' returned shape "
                                                    rf"\(1, 2\), expected {expected}$"):
            certify_kind(kind, system, self.REGION)

    @KINDS
    def test_a_rowwise_vector_jacobian_is_not_one_shared_matrix(self, kind):
        # stacked over two samples, the (2,) values make a (2, 2) array
        system = odd_system(kind, False, lambda x, a: 0.5 * np.asarray(x),
                            jacobian=lambda x, a: np.asarray(x, dtype=float))
        with pytest.raises(DimensionMismatch, match=r"^jacobian of 'odd' returned shape "
                                                    r"\(2,\), expected \(2, 2\)$"):
            certify_kind(kind, system, self.REGION)

    @KINDS
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_a_differenced_value_of_another_shape_raises(self, kind, vectorized):
        # central differences call f on the 2 n m = 8 shifted states
        what = "map" if kind == "discrete" else "drift"
        system = odd_system(kind, vectorized, lambda x, a: np.asarray(x)[..., :1])
        expected = r"\(8, 1\), expected \(2,\) or \(8, 2\)" if vectorized \
            else r"\(1,\), expected \(2,\)"
        with pytest.raises(DimensionMismatch,
                           match=rf"^{what} of 'odd' returned shape {expected}$"):
            certify_kind(kind, system, self.REGION)

    @KINDS
    def test_a_shared_value_is_differenced_as_constant(self, kind):
        # one stored vector for every row, as the engine adds it: Jacobian 0
        stored = np.array([0.25, -0.5])
        cert = certify_kind(kind, odd_system(kind, True, lambda x, a: stored), self.REGION)
        assert cert.rate == 0.0 and cert.noise_bound == 2.0


class TestCertificates:
    def test_discrete_certificate_sampled(self):
        region = SamplingRegion.box([-1.0], [1.0], sample_count=32, seed=0)
        cert = certify_discrete(linear_map_system(0.5), region)
        assert cert.kind == "discrete"
        assert cert.rate == pytest.approx(0.25, abs=1e-8)
        assert cert.noise_bound == pytest.approx(1.0, rel=1e-12)
        assert cert.is_global_claim is False

    def test_discrete_certificate_in_a_metric(self):
        # x -> 0.5 x with unit noise, measured in M = [[4]]: F = 2 * 0.5 / 2,
        # so the gain is 0.25, and the energy is tr(1 * 4 * 1) = 4
        region = SamplingRegion.box([-1.0], [1.0], sample_count=16, seed=0)
        metric = np.array([[4.0]])
        cert = certify_discrete(linear_map_system(0.5), region, metric=metric)
        assert cert.rate == pytest.approx(0.25, abs=1e-8)
        assert cert.noise_bound == pytest.approx(4.0, rel=1e-12)
        assert np.array_equal(cert.metric.value(), metric)

    def test_continuous_certificate(self):
        region = SamplingRegion.box([-1.0], [1.0], sample_count=16, seed=0)
        cert = certify_continuous(ou_system(a=1.5, sigma=0.5), region)
        assert cert.kind == "continuous"
        assert cert.rate == pytest.approx(1.5, abs=1e-10)
        assert cert.noise_bound == pytest.approx(0.25, rel=1e-12)
        assert cert.is_global_claim is False

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

    def energy(x):
        fn = system.noise_gain if discrete else system.diffusion
        g = np.asarray(fn(x, arg), dtype=float)
        return float(np.trace(g.T @ m @ g))

    samples = region.samples()
    if discrete:
        def rate(x):
            gen = theta @ jac(x) @ theta_inv
            return float(np.linalg.eigvalsh(gen.T @ gen).max())

        return loop_sup(samples, rate), loop_sup(samples, energy)

    def top(x):
        gen = theta @ jac(x) @ theta_inv
        return float(np.linalg.eigvalsh((gen + gen.T) / 2.0).max())

    worst = loop_sup(samples, top)
    return (-worst[0], worst[1]), loop_sup(samples, energy)


def batched_sups(system, metric, region):
    estimate = estimate_discrete_rate if isinstance(system, DiscreteMapSystem) \
        else estimate_continuous_rate
    rate, noise = estimate(system, metric, region), noise_bound(system, metric, region)
    return (rate.value, rate.argmax), (noise.value, noise.argmax)


def sweep_system(kind, n, rng, vectorized, analytic, shared, matrix_map):
    """A map or flow of dimension n: elementwise, or the matrix map x @ A.T;
    with an analytic Jacobian or none; with a state-dependent (n, n + 1) gain
    or one shared matrix."""
    a = rng.uniform(-1.2, 1.2, (n, n))
    scale = rng.uniform(0.3, 1.5, n)
    g0 = rng.standard_normal((n, n + 1))
    if kind == "discrete":  # correlated draws: the factor of I + 0.2 folded into the gain
        g0 = g0 @ np.linalg.cholesky(np.eye(n + 1) + 0.2)

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
        return DiscreteMapSystem(dimension=n, map=f, noise_gain=gain,
                                 noise=GaussianNoiseSpec(n + 1),
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
        energy = noise_bound(system, None, region)
        assert (energy.value, energy.argmax.tolist()) == (4.0, [-2.0])
        # the derivative 1 / (2 sqrt|x|) squared peaks at the smallest |x|
        rate = estimate_discrete_rate(system, None, region)
        (ref, ref_at), _ = loop_sups(system, None, region)
        assert rate.value == ref and np.array_equal(rate.argmax, ref_at)
        assert rate.argmax.tolist() == [0.5]

    def test_no_finite_value_raises(self):
        system = DiscreteMapSystem(dimension=1, map=lambda x, k: x,
                                   noise_gain=lambda x, k: np.full((1, 1), np.nan),
                                   noise=GaussianNoiseSpec(1))
        region = SamplingRegion.points([[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"^no sample of the points region has a value "
                                             r"above -inf \(all 2 are NaN or -inf\)$"):
            noise_bound(system, None, region)

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
