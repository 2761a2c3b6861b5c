"""Three planar limit-cycle oscillators with rotating-wave coupling resets.

Each oscillator flows as a noisy planar normal form with a circular attractor;
every dwell time tau a coupling reset blends each oscillator with its rotated
ring neighbor and injects reset noise.  The coupling drives the ring toward
the rotating-wave set where x_i = R x_{i+1} (R rotates by one third of a
turn), and the phase-locking statistic

    delta(x) = sum_i || R x_{i+1} - x_i ||^2        (cyclic indices)

measures the squared distance to that set; it equals three times the squared
norm of the state's component transverse to the locked subspace.

Each ring difference R x_{i+1} - x_i behaves as a planar trajectory pair: the
coupling contracts it with squared gain beta = 3 gamma^2 - 3 gamma + 1, the
flow expands it at rate at most 1 (rotational equivariance makes the rotated
neighbor follow the same law), and the per-member noise energies are
2 gamma^2 sigma_d^2 (reset) and 2 sigma_c^2 (flow).  Chaining these
certificates into the expanding-regime hybrid bound with one-sided noise and
summing the three differences yields the steady-state delta bound, reported
as the one number `pipeline`; locking requires beta < exp(-2 tau).

Experiments sample delta on both sides of every reset and once inside each
dwell, and average each run over the last fifth of the horizon for the
steady values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, ParameterRange, certified_bound, classify_regime
from .certify import ContractionCertificate
from .simulate import (STEPS_PER_DWELL, EnsembleConfig, EnsembleStats, InitialBox,
                       InitialPointPair, _ensemble)
from .statespace import (ContinuousSDESystem, DiscreteMapSystem, GaussianNoiseSpec,
                         HybridSystem, MetricSpec, _check_count)


# One third of a turn; three applications are the identity.
ROTATION_THIRD = np.array([[-0.5, -math.sqrt(3.0) / 2.0],
                           [math.sqrt(3.0) / 2.0, -0.5]])
_SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])
# Right factors of a (..., 6) ring state: per-oscillator sum of squares, and
# the transpose of the per-oscillator spin.
_PAIR_SUM = np.kron(np.eye(3), np.ones((2, 2)))
_RING_SPIN_T = np.kron(np.eye(3), _SPIN.T)

# Transverse expansion of the planar limit-cycle drift never exceeds rate 1
# (attained at the origin), so -1 is a global flow rate in the sense used by
# the continuous certificates.
GLOBAL_FLOW_RATE = -1.0

# Every run of the ring starts uniformly in this box, in each coordinate.
RING_START = InitialBox(-1.0, 1.0)


@dataclass(frozen=True)
class CPGParams:
    """Ring configuration: coupling strength gamma in (0, 1), reset and flow
    noise scales, dwell time between coupling resets, angular frequency; each
    finite, and a value out of range raises ParameterRange here."""

    gamma: float
    sigma_d: float = 0.05
    sigma_c: float = 0.1
    tau: float = 0.1
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise ParameterRange(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.sigma_d < 0 or self.sigma_c < 0:
            raise ParameterRange("noise scales must be >= 0")
        if not (self.tau > 0):
            raise ParameterRange(f"tau must be positive, got {self.tau}")
        for name in ("sigma_d", "sigma_c", "tau", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterRange(f"{name} must be finite, got {getattr(self, name)}")


WEAK_COUPLING = CPGParams(gamma=0.01)
STRONG_COUPLING = CPGParams(gamma=0.2)


def ring_drift(state: np.ndarray, t: float = 0.0, omega: float = 1.0) -> np.ndarray:
    """Drift of the uncoupled ring: each planar block u follows
    (1 - |u|^2) u + omega * spin(u).  Accepts any leading batch shape.

    Computed as three array operations on the whole state: |u|^2 as
    (x * x) @ kron(I_3, ones(2, 2)), then c * x, then the spin as
    x @ (omega * kron(I_3, spin)).T.  Every other product in those sums is by
    an exact 1 or 0, so each entry is rounded exactly as in the blockwise
    formula, whatever the BLAS kernel or FMA use.  Two deviations, both on
    states that are no longer usable: the sign of an exactly zero drift entry
    may differ, and once |u|^2 overflows in one oscillator, 0 * inf turns the
    other oscillators' drift NaN instead of finite.
    """
    state = np.asarray(state, dtype=float)
    # np.dot, which costs less per call than matmul on small operands
    out = np.dot(state * state, _PAIR_SUM)
    np.subtract(1.0, out, out=out)
    out *= state
    out += np.dot(state, omega * _RING_SPIN_T)
    return out


def ring_jacobian(state: np.ndarray, t: float = 0.0, omega: float = 1.0) -> np.ndarray:
    """Exact 6 x 6 drift Jacobian, block diagonal with blocks
    (1 - |u|^2) I - 2 u u^T + omega * spin.  Accepts any leading batch shape,
    (..., 6) -> (..., 6, 6), and a batch row is the single-state value bit for
    bit: |u|^2 is the elementwise sum of squares that ring_drift takes.  The
    symmetric part's largest eigenvalue, max_i (1 - |u_i|^2), is 1 at the
    origin and its global supremum, so the flow certificate rate is -1
    everywhere."""
    state = np.asarray(state, dtype=float)
    u = state.reshape(*state.shape[:-1], 3, 2)
    sq = (u * u).sum(axis=-1)[..., None, None]
    blocks = (1.0 - sq) * np.eye(2) - 2.0 * (u[..., :, None] * u[..., None, :]) \
        + omega * _SPIN
    out = np.zeros((*state.shape[:-1], 6, 6))
    for i in range(3):
        out[..., 2 * i:2 * i + 2, 2 * i:2 * i + 2] = blocks[..., i, :, :]
    return out


def coupling_matrix(gamma: float) -> np.ndarray:
    """Reset matrix L: x_i <- (1 - gamma) x_i + gamma R x_{i+1} (cyclic)."""
    out = np.zeros((6, 6))
    for i in range(3):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = (1.0 - gamma) * np.eye(2)
        j = (i + 1) % 3
        out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = gamma * ROTATION_THIRD
    return out


def coupling_contraction_factor(gamma: float) -> float:
    """Squared gain of the coupling reset transverse to the locked subspace.

    All four transverse squared singular values of L coincide at
    3 gamma^2 - 3 gamma + 1, which is < 1 exactly for gamma in (0, 1); on the
    locked subspace the gain is exactly 1.
    """
    return 3.0 * gamma * gamma - 3.0 * gamma + 1.0


def phase_locking_delta(states: np.ndarray) -> np.ndarray:
    """delta = sum_i ||R x_{i+1} - x_i||^2 over the ring; vectorized over any
    leading shape.  The neighbours of all states are rotated by one 2-D
    product, (3 * states, 2) @ R.T, which never has a single row."""
    states = np.asarray(states, dtype=float)
    u = states.reshape(*states.shape[:-1], 3, 2)
    rotated_next = (u[..., [1, 2, 0], :].reshape(-1, 2) @ ROTATION_THIRD.T).reshape(u.shape)
    diff = rotated_next - u
    return (diff * diff).sum(axis=(-1, -2))


def phase_aligned_components(states: np.ndarray) -> np.ndarray:
    """Map (m, 6) states to (m, 6) columns [x_1, R x_2, R^2 x_3]; the three
    planar pairs coincide exactly on the locked set."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    r = ROTATION_THIRD
    return np.hstack([states[:, 0:2], states[:, 2:4] @ r.T, states[:, 4:6] @ (r @ r).T])


def reduced_constants(params: CPGParams) -> tuple[ContractionCertificate, ContractionCertificate]:
    """(flow, reset) certificates of the planar pair each ring difference
    follows, in the identity metric.

    The coupling contracts differences with squared gain beta; the flow
    expands at rate at most |GLOBAL_FLOW_RATE|; each member injects
    tr((gamma sigma_d I_2)^2) = 2 gamma^2 sigma_d^2 per reset and
    tr((sigma_c I_2)^2) = 2 sigma_c^2 per unit time.
    """
    plane = MetricSpec.identity(2)
    return (ContractionCertificate("continuous", GLOBAL_FLOW_RATE, 2.0 * params.sigma_c**2,
                                   plane, None, True),
            ContractionCertificate("discrete", coupling_contraction_factor(params.gamma),
                                   2.0 * params.gamma**2 * params.sigma_d**2, plane, None, True))


def locking_condition(params: CPGParams) -> tuple[bool, float, float]:
    """(holds, beta, threshold): the ring phase-locks in mean square when
    beta < threshold = exp(-2 |rate| tau).  holds is classify_regime's verdict,
    which the bound takes too: a per-dwell product in its critical band does not lock."""
    flow, reset = reduced_constants(params)
    threshold = math.exp(-2.0 * abs(flow.rate) * params.tau)
    holds = classify_regime(reset.rate, flow.rate, params.tau) == "hybrid-expanding-bounded"
    return holds, reset.rate, threshold


@dataclass(frozen=True)
class DeltaBoundSummary:
    """Steady-state bound for the phase-locking statistic of one configuration.

    `pipeline` comes from the hybrid bound machinery (one-sided noise, summed
    over the three ring differences); unbounded configurations carry an
    infinity.  beta, r2 and the regime are read from the per-difference
    report.
    """

    pipeline: float
    per_difference_report: BoundReport

    def to_json_dict(self) -> dict:
        return {"pipeline": self.pipeline if math.isfinite(self.pipeline) else None,
                "per_difference": self.per_difference_report.to_json_dict()}


def theoretical_delta_bound(params: CPGParams) -> DeltaBoundSummary:
    """The steady-state delta bound: per ring difference, the hybrid bound
    chained from its reduced certificates, noise-free because the statistic
    compares one noisy combination against the locked set; the three
    differences sum to `pipeline`.  It bounds post-reset samples, while the
    steady window averages every side."""
    flow, reset = reduced_constants(params)
    halved = certified_bound(flow, InitialPointPair(0.0, 0.0), reset, params.tau,
                             noise_free=True)
    return DeltaBoundSummary(pipeline=3.0 * halved.asymptotic_bound, per_difference_report=halved)


def build_cpg_system(params: CPGParams) -> HybridSystem:
    """Assemble the ring as a hybrid system (vectorized callables throughout)."""
    sigma = params.sigma_c * np.eye(6)
    gain = params.gamma * params.sigma_d * np.eye(6)
    coupling = coupling_matrix(params.gamma)
    omega = params.omega
    continuous = ContinuousSDESystem(
        dimension=6,
        drift=lambda x, t: ring_drift(x, t, omega),
        diffusion=lambda x, t: sigma,
        noise_dim=6,
        jacobian=lambda x, t: ring_jacobian(x, t, omega),
        vectorized=True,
        name="ring-flow")
    reset = DiscreteMapSystem(
        dimension=6,
        map=lambda x, k: x @ coupling.T,
        noise_gain=lambda x, k: gain,
        noise=GaussianNoiseSpec(6),
        jacobian=lambda x, k: coupling,
        vectorized=True,
        name="ring-coupling")
    return HybridSystem(continuous=continuous, reset=reset, dwell_time=params.tau,
                        name=f"ring-3(gamma={params.gamma})")


@dataclass(frozen=True, kw_only=True)
class CPGExperimentResult(EnsembleStats):
    """The EnsembleStats of the phase-locking delta over the runs of one
    configuration: mean_sq is delta's mean over the runs alive at each time,
    n_pairs the run count.  Adds the configuration, the start of the steady
    window and the configuration's bounds.
    """

    params: CPGParams
    window_start_time: float
    bounds: DeltaBoundSummary

    def to_json_dict(self) -> dict:
        return {"gamma": self.params.gamma, "sigma_d": self.params.sigma_d,
                "sigma_c": self.params.sigma_c, "tau": self.params.tau,
                "omega": self.params.omega, "run_count": self.n_pairs,
                "failures": self.failures, "steady_mean": self.steady_mean,
                "steady_stderr": self.steady_stderr,
                "window_start_time": self.window_start_time,
                "bounds": self.bounds.to_json_dict()}


def run_cpg_experiment(params: CPGParams, run_count: int = 200, horizon: float = 50.0,
                       master_seed: int = 0,
                       step_size: float | None = None) -> CPGExperimentResult:
    """Simulate independent ring runs and reduce delta over time.

    Runs start uniformly in RING_START; run i consumes the stream keyed by
    (master_seed, i, 0) in the canonical order (initial condition, then per
    dwell one reset draw followed by the dwell's flow draws), so any run is
    reproducible in isolation.  The coupling reset acts at t = 0 first and
    both one-sided samples are recorded at every reset.  The result is the
    EnsembleStats of delta, so check_bound_respect takes it as it takes a
    pair ensemble's, and its steady values follow the same rule.
    """
    _check_count("run_count", run_count)
    h = params.tau / STEPS_PER_DWELL if step_size is None else step_size
    config = EnsembleConfig(pair_count=run_count, horizon=horizon, master_seed=master_seed,
                            initial=RING_START, step_size=h, interior_per_dwell=1)
    stats, window_start = _ensemble(build_cpg_system(params), config, (True,),
                                    lambda states: phase_locking_delta(states[0]))
    return CPGExperimentResult(**vars(stats), params=params,
                               window_start_time=float(window_start),
                               bounds=theoretical_delta_bound(params))


@dataclass(frozen=True)
class LockingComparison:
    """Weak- versus strong-coupling experiment with their steady-delta ratio."""

    weak: CPGExperimentResult
    strong: CPGExperimentResult
    ratio: float

    def to_json_dict(self) -> dict:
        return {"weak": self.weak.to_json_dict(),
                "strong": self.strong.to_json_dict(),
                "steady_delta_ratio_weak_over_strong": self.ratio}


def run_locking_comparison(weak_params: CPGParams = WEAK_COUPLING,
                           strong_params: CPGParams = STRONG_COUPLING,
                           run_count: int = 200, horizon: float = 50.0,
                           master_seed: int = 0,
                           step_size: float | None = None) -> LockingComparison:
    """Run the same experiment at weak and strong coupling and compare."""
    weak, strong = (run_cpg_experiment(params, run_count=run_count, horizon=horizon,
                                       master_seed=master_seed, step_size=step_size)
                    for params in (weak_params, strong_params))
    return LockingComparison(weak=weak, strong=strong,
                             ratio=weak.steady_mean / strong.steady_mean)
