"""Analysis helpers that only the tests use: a geometric-decay fit of a
transient (acceptance criterion 2), the ring's locked and transverse bases
(acceptance criterion 6), and the exact mean-square law of a linear system's
pair ensemble, an oracle for ensembles and bounds."""
from __future__ import annotations

import math

import numpy as np

import concert.simulate as simulate
from concert import ROTATION_THIRD, DiscreteMapSystem, HybridSystem, InitialPointPair
from concert.statespace import _as_metric


def fit_geometric_decay(values: np.ndarray, asymptote: float,
                        stderr: np.ndarray | None = None,
                        noise_floor_sigma: float = 5.0) -> float:
    """Per-step geometric decay factor of (values - asymptote).

    Least-squares slope of log deviations over the leading steps where the
    deviation clears both zero and noise_floor_sigma times its standard error
    (Monte Carlo tails below the floor carry no decay information).  Requires
    at least three usable points.
    """
    values = np.asarray(values, dtype=float)
    deviations = values - asymptote
    floor = np.zeros_like(deviations) if stderr is None \
        else noise_floor_sigma * np.asarray(stderr, dtype=float)
    usable = deviations > np.maximum(floor, 0.0)
    cutoff = int(np.argmin(usable)) if not usable.all() else values.size
    if cutoff < 3:
        raise ValueError(f"only {cutoff} usable points above the noise floor; need >= 3")
    k = np.arange(cutoff, dtype=float)
    slope = np.polyfit(k, np.log(deviations[:cutoff]), 1)[0]
    return float(math.exp(slope))


def build_projections() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (U, V) of the ring's locked subspace and its complement.

    U has shape (6, 2) with columns stacking (R^2 y, R y, y) for the two unit
    vectors y, normalized; states in its span are exactly the phase-locked
    ones.  V has shape (6, 4), spans the orthogonal complement, and satisfies
    delta(x) = 3 ||V.T x||^2.
    """
    r = ROTATION_THIRD
    columns = [np.concatenate([r @ r @ e, r @ e, e]) / math.sqrt(3.0)
               for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    locked = np.stack(columns, axis=1)
    q, _ = np.linalg.qr(np.hstack([locked, np.eye(6)]))
    transverse = q[:, 2:6].copy()
    # fix a sign convention so the basis is reproducible across BLAS builds
    for j in range(4):
        lead = transverse[np.argmax(np.abs(transverse[:, j])), j]
        if lead < 0:
            transverse[:, j] = -transverse[:, j]
    return locked, transverse


def exact_ms(system, config, metric=None) -> np.ndarray:
    """Exact mean squared separation E|Theta (a - b)|^2, M = Theta^T Theta (a
    matrix, a MetricSpec, or None for the identity), of the pair ensemble of
    `config` over a linear `system`, at every sample of the engine's grid.

    It is the law of the updates the engine takes (map applications and
    Euler-Maruyama steps x + h f + sqrt(h) G z), not of the SDE.  The grid is
    simulate._plan's, with _INTERIOR_PER_DWELL interior samples per dwell of a
    hybrid when config.interior_per_dwell is None, as ensembles take it.  The
    separation's second moment S starts at d d^T for a point pair d apart and
    at diag((high - low)^2 / 6) for a box, and each update applies
    S <- A S A^T + Q: A is the map's Jacobian on map and reset steps and
    I + h J on flow steps, and Q is G G^T per noisy member (2 for
    "two-noisy", 1 for "noisy-vs-noisefree"), times h on flow steps.  The
    Jacobian J and gain G are read at the origin, so only a linear system
    with additive noise is exact.
    """
    interior = config.interior_per_dwell
    if interior is None and isinstance(system, HybridSystem):
        interior = simulate._INTERIOR_PER_DWELL
    _, _, segments = simulate._plan(system, config.horizon, config.step_size, interior,
                                    config.record_every)
    dim = system.dimension
    first, second = simulate._corners(config.initial, dim)
    if isinstance(config.initial, InitialPointPair):
        cov = np.outer(first - second, first - second)
    else:
        cov = np.diag((second - first) ** 2 / 6.0)
    m = _as_metric(metric, dim).value()
    members = 2.0 if config.pairing_mode == "two-noisy" else 1.0
    origin, out = np.zeros(dim), [np.trace(m @ cov)]
    for seg in segments:
        part = seg.part
        for j in range(seg.steps):
            at = seg.start + j * seg.stride
            jac = np.reshape(part.jacobian(origin, at), (dim, dim))
            if isinstance(part, DiscreteMapSystem):
                a, h, g = jac, 1.0, part.noise_gain(origin, at)
            else:
                a, h, g = np.eye(dim) + seg.stride * jac, seg.stride, part.diffusion(origin, at)
            g = np.reshape(g, (dim, seg.width))
            cov = a @ cov @ a.T + members * h * (g @ g.T)
            if j + 1 in seg.marks:
                out.append(np.trace(m @ cov))
    return np.asarray(out)
