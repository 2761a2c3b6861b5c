"""Analysis helpers that only the tests use: a geometric-decay fit of a
transient (acceptance criterion 2) and the ring's locked and transverse bases
(acceptance criterion 6)."""
from __future__ import annotations

import math

import numpy as np

from concert import ROTATION_THIRD


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
