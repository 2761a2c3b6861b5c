"""Jacobians and the generalized-Jacobian helpers the certificates use.

For a constant SPD metric M with factor Theta (Theta.T @ Theta = M) the
distance between states is ||Theta (x - y)||_2.  A differentiable map or flow
f is measured through its generalized Jacobian F = Theta @ Df(x) @ Theta^{-1};
for a map the squared gain lambda_max(F.T F) is the one-step contraction
factor at x.  The certificates in `concert.certify` form F and its squared
gain over a whole sample at once, with Theta checked and inverted once per
certificate by the private helpers here; `numerical_jacobian` supplies Df
when a system declares no Jacobian.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# Condition-number ceiling above which an input factor is treated as singular.
_COND_LIMIT = 1e12


class SingularFactor(ValueError):
    """Raised when a metric factor cannot be inverted reliably."""


def numerical_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with step max(1e-6, 1e-6 ||x||).

    x is one state (n,), for an f of one state, or a batch of states (m, n)
    with a Jacobian per row, stacked as (m, ..., n), for an f that takes
    stacked states (rows, n) and returns one output per row.  A batch's f is
    called once, on all 2 n m shifted states; each row's step and differences
    are those of that state alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return numerical_jacobian(
            lambda ys: np.stack([np.asarray(f(y), dtype=float) for y in ys]), x[None])[0]
    m, n = x.shape
    # each row's norm by the dot product that np.linalg.norm takes, and
    # Python's max, which keeps 1e-6 against a NaN
    with np.errstate(over="ignore"):
        norm = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    # where x . x overflowed for a finite x: max|x_i| times the norm of x / max|x_i|
    big = ~np.isfinite(norm) & np.isfinite(x).all(axis=1)
    top = np.abs(x[big]).max(axis=1, keepdims=True)
    norm[big] = top[:, 0] * np.sqrt(((x[big] / top) ** 2).sum(axis=1))
    scaled = 1e-6 * norm
    h = np.where(scaled > 1e-6, scaled, 1e-6)
    step = np.zeros((n, m, n))
    step[np.arange(n), :, np.arange(n)] = h  # step[i, :, i] shifts coordinate i
    out = np.asarray(f(np.stack([x + step, x - step]).reshape(2 * n * m, n)), dtype=float)
    out = out.reshape(2, n, m, *out.shape[1:])
    cols = (out[0] - out[1]) / (2.0 * h).reshape(m, *(1,) * (out.ndim - 3))
    return np.moveaxis(cols, 0, -1)


def _checked_inverse(theta: np.ndarray) -> np.ndarray:
    """inv(theta), or SingularFactor when theta is not square or not invertible
    to working precision."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise SingularFactor(f"metric factor must be square, got shape {theta.shape}")
    if np.linalg.cond(theta) > _COND_LIMIT:
        raise SingularFactor("metric factor is singular to working precision")
    return np.linalg.inv(theta)


def _squared_gain(gen: np.ndarray) -> np.ndarray:
    """lambda_max(F.T F) of a generalized Jacobian F, or of each in a stack."""
    return np.linalg.eigvalsh(gen.swapaxes(-1, -2) @ gen).max(axis=-1)
