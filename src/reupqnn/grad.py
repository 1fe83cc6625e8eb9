"""Exact parameter-shift gradients and a finite-difference reference.

Every trainable angle enters through a single-Pauli rotation, so the
circuit output is a sinusoid in each coordinate and the shift rule

    df/dtheta_j = (f(theta_j + pi/2) - f(theta_j - pi/2)) / 2

is exact, also under depolarizing noise (the channel does not depend on
the parameters).  The finite-difference estimator exists purely as an
independent check.
"""

from __future__ import annotations

import numpy as np

from .ansatz import ReuploadCircuit, forward_many
from .qcore import Observable

__all__ = ["SHIFT", "parameter_shift_grad_f", "loss_grad", "finite_diff_grad"]

SHIFT = 0.5 * np.pi


def _shifted_rows(circuit: ReuploadCircuit, thetas) -> np.ndarray:
    """Each theta, then theta +- pi/2 on each coordinate in turn: (R (2K + 1), K)."""
    thetas = np.asarray(thetas, dtype=float)
    k = circuit.n_params
    if thetas.ndim != 2 or thetas.shape[1] != k:
        raise ValueError(f"thetas have shape {thetas.shape}, expected (R, {k})")
    rows = np.repeat(thetas, 2 * k + 1, axis=0).reshape(len(thetas), 2 * k + 1, k)
    idx = np.arange(k)
    rows[:, 1 + 2 * idx, idx] += SHIFT
    rows[:, 2 + 2 * idx, idx] -= SHIFT
    return rows.reshape(-1, k)


def parameter_shift_grad_f(circuit: ReuploadCircuit, theta, x, obs: Observable,
                           noise_p: float = 0.0) -> np.ndarray:
    """Gradient of the circuit output with respect to every parameter."""
    # All 2K shifted evaluations ride one vectorized pass.
    rows = _shifted_rows(circuit, np.asarray(theta, dtype=float)[None])[1:]
    values = forward_many(circuit, rows, np.asarray(x, dtype=float), obs, noise_p)
    return 0.5 * (values[0::2] - values[1::2])


def _loss_grads(circuit: ReuploadCircuit, thetas, xs, ys, obs: Observable,
                loss_kind: str, noise_p: float) -> np.ndarray:
    """Loss gradients of R runs, run r at ``thetas[r]`` on (``xs[r]``, ``ys[r]``): (R, K).

    One batch carries every run's unshifted point plus its 2K shifted ones.
    """
    from .train import loss_derivative

    width = 2 * circuit.n_params + 1
    values = forward_many(circuit, _shifted_rows(circuit, thetas),
                          np.repeat(np.asarray(xs, dtype=float), width, axis=0),
                          obs, noise_p).reshape(-1, width)
    scale = loss_derivative(values[:, 0], ys, loss_kind)
    return scale[:, None] * (0.5 * (values[:, 1::2] - values[:, 2::2]))


def loss_grad(circuit: ReuploadCircuit, theta, sample, obs: Observable,
              loss_kind: str = "scaled_squared", noise_p: float = 0.0) -> np.ndarray:
    """Gradient of the per-sample loss: l'(f, y) * df/dtheta."""
    return _loss_grads(circuit, np.asarray(theta, dtype=float)[None],
                       np.asarray(sample.x, dtype=float)[None], [sample.y],
                       obs, loss_kind, noise_p)[0]


def finite_diff_grad(f, theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector.

    ``f`` maps a parameter vector to a float.  ``h`` must lie in
    [1e-8, 1e-2]; outside that window the estimator is either drowned in
    rounding error or in truncation error.
    """
    if not (1e-8 <= h <= 1e-2):
        raise ValueError(f"step h={h!r} outside the supported window [1e-8, 1e-2]")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.shape[0])
    for j in range(theta.shape[0]):
        plus = theta.copy()
        minus = theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (f(plus) - f(minus)) / (2.0 * h)
    return grad
