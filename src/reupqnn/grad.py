"""Adjoint loss gradients for training, parameter shift as their oracle.

Training differentiates with `ansatz._output_grads`: one forward and one
backward sweep over the gate schedule per row (Jones & Gacon,
arXiv:2009.02823), noiseless and noisy alike, whose cost is nearly flat in
the number of parameters.

Every trainable angle enters through a single-Pauli rotation, so the
circuit output is a sinusoid in each coordinate and the shift rule

    df/dtheta_j = (f(theta_j + pi/2) - f(theta_j - pi/2)) / 2

is exact, also under depolarizing noise (the channel does not depend on
the parameters).  `parameter_shift_grad_f` evaluates it on 2K shifted
rows of `forward_many` and is kept as the independent check of the
adjoint sweep; the finite-difference estimator checks it in turn.
"""

from __future__ import annotations

import numpy as np

from .ansatz import ReuploadCircuit, forward_many
from .qcore import Observable
from .train import _loss_grads

__all__ = ["SHIFT", "parameter_shift_grad_f", "loss_grad", "finite_diff_grad"]

SHIFT = 0.5 * np.pi


def parameter_shift_grad_f(circuit: ReuploadCircuit, theta, x, obs: Observable,
                           noise_p: float = 0.0) -> np.ndarray:
    """Gradient of the circuit output with respect to every parameter."""
    theta = np.asarray(theta, dtype=float)
    k = circuit.n_params
    if theta.shape != (k,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({k},)")
    # theta +- pi/2 on each coordinate in turn: all 2K rows ride one vectorized pass.
    rows = np.repeat(theta[None], 2 * k, axis=0)
    idx = np.arange(k)
    rows[2 * idx, idx] += SHIFT
    rows[2 * idx + 1, idx] -= SHIFT
    values = forward_many(circuit, rows, np.asarray(x, dtype=float), obs, noise_p)
    return 0.5 * (values[0::2] - values[1::2])


def loss_grad(circuit: ReuploadCircuit, theta, sample, obs: Observable,
              noise_p: float = 0.0) -> np.ndarray:
    """Gradient of the per-sample loss: l'(f, y) * df/dtheta."""
    return _loss_grads(circuit, np.asarray(theta, dtype=float)[None],
                       np.asarray(sample.x, dtype=float)[None], [sample.y],
                       obs, noise_p)[0]


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
