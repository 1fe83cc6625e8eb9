"""Parameter-shift gradients against analytic and finite-difference oracles."""

import numpy as np
import pytest

from reupqnn.ansatz import build_circuit, forward
from reupqnn.data import Sample
from reupqnn.grad import finite_diff_grad, loss_grad, parameter_shift_grad_f
from reupqnn.noise import noisy_forward
from reupqnn.qcore import z_observable


def test_single_qubit_gradient_is_minus_sine():
    """f = cos(theta1 + theta2 + x), so every partial is -sin of the total."""
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    rng = np.random.default_rng(51)
    for _ in range(25):
        theta = rng.uniform(0, 2 * np.pi, 2)
        x = rng.uniform(0, 2 * np.pi, 1)
        want = -np.sin(theta.sum() + x.sum())
        grad = parameter_shift_grad_f(c, theta, x, obs)
        np.testing.assert_allclose(grad, [want, want], atol=1e-12)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(52)
    shapes = [
        (n, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1)
        for n in rng.integers(1, 4, size=30).tolist()
    ]
    # D > N and not a multiple of N: encoding blocks fold into shifted angles.
    for n, layers, d, r in shapes + [(3, 2, 7, 1)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, c.data_dim)
        shift = parameter_shift_grad_f(c, theta, x, obs)
        fd = finite_diff_grad(lambda t: forward(c, t, x, obs), theta)
        assert np.max(np.abs(shift - fd)) <= 1e-6


def test_noisy_gradient_matches_finite_difference():
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    rng = np.random.default_rng(53)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    x = rng.uniform(0, 2 * np.pi, 2)
    p = 0.1
    shift = parameter_shift_grad_f(c, theta, x, obs, noise_p=p)
    fd = finite_diff_grad(lambda t: noisy_forward(c, t, x, obs, p), theta)
    assert np.max(np.abs(shift - fd)) <= 1e-6


def test_noisy_gradient_is_damped_noiseless_gradient():
    """With only single-qubit gates the channel scales f, hence the gradient."""
    c = build_circuit(1, 2, 1, 2)
    obs = z_observable(1)
    rng = np.random.default_rng(54)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    x = rng.uniform(0, 2 * np.pi, 1)
    p = 0.2
    n_gates = c.n_params + c.layers * c.encode_columns
    clean = parameter_shift_grad_f(c, theta, x, obs)
    noisy = parameter_shift_grad_f(c, theta, x, obs, noise_p=p)
    np.testing.assert_allclose(noisy, (1 - p) ** n_gates * clean, atol=1e-12)


def test_loss_grad_chain_rule():
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    rng = np.random.default_rng(55)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    sample = Sample(rng.uniform(0, 2 * np.pi, 2), -1.0)
    f = forward(c, theta, sample.x, obs)
    want = 0.5 * (f - sample.y) * parameter_shift_grad_f(c, theta, sample.x, obs)
    got = loss_grad(c, theta, sample, obs)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_gradient_batch_consistency():
    """The batched shift evaluation agrees with shifting one angle at a time."""
    c = build_circuit(3, 2, 3, 1)
    obs = z_observable(3)
    rng = np.random.default_rng(56)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    x = rng.uniform(0, 2 * np.pi, 3)
    grad = parameter_shift_grad_f(c, theta, x, obs)
    half_pi = 0.5 * np.pi
    for j in range(c.n_params):
        up = theta.copy()
        up[j] += half_pi
        down = theta.copy()
        down[j] -= half_pi
        want = 0.5 * (forward(c, up, x, obs) - forward(c, down, x, obs))
        assert grad[j] == pytest.approx(want, abs=1e-12)


def test_finite_diff_step_window():
    theta = np.zeros(2)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, theta, h=1e-9)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, theta, h=0.5)


def test_gradient_shape_validation():
    c = build_circuit(1, 1, 1, 1)
    with pytest.raises(ValueError):
        parameter_shift_grad_f(c, np.zeros(3), np.zeros(1), z_observable(1))
