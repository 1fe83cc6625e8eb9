"""Adjoint loss gradients against parameter shift, and parameter shift
against analytic and finite-difference oracles."""

import numpy as np
import pytest

from reupqnn.ansatz import build_circuit, forward, forward_many
from reupqnn.data import Sample
from reupqnn.grad import _loss_grads, finite_diff_grad, loss_grad, parameter_shift_grad_f
from reupqnn.noise import noisy_forward
from reupqnn.qcore import Observable, z_observable
from reupqnn.train import loss_derivative


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


# --- adjoint loss gradients ---------------------------------------------------


def random_runs(rng, circuit, runs):
    return (rng.uniform(0, 2 * np.pi, (runs, circuit.n_params)),
            rng.uniform(0, 2 * np.pi, (runs, circuit.data_dim)),
            rng.choice([-1.0, 1.0], runs))


def shift_loss_grads(circuit, thetas, xs, ys, obs, p):
    """The oracle: l'(f, y) times the parameter-shift gradient, one run at a time."""
    return np.array([
        loss_derivative(forward_many(circuit, theta, x, obs, p)[0], y)
        * parameter_shift_grad_f(circuit, theta, x, obs, p)
        for theta, x, y in zip(thetas, xs, ys)
    ])


def random_hermitian(rng, n):
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    return Observable(0.5 * (a + a.conj().T))


def test_adjoint_loss_grads_match_shift_oracle():
    """Noiseless adjoint sweep: one qubit, folded encodings (D > N, fillers),
    and the image sweep's 4q L16 circuit."""
    rng = np.random.default_rng(57)
    for n, layers, d, r in [(1, 1, 1, 1), (2, 3, 5, 2), (3, 2, 7, 1), (4, 16, 16, 2)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        thetas, xs, ys = random_runs(rng, c, 3)
        got = _loss_grads(c, thetas, xs, ys, obs, 0.0)
        want = shift_loss_grads(c, thetas, xs, ys, obs, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_noisy_adjoint_loss_grads_match_shift_oracle():
    """Heisenberg-picture sweep on the filler shapes and the noisy sweep's circuit."""
    rng = np.random.default_rng(58)
    for n, layers, d, r in [(2, 2, 3, 1), (3, 2, 7, 1), (4, 2, 16, 2)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        for p in (0.01, 0.05, 0.3):
            thetas, xs, ys = random_runs(rng, c, 2)
            got = _loss_grads(c, thetas, xs, ys, obs, p)
            want = shift_loss_grads(c, thetas, xs, ys, obs, p)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_adjoint_loss_grads_take_complex_hermitian_observables():
    """A dense M: lam = Re(M) psi and Lam = vec(Re M) are not diagonal."""
    rng = np.random.default_rng(59)
    c = build_circuit(3, 2, 5, 1)
    obs = random_hermitian(rng, 3)
    for p in (0.0, 0.05):
        thetas, xs, ys = random_runs(rng, c, 2)
        got = _loss_grads(c, thetas, xs, ys, obs, p)
        want = shift_loss_grads(c, thetas, xs, ys, obs, p)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_loss_grads_rows_do_not_depend_on_batch():
    """Row r is the same bits alone and inside batches of 3 and 7, in both modes."""
    rng = np.random.default_rng(60)
    cases = [((1, 1, 1, 1), 0.0, None), ((4, 2, 4, 2), 0.0, None), ((4, 2, 4, 2), 0.0, "dense"),
             ((3, 1, 2, 2), 0.05, None), ((2, 2, 3, 1), 0.3, "dense")]
    for (n, layers, d, r), p, kind in cases:
        c = build_circuit(n, layers, d, r)
        obs = random_hermitian(rng, n) if kind == "dense" else z_observable(n)
        thetas, xs, ys = random_runs(rng, c, 7)
        whole = _loss_grads(c, thetas, xs, ys, obs, p)
        for row in range(7):
            alone = _loss_grads(c, thetas[row:row + 1], xs[row:row + 1], ys[row:row + 1],
                                obs, p)
            lo = min(row, 4)
            three = _loss_grads(c, thetas[lo:lo + 3], xs[lo:lo + 3], ys[lo:lo + 3],
                                obs, p)
            assert np.array_equal(alone[0], whole[row])
            assert np.array_equal(three[row - lo], whole[row])
