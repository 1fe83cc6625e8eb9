"""The depolarizing kernel, the noisy circuit output and the damping law.

Oracles: the Kraus form {sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y,
sqrt(p/4) Z} (``_oracles.kraus_oracle``), which equals replacing the
marked qubit by I/2 with probability p; a dense density-matrix replay of
the gate list with that channel after every gate; and the closed-form
(1-p)^G damping of one-qubit circuits.
"""

import numpy as np
import pytest

from _oracles import kraus_oracle
from reupqnn.ansatz import (
    _depolarize_rows,
    _output_grads,
    build_circuit,
    circuit_unitary,
    forward,
    forward_many,
    iter_gates,
)
from reupqnn.grad import parameter_shift_grad_f
from reupqnn.noise import noisy_forward
from reupqnn.qcore import I2, Observable, _check_density_rows, embed_gate, z_observable


def random_density(rng, n):
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def depolarized(rho, p, qubit, n):
    """D_p on one qubit of ``rho`` by the engine kernel, as a one-row batch."""
    row = rho.reshape(-1, 1).copy()
    _depolarize_rows(row, n, qubit, p)
    return row.reshape(rho.shape)


def test_depolarize_p_zero_is_identity():
    rng = np.random.default_rng(61)
    rho = random_density(rng, 2)
    np.testing.assert_array_equal(depolarized(rho, 0.0, 1, 2), rho)


def test_depolarize_p_one_fully_mixes_one_qubit():
    rng = np.random.default_rng(62)
    out = depolarized(random_density(rng, 1), 1.0, 0, 1)
    np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-12)


def test_depolarize_plus_state_half_strength():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    out = depolarized(plus, 0.5, 0, 1)
    np.testing.assert_allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-14)


def test_depolarize_matches_kraus_oracle():
    rng = np.random.default_rng(63)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        qubit = int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        rho = random_density(rng, n)
        got = depolarized(rho, p, qubit, n)
        assert np.max(np.abs(got - kraus_oracle(rho, p, qubit, n))) < 1e-10


def test_depolarize_preserves_trace_and_validity():
    rng = np.random.default_rng(64)
    out = depolarized(random_density(rng, 2), 0.37, 0, 2)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    _check_density_rows(out[None])  # Hermitian, unit trace, no eigenvalue below -1e-10


def test_noisy_forward_p_zero_matches_clean():
    rng = np.random.default_rng(65)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        c = build_circuit(n, int(rng.integers(1, 3)), n, 1)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, n)
        obs = z_observable(n)
        assert noisy_forward(c, theta, x, obs, 0.0) == pytest.approx(
            forward(c, theta, x, obs), abs=1e-12
        )


def noisy_output_oracle(circuit, theta, x, obs, p, noise_fillers=True):
    """Dense density-matrix replay: embed_gate per gate, Kraus channel per target.

    With ``noise_fillers`` False the Ry(0) filler slots, the only identity
    gates when the angles are drawn at random, get no channel.
    """
    n = circuit.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for gate, targets in iter_gates(circuit, theta, x):
        u = embed_gate(gate, targets, n)
        rho = u @ rho @ u.conj().T
        if noise_fillers or not np.array_equal(gate, I2):
            for q in targets:
                rho = kraus_oracle(rho, p, q, n)
    return np.trace(obs.matrix @ rho).real


def test_noisy_forward_many_matches_dense_kraus_replay():
    """Multi-qubit circuits with CX chains and Ry(0) fillers (D not a multiple of N)."""
    rng = np.random.default_rng(68)
    for n, layers, d, r in [(2, 1, 1, 1), (2, 2, 3, 2), (3, 1, 4, 1), (3, 2, 2, 2)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        thetas = rng.uniform(0, 2 * np.pi, (4, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (4, d))
        for p in (0.02, 0.3, 1.0):
            got = forward_many(c, thetas, xs, obs, p)
            want = [noisy_output_oracle(c, thetas[i], xs[i], obs, p) for i in range(4)]
            assert np.max(np.abs(got - want)) <= 1e-12
            assert [noisy_forward(c, thetas[i], xs[i], obs, p) for i in range(4)] == got.tolist()


def test_merged_channels_match_dense_kraus_replay_and_shift_gradients():
    """Folded noisy rows with each qubit's channels merged up to its next CX,
    on the benchmark's 4q L2 D16 R2 shape, a shape with Ry(0) fillers and a
    one-qubit circuit (one merged channel at the end), from weak to full
    noise: outputs match the unfolded Kraus replay and adjoint gradients
    match parameter shift."""
    rng = np.random.default_rng(70)
    for n, layers, d, r in [(4, 2, 16, 2), (4, 2, 6, 2), (1, 3, 1, 2)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        thetas = rng.uniform(0, 2 * np.pi, (3, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (3, d))
        for p in (1e-6, 0.3, 1.0):
            got = forward_many(c, thetas, xs, obs, p)
            want = [noisy_output_oracle(c, thetas[i], xs[i], obs, p) for i in range(3)]
            assert np.max(np.abs(got - want)) <= 1e-12
            grads = _output_grads(c, thetas, xs, obs, p)[1]
            shift = [parameter_shift_grad_f(c, thetas[i], xs[i], obs, p) for i in range(3)]
            assert np.max(np.abs(grads - shift)) <= 1e-12


def test_forward_many_takes_complex_hermitian_observables():
    """Rows are real, so only Re(M) is used; Im(M) is antisymmetric and adds 0."""
    rng = np.random.default_rng(69)
    for n, layers, d, r in [(2, 2, 3, 2), (3, 1, 4, 1)]:
        c = build_circuit(n, layers, d, r)
        a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        obs = Observable(0.5 * (a + a.conj().T))
        thetas = rng.uniform(0, 2 * np.pi, (4, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (4, d))
        got = forward_many(c, thetas, xs, obs)
        psis = [circuit_unitary(c, thetas[i], xs[i])[:, 0] for i in range(4)]
        want = [(psi.conj() @ obs.matrix @ psi).real for psi in psis]
        assert np.max(np.abs(got - want)) <= 1e-12
        got = forward_many(c, thetas, xs, obs, 0.1)
        want = [noisy_output_oracle(c, thetas[i], xs[i], obs, 0.1) for i in range(4)]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_noisy_forward_exact_damping_single_qubit():
    """All gates touch one qubit, so f_noisy = (1-p)^G f exactly."""
    rng = np.random.default_rng(66)
    for p in (0.01, 0.1, 0.5):
        for _ in range(5):
            layers = int(rng.integers(1, 4))
            sublayers = int(rng.integers(1, 3))
            c = build_circuit(1, layers, 1, sublayers)
            theta = rng.uniform(0, 2 * np.pi, c.n_params)
            x = rng.uniform(0, 2 * np.pi, 1)
            obs = z_observable(1)
            g = c.n_params + c.layers * c.encode_columns
            clean = forward(c, theta, x, obs)
            noisy = noisy_forward(c, theta, x, obs, p)
            assert noisy == pytest.approx((1 - p) ** g * clean, abs=1e-12)


def test_noisy_forward_filler_rotations_count_as_gates():
    """Padding rotations with angle zero still pick up a noise factor."""
    rng = np.random.default_rng(67)
    c = build_circuit(1, 2, 1, 1)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    x = rng.uniform(0, 2 * np.pi, 1)
    obs = z_observable(1)
    p = 0.25
    g = c.n_params + c.layers  # one encode column per layer
    assert noisy_forward(c, theta, x, obs, p) == pytest.approx(
        (1 - p) ** g * forward(c, theta, x, obs), abs=1e-12
    )
    # A 1-qubit block has no filler slot; D not a multiple of N has some.
    for n, layers, d, r in [(2, 2, 3, 1), (3, 2, 7, 1)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        for _ in range(3):
            theta = rng.uniform(0, 2 * np.pi, c.n_params)
            x = rng.uniform(0, 2 * np.pi, d)
            got = noisy_forward(c, theta, x, obs, p)
            assert got == pytest.approx(noisy_output_oracle(c, theta, x, obs, p), abs=1e-12)
            unnoised = noisy_output_oracle(c, theta, x, obs, p, noise_fillers=False)
            assert abs(got - unnoised) > 1e-6


def test_noisy_forward_contracts_toward_zero():
    c = build_circuit(1, 1, 1, 1)
    theta = np.array([0.4, 0.9])
    x = np.array([1.1])
    obs = z_observable(1)
    values = [abs(noisy_forward(c, theta, x, obs, p)) for p in (0.0, 0.1, 0.3, 0.7)]
    assert all(a > b for a, b in zip(values, values[1:]))
