"""Gate-by-gate reference simulators that the tests check the package against.

None of this runs in the package: `ansatz.forward_many` simulates every
circuit output there, and the comb route is the package's own independent
check.  These oracles take a different road to the same numbers:
``apply_gate`` contracts one gate into a pure or density state through
tensordot, ``expectation`` is the quadratic form or trace,
``kraus_oracle`` applies the depolarizing channel by its Kraus form,
``pauli_coefficients`` and ``from_pauli_coefficients`` change a density
matrix to and from the engine's Pauli rows by the dense Pauli products,
``partial_transpose`` swaps a system's row and column axes,
``group_result_loop`` scores a coupled group one (swap, seed) pair at a
time, and ``adjoint_rows_per_ry`` differentiates one trainable Ry at a
time.
"""

import functools

import numpy as np

from reupqnn import ansatz
from reupqnn.ansatz import forward_many
from reupqnn.comb import ChoiOperator, _require_systems
from reupqnn.qcore import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    NumericalIntegrityError,
    Observable,
    QuantumState,
    _check_targets,
)
from reupqnn.stability import StabilityTrace
from reupqnn.train import loss

_UNITARY_ATOL = 1e-10
_RESIDUE_ATOL = 1e-8


def _require_unitary(gate: np.ndarray) -> None:
    dim = gate.shape[0]
    residual = gate @ gate.conj().T - np.eye(dim)
    if np.max(np.abs(residual)) > _UNITARY_ATOL:
        raise ValueError("gate is not unitary within 1e-10")


def apply_gate(state: QuantumState, gate: np.ndarray, targets) -> QuantumState:
    """Apply a unitary ``gate`` to ``targets`` of ``state``.

    Pure states transform as U|psi>, density matrices as U rho U^dagger.
    The gate must be unitary within 1e-10 and its dimension must match the
    number of distinct target qubits.
    """
    gate = np.asarray(gate, dtype=complex)
    targets = tuple(int(t) for t in targets)
    _check_targets(gate, targets, state.n_qubits)
    _require_unitary(gate)
    n = state.n_qubits
    k = len(targets)
    gate_tensor = gate.reshape((2,) * (2 * k))
    if state.kind == "pure":
        psi = state.data.reshape((2,) * n)
        psi = np.tensordot(gate_tensor, psi, axes=(range(k, 2 * k), targets))
        psi = np.moveaxis(psi, range(k), targets)
        return QuantumState(psi.reshape(-1), "pure")
    rho = state.data.reshape((2,) * (2 * n))
    rho = np.tensordot(gate_tensor, rho, axes=(range(k, 2 * k), targets))
    rho = np.moveaxis(rho, range(k), targets)
    col_targets = [n + t for t in targets]
    rho = np.tensordot(rho, gate_tensor.conj(), axes=(col_targets, range(k, 2 * k)))
    rho = np.moveaxis(rho, range(2 * n - k, 2 * n), col_targets)
    dim = 1 << n
    return QuantumState(rho.reshape(dim, dim), "density")


def expectation(state: QuantumState, observable) -> float:
    """Real expectation value <M> in ``state``.

    Accepts an :class:`Observable` or a raw Hermitian matrix.  The
    imaginary residue must stay below 1e-8; it is then discarded.
    """
    mat = observable.matrix if isinstance(observable, Observable) else np.asarray(observable)
    if mat.shape[0] != state.data.shape[0]:
        raise ValueError(
            f"observable dimension {mat.shape[0]} does not match state "
            f"dimension {state.data.shape[0]}"
        )
    if state.kind == "pure":
        value = np.vdot(state.data, mat @ state.data)
    else:
        value = np.trace(mat @ state.data)
    if abs(value.imag) > _RESIDUE_ATOL:
        raise NumericalIntegrityError(
            f"expectation has imaginary residue {value.imag!r} above 1e-8"
        )
    return float(value.real)


def kraus_oracle(rho, p, qubit, n):
    """D_p on ``qubit`` of an n-qubit density matrix, by the Kraus form
    {sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}."""
    ops = [
        np.sqrt(1 - 0.75 * p) * I2,
        np.sqrt(0.25 * p) * PAULI_X,
        np.sqrt(0.25 * p) * PAULI_Y,
        np.sqrt(0.25 * p) * PAULI_Z,
    ]
    out = np.zeros_like(rho)
    for k in ops:
        # embed_gate insists on unitarity, so build the embedding by hand
        full = np.eye(1, dtype=complex)
        for q in range(n):
            full = np.kron(full, k if q == qubit else I2)
        out += full @ rho @ full.conj().T
    return out


@functools.lru_cache(maxsize=8)
def _pauli_products(n):
    """Q(x, z) = (x)_q X^x_q Z^z_q for every entry of an n-qubit Pauli row,
    qubit q's x bit at entry bit 2q and its z bit at entry bit 2q + 1 (bit 0
    the most significant): a (4^n, 2^n, 2^n) real stack."""
    out = []
    for entry in range(4 ** n):
        bits = [(entry >> (2 * n - 1 - b)) & 1 for b in range(2 * n)]
        full = np.eye(1)
        for q in range(n):
            factor = (PAULI_X if bits[2 * q] else I2) @ (PAULI_Z if bits[2 * q + 1] else I2)
            full = np.kron(full, factor.real)
        out.append(full)
    out = np.array(out)
    out.flags.writeable = False  # shared by every call with this n
    return out


def pauli_coefficients(rho):
    """The Pauli row c(x, z) = tr(Q(x, z)^T rho) of an n-qubit matrix."""
    n = int(rho.shape[0]).bit_length() - 1
    return np.einsum("kij,ij->k", _pauli_products(n), rho)


def from_pauli_coefficients(c):
    """The matrix 2^-n sum_Q c(x, z) Q(x, z) of a Pauli row."""
    n = (int(c.shape[0]).bit_length() - 1) // 2
    return np.einsum("k,kij->ij", c, _pauli_products(n)) / 2 ** n


def partial_transpose(op: ChoiOperator, names) -> ChoiOperator:
    """Transpose the chosen systems, leaving the others untouched."""
    names = list(names)
    _require_systems(op, names)
    k = len(op.systems)
    axes = list(range(2 * k))
    for name in names:
        i = op.names.index(name)
        axes[i], axes[k + i] = axes[k + i], axes[i]
    tensor_form = op.matrix.reshape(op.dims + op.dims).transpose(axes)
    dim = op.matrix.shape[0]
    return ChoiOperator(op.systems, np.ascontiguousarray(tensor_form.reshape(dim, dim)))


def group_result_loop(paths, probes, swaps, configs, circuit, obs):
    """(traces, beta_hat) of one coupled group from its (swap + 1, seed,
    T + 1, K) paths, S's runs first, walked pair by pair: each run scored
    by one ``forward_many`` call over its whole path, each (swap, seed)
    trace built on its own, and beta_hat a running max over the swaps of
    the seed-mean final losses' largest gap."""

    def arm(path, config):
        n_steps, n_probes = path.shape[0], len(probes)
        f = forward_many(circuit, np.repeat(path, n_probes, axis=0),
                         np.tile(probes.features, (n_steps, 1)), obs,
                         config.noise_p).reshape(n_steps, n_probes)
        return path, f, loss(f, probes.labels)

    def mean_final_loss(arms):
        return sum(probe_loss[-1] for _, _, probe_loss in arms) / len(arms)

    bases = [arm(path, config) for path, config in zip(paths[0], configs)]
    base_mean = mean_final_loss(bases)
    traces = []
    worst = 0.0
    for (index, _), twin_paths in zip(swaps, paths[1:]):
        twins = [arm(path, config) for path, config in zip(twin_paths, configs)]
        for config, (path_a, f_a, l_a), (path_b, f_b, l_b) in zip(configs, bases, twins):
            traces.append(StabilityTrace(
                replaced_index=index,
                seed=config.seed,
                sum_abs_dtheta=np.sum(np.abs(path_a - path_b), axis=1),
                probe_f_gap=np.max(np.abs(f_a - f_b), axis=1),
                probe_loss_gap=np.max(np.abs(l_a - l_b), axis=1),
            ))
        worst = max(worst, float(np.max(np.abs(base_mean - mean_final_loss(twins)))))
    return traces, 0.5 * worst


def _ry_grad(lam, psi):
    """The derivative of every row's output by the angle of an Ry, from
    the `_pairs` views (a, b) of lam and of the rows psi kept after the Ry:
    the sum of lam_b psi_a - lam_a psi_b in `_column_sum` order."""
    terms = lam[:, 1] * psi[:, 0] - lam[:, 0] * psi[:, 1]
    return ansatz._column_sum(terms.reshape(-1, terms.shape[-1]))


def adjoint_rows_per_ry(circuit, thetas, sums, form, strengths, grads):
    """``ansatz._adjoint_rows`` one trainable Ry at a time: the forward
    sweep keeps a copy of the whole rows after every Ry, and the backward
    sweep takes `_ry_grad` of lam and of the rows kept for an Ry just before
    it undoes that Ry.  Same signature and result: the (rows,) outputs
    returned, the gradients written into the (rows, K) ``grads``."""
    noisy, n = bool(strengths), circuit.n_qubits
    d = 4 if noisy else 2
    c, S = ansatz._angles(circuit, thetas, sums, noisy)
    states = ansatz._fresh_rows(circuit, c.shape[1], noisy)
    kept = []
    pairs = ansatz._pairs(states, n, d)
    for op in ansatz._schedule(circuit, noisy):
        ansatz._step(states, pairs, op, c, S, strengths)
        if op[0] == ansatz._RY:
            kept.append(states.copy())
    lam = form.repeat(c.shape[1], axis=1) if noisy else ansatz._observe(form, states)
    values = ansatz._column_sum(lam * states)
    pairs, S = ansatz._pairs(lam, n, d), S[:, ::-1]
    for op in ansatz._schedule(circuit, noisy, backward=True):
        kind, q, j = op
        if kind == ansatz._RY:
            grads[:, j] = _ry_grad(pairs[q], ansatz._pairs(kept.pop(), n, d)[q])
        if kept:  # once the first entry, an Ry, is done, nothing is left to undo
            ansatz._step(lam, pairs, op, c, S, strengths)
    return values
