"""Gate-by-gate reference simulators that the tests check the package against.

None of this runs in the package: `ansatz.forward_many` simulates every
circuit output there, and the comb route is the package's own independent
check.  These oracles take a different road to the same numbers:
``apply_gate`` contracts one gate into a pure or density state through
tensordot, ``expectation`` is the quadratic form or trace,
``kraus_oracle`` applies the depolarizing channel by its Kraus form, and
``partial_transpose`` swaps a system's row and column axes.
"""

import numpy as np

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
