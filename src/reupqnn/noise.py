"""Single-qubit depolarizing noise and the noisy circuit output.

The channel convention is

    D_p(rho) = (1 - p) rho + p * tr_q[rho] (x) I/2,

i.e. with probability p the marked qubit is replaced by the maximally
mixed state.  (In the Pauli-twirl parametrization this is strength
3p/4 on each of X, Y, Z.)  The noisy model applies the channel to every
qubit a gate touches, immediately after that gate; identity filler
rotations in the encoding blocks count as gates and are noised like any
other.  The simulation itself is the density-matrix mode of the batched
engine in `ansatz` (``noise_p`` > 0), which `forward_many`, the adjoint
training gradients and stability probes run directly; the functions here
are one-state and one-row wrappers over its kernels.  The engine folds
noisy rows like noiseless ones and merges each qubit's channels up to the
next CX that touches it, which leaves this model as it is: D_p on q
commutes with every unitary on q and with every gate that leaves q alone,
and D_p^k = D_{1-(1-p)^k}.
"""

from __future__ import annotations

from .ansatz import ReuploadCircuit, _check_theta, _check_x, _depolarize_rows, forward_many
from .qcore import Observable, QuantumState

__all__ = ["depolarize", "noisy_forward"]


def depolarize(rho: QuantumState, p: float, qubit: int) -> QuantumState:
    """Apply the depolarizing channel of strength ``p`` to one qubit."""
    if rho.kind != "density":
        raise ValueError("depolarize needs a density-matrix state")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"noise strength p={p!r} outside [0, 1]")
    n = rho.n_qubits
    if not (0 <= qubit < n):
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if p == 0.0:
        return rho
    row = rho.data.reshape(-1, 1).copy()
    _depolarize_rows(row, n, qubit, p)
    return QuantumState(row.reshape(rho.data.shape), "density")


def noisy_forward(circuit: ReuploadCircuit, theta, x, obs: Observable, p: float) -> float:
    """Circuit output under per-gate depolarizing noise of strength ``p``.

    Density-matrix simulation from |0...0><0...0|; after each gate the
    channel hits every qubit that gate acted on.  The final state is
    checked for unit trace (to 1e-12), Hermiticity and positivity.  At
    p = 0 this is `ansatz.forward`.
    """
    theta = _check_theta(circuit, theta)
    return float(forward_many(circuit, theta, _check_x(circuit, x), obs, p)[0])
