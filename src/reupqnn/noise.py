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
training gradients and stability probes run directly.  It holds a density
matrix as its Pauli coefficients, in which D_p keeps every coefficient
whose factor on the marked qubit is I and scales the others by 1 - p (the
per-weight damping of the Pauli transfer matrix); its kernel
`ansatz._damp_rows` applies k merged channels as one scale by (1 - p)^k,
computed once per batch.  `noisy_forward` is its one-row wrapper.
``noise_p`` may be a float or one strength per row, so the values of a
noise sweep share one batch.  The engine folds noisy rows
like noiseless ones and merges each qubit's channels up to the next CX
that touches it, which leaves this model as it is: D_p on q commutes with
every unitary on q and with every gate that leaves q alone, and
D_p^k = D_{1-(1-p)^k}.
"""

from __future__ import annotations

from .ansatz import ReuploadCircuit, _check_theta, _check_x, forward_many
from .qcore import Observable

__all__ = ["noisy_forward"]


def noisy_forward(circuit: ReuploadCircuit, theta, x, obs: Observable, p: float) -> float:
    """Circuit output under per-gate depolarizing noise of strength ``p``.

    Density-matrix simulation from |0...0><0...0|; after each gate the
    channel hits every qubit that gate acted on.  The final state is
    checked for unit trace (to 1e-12), Hermiticity and positivity.  At
    p = 0 this is `ansatz.forward`.
    """
    theta = _check_theta(circuit, theta)
    return float(forward_many(circuit, theta, _check_x(circuit, x), obs, p)[0])
