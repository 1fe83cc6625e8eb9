"""Dense quantum state and operator primitives.

Everything downstream (circuit simulation, Choi-operator algebra, noise
channels) is built on the small set of utilities in this module:

* Pauli matrices and single-qubit rotation gates exp(-i * angle * P / 2).
* Kronecker composition with the big-endian qubit convention: qubit 0 is
  the most significant bit of the basis index, so ``kron(A, B)`` acts with
  A on qubit 0.
* Dense gate embedding on arbitrary target qubits, observables and the
  spectral norm.
* A pure-state and density-matrix container with validity checks, and the
  batched density check that the noisy engine rows run through.
* The package's one positivity test, ``_psd_violations``: a Cholesky
  factorization of a stack's Hermitian part shifted by the floor, shared
  by the density check and :func:`reupqnn.comb.validate_comb`.

Arrays here are numpy ``complex128`` (the batched engine in
:mod:`reupqnn.ansatz` keeps its rows in ``float64``); sizes stay at desk
scale (a handful of qubits), so the implementations favor clarity over
asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CapacityError",
    "NumericalIntegrityError",
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "rotation_gate",
    "kron",
    "kron_all",
    "embed_gate",
    "QuantumState",
    "Observable",
    "z_observable",
    "spectral_norm",
]


class CapacityError(Exception):
    """Requested object exceeds the supported desk-scale dimensions."""


class NumericalIntegrityError(Exception):
    """A numerical invariant (residue, trace, positivity) was violated."""


I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# Largest admissible matrix dimension for kron results; beyond this the
# dense representation stops being desk scale.
_MAX_KRON_DIM = 1 << 13

_UNITARY_ATOL = 1e-10
_STATE_NORM_ATOL = 1e-12


def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """Single-qubit rotation exp(-i * angle * P_axis / 2) as a 2x2 matrix.

    Args:
        axis: one of ``"x"``, ``"y"``, ``"z"``.
        angle: rotation angle in radians; must be finite.
    """
    if axis not in _PAULI_BY_AXIS:
        raise ValueError(f"unknown rotation axis {axis!r}; expected 'x', 'y' or 'z'")
    if not np.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    pauli = _PAULI_BY_AXIS[axis]
    half = 0.5 * angle
    return np.cos(half) * I2 - 1.0j * np.sin(half) * pauli


def _check_kron(factors: list) -> None:
    """The operands of a kron product, checked before it is built: 2-d,
    non-empty, and a result no larger than ``_MAX_KRON_DIM`` either way."""
    if any(f.ndim != 2 for f in factors):
        raise ValueError("kron expects 2-d operands")
    if any(0 in f.shape for f in factors):
        raise ValueError("kron operands must be non-empty")
    rows, cols = (math.prod(f.shape[axis] for f in factors) for axis in (0, 1))
    if rows > _MAX_KRON_DIM or cols > _MAX_KRON_DIM:
        raise CapacityError(
            f"kron result {rows}x{cols} exceeds the supported maximum "
            f"dimension {_MAX_KRON_DIM}"
        )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a acting on the more significant subsystem."""
    a = np.asarray(a)
    b = np.asarray(b)
    _check_kron([a, b])
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    """Left-to-right kron of a non-empty sequence (index 0 most significant),
    its size checked before any product is built."""
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    _check_kron(factors)
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def embed_gate(gate: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix acting with ``gate`` on ``targets``.

    The first target qubit lines up with the most significant axis of the
    gate.  Targets may appear in any order and need not be adjacent.
    """
    targets = tuple(int(t) for t in targets)
    _check_targets(gate, targets, n_qubits)
    rest = [q for q in range(n_qubits) if q not in targets]
    full = kron(np.asarray(gate, dtype=complex), np.eye(1 << len(rest), dtype=complex))
    order = list(targets) + rest  # qubit owning each axis of `full`
    perm = [order.index(q) for q in range(n_qubits)]
    tensor = full.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose(perm + [n_qubits + p for p in perm])
    dim = 1 << n_qubits
    return np.ascontiguousarray(tensor.reshape(dim, dim))


def _check_targets(gate: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise ValueError(f"targets {targets} out of range for {n_qubits} qubits")
    k = len(targets)
    if gate.shape != (1 << k, 1 << k):
        raise ValueError(
            f"gate shape {gate.shape} does not match {k} target qubit(s)"
        )


# No package code builds a QuantumState; the reference simulator in
# tests/_oracles.py does.  It stays here because the benchmark tracer
# (perfbench/spans.py) patches QuantumState.__post_init__ at install time
# and stops without the class.
@dataclass(frozen=True)
class QuantumState:
    """A pure statevector or a density matrix on ``n_qubits`` qubits.

    Invariants are checked at construction: unit norm for pure states;
    Hermiticity, unit trace and an eigenvalue floor of -1e-10 for density
    matrices (`_check_density_rows`).  A NaN or infinite entry fails either
    kind.  The caller's array is only read.
    """

    data: np.ndarray
    kind: str  # "pure" | "density"
    n_qubits: int = field(init=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        if self.kind == "pure":
            if data.ndim != 1:
                raise ValueError("pure state must be a 1-d vector")
            n = _qubit_count(data.shape[0])
            norm = np.linalg.norm(data)
            if not abs(norm - 1.0) <= _STATE_NORM_ATOL:  # NaN fails too
                raise NumericalIntegrityError(
                    f"statevector norm {norm!r} deviates from 1 beyond 1e-12"
                )
        elif self.kind == "density":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError("density matrix must be square")
            n = _qubit_count(data.shape[0])
            _check_density_rows(data[None])
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "n_qubits", n)

    @classmethod
    def zero(cls, n_qubits: int) -> "QuantumState":
        """|0...0> on ``n_qubits`` qubits."""
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        vec = np.zeros(1 << n_qubits, dtype=complex)
        vec[0] = 1.0
        return cls(vec, "pure")

    def to_density(self) -> "QuantumState":
        if self.kind == "density":
            return self
        vec = self.data
        return QuantumState(np.outer(vec, vec.conj()), "density")


def _qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def _check_density_rows(rhos: np.ndarray) -> None:
    """Density invariants on a (rows, dim, dim) stack, one `_psd_violations`.

    Every row must be Hermitian within 1e-10, have unit trace within 1e-12
    and no eigenvalue below -1e-10, up to rounding of order 1e-16*||rho||
    (either verdict exactly at the floor).  A NaN or infinite entry fails
    the Hermiticity test.  The error names the first condition that fails
    in the stack (the trace message gives the largest drift), not the row.
    """
    violations = _psd_violations(rhos, _UNITARY_ATOL)
    if "hermiticity" in violations:
        raise NumericalIntegrityError("density matrix is not Hermitian")
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    if np.max(drift, initial=0.0) > _STATE_NORM_ATOL:
        raise NumericalIntegrityError(
            f"density trace deviates from 1 by {np.max(drift)!r}, beyond 1e-12"
        )
    if violations:
        raise NumericalIntegrityError("density matrix has an eigenvalue below -1e-10")


def _psd_violations(mats: np.ndarray, tol: float) -> tuple[str, ...]:
    """The conditions a (..., d, d) stack fails, in order: ``"hermiticity"``
    when an entry of M - M^dagger exceeds ``tol`` in modulus, or is NaN;
    ``"positivity"`` when a Cholesky factorization of H + tol*I fails, H
    the Hermitian part.  It fails when an eigenvalue of H lies below
    -tol, up to rounding of order 1e-16*||H|| (either verdict exactly at
    the floor), without computing the spectrum.

    A stack with no imaginary part is checked and factored in real
    arithmetic: a real symmetric matrix has the spectrum of its complex
    copy.  ``mats`` is only read.
    """
    if np.iscomplexobj(mats) and not mats.imag.any():
        mats = mats.real
    # One contiguous adjoint, a new array, serves the deviation and H, so
    # the in-place writes below never reach the caller's stack.
    herm = np.conjugate(mats.swapaxes(-1, -2), order="C")
    violations = []
    if not np.max(np.abs(mats - herm), initial=0.0) <= tol:
        violations.append("hermiticity")
    np.add(herm, mats, out=herm)
    herm *= 0.5
    np.einsum("...ii->...i", herm)[...] += tol  # a writable view of the diagonals
    try:
        # H^T is H or its conjugate, with the same spectrum; its Fortran
        # layout is what LAPACK reads, so numpy skips a transposing copy.
        np.linalg.cholesky(herm.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        violations.append("positivity")
    return tuple(violations)


@dataclass(frozen=True)
class Observable:
    """Hermitian measurement operator with its spectral norm cached."""

    matrix: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable must be a square matrix")
        _qubit_count(mat.shape[0])
        if not np.isfinite(mat).all():
            raise ValueError("observable contains non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("observable is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "norm", spectral_norm(mat))


def z_observable(n_qubits: int) -> Observable:
    """Pauli-Z on qubit 0, identity elsewhere."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return Observable(kron_all([PAULI_Z] + [I2] * (n_qubits - 1)))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of ``m`` (exact, by SVD)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or min(m.shape) == 0:
        raise ValueError("spectral_norm expects a non-empty 2-d matrix")
    return float(np.linalg.norm(m, 2))
