"""Data re-uploading ansatz: layout, simulation, and dense unitaries.

A circuit interleaves L+1 trainable blocks with L identical encoding
blocks:

    block(1), encode(x), block(2), encode(x), ..., encode(x), block(L+1)

A trainable block is R sublayers, each one Ry(theta) on every qubit
followed by a CX chain (control i, target i+1).  An encoding block is
ceil(D / N) columns of Ry(x) rotations with the D features laid out
row-major over (column, qubit) slots; slots past the last feature are
Ry(0) fillers so every encoding block has the same shape.

The trainable parameter vector has K = (L + 1) * R * N entries ordered by
(layer, sublayer, qubit).

One batched engine, `forward_many`, simulates every circuit output in the
package: real statevector rows when noiseless, real density-matrix rows
under per-gate depolarizing noise (``noise_p`` > 0).  `forward` and
`noise.noisy_forward` are its one-row wrappers.  Both modes walk one gate
schedule; `_output_grads` walks it forward and then backward to give
every row's parameter gradient (adjoint differentiation).  There is no
second simulator: `iter_gates` lists the same circuit gate by gate and the
dense unitaries multiply it out, for the comb route (the independent
check) and for the reference simulators in the tests.

Rows are folded in both modes: Ry(a) Ry(b) = Ry(a + b), so an encoding
block acts as one Ry of the per-qubit feature sum, which merges into the
next trainable block's first Ry column.  This is a modelling fact, not only
a speed-up: with D > N the model depends on x only through the N sums of
the features sharing a qubit (the Fourier view of Schuld, Sweke & Meyer,
arXiv:2008.08605).  The paper's bound still counts L * D encoding gates.
Noisy rows also merge each qubit's channels up to the next CX that touches
it: D_p on q commutes with every unitary on q and with every gate that
leaves q alone, and D_p^k = D_{1-(1-p)^k} (see `noise` for the model).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcore import (
    CapacityError,
    Observable,
    _check_density_rows,
    embed_gate,
    rotation_gate,
)

__all__ = [
    "CX",
    "ReuploadCircuit",
    "build_circuit",
    "iter_gates",
    "forward",
    "forward_many",
    "trainable_block_unitary",
    "encoding_unitary",
    "circuit_unitary",
]

# CNOT with the control on the more significant qubit.
CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

_MAX_QUBITS = 14
_MAX_UNITARY_QUBITS = 8


@dataclass(frozen=True)
class ReuploadCircuit:
    """Static description of a re-uploading circuit (no angles bound)."""

    n_qubits: int
    layers: int
    data_dim: int
    sublayers: int

    def __post_init__(self):
        if self.n_qubits < 1 or self.layers < 1 or self.data_dim < 1 or self.sublayers < 1:
            raise ValueError(
                "n_qubits, layers, data_dim and sublayers must all be >= 1"
            )
        if self.n_qubits > _MAX_QUBITS:
            raise CapacityError(
                f"{self.n_qubits} qubits exceeds the supported maximum {_MAX_QUBITS}"
            )

    @property
    def n_params(self) -> int:
        """K = (L + 1) * R * N."""
        return (self.layers + 1) * self.sublayers * self.n_qubits

    @property
    def encode_columns(self) -> int:
        """Ry columns per encoding block, ceil(D / N)."""
        return -(-self.data_dim // self.n_qubits)

    def param_index(self, layer: int, sublayer: int, qubit: int) -> int:
        """Flat index of the parameter at (layer, sublayer, qubit).

        ``layer`` runs from 1 to L + 1, ``sublayer`` from 0 to R - 1.
        """
        if not (1 <= layer <= self.layers + 1):
            raise ValueError(f"layer {layer} out of range")
        if not (0 <= sublayer < self.sublayers):
            raise ValueError(f"sublayer {sublayer} out of range")
        if not (0 <= qubit < self.n_qubits):
            raise ValueError(f"qubit {qubit} out of range")
        return ((layer - 1) * self.sublayers + sublayer) * self.n_qubits + qubit


def build_circuit(n_qubits: int, layers: int, data_dim: int, sublayers: int) -> ReuploadCircuit:
    """Construct the circuit description; see the module docstring for layout."""
    return ReuploadCircuit(n_qubits, layers, data_dim, sublayers)


def _check_theta(circuit: ReuploadCircuit, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({circuit.n_params},)"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    return theta


def _check_x(circuit: ReuploadCircuit, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (circuit.data_dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({circuit.data_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    return x


def _iter_trainable_gates(circuit: ReuploadCircuit, theta: np.ndarray, layer: int):
    n = circuit.n_qubits
    for r in range(circuit.sublayers):
        for q in range(n):
            yield rotation_gate("y", theta[circuit.param_index(layer, r, q)]), (q,)
        for q in range(n - 1):
            yield CX, (q, q + 1)


def _iter_encode_gates(circuit: ReuploadCircuit, x: np.ndarray):
    n = circuit.n_qubits
    for c in range(circuit.encode_columns):
        for q in range(n):
            d = c * n + q
            angle = x[d] if d < circuit.data_dim else 0.0
            yield rotation_gate("y", angle), (q,)


def iter_gates(circuit: ReuploadCircuit, theta, x):
    """Yield (gate, targets) over the whole circuit in application order."""
    theta = _check_theta(circuit, theta)
    x = _check_x(circuit, x)
    for layer in range(1, circuit.layers + 1):
        yield from _iter_trainable_gates(circuit, theta, layer)
        yield from _iter_encode_gates(circuit, x)
    yield from _iter_trainable_gates(circuit, theta, circuit.layers + 1)


def forward(circuit: ReuploadCircuit, theta, x, obs: Observable) -> float:
    """<0...0| U(theta, x)^dagger M U(theta, x) |0...0>: one row of `forward_many`."""
    theta = _check_theta(circuit, theta)
    return float(forward_many(circuit, theta, _check_x(circuit, x), obs)[0])


# --- batched engine -------------------------------------------------------
#
# The training loop evaluates many (theta, x) rows against the same circuit
# (every run of a lockstep step, or a whole dataset); doing so row-parallel
# inside numpy is the difference between seconds and hours.  Rows are stored
# batch-last: a batch is (amplitudes, rows), so every kernel's inner loop
# runs contiguously over the rows, whatever the qubit.  The kernels split
# only the leading axis, so a column slice such as the adjoint's psi half
# stays a view and is updated in place.  The same two gate kernels serve
# both modes: a noisy row holds its density matrix as a 2n-qubit vector
# (row bits, then column bits), and since Ry and CX are real,
# U rho U^dagger = U rho U^T is the gate applied once on qubit q and once on
# qubit n + q.  Every kernel is elementwise per row, and every sum over
# amplitudes runs in one fixed order (see `_column_sum`), so a row's bits do
# not depend on the other rows of its batch.

# Rows are simulated in chunks of at most this many bytes of states.
_CHUNK_BYTES = 64 << 20

# Schedule entry kinds; see `_schedule`.
_RY, _CX, _NOISE = range(3)


def _apply_ry_rows(states: np.ndarray, qubit: int, c: np.ndarray, s: np.ndarray) -> None:
    """Ry on one qubit of every row, in place; ``c`` and ``s`` are the
    (rows,) cosines and sines of half the angles."""
    view = states.reshape(1 << qubit, 2, -1, states.shape[-1])
    a = view[:, 0]
    b = view[:, 1]
    new_a = c * a - s * b
    b *= c
    b += s * a
    a[...] = new_a


def _apply_cx_rows(states: np.ndarray, control: int, target: int) -> None:
    # control < target by construction of the chain; pure index permutation.
    mid = 1 << (target - control - 1)
    view = states.reshape(1 << control, 2, mid, 2, -1, states.shape[-1])
    tmp = view[:, 1, :, 0].copy()
    view[:, 1, :, 0] = view[:, 1, :, 1]
    view[:, 1, :, 1] = tmp


def _depolarize_rows(rhos: np.ndarray, n: int, qubit: int, p: float) -> None:
    """Depolarizing channel of strength ``p`` (see `noise`) on one qubit of
    n-qubit density rows stored as 2n-qubit vectors, in place.  k merged
    channels of strength p are one of strength 1 - (1 - p)^k."""
    # Axes: row bits before the qubit, its row bit, the n - 1 bits between
    # it and its column bit, its column bit, the column bits after it.
    view = rhos.reshape(1 << qubit, 2, 1 << (n - 1), 2, -1, rhos.shape[-1])
    mixed = 0.5 * p * (view[:, 0, :, 0] + view[:, 1, :, 1])
    view *= 1.0 - p
    view[:, 0, :, 0] += mixed
    view[:, 1, :, 1] += mixed


@functools.lru_cache(maxsize=32)
def _schedule(circuit: ReuploadCircuit, noisy: bool) -> tuple:
    """The gate sequence of one row, walked forward by `_sweep` and backward
    by `_adjoint_rows`.

    Entries are (_RY, q, j): Ry on qubit q by column j of `_half_angles`;
    (_CX, q, -1): CX from q to q + 1; (_NOISE, q, k): k merged channels on q.
    Rows are folded (see the module docstring): an encoding block has no
    entries of its own, and `_half_angles` adds its per-qubit feature sums to
    the next block's first Ry column.  With noise, every gate, Ry(0) fillers
    included, owes one channel to each qubit it touches; a qubit's owed
    channels are paid as one entry just before the next CX that touches it,
    or at the end of the circuit.
    """
    n = circuit.n_qubits
    ops, owed = [], [0] * n

    def pay(*qubits: int) -> None:
        for q in qubits:
            if noisy and owed[q]:
                ops.append((_NOISE, q, owed[q]))
                owed[q] = 0

    for layer in range(1, circuit.layers + 2):
        for r in range(circuit.sublayers):
            for q in range(n):
                ops.append((_RY, q, circuit.param_index(layer, r, q)))
                owed[q] += 1 + (circuit.encode_columns if layer > 1 and r == 0 else 0)
            for q in range(n - 1):
                pay(q, q + 1)
                ops.append((_CX, q, -1))
                owed[q] = owed[q + 1] = 1  # both were just paid
    pay(*range(n))
    return tuple(ops)


def _half_angles(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Half of every trainable Ry angle, encoding sums folded in: (K, rows)."""
    rows = thetas.shape[0]
    slots = np.zeros((rows, circuit.encode_columns * circuit.n_qubits))
    slots[:, :circuit.data_dim] = xs
    angles = thetas.reshape(rows, circuit.layers + 1, circuit.sublayers, -1).copy()
    angles[:, 1:, 0, :] += slots.reshape(rows, -1, circuit.n_qubits).sum(axis=1)[:, None, :]
    return np.ascontiguousarray(0.5 * angles.reshape(rows, -1).T)


def _strengths(circuit: ReuploadCircuit, noise_p: float) -> dict:
    """1 - (1 - p)^k for every merged channel count k in the schedule; empty when noiseless."""
    ops = _schedule(circuit, True) if noise_p else ()
    return {k: 1.0 - (1.0 - noise_p) ** k for kind, _, k in ops if kind == _NOISE}


def _step(states: np.ndarray, op: tuple, c: np.ndarray, s: np.ndarray, n: int,
          strengths: dict) -> None:
    """Apply one schedule entry to every row in place; ``c`` and ``s`` are
    the cosines and sines of `_half_angles` (negated sines undo an Ry), and
    ``strengths`` those of `_strengths`."""
    kind, q, j = op
    if kind == _NOISE:
        _depolarize_rows(states, n, q, strengths[j])
        return
    for m in ((0, n) if strengths else (0,)):
        if kind == _RY:
            _apply_ry_rows(states, m + q, c[j], s[j])
        else:
            _apply_cx_rows(states, m + q, m + q + 1)


def _fresh_rows(circuit: ReuploadCircuit, rows: int, noise_p: float) -> np.ndarray:
    """|0...0> as (2^n, rows) statevector rows, or (4^n, rows) density rows."""
    states = np.zeros((1 << (circuit.n_qubits * (2 if noise_p else 1)), rows))
    states[0] = 1.0
    return states


def _sweep(states: np.ndarray, circuit: ReuploadCircuit, c: np.ndarray, s: np.ndarray,
           strengths: dict, kept: list | None = None) -> None:
    """Walk the schedule forward over ``states`` in place.  With ``kept`` a
    list, append a copy of the rows after every Ry."""
    for op in _schedule(circuit, bool(strengths)):
        _step(states, op, c, s, circuit.n_qubits, strengths)
        if kept is not None and op[0] == _RY:
            kept.append(states.copy())


def _simulate_rows(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                   noise_p: float) -> np.ndarray:
    """Real statevector rows, or density rows as 2n-qubit vectors when ``noise_p`` > 0."""
    half = _half_angles(circuit, thetas, xs)
    states = _fresh_rows(circuit, thetas.shape[0], noise_p)
    _sweep(states, circuit, np.cos(half), np.sin(half), _strengths(circuit, noise_p))
    return states


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (amplitudes, rows) terms over the amplitudes, one per row.

    Sequential, so a row's bits do not depend on its batch: np.add.reduce
    or einsum over a lone contiguous column switches to a pairwise or
    unrolled sum, which rounds differently from the same column in a batch.
    """
    return np.add.accumulate(terms, axis=0)[-1]


def _observe(matrix: np.ndarray, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """M psi for a real M.  einsum, not BLAS, whose bits can depend on the
    row count; M column-major, so that the inner loop never sums over j,
    not even for a lone column (see `_column_sum`)."""
    return np.einsum("ij,jb->ib", np.asfortranarray(matrix), states, out=out)


def _measure(circuit: ReuploadCircuit, states: np.ndarray, obs: Observable,
             noise_p: float) -> np.ndarray:
    # Rows are real and Im(M) of a Hermitian M is antisymmetric, so it adds
    # nothing to psi^T M psi or tr(M rho) with rho symmetric.
    matrix = obs.matrix.real
    if noise_p:
        dim = 1 << circuit.n_qubits
        _check_density_rows(np.moveaxis(states.reshape(dim, dim, -1), -1, 0))
        # tr(M rho) = <vec(M^T), vec(rho)>.
        return _column_sum(matrix.T.reshape(-1, 1) * states)
    return _column_sum(states * _observe(matrix, states))


def _expectations(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                  obs: Observable, noise_p: float) -> np.ndarray:
    return _measure(circuit, _simulate_rows(circuit, thetas, xs, noise_p), obs, noise_p)


def _ry_grad(lam: np.ndarray, psi: np.ndarray, qubit: int) -> np.ndarray:
    """2 lam^T J_q psi per row, J = dRy/dtheta Ry^T = [[0, -1/2], [1/2, 0]]:
    the sum over the qubit's halves of lam_1 psi_0 - lam_0 psi_1, for
    (amplitudes, rows) ``lam`` and ``psi``."""
    rows = psi.shape[-1]
    lam = lam.reshape(1 << qubit, 2, -1, rows)
    psi = psi.reshape(1 << qubit, 2, -1, rows)
    terms = lam[:, 1] * psi[:, 0] - lam[:, 0] * psi[:, 1]
    return _column_sum(terms.reshape(-1, rows))


def _adjoint_rows(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                  obs: Observable, noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and their parameter gradients for one chunk of rows: ((rows,), (rows, K)).

    Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): one forward
    sweep, then one backward sweep that un-applies the schedule.  Every gate
    is real, so its inverse is its transpose: Ry(-a), and CX itself.

    Noiseless, psi and lam = (Re M) psi ride as the two column halves
    ``back[:, :rows]`` and ``back[:, rows:]`` of one array; at a trainable
    Ry, dE/dtheta = 2 lam^T J_q psi.  Noisy (Heisenberg picture), Lam =
    vec(Re M) runs backward alone: the channel is self-adjoint under the
    Hilbert-Schmidt product, and the forward density rows, which cannot be
    recovered backward, are kept at every trainable Ry.  The gradient there
    is <Lam, (J_q + J_{n+q}) rho>, which equals 2 <Lam, J_q rho> because Lam
    and rho are symmetric matrices: the noiseless formula on 2n-qubit rows.
    """
    rows = thetas.shape[0]
    half = _half_angles(circuit, thetas, xs)
    strengths = _strengths(circuit, noise_p)
    matrix = obs.matrix.real
    kept = [] if noise_p else None
    if noise_p:
        c, s = np.cos(half), np.sin(half)
        states = _fresh_rows(circuit, rows, noise_p)
        _sweep(states, circuit, c, s, strengths, kept)
        values = _measure(circuit, states, obs, noise_p)
        # tr(M rho) = <vec(M^T), vec(rho)>.
        back = np.repeat(matrix.T.reshape(-1, 1), rows, axis=1)
    else:
        # The backward sweep moves psi and lam together, so both halves
        # of the rows carry the same angles.
        half = np.concatenate([half, half], axis=1)
        c, s = np.cos(half), np.sin(half)
        back = _fresh_rows(circuit, 2 * rows, noise_p)
        _sweep(back[:, :rows], circuit, c[:, :rows], s[:, :rows], strengths)
        _observe(matrix, back[:, :rows], out=back[:, rows:])
        values = _column_sum(back[:, :rows] * back[:, rows:])
    s = -s
    psi, lam = back[:, :rows], back[:, -rows:]
    grads = np.empty((rows, circuit.n_params))
    ops = _schedule(circuit, bool(noise_p))
    for i, (kind, q, j) in reversed(list(enumerate(ops))):
        if kind == _RY:
            grads[:, j] = _ry_grad(lam, psi if kept is None else kept.pop(), q)
        if i:
            _step(back, ops[i], c, s, circuit.n_qubits, strengths)
    return values, grads


def _check_rows(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Validated (rows, K) thetas and (rows, D) xs, single rows broadcast."""
    thetas, xs = np.atleast_2d(np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float))
    if thetas.shape[0] == 1 and xs.shape[0] > 1:
        thetas = np.broadcast_to(thetas, (xs.shape[0], thetas.shape[1]))
    if xs.shape[0] == 1 and thetas.shape[0] > 1:
        xs = np.broadcast_to(xs, (thetas.shape[0], xs.shape[1]))
    if thetas.shape[0] != xs.shape[0]:
        raise ValueError("thetas and xs row counts do not match")
    if thetas.shape[1] != circuit.n_params:
        raise ValueError(
            f"thetas have {thetas.shape[1]} columns, expected {circuit.n_params}"
        )
    if xs.shape[1] != circuit.data_dim:
        raise ValueError(f"xs have {xs.shape[1]} columns, expected {circuit.data_dim}")
    if not (np.isfinite(thetas).all() and np.isfinite(xs).all()):
        raise ValueError("thetas or xs contain non-finite entries")
    if obs.matrix.shape[0] != (1 << circuit.n_qubits):
        raise ValueError("observable dimension does not match the circuit")
    if not (0.0 <= noise_p <= 1.0):
        raise ValueError(f"noise strength p={noise_p!r} outside [0, 1]")
    return thetas, xs


def _chunks(rows: int, row_bytes: int):
    """Row slices of at most ``_CHUNK_BYTES`` each (at least one row)."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, rows, step)]


def forward_many(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                 noise_p: float = 0.0) -> np.ndarray:
    """Vectorized `forward` over rows of (theta, x) pairs.

    ``thetas`` is (rows, K) or (K,) broadcast to all rows; ``xs`` is
    (rows, D) or (D,).  Returns the (rows,) vector of expectations.  With
    ``noise_p`` > 0 every row is a density-matrix simulation under
    per-gate depolarizing noise of that strength (see `noise`), checked
    once at the end for unit trace, Hermiticity and positivity.
    """
    thetas, xs = _check_rows(circuit, thetas, xs, obs, noise_p)
    row_bytes = 8 << (circuit.n_qubits * (2 if noise_p else 1))
    values = np.empty(thetas.shape[0])
    for rows in _chunks(thetas.shape[0], row_bytes):
        values[rows] = _expectations(
            circuit, np.ascontiguousarray(thetas[rows]),
            np.ascontiguousarray(xs[rows]), obs, noise_p,
        )
    return values


def _output_grads(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                  noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and its gradient: ((rows,), (rows, K)).

    The outputs are `forward_many`'s, bit for bit.  Adjoint
    differentiation (see `_adjoint_rows`); `grad.parameter_shift_grad_f` is
    its independent oracle.  A noisy row keeps K density rows for the
    backward sweep, and chunks hold at most ``_CHUNK_BYTES`` of them.
    """
    thetas, xs = _check_rows(circuit, thetas, xs, obs, noise_p)
    row_bytes = 8 << (circuit.n_qubits * (2 if noise_p else 1))
    kept_rows = circuit.n_params + 2 if noise_p else 2
    parts = [_adjoint_rows(circuit, np.ascontiguousarray(thetas[rows]),
                           np.ascontiguousarray(xs[rows]), obs, noise_p)
             for rows in _chunks(thetas.shape[0], kept_rows * row_bytes)]
    if len(parts) == 1:
        return parts[0]
    values, grads = zip(*parts, (np.empty(0), np.empty((0, circuit.n_params))))
    return np.concatenate(values), np.concatenate(grads)


# --- dense unitaries ------------------------------------------------------


def _require_unitary_scale(circuit: ReuploadCircuit) -> None:
    if circuit.n_qubits > _MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"dense unitaries are limited to {_MAX_UNITARY_QUBITS} qubits, "
            f"got {circuit.n_qubits}"
        )


def trainable_block_unitary(circuit: ReuploadCircuit, theta, layer: int) -> np.ndarray:
    """Dense unitary of trainable block ``layer`` (1-based, up to L + 1)."""
    _require_unitary_scale(circuit)
    theta = _check_theta(circuit, theta)
    if not (1 <= layer <= circuit.layers + 1):
        raise ValueError(f"layer {layer} out of range")
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for gate, targets in _iter_trainable_gates(circuit, theta, layer):
        u = embed_gate(gate, targets, n) @ u
    return u


def encoding_unitary(circuit: ReuploadCircuit, x) -> np.ndarray:
    """Dense unitary of one encoding block for the feature vector ``x``."""
    _require_unitary_scale(circuit)
    x = _check_x(circuit, x)
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for gate, targets in _iter_encode_gates(circuit, x):
        u = embed_gate(gate, targets, n) @ u
    return u


def circuit_unitary(circuit: ReuploadCircuit, theta, x) -> np.ndarray:
    """Dense unitary of the whole circuit, final block leftmost."""
    _require_unitary_scale(circuit)
    theta = _check_theta(circuit, theta)
    x = _check_x(circuit, x)
    enc = encoding_unitary(circuit, x)
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for layer in range(1, circuit.layers + 1):
        u = trainable_block_unitary(circuit, theta, layer) @ u
        u = enc @ u
    return trainable_block_unitary(circuit, theta, circuit.layers + 1) @ u
