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
under per-gate depolarizing noise (``noise_p`` > 0, a float or one
strength per row).  `forward` and `noise.noisy_forward` are its one-row
wrappers.  Both modes walk one gate schedule; `_output_grads` walks it
forward and then backward to give every row's parameter gradient
(adjoint differentiation).  One planner, `_chunk_plan`, splits the rows
of a forward or an adjoint pass into chunks with their channel factors.
The gradient has one core with two entry points: `_output_grads` checks
its inputs and plans on every call, for outside callers, and then runs
`_planned_grads`; the SGD loop (`train._sgd_paths`) checks a batch's
fixed inputs and plans once per loop, then calls `_planned_grads` at
every step.  There is no second simulator: `iter_gates`
lists the same circuit gate by gate and the dense unitaries multiply it
out, for the comb route (the independent check) and for the reference
simulators in the tests.

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
# runs contiguously over the rows, whatever the qubit.  The same two gate
# kernels serve both modes: a noisy row holds its density matrix as a
# 2n-qubit vector (row bits, then column bits), and since Ry and CX are
# real, U rho U^dagger = U rho U^T is the gate applied once on qubit q and
# once on qubit n + q.  Every kernel is elementwise per row, and every sum over
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


def _mix_rows(rhos: np.ndarray, n: int, qubit: int, keep, half) -> None:
    """Depolarizing channel of strength p (see `noise`) on one qubit of
    n-qubit density rows stored as 2n-qubit vectors, in place, given by its
    factors ``keep`` = 1 - p and ``half`` = p / 2: floats, or (rows,)
    vectors of per-row strengths.  k merged channels of strength p are one
    of strength 1 - (1 - p)^k.  Every entry is scaled by keep, then half
    times the sum of the qubit's two diagonal blocks is added to each of
    them."""
    # Axes: row bits before the qubit, its row bit, the n - 1 bits between
    # it and its column bit, its column bit, the column bits after it.
    view = rhos.reshape(1 << qubit, 2, 1 << (n - 1), 2, -1, rhos.shape[-1])
    mixed = half * (view[:, 0, :, 0] + view[:, 1, :, 1])
    rhos *= keep  # the flat (amplitudes, rows) array, not the 6-d view
    view[:, 0, :, 0] += mixed
    view[:, 1, :, 1] += mixed


@functools.lru_cache(maxsize=32)
def _schedule(circuit: ReuploadCircuit, noisy: bool) -> tuple:
    """The gate sequence of one row, walked forward by `_forward_rows` and
    backward by `_adjoint_rows`.

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


def _noisy(noise: np.ndarray) -> bool:
    """Whether strengths validated by `_check_rows` are positive: a batch
    is all zero or all positive, so its first row tells."""
    return noise.size > 0 and noise.item(0) > 0.0


def _strengths(circuit: ReuploadCircuit, noise) -> dict:
    """The `_mix_rows` factors (1 - s, s / 2), s = 1 - (1 - p)^k, for every
    merged channel count k in the schedule, p the float or (rows,) vector
    ``noise``; empty when noiseless.

    The factors are floats when the rows share one p, else (rows,)
    vectors.  Each distinct p is raised in Python floats, so a row's
    factors are the same doubles whatever the other rows of its batch."""
    noise = np.asarray(noise, dtype=float)
    if not _noisy(noise):
        return {}
    ps, row_p = np.unique(noise, return_inverse=True)
    counts = {k for kind, _, k in _schedule(circuit, True) if kind == _NOISE}
    table = {k: [1.0 - (1.0 - p) ** k for p in ps.tolist()] for k in counts}
    if len(ps) == 1:
        return {k: (1.0 - column[0], 0.5 * column[0]) for k, column in table.items()}
    vectors = {k: np.array(column)[row_p] for k, column in table.items()}
    return {k: (1.0 - v, 0.5 * v) for k, v in vectors.items()}


def _step(states: np.ndarray, op: tuple, c: np.ndarray, s: np.ndarray, n: int,
          strengths: dict) -> None:
    """Apply one schedule entry to every row in place; ``c`` and ``s`` are
    the cosines and sines of `_half_angles` (negated sines undo an Ry), and
    ``strengths`` those of `_strengths`."""
    kind, q, j = op
    if kind == _NOISE:
        _mix_rows(states, n, q, *strengths[j])
        return
    for m in ((0, n) if strengths else (0,)):
        if kind == _RY:
            _apply_ry_rows(states, m + q, c[j], s[j])
        else:
            _apply_cx_rows(states, m + q, m + q + 1)


def _fresh_rows(circuit: ReuploadCircuit, rows: int, noisy: bool) -> np.ndarray:
    """|0...0> as (2^n, rows) statevector rows, or (4^n, rows) density rows."""
    states = np.zeros((1 << (circuit.n_qubits * (2 if noisy else 1)), rows))
    states[0] = 1.0
    return states


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (amplitudes, rows) terms over the amplitudes, one per row.

    Sequential, so a row's bits do not depend on its batch: np.add.reduce
    or einsum over a lone contiguous column switches to a pairwise or
    unrolled sum, which rounds differently from the same column in a batch.
    """
    return np.add.accumulate(terms, axis=0)[-1]


def _observe(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """M psi for a real M.  einsum, not BLAS, whose bits can depend on the
    row count; M column-major, so that the inner loop never sums over j,
    not even for a lone column (see `_column_sum`)."""
    return np.einsum("ij,jb->ib", np.asfortranarray(matrix), states)


def _forward_rows(circuit: ReuploadCircuit, c: np.ndarray, s: np.ndarray, obs: Observable,
                  strengths: dict, kept: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and the direction lam it was measured along:
    |0...0> swept forward through the schedule by the cosines ``c`` and
    sines ``s`` of `_half_angles` under the channel factors ``strengths`` of
    `_strengths`, then measured as the (rows,) sums of lam * state.

    lam is (Re M) psi for statevector rows, and vec((Re M)^T), one column
    for all rows, for density rows: tr(M rho) = <vec(M^T), vec(rho)>.  With
    ``kept`` a list, a copy of the rows is appended after every trainable
    Ry, in schedule order."""
    noisy = bool(strengths)
    states = _fresh_rows(circuit, c.shape[1], noisy)
    for op in _schedule(circuit, noisy):
        _step(states, op, c, s, circuit.n_qubits, strengths)
        if kept is not None and op[0] == _RY:
            kept.append(states.copy())
    # Rows are real and Im(M) of a Hermitian M is antisymmetric, so it adds
    # nothing to psi^T M psi or tr(M rho) with rho symmetric.
    matrix = obs.matrix.real
    if noisy:
        dim = 1 << circuit.n_qubits
        _check_density_rows(np.moveaxis(states.reshape(dim, dim, -1), -1, 0))
        lam = matrix.T.reshape(-1, 1)
    else:
        lam = _observe(matrix, states)
    return _column_sum(lam * states), lam


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
                  obs: Observable, strengths: dict) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and their parameter gradients for one chunk of rows under
    the channel factors ``strengths`` of `_strengths`: ((rows,), (rows, K)).

    Adjoint differentiation (Jones & Gacon, arXiv:2009.02823), one algorithm
    for statevector and density rows.  The forward sweep (`_forward_rows`)
    keeps the rows after every trainable Ry and gives the direction lam the
    output was measured along.  The backward sweep un-applies the schedule
    on lam alone: every gate is real, so its inverse is its transpose, Ry(-a)
    and CX itself, and the channel is self-adjoint under the Hilbert-Schmidt
    product (the Heisenberg picture).  At a trainable Ry with kept rows psi,
    dE/dtheta = 2 lam^T J_q psi.  For density rows that is the noiseless
    formula on 2n-qubit rows: the gradient <lam, (J_q + J_{n+q}) rho> equals
    2 <lam, J_q rho> because lam and rho are symmetric matrices.
    """
    half = _half_angles(circuit, thetas, xs)
    c, s = np.cos(half), np.sin(half)
    kept = []
    values, lam = _forward_rows(circuit, c, s, obs, strengths, kept)
    lam = np.broadcast_to(lam, kept[-1].shape).copy()
    s = -s
    grads = np.empty((thetas.shape[0], circuit.n_params))
    for op in reversed(_schedule(circuit, bool(strengths))):
        kind, q, j = op
        if kind == _RY:
            grads[:, j] = _ry_grad(lam, kept.pop(), q)
        if kept:  # once the first entry, an Ry, is done, nothing is left to undo
            _step(lam, op, c, s, circuit.n_qubits, strengths)
    return values, grads


def _check_rows(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                noise_p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (rows, K) thetas and (rows, D) xs, single rows broadcast,
    and the (rows,) noise strengths of `_check_batch`."""
    thetas, xs = np.atleast_2d(np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float))
    if thetas.shape[0] == 1 and xs.shape[0] > 1:
        thetas = np.broadcast_to(thetas, (xs.shape[0], thetas.shape[1]))
    if xs.shape[0] == 1 and thetas.shape[0] > 1:
        xs = np.broadcast_to(xs, (thetas.shape[0], xs.shape[1]))
    if thetas.shape[0] != xs.shape[0]:
        raise ValueError("thetas and xs row counts do not match")
    return thetas, xs, _check_batch(circuit, thetas, xs, obs, noise_p)


def _check_batch(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                 obs: Observable, noise_p) -> np.ndarray:
    """The checks of `_check_rows` that do not pair theta rows with x rows.

    (R, K) ``thetas`` and (N, D) ``xs`` must be finite, ``obs`` must match
    the circuit, and ``noise_p`` must lie in [0, 1], a float or one per
    theta row, all zero or all positive.  Returns the (R,) strengths, a
    float broadcast.  `train._sgd_paths` runs it once over a batch's
    initial thetas and every run's features."""
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
    rows = thetas.shape[0]
    noise = np.asarray(noise_p, dtype=float)
    ps = set(noise.ravel().tolist())  # cheaper than numpy reductions on a few rows
    if not all(0.0 <= p <= 1.0 for p in ps):  # NaN fails too
        raise ValueError(f"noise strengths {noise_p!r} outside [0, 1]")
    if noise.ndim == 0:
        noise = np.full(rows, noise)
    elif noise.shape != (rows,):
        raise ValueError(f"noise_p has shape {noise.shape}, expected a float or ({rows},)")
    if 0.0 in ps and len(ps) > 1:
        # p = 0 rows are statevectors and p > 0 rows density matrices.
        raise ValueError("one batch cannot mix noise_p = 0 rows with noise_p > 0 rows")
    return noise


def _chunk_plan(circuit: ReuploadCircuit, noise: np.ndarray, adjoint: bool) -> list:
    """The chunks of a forward or an adjoint pass over rows of checked
    (rows,) strengths ``noise``: (row slice, its `_strengths` factors)
    pairs, each of at least one row and at most ``_CHUNK_BYTES`` of states.
    A row of a forward pass holds one state; of an adjoint pass K + 2: the
    forward state, lam, and the K states kept for the backward sweep."""
    row_bytes = 8 << (circuit.n_qubits * (2 if _noisy(noise) else 1))
    if adjoint:
        row_bytes *= circuit.n_params + 2
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [(slice(i, i + step), _strengths(circuit, noise[i:i + step]))
            for i in range(0, len(noise), step)]


def forward_many(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                 noise_p=0.0) -> np.ndarray:
    """Vectorized `forward` over rows of (theta, x) pairs.

    ``thetas`` is (rows, K) or (K,) broadcast to all rows; ``xs`` is
    (rows, D) or (D,); ``noise_p`` is a float for all rows or a (rows,)
    vector.  Returns the (rows,) vector of expectations.  A row with
    p > 0 is a density-matrix simulation under per-gate depolarizing
    noise of strength p (see `noise`), checked once at the end for unit
    trace, Hermiticity and positivity.  One batch is all p = 0 or all
    p > 0; its rows may differ in p.
    """
    thetas, xs, noise = _check_rows(circuit, thetas, xs, obs, noise_p)
    values = np.empty(thetas.shape[0])
    for rows, strengths in _chunk_plan(circuit, noise, adjoint=False):
        half = _half_angles(circuit, np.ascontiguousarray(thetas[rows]),
                            np.ascontiguousarray(xs[rows]))
        values[rows] = _forward_rows(circuit, np.cos(half), np.sin(half), obs, strengths)[0]
    return values


def _planned_grads(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                   obs: Observable, plan: list) -> tuple[np.ndarray, np.ndarray]:
    """`_output_grads` of checked (rows, K) thetas and (rows, D) xs by the
    adjoint `_chunk_plan` of their strengths, unchecked: the core that both it and
    `train._sgd_paths` call."""
    parts = [_adjoint_rows(circuit, np.ascontiguousarray(thetas[rows]),
                           np.ascontiguousarray(xs[rows]), obs, strengths)
             for rows, strengths in plan]
    if len(parts) == 1:
        return parts[0]
    values, grads = zip(*parts, (np.empty(0), np.empty((0, circuit.n_params))))
    return np.concatenate(values), np.concatenate(grads)


def _output_grads(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                  noise_p) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and its gradient: ((rows,), (rows, K)).

    Rows and ``noise_p`` broadcast as in `forward_many`, and the outputs
    are its outputs, bit for bit.  Adjoint differentiation (see
    `_adjoint_rows`); `grad.parameter_shift_grad_f` is its independent
    oracle.  This is the checked entry point of `_planned_grads`.
    """
    thetas, xs, noise = _check_rows(circuit, thetas, xs, obs, noise_p)
    return _planned_grads(circuit, thetas, xs, obs, _chunk_plan(circuit, noise, adjoint=True))


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
