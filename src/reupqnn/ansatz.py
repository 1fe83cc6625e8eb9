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
package: real statevector rows when noiseless, and under per-gate
depolarizing noise (``noise_p`` > 0, a float or one strength per row) the
density matrix's 4^n real Pauli coefficients, in which an Ry is one
rotation, a run of CX gates one index gather and the channel a scale
(see the batched engine below).  `forward` and `noise.noisy_forward` are
its one-row wrappers.  Both modes walk one gate schedule; `_output_grads`
walks it forward and then backward to give every row's parameter
gradient (adjoint differentiation), paid per sweep and qubit, not per
Ry: both sweeps copy each qubit's rotated pair into its slabs, and one
expression per qubit contracts them.  One planner, `_chunk_plan`, splits
the rows of a forward or an adjoint pass into chunks of one kind,
statevector or Pauli, with their channel factors and observable form, so
rows of any strengths share a call.
The gradient has one core with two entry points: `_output_grads` checks
its inputs and plans on every call, for outside callers, and then runs
`_planned_grads`; the SGD loop (`train._sgd_paths`) checks a batch's
fixed inputs and plans once per loop, then calls `_planned_grads` at
every step.  There is no second simulator: `iter_gates` lists the same
circuit gate by gate and the dense unitaries multiply it out, for the
comb route (the independent check) and for the tests' reference simulators.

Rows are folded in both modes: Ry(a) Ry(b) = Ry(a + b), so an encoding
block acts as one Ry of the per-qubit feature sum, which merges into the
next trainable block's first Ry column.  This is a modelling fact, not only
a speed-up: with D > N the model depends on x only through the N sums of
the features sharing a qubit (the Fourier view of Schuld, Sweke & Meyer,
arXiv:2008.08605).  The paper's bound still counts L * D encoding gates.
Only the L * N angles the sums shift depend on x, so a theta shared by
many rows has the cosines and sines of its other angles computed once.
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
# batch-last: a batch is (entries, rows), so every kernel's inner loop runs
# contiguously over the rows, whatever the qubit.  A noiseless row is a real
# statevector.  A noisy row holds the 4^n real Pauli coefficients of its
# density matrix, c(x, z) = tr(Q(x, z)^T rho) with Q(x, z) the tensor
# product over qubits of X^x_q Z^z_q, so rho = 2^-n sum_Q c(x, z) Q(x, z).
# Both kinds store a row as n sites, one per qubit: site q is the q-th
# digit, qubit 0 the most significant, of the entry index in base d, with
# d = 2 for statevector rows (|0>, |1>) and d = 4 for Pauli rows, whose
# site holds (I, Z, X, XZ) at 2x + z: qubit q's x bit is entry bit 2q and
# its z bit entry bit 2q + 1.  In this basis (the Pauli transfer matrix
# view: Greenbaum, arXiv:1509.02921) an Ry by the full angle rotates q's Z
# and X coefficients, the middle two entries of its site, just as it turns
# |0> and |1>, the two entries of a statevector site; a CX permutes
# coefficients without signs, so a run of CX gates is one index gather of
# its sites, and the channel scales q's three non-identity coefficients by
# 1 - p (see `noise`).  So one kernel per gate serves both kinds, and none
# is told n.  No kernel touches the identity coefficient tr(rho) = 1.
# Every kernel is elementwise per row, and every sum over entries runs in
# one fixed order (see `_column_sum`), so a row's bits do not depend on the
# other rows of its batch.

# Rows are simulated in chunks of at most this many bytes of states and
# their angles.
_CHUNK_BYTES = 64 << 20

# The states a row of `_check_pauli_rows` holds at once besides its own:
# two in `_per_site`, then the matrix-order copy, the positivity test's H
# and its deviation or Cholesky factor (see `qcore._psd_violations`).
_CHECK_STATES = 3

# No one row may take more bytes than this.  An adjoint row at L4 R2 (see
# `_chunk_plan`) takes 4.03 GB noisy at 11 qubits, 38.3 MB noiseless at 14.
_ROW_BYTES = 1 << 30

# Schedule entry kinds; see `_schedule`.
_RY, _CX, _NOISE = range(3)

# The signs that stack a sine s as (-s, s) along axis 1 of `_angles`' S.
_SIGNS = np.array([-1.0, 1.0])[:, None, None]


def _site(states: np.ndarray, qubit: int, d: int) -> np.ndarray:
    """Every row's entries by ``qubit``'s site, the qubit-th base-d digit of
    the entry index: a (d^qubit, d, rest, rows) view."""
    return states.reshape(d ** qubit, d, -1, states.shape[-1])


def _pairs(states: np.ndarray, n: int, d: int) -> list:
    """Per qubit q, the (d^q, 2, d^(n-q-1), rows) view of the entries an Ry
    on q rotates: |0> and |1> of statevector rows, Z and X of Pauli rows."""
    return [_site(states, q, d)[:, d // 2 - 1:d // 2 + 1] for q in range(n)]


def _apply_ry_rows(pair: np.ndarray, c: np.ndarray, S: np.ndarray) -> None:
    """Ry on one qubit of every row, in place: (a, b) <- (c a - s b, c b + s a)
    on its `_pairs` view ``pair``, ``c`` the (rows,) cosines and ``S`` the
    (2, 1, rows) stacked (-s, s) of `_angles` (Z <- c Z - s X, X <- c X + s Z
    for Pauli rows; I and XZ are untouched)."""
    turned = pair[:, ::-1] * S
    pair *= c
    pair += turned


def _damp_rows(coeffs: np.ndarray, qubit: int, factor) -> None:
    """k merged channels on one qubit of Pauli rows, in place: its Z, X and
    XZ coefficients are scaled by ``factor`` = (1 - p)^k, a float or a
    (rows,) vector of per-row factors."""
    _site(coeffs, qubit, 4)[:, 1:] *= factor


# One qubit's basis change, times 1/2, from a Pauli site (I, Z, X, XZ) to a
# density site (rho_00, rho_01, rho_10, rho_11), index 2 row + column:
# 2 rho_00 = I + Z, 2 rho_01 = X - XZ, 2 rho_10 = X + XZ, 2 rho_11 = I - Z.
# Its transpose takes a matrix site m to (I, Z, X, XZ) = (m_00 + m_11,
# m_00 - m_11, m_01 + m_10, m_10 - m_01) / 2.
_TO_DENSITY = 0.5 * np.array([[1.0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1], [1, -1, 0, 0]])


def _per_site(rows: np.ndarray, n: int, matrix: np.ndarray) -> np.ndarray:
    """The 4x4 ``matrix`` on every site of (4^n, cols) ``rows`` in turn: a
    new array of the same shape."""
    for q in range(n):
        rows = matrix @ rows.reshape(4 ** q, 4, -1)
    return rows.reshape(4 ** n, -1)


def _check_pauli_rows(coeffs: np.ndarray, n: int) -> None:
    """`_check_density_rows` on the density matrices of (4^n, rows) Pauli
    rows, rebuilt site by site (``_TO_DENSITY``) and moved from site order
    (r_0 c_0 r_1 c_1 ...) to matrix order.  It holds at most
    ``_CHECK_STATES`` states a row besides ``coeffs``."""
    sites = _per_site(coeffs, n, _TO_DENSITY).reshape((2,) * (2 * n) + (-1,))
    rhos = sites.transpose(2 * n, *range(0, 2 * n, 2), *range(1, 2 * n, 2))
    rhos = rhos.reshape(-1, 1 << n, 1 << n)  # a copy, so the site-order rows go
    del sites
    _check_density_rows(rhos)


@functools.lru_cache(maxsize=None)
def _cx_gather(first: int, last: int, noisy: bool) -> np.ndarray:
    """CX (first, first + 1), ..., (last, last + 1), in order, as one gather
    of sites first to last + 1: rows <- rows[index].  A CX flips bit q + 1
    where bit q is set; on Pauli rows, x_{q+1} ^= x_q and z_q ^= z_{q+1}."""
    bits = 2 if noisy else 1  # entry bits per site, the most significant first
    width = bits * (last - first + 2)
    index = np.arange(1 << width)
    for q in range(width - 2 * bits, -1, -bits):  # each CX's first bit, the last CX first
        for control, target in ((q, q + 2), (q + 3, q + 1)) if noisy else ((q, q + 1),):
            index ^= (index >> (width - 1 - control) & 1) << (width - 1 - target)
    return index


@functools.lru_cache(maxsize=64)
def _schedule(circuit: ReuploadCircuit, noisy: bool, backward: bool = False) -> tuple:
    """The gate sequence of one row, walked by `_forward_rows`; with
    ``backward``, its inverse, reversed with each gather inverted, walked
    by `_adjoint_rows`.

    Entries are (_RY, q, j): Ry on qubit q by column j of `_angles`;
    (_CX, q, index): a run of CX gates from q on, as its `_cx_gather`;
    (_NOISE, q, k): k merged channels on q.  Rows are folded (see the
    module docstring): an encoding block has no entries of its own, and
    `_angles` adds its per-qubit feature sums to the next block's first Ry
    column.  With noise, every gate, Ry(0) fillers included, owes one
    channel to each qubit it touches, paid as one entry just before the
    next CX that touches it (so a noisy CX runs alone) or at the end.
    """
    if backward:
        return tuple((kind, q, np.argsort(j) if kind == _CX else j)
                     for kind, q, j in reversed(_schedule(circuit, noisy)))
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
                first = ops.pop()[1] if ops[-1][0] == _CX else q  # extend a run
                ops.append((_CX, first, q))
                owed[q] = owed[q + 1] = 1  # both were just paid
    pay(*range(n))
    return tuple((kind, q, _cx_gather(q, j, noisy) if kind == _CX else j) for kind, q, j in ops)


def _fold(circuit: ReuploadCircuit, xs: np.ndarray) -> np.ndarray:
    """The per-qubit feature sums of (rows, D) ``xs``, the angle an encoding
    block turns each qubit by (see the module docstring): (rows, N).

    A row's columns are summed in one order whatever the other rows, so
    folding a dataset once and gathering rows gives the bits of folding
    those rows."""
    rows, columns = xs.shape[0], circuit.encode_columns
    slots = np.zeros((rows, columns * circuit.n_qubits))
    slots[:, :circuit.data_dim] = xs
    return slots.reshape(rows, columns, circuit.n_qubits).sum(axis=1)


def _angles(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray,
            noisy: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cosines c, (K, rows), and sines stacked as S = (-s, s), (K, 2, 1,
    rows), of every trainable Ry angle, the `_fold` sums ``sums`` added to
    each encoding block's next Ry column: of half the angle for
    statevector rows, of the full angle for Pauli rows.  Of a theta
    broadcast to every row (stride 0, see `_check_rows`) only the L * N
    shifted columns are computed per row, the others once: the same doubles."""
    rows, grid = len(sums), (circuit.layers + 1, circuit.sublayers, -1)
    if rows > 1 and thetas.strides[0] == 0:
        theta, scale = thetas[0].reshape(grid), 1.0 if noisy else 0.5
        shifted = theta[1:, 0, :, None] + np.ascontiguousarray(sums.T)  # (L, N, rows)
        shifted *= scale
        c, S = np.empty(theta.shape + (rows,)), np.empty(theta.shape + (2, 1, rows))
        c[...] = np.cos(theta * scale)[..., None]
        S[...] = np.sin(theta * scale)[..., None, None, None] * _SIGNS
        np.cos(shifted, out=c[1:, 0])
        np.negative(np.sin(shifted, out=S[1:, 0, :, 1, 0]), out=S[1:, 0, :, 0, 0])
        return c.reshape(-1, rows), S.reshape(-1, 2, 1, rows)
    angles = thetas.reshape((rows,) + grid).copy()
    angles[:, 1:, 0, :] += sums[:, None, :]
    angles = np.ascontiguousarray(angles.reshape(rows, -1).T)
    if not noisy:
        angles *= 0.5
    return np.cos(angles), np.sin(angles)[:, None, None] * _SIGNS


def _strengths(circuit: ReuploadCircuit, noise: np.ndarray) -> dict:
    """The `_damp_rows` factors (1 - p)^k for every merged channel count k
    in the schedule, p the (rows,) vector ``noise`` of Pauli rows.

    The factors are floats when the rows share one p, else (rows,)
    vectors.  Each distinct p is raised in Python floats, so a row's
    factors are the same doubles whatever the other rows of its batch."""
    ps, row_p = np.unique(noise, return_inverse=True)
    counts = {k for kind, _, k in _schedule(circuit, True) if kind == _NOISE}
    table = {k: [(1.0 - p) ** k for p in ps.tolist()] for k in counts}
    if len(ps) == 1:
        return {k: column[0] for k, column in table.items()}
    return {k: np.array(column)[row_p] for k, column in table.items()}


def _step(states: np.ndarray, pairs: list, op: tuple, c: np.ndarray, S: np.ndarray,
          strengths: dict) -> None:
    """Apply one schedule entry to every row in place: statevector rows
    when ``strengths`` (those of `_strengths`) is empty, else Pauli rows.
    ``pairs`` are its `_pairs`, ``c`` and ``S`` the cosines and stacked sines
    of `_angles` (``S`` reversed undoes an Ry); a CX run is one gather."""
    kind, q, j = op
    if kind == _RY:
        _apply_ry_rows(pairs[q], c[j], S[j])
    elif kind == _NOISE:
        _damp_rows(states, q, strengths[j])
    else:
        sites = states.reshape((4 if strengths else 2) ** q, len(j), -1, states.shape[-1])
        sites[...] = sites.take(j, axis=1)


def _fresh_rows(circuit: ReuploadCircuit, rows: int, noisy: bool) -> np.ndarray:
    """|0...0> as (2^n, rows) statevector rows, or as (4^n, rows) Pauli
    rows: c(x, z) = <0|Q(x, z)|0>, which is 1 where x = 0 and 0 elsewhere.
    Either way, the entries whose every site lies in its first half."""
    n, d = circuit.n_qubits, 4 if noisy else 2
    states = np.zeros((d ** n, rows))
    states.reshape((d,) * n + (rows,))[(slice(d // 2),) * n] = 1.0
    return states


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (entries, ..., rows) terms over the entries, one per column.

    Sequential, so a row's bits do not depend on its batch: np.add.reduce
    or einsum over a lone contiguous column switches to a pairwise or
    unrolled sum, which rounds differently from the same column in a batch.
    The sums are copied out, so the full accumulate is freed on return.
    """
    return np.add.accumulate(terms, axis=0)[-1].copy()


def _observable_form(circuit: ReuploadCircuit, obs: Observable, noisy: bool) -> np.ndarray:
    """The fixed form of Re(M) that one kind of rows is measured with,
    built once per kind by `_chunk_plan`: Re(M) column-major for
    statevector rows (see `_observe`); for Pauli rows the (4^n, 1) column
    lam = 2^-n m, m_Q = tr(Re(M) Q), so that tr(M rho) = sum_Q lam_Q c_Q.

    Rows are real and Im(M) of a Hermitian M is antisymmetric, so it adds
    nothing to psi^T M psi or tr(M rho) with rho symmetric."""
    matrix = obs.matrix.real
    if not noisy:
        return np.asfortranarray(matrix)
    n = circuit.n_qubits  # to site order: row bit q, then column bit q
    sites = matrix.reshape((2,) * (2 * n)).transpose([a for q in range(n) for a in (q, n + q)])
    return _per_site(sites.reshape(-1, 1), n, _TO_DENSITY.T)


def _observe(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """M psi for the column-major M of `_observable_form`.  einsum, not
    BLAS, whose bits can depend on the row count; M column-major, so that
    the inner loop never sums over j, not even for a lone column (see
    `_column_sum`)."""
    return np.einsum("ij,jb->ib", matrix, states)


def _forward_rows(circuit: ReuploadCircuit, c: np.ndarray, S: np.ndarray, form: np.ndarray,
                  strengths: dict, slabs: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and the direction lam it was measured along:
    |0...0> swept forward through the schedule by the cosines ``c`` and
    stacked sines ``S`` of `_angles` under the channel factors
    ``strengths`` of `_strengths`, then measured as the (rows,) sums of
    lam * state.

    lam is (Re M) psi for statevector rows and the one column ``form`` of
    `_observable_form` for Pauli rows, whose density matrices are checked
    here.  With ``slabs`` the `_slots` of the per-qubit psi slabs of
    `_adjoint_rows`, the qubit's pair of the rows after every trainable Ry
    is written to its slot."""
    noisy, n = bool(strengths), circuit.n_qubits
    states = _fresh_rows(circuit, c.shape[1], noisy)
    pairs = _pairs(states, n, 4 if noisy else 2)
    for op in _schedule(circuit, noisy):
        _step(states, pairs, op, c, S, strengths)
        if slabs is not None and op[0] == _RY:
            slabs[op[1]][op[2] // n] = pairs[op[1]]
    if noisy:
        _check_pauli_rows(states, n)
        lam = form
    else:
        lam = _observe(form, states)
    return _column_sum(lam * states), lam


def _slots(slabs: list) -> list:
    """Per qubit, the (K/N, d^q, 2, d^(N-q-1), rows) view of its
    `_adjoint_rows` slab whose slot j // N takes the `_pairs` view of the
    rows after trainable Ry j."""
    return [slab.transpose(1, 2, 0, 3, 4) for slab in slabs]


def _adjoint_rows(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray,
                  form: np.ndarray, strengths: dict, grads: np.ndarray) -> np.ndarray:
    """Outputs and their parameter gradients for one chunk of rows, thetas
    and `_fold` sums, under the channel factors ``strengths`` of
    `_strengths`: the (rows,) outputs are returned, and the gradients
    written into the (rows, K) ``grads``.

    Adjoint differentiation (Jones & Gacon, arXiv:2009.02823), one algorithm
    for statevector and Pauli rows, paid per sweep and qubit, not per Ry.
    Qubit q has a psi and a lam slab, (2, K/N, d^q, d^(N-q-1), rows), with
    its `_pairs` view in slot j // N of `_slots` for each trainable Ry j on
    q; the pair axis leads so that each half the contraction multiplies is
    contiguous (numpy buffers a strided operand, up to 64 KiB of it).  The
    forward sweep (`_forward_rows`) fills the psi slabs and gives the
    direction lam the output was measured along.  The backward sweep walks
    the backward `_schedule` on lam alone, filling the lam slabs before it
    undoes each Ry: every gate is real and orthogonal on the rows, so its
    inverse is its transpose, Ry by the negated angle (``S`` reversed) and a
    CX run the inverse gather, and the channel is diagonal, its own
    adjoint, and never divided by.  Each qubit then sums lam_b psi_a -
    lam_a psi_b over its slabs' entries, in `_column_sum` order, into
    gradient columns q, q + N, ...: for statevector rows 2 lam^T J psi,
    J = dRy/dtheta Ry^T = [[0, -1/2], [1/2, 0]] on the qubit; for Pauli rows
    lam_X c_Z - lam_Z c_X, the rotation's generator.  lam is swept in place:
    statevector rows measure a fresh (Re M) psi, and Pauli rows a fresh
    copy per row of the chunk's shared `_observable_form`.
    """
    noisy, n, rows = bool(strengths), circuit.n_qubits, len(sums)
    d, per = 4 if noisy else 2, circuit.n_params // n
    c, S = _angles(circuit, thetas, sums, noisy)
    psis, lams = ([np.empty((2, per, d ** q, d ** (n - q - 1), rows)) for q in range(n)]
                  for _ in range(2))
    values, lam = _forward_rows(circuit, c, S, form, strengths, _slots(psis))
    if noisy:
        lam = lam.repeat(rows, axis=1)
    pairs, S, slots = _pairs(lam, n, d), S[:, ::-1], _slots(lams)
    for op in _schedule(circuit, noisy, backward=True):
        if op[0] == _RY:
            slots[op[1]][op[2] // n] = pairs[op[1]]
            if op[2] == 0:  # the first Ry: nothing is left to undo
                break
        _step(lam, pairs, op, c, S, strengths)
    for q in range(n):
        terms = lams[q][1] * psis[q][0]
        terms -= lams[q][0] * psis[q][1]
        grads[:, q::n] = _column_sum(terms.reshape(per, -1, rows).swapaxes(0, 1)).T
    return values


def _check_rows(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                noise_p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (rows, K) thetas and (rows, D) xs, a single row broadcast
    once `_check_batch` has checked it, and its (rows,) noise strengths."""
    thetas, xs = np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float)
    for name, rows in (("thetas", thetas), ("xs", xs)):
        if rows.ndim not in (1, 2):
            raise ValueError(f"{name} must be 1-D or 2-D, got shape {rows.shape}")
    thetas, xs = np.atleast_2d(thetas, xs)
    rows = len(xs) if len(thetas) == 1 else len(thetas)
    if len(xs) not in (1, rows):
        raise ValueError("thetas and xs row counts do not match")
    noise = _check_batch(circuit, thetas, xs, obs, noise_p, rows)
    if len(thetas) != rows:
        thetas = np.broadcast_to(thetas, (rows, thetas.shape[1]))
    if len(xs) != rows:
        xs = np.broadcast_to(xs, (rows, xs.shape[1]))
    return thetas, xs, noise


def _check_batch(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                 obs: Observable, noise_p, rows: int) -> np.ndarray:
    """The checks of `_check_rows` that do not pair theta rows with x rows.

    (R, K) ``thetas`` and (N, D) ``xs`` must be finite, ``obs`` must match
    the circuit, and ``noise_p`` must lie in [0, 1], a float or one per
    row of the batch's ``rows``.  Returns the (rows,) strengths, a float
    broadcast as a read-only view.
    `train._sgd_paths` runs it once over a batch's initial thetas and every
    run's features."""
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
    noise = np.asarray(noise_p, dtype=float)
    # A set of Python floats is cheaper than numpy reductions on a few rows.
    if not all(0.0 <= p <= 1.0 for p in set(noise.ravel().tolist())):  # NaN fails too
        raise ValueError(f"noise strengths {noise_p!r} outside [0, 1]")
    if noise.ndim == 0:
        noise = np.broadcast_to(noise, (rows,))
    elif noise.shape != (rows,):
        raise ValueError(f"noise_p has shape {noise.shape}, expected a float or ({rows},)")
    return noise


def _chunk_plan(circuit: ReuploadCircuit, obs: Observable, noise: np.ndarray,
                adjoint: bool) -> list:
    """The chunks of a forward or an adjoint pass over rows of checked
    (rows,) strengths ``noise``: (row slice, its `_strengths` factors, the
    `_observable_form` of its kind) triples, in row order.

    A row is a statevector row at p = 0 and a Pauli row at p > 0.  The rows
    are cut wherever the kind changes, and each run of one kind into
    chunks of at least one row and at most ``_CHUNK_BYTES`` of states and
    their angles; a statevector chunk has no factors.  A row of a forward
    pass holds one state; of an adjoint pass 2K + 2 (K + 2 for Pauli rows,
    whose `_adjoint_rows` slabs keep half sites), and K/N states more (K/2N)
    for the two half-slab temporaries of one qubit's gradient contraction.
    A Pauli row of either pass holds ``_CHECK_STATES`` more for the density
    check at the end of its forward sweep (`_check_pauli_rows`).  Its
    `_angles` take 40 K bytes more: c, S and the angle copy.  A row whose
    states take more than ``_ROW_BYTES`` raises CapacityError before any
    state is allocated."""
    noisy = noise > 0.0
    # Runs of one kind, cut where a row's kind differs from the row before.
    bounds = [0, *(np.flatnonzero(noisy[1:] != noisy[:-1]) + 1).tolist(), len(noise)]
    plan, forms = [], {}
    for start, stop in zip(bounds, bounds[1:]):
        kind = bool(noisy[start:stop].any())  # False for no rows at all
        state = 8 << (circuit.n_qubits * (1 + kind))  # a 2^n or 4^n state of doubles
        row_bytes = state * (1 + _CHECK_STATES * kind)
        if adjoint:
            slabs = (2 - kind) * circuit.n_params
            row_bytes += state * (slabs + 1) + state * slabs // (2 * circuit.n_qubits)
        if row_bytes > _ROW_BYTES:
            raise CapacityError(f"one row of this {circuit.n_qubits}-qubit circuit needs "
                                f"{row_bytes} bytes, more than the {_ROW_BYTES} a row may take")
        if kind not in forms:
            forms[kind] = _observable_form(circuit, obs, kind)
        step = max(1, _CHUNK_BYTES // (row_bytes + 40 * circuit.n_params))
        for i in range(start, stop, step):
            rows = slice(i, min(i + step, stop))
            plan.append((rows, _strengths(circuit, noise[rows]) if kind else {}, forms[kind]))
    return plan


def forward_many(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                 noise_p=0.0) -> np.ndarray:
    """Vectorized `forward` over rows of (theta, x) pairs.

    ``thetas`` is (rows, K) or (K,) broadcast to all rows; ``xs`` is
    (rows, D) or (D,); ``noise_p`` is a float for all rows or a (rows,)
    vector.  Returns the (rows,) vector of expectations.  A row with
    p > 0 is a density-matrix simulation under per-gate depolarizing
    noise of strength p (see `noise`) in the Pauli basis, whose density
    matrix is rebuilt and checked once at the end for unit trace,
    Hermiticity and positivity; a row with p = 0 is a statevector.  Rows
    of any strengths may share a call, in any order.
    """
    thetas, xs, noise = _check_rows(circuit, thetas, xs, obs, noise_p)
    sums = _fold(circuit, xs)
    values = np.empty(thetas.shape[0])
    for rows, strengths, form in _chunk_plan(circuit, obs, noise, adjoint=False):
        c, s = _angles(circuit, thetas[rows], sums[rows], bool(strengths))
        values[rows] = _forward_rows(circuit, c, s, form, strengths)[0]
    return values


def _planned_grads(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray,
                   plan: list) -> tuple[np.ndarray, np.ndarray]:
    """`_output_grads` of checked (rows, K) thetas and the (rows, N) `_fold`
    sums of checked features, by the adjoint `_chunk_plan` of their
    strengths, unchecked: the core that both it and `train._sgd_paths`
    call.  Each chunk writes its rows of the outputs, so they are held
    once and no chunk holds gradients of its own."""
    values, grads = np.empty(len(sums)), np.empty((len(sums), circuit.n_params))
    for rows, strengths, form in plan:
        values[rows] = _adjoint_rows(circuit, thetas[rows], sums[rows], form, strengths,
                                     grads[rows])
    return values, grads


def _output_grads(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                  noise_p) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and its gradient: ((rows,), (rows, K)).

    Rows and ``noise_p`` broadcast as in `forward_many`, and the outputs
    are its outputs, bit for bit.  Adjoint differentiation (see
    `_adjoint_rows`); `grad.parameter_shift_grad_f` is its independent
    oracle.  This is the checked entry point of `_planned_grads`.
    """
    thetas, xs, noise = _check_rows(circuit, thetas, xs, obs, noise_p)
    return _planned_grads(circuit, thetas, _fold(circuit, xs),
                          _chunk_plan(circuit, obs, noise, adjoint=True))


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
