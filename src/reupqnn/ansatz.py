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
rows of any strengths share a call; `_prepare` binds each chunk to its
buffers and compiles its sweeps to kernels on views of them (`_Chunk`).
The gradient has one core with two entry points: `_output_grads` checks
its inputs, plans and binds on every call, for outside callers, and then
runs `_planned_grads` once; the SGD loop (`train._sgd_paths`) checks a
batch's fixed inputs, plans and binds once per loop, then calls
`_planned_grads` on the same bound chunks at every step.  There is no
second simulator: `iter_gates` lists the same circuit gate by gate and
the dense unitaries multiply it out, for the comb route (the independent
check) and for the tests' reference simulators.

Rows are folded in both modes: Ry(a) Ry(b) = Ry(a + b), so an encoding
block acts as one Ry of the per-qubit feature sum, which merges into the
next trainable block's first Ry column.  This is a modelling fact, not only
a speed-up: with D > N the model depends on x only through the N sums of
the features sharing a qubit (the Fourier view of Schuld, Sweke & Meyer,
arXiv:2008.08605).  The paper's bound still counts L * D encoding gates.
The merged rotation is composed, not summed: its cosine and sine are
products of the trainable Ry's and the encoding's (`_angles`), so the
trig is paid once per theta and once per x, however many rows name them
(a theta shared by an evaluation's rows, a path scored against its
probes as a grid by `_forward_grid`), never once per layer and row.
Noisy rows also merge each qubit's channels up to the next CX that touches
it: D_p on q commutes with every unitary on q and with every gate that
leaves q alone, and D_p^k = D_{1-(1-p)^k} (see `noise` for the model).
"""

from __future__ import annotations

import functools
import math
import numbers
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
        for name in ("n_qubits", "layers", "data_dim", "sublayers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))  # no numpy integer wraps in K
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

# Rows are simulated in chunks of at most this many bytes: each row's
# `_row_bytes` and the chunk's `_sweep_bytes` (see `_chunk_plan`).  An
# evaluation pass scores every run of a batch at once (`train._train_runs`),
# so the budget, not the run count, bounds its peak: 8 MiB is about 1400
# statevector rows at 4q L16 R2 (5.8 KB a row), as many as one run's train
# and test rows at 1000 test samples, where the 3224 rows of three such
# runs in one chunk would hold 18.8 MB.  A smaller budget adds chunks,
# each paying its binding and compile (about 50 us for a 4q L2 Pauli
# forward chunk).
_CHUNK_BYTES = 8 << 20

# The states a row of `_check_pauli_rows` holds at once besides its own:
# two in `_per_site`, then the matrix-order copy, the positivity test's H
# and its deviation or Cholesky factor (see `qcore._psd_violations`).
_CHECK_STATES = 3

# No one row may take more `_row_bytes` than this.  An adjoint row at L4 R2
# takes 3.86 GB noisy at 11 qubits, 37.0 MB noiseless at 14.
_ROW_BYTES = 1 << 30

# The bytes of Python views and tuples that a `_Chunk`'s compiled sweeps
# hold, at most, per entry or column view that `_sweep_bytes` counts.
# Measured with tracemalloc (Python 3.11, numpy 2.4) on 1 to 6 qubits: at
# most 283 B a counted entry, 224 KB for the 1452 of a 4q L16 R2 Pauli
# adjoint chunk and 4.4 KB for the 22 of a 1q L1 forward chunk.
_ENTRY_BYTES = 512

# Schedule entry kinds; see `_schedule`.
_RY, _CX, _NOISE = range(3)


def _site(states: np.ndarray, qubit: int, d: int) -> np.ndarray:
    """Every row's entries by ``qubit``'s site, the qubit-th base-d digit of
    the entry index: a (d^qubit, d, rest, rows) view."""
    return states.reshape(d ** qubit, d, -1, states.shape[-1])


def _pairs(states: np.ndarray, n: int, d: int) -> list:
    """Per qubit q, the (d^q, 2, d^(n-q-1), rows) view of the entries an Ry
    on q rotates: |0> and |1> of statevector rows, Z and X of Pauli rows."""
    return [_site(states, q, d)[:, d // 2 - 1:d // 2 + 1] for q in range(n)]


def _apply_ry_rows(pair: np.ndarray, swapped: np.ndarray, c: np.ndarray, S: np.ndarray,
                   turned: np.ndarray) -> None:
    """Ry on one qubit of every row, in place: (a, b) <- (c a - s b, c b + s a)
    on its `_pairs` view ``pair``, ``swapped`` its (b, a) view pair[:, ::-1],
    ``c`` the (rows,) cosines and ``S`` the (2, 1, rows) stacked (-s, s) of
    `_angles` (Z <- c Z - s X, X <- c X + s Z for Pauli rows; I and XZ are
    untouched).  ``turned``, an array of the pair's shape that no one
    reads, takes (-s b, s a)."""
    np.multiply(swapped, S, out=turned)
    pair *= c
    pair += turned


def _damp_rows(site: np.ndarray, factor) -> None:
    """k merged channels on one qubit of Pauli rows, in place: its Z, X and
    XZ coefficients, the (d^q, 3, rest, rows) view ``site`` = `_site`[:, 1:],
    are scaled by ``factor`` = (1 - p)^k, a float or a (rows,) vector of
    per-row factors."""
    site *= factor


def _gather(sites: np.ndarray, index: np.ndarray, spare: np.ndarray) -> None:
    """A run of CX gates on every row, in place: ``sites`` <- its entries
    gathered by ``index`` along axis 1, through ``spare``, a view of the
    same shape into a state the sweep does not use ("clip" mode, for valid
    indices, lets `np.take` write it unbuffered)."""
    sites.take(index, axis=1, out=spare, mode="clip")
    np.copyto(sites, spare)


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
    """The gate sequence of one row, compiled by `_Chunk` into its forward
    sweep; with ``backward``, its inverse, reversed with each gather
    inverted, compiled into the adjoint's backward sweep.

    Entries are (_RY, q, j): Ry on qubit q by column j of `_angles`;
    (_CX, q, index): a run of CX gates from q on, as its `_cx_gather`;
    (_NOISE, q, k): k merged channels on q.  Rows are folded (see the
    module docstring): an encoding block has no entries of its own, and
    `_angles` composes its per-qubit rotation into the next block's first
    Ry column.  With noise, every gate, Ry(0) fillers included, owes one
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


def _naming(names: np.ndarray) -> tuple:
    """How the rows of a chunk name the entries of a table (the thetas or
    the fold sums), from their (rows,) ``names``: (index, inverse), the
    entries they name, ``table[index]``, each once and in order, and each
    row's place among them, or None when the rows name consecutive
    entries, each its own and in order (``index`` is then a slice).
    Found once per bound chunk (`_Chunk`), by a mask over the range of
    names, so a chunk's run pays no naming of its own."""
    lo, hi = int(names.min()), int(names.max())
    if hi - lo + 1 == len(names) and (np.diff(names) == 1).all():
        return slice(lo, hi + 1), None
    present = np.zeros(hi - lo + 1, dtype=bool)
    offsets = names - lo
    present[offsets] = True
    place = np.cumsum(present) - 1
    return np.flatnonzero(present) + lo, place[offsets]


def _named_trig(values: np.ndarray, naming: tuple, scale: float, cos: np.ndarray,
                sin: np.ndarray) -> None:
    """cos and sin of ``scale`` times the entries of (entries, cols)
    ``values`` that a chunk's rows name, written to (cols, rows) ``cos``
    and ``sin``, paid once per named entry: by the rows' `_naming`, the
    trig is written directly when each row names its own entry in order,
    and otherwise gathered from a table of the named entries, which never
    has more entries than the rows have."""
    index, inverse = naming
    table = values[index]
    if inverse is None:
        np.multiply(table.T, scale, out=cos)
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        return
    table = table.T * scale
    np.take(np.sin(table), inverse, axis=1, out=sin, mode="clip")
    np.take(np.cos(table, out=table), inverse, axis=1, out=cos, mode="clip")


def _angles(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray, naming: tuple,
            scale: float, c: np.ndarray, S: np.ndarray) -> None:
    """The cosines c, (K, rows), and the sines stacked as S = (-s, s), (2,
    K, 1, rows), of every trainable Ry of a chunk's rows, written in place:
    of half the angle for statevector rows (``scale`` 1/2), of the full
    angle for Pauli rows (``scale`` 1).

    Rows name their theta and their x by index: row r runs theta
    names[0][r] of the (A, K) ``thetas`` on the `_fold` sums names[1][r] of
    the (B, N) ``sums``, and ``naming`` is the chunk's `_naming` of both.
    So a theta per row, one theta for all, every theta against every x
    (`_forward_grid`) and the groups of an evaluation pass
    (`train._train_runs`) are one rule, and cos and sin are paid once per
    named theta column and once per named x's N fold angles
    (`_named_trig`).  The rotation of an encoding block is composed with
    the next block's first Ry on each qubit, not added to its angle:

        c = c_theta c_x - s_theta s_x,    s = s_theta c_x + c_theta s_x,

    for each of the L N shifted columns, in plain elementwise multiplies
    and adds (no complex multiply, no einsum), so a row's bits depend
    neither on its batch nor on how it names its theta and x."""
    _named_trig(thetas, naming[0], scale, c, S[1, :, 0])
    cos_x, sin_x = (np.empty((circuit.n_qubits, c.shape[1])) for _ in range(2))
    _named_trig(sums, naming[1], scale, cos_x, sin_x)
    shape = (circuit.layers + 1, circuit.sublayers, circuit.n_qubits, -1)
    cos_t, sin_t, product = (part.reshape(shape)[1:, 0] for part in (c, S[1], S[0]))
    cross = cos_t * sin_x
    np.multiply(sin_t, sin_x, out=product)
    cos_t *= cos_x
    cos_t -= product
    sin_t *= cos_x
    sin_t += cross
    np.negative(S[1], out=S[0])


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


def _compiler(states: np.ndarray, spare: np.ndarray, c: list, S: list, strengths: dict,
              n: int):
    """The compiler of schedule entries on (d^n, rows) ``states`` to
    (kernel, operands) pairs: statevector rows when ``strengths`` (those of
    `_strengths`) is empty, else Pauli rows.  An Ry turns its qubit's
    `_pairs` view and its (b, a) view by column j of the cosines ``c`` and
    stacked sines ``S`` of `_angles`, given as lists of their columns (``S``
    reversed undoes an Ry) into the qubit's pair of ``spare``; k merged
    channels are `_damp_rows` of the qubit's site; a CX run is one
    `_gather` through ``spare``.  Each view is made once and shared by
    every entry that uses it."""
    d, rows = 4 if strengths else 2, states.shape[-1]
    pairs = [(pair, pair[:, ::-1], turned)
             for pair, turned in zip(_pairs(states, n, d), _pairs(spare, n, d))]
    sites = [_site(states, q, 4)[:, 1:] for q in range(n)] if strengths else []
    gathers = {}  # (first qubit, sites' width): the run's views of states and spare

    def entry(op: tuple) -> tuple:
        kind, q, j = op
        if kind == _RY:
            pair, swapped, turned = pairs[q]
            return _apply_ry_rows, (pair, swapped, c[j], S[j], turned)
        if kind == _NOISE:
            return _damp_rows, (sites[q], strengths[j])
        if (q, len(j)) not in gathers:
            shape = (d ** q, len(j), -1, rows)
            gathers[q, len(j)] = states.reshape(shape), spare.reshape(shape)
        here, there = gathers[q, len(j)]
        return _gather, (here, j, there)

    return entry


def _run(program: list) -> None:
    """Apply each (kernel, operands) pair of a compiled sweep, in order."""
    for kernel, operands in program:
        kernel(*operands)


def _fresh_rows(circuit: ReuploadCircuit, rows: int, noisy: bool) -> np.ndarray:
    """|0...0> as (2^n, rows) statevector rows, or as (4^n, rows) Pauli
    rows: c(x, z) = <0|Q(x, z)|0>, which is 1 where x = 0 and 0 elsewhere.
    Either way, the entries whose every site lies in its first half."""
    n, d = circuit.n_qubits, 4 if noisy else 2
    states = np.zeros((d ** n, rows))
    states.reshape((d,) * n + (rows,))[(slice(d // 2),) * n] = 1.0
    return states


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (entries, ..., rows) terms over the entries, one per column,
    in place: ``terms`` is overwritten by its running sums, and the last,
    a view, is returned.

    Sequential, so a row's bits do not depend on its batch: np.add.reduce
    or einsum over a lone contiguous column switches to a pairwise or
    unrolled sum, which rounds differently from the same column in a batch.
    """
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


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


def _observe(matrix: np.ndarray, states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """M psi, written to ``out``, for the column-major M of
    `_observable_form`.  einsum, not BLAS, whose bits can depend on the row
    count; M column-major, so that the inner loop never sums over j, not
    even for a lone column (see `_column_sum`)."""
    return np.einsum("ij,jb->ib", matrix, states, out=out)


def _slots(slabs: list) -> list:
    """Per qubit, the (K/N, d^q, 2, d^(N-q-1), rows) view of its
    `_adjoint_rows` slab whose slot j // N takes the `_pairs` view of the
    rows after trainable Ry j."""
    return [slab.transpose(1, 2, 0, 3, 4) for slab in slabs]


def _buffers(circuit: ReuploadCircuit, width: int, noisy: bool, adjoint: bool) -> list:
    """The shapes of the buffers of a `_Chunk` of ``width`` rows: the rows,
    the second state, c and S of `_angles`, then for an adjoint pass every
    qubit's psi slab and every qubit's lam slab (see `_adjoint_rows`)."""
    n, k, d = circuit.n_qubits, circuit.n_params, 4 if noisy else 2
    shapes = [(d ** n, width)] * 2 + [(k, width), (2, k, 1, width)]
    if adjoint:
        shapes += [(2, k // n, d ** q, d ** (n - q - 1), width) for q in range(n)] * 2
    return shapes


def _kernel_bytes(circuit: ReuploadCircuit, noisy: bool) -> int:
    """The bytes a row of either pass holds beyond its chunk's buffers, one
    term per kernel that holds them; every other kernel runs in place on
    the buffers."""
    n, k = circuit.n_qubits, circuit.n_params
    check_pauli_rows = _CHECK_STATES * (8 << 2 * n) * noisy
    # The chunk's `_naming` inverses of its thetas and xs (16), and
    # `_angles` with its `_named_trig`, at most: a theta table with its
    # trig copy (16 K), or the x trig and its table (32 N), or the x trig
    # and the composed product (< 16 K).
    angles = 16 * k + 32 * n + 16
    return check_pauli_rows + angles


def _row_bytes(circuit: ReuploadCircuit, noisy: bool, adjoint: bool) -> int:
    """The bytes one row of a forward or an adjoint pass holds at its peak:
    its share of the chunk's `_buffers` and its `_kernel_bytes`."""
    shares = sum(math.prod(shape) for shape in _buffers(circuit, 1, noisy, adjoint))
    return 8 * shares + _kernel_bytes(circuit, noisy)


def _sweep_bytes(circuit: ReuploadCircuit, noisy: bool, adjoint: bool) -> int:
    """The bytes a chunk's compiled sweeps hold, whatever its width:
    ``_ENTRY_BYTES`` for each schedule entry and each of the K columns of c
    and of S, twice over for an adjoint pass (its backward sweep, the slot
    copies of both sweeps and the reversed S), and 16 more."""
    entries = len(_schedule(circuit, noisy)) + 2 * circuit.n_params
    return _ENTRY_BYTES * (16 + entries * (1 + adjoint))


class _Chunk:
    """One chunk of a `_chunk_plan`, bound to its buffers, with its sweeps
    compiled once to (kernel, operands) pairs on views of them.

    The buffers (`_buffers`) are the rows, a second state, the angles and
    the adjoint's slabs.  The second state is lam, (Re M) psi or the Pauli
    rows' copy of the form, and it is the spare of every CX gather of the
    forward sweep; the rows are the spare of the backward sweep, which runs
    on lam.  A run rewrites every buffer it reads, so one chunk serves any
    thetas and sums its rows name, pass after pass, and allocates only
    what `_kernel_bytes` counts.  How its rows name them is bound with it
    (`_naming` of each of ``names``, the thetas' and the xs', None when
    row r names entry r)."""

    def __init__(self, circuit: ReuploadCircuit, rows: slice, strengths: dict,
                 form: np.ndarray, buffers: list, names: tuple):
        n = circuit.n_qubits
        self.circuit, self.rows = circuit, rows
        self.naming = tuple((rows, None) if part is None else _naming(part[rows])
                            for part in names)
        self.strengths, self.form = strengths, form
        self.noisy = noisy = bool(strengths)
        self.scale, d = (1.0, 4) if noisy else (0.5, 2)
        self.states, self.lam, self.c, self.S, *slabs = buffers
        self.fresh = _fresh_rows(circuit, 1, noisy)
        self.psis, self.lams, self.adjoint = slabs[:n], slabs[n:], bool(slabs)
        cs = list(self.c)
        entry = _compiler(self.states, self.lam, cs, list(self.S.swapaxes(0, 1)), strengths, n)
        slots = [list(slot) for slot in _slots(self.psis)]
        pairs = _pairs(self.states, n, d) if self.adjoint else []
        self.sweep = []
        for op in _schedule(circuit, noisy):
            self.sweep.append(entry(op))
            if self.adjoint and op[0] == _RY:
                self.sweep.append((np.copyto, (slots[op[1]][op[2] // n], pairs[op[1]])))
        self.unsweep = []
        if self.adjoint:
            entry = _compiler(self.lam, self.states, cs, list(self.S[::-1].swapaxes(0, 1)),
                              strengths, n)
            pairs, slots = _pairs(self.lam, n, d), [list(slot) for slot in _slots(self.lams)]
            for op in _schedule(circuit, noisy, backward=True):
                if op[0] == _RY:
                    self.unsweep.append((np.copyto, (slots[op[1]][op[2] // n], pairs[op[1]])))
                    if op[2] == 0:  # the first Ry: nothing is left to undo
                        break
                self.unsweep.append(entry(op))


def _prepare(circuit: ReuploadCircuit, plan: list, adjoint: bool, names: tuple):
    """The chunks of ``plan`` bound in turn (`_Chunk`), all of them to the
    same memory, one array per buffer the size of the largest chunk's:
    chunks run one after another, and each run rewrites the buffers it
    reads.  ``names`` are the (rows,) indices of each row's theta and of
    its x (see `_angles`), each None when row r names entry r.  A caller
    that keeps the chunks (`train._sgd_paths`) binds them once for all its
    passes; one that runs them once lets each go after its run."""
    widest = {}  # rows of the widest chunk of each kind
    for rows, strengths, _ in plan:
        widest[bool(strengths)] = max(widest.get(bool(strengths), 0), rows.stop - rows.start)
    memory = [np.empty(max(map(math.prod, role))) for role in
              zip(*(_buffers(circuit, width, kind, adjoint) for kind, width in widest.items()))]
    for rows, strengths, form in plan:
        shapes = _buffers(circuit, rows.stop - rows.start, bool(strengths), adjoint)
        buffers = [whole[:math.prod(shape)].reshape(shape) for whole, shape in zip(memory, shapes)]
        yield _Chunk(circuit, rows, strengths, form, buffers, names)


def _forward_rows(chunk: _Chunk, thetas: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Every output of the ``chunk``'s rows, which name ``thetas`` and
    `_fold` ``sums`` as in `_angles`: |0...0> swept forward through the
    schedule, then measured as the (rows,) sums of lam * state, returned as
    a view into the chunk's rows, which the product and its running sums
    overwrite.  An adjoint chunk's forward sweep also copies the qubit's
    pair of the rows after every trainable Ry to its psi slot.

    lam is (Re M) psi for statevector rows and the one column ``form`` of
    `_observable_form` for Pauli rows, whose density matrices are checked
    here; an adjoint chunk leaves lam in its second state for the backward
    sweep."""
    _angles(chunk.circuit, thetas, sums, chunk.naming, chunk.scale, chunk.c, chunk.S)
    states = chunk.states
    np.copyto(states, chunk.fresh)
    _run(chunk.sweep)
    if chunk.noisy:
        _check_pauli_rows(states, chunk.circuit.n_qubits)
        if chunk.adjoint:
            np.copyto(chunk.lam, chunk.form)
        states *= chunk.form
    else:
        states *= _observe(chunk.form, states, chunk.lam)
    return _column_sum(states)


def _adjoint_rows(chunk: _Chunk, thetas: np.ndarray, sums: np.ndarray,
                  grads: np.ndarray) -> np.ndarray:
    """Outputs and their parameter gradients for the rows of an adjoint
    ``chunk``, which name ``thetas`` and `_fold` ``sums`` as in `_angles`:
    the (rows,) outputs are returned, and the gradients written into the
    (rows, K) ``grads``.

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
    lam_X c_Z - lam_Z c_X, the rotation's generator.  The terms are formed
    and summed in place on the lam slab, which the next run rewrites before
    it reads it, so the contraction allocates nothing.
    """
    values = _forward_rows(chunk, thetas, sums).copy()  # the backward gathers reuse the rows
    _run(chunk.unsweep)
    n, rows = chunk.circuit.n_qubits, len(values)
    per = chunk.circuit.n_params // n
    for q, (psi, lam) in enumerate(zip(chunk.psis, chunk.lams)):
        lam[1] *= psi[0]
        lam[0] *= psi[1]
        lam[1] -= lam[0]
        grads[:, q::n] = _column_sum(lam[1].reshape(per, -1, rows).swapaxes(0, 1)).T
    return values


def _check_rows(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                noise_p) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Validated (A, K) thetas and (B, D) xs, each one row or one per row
    of the batch, its (rows,) noise strengths and the rows' names of their
    theta and x (see `_angles`): each row its own, or all the one shared,
    which is never broadcast."""
    thetas, xs = np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float)
    for name, rows in (("thetas", thetas), ("xs", xs)):
        if rows.ndim not in (1, 2):
            raise ValueError(f"{name} must be 1-D or 2-D, got shape {rows.shape}")
    thetas, xs = np.atleast_2d(thetas, xs)
    rows = len(xs) if len(thetas) == 1 else len(thetas)
    if len(xs) not in (1, rows):
        raise ValueError("thetas and xs row counts do not match")
    names = tuple(None if len(part) == rows else np.broadcast_to(np.intp(0), rows)
                  for part in (thetas, xs))
    return thetas, xs, _check_batch(circuit, thetas, xs, obs, noise_p, rows), names


def _check_batch(circuit: ReuploadCircuit, thetas: np.ndarray, xs: np.ndarray,
                 obs: Observable, noise_p, rows: int) -> np.ndarray:
    """The checks of `_check_rows` that do not pair theta rows with x rows.

    (A, K) ``thetas`` and (B, D) ``xs`` must be finite, ``obs`` must match
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
    `_observable_form` of its kind) triples, in row order, which `_prepare`
    binds to buffers.

    A row is a statevector row at p = 0 and a Pauli row at p > 0.  The rows
    are cut wherever the kind changes, and each run of one kind into the
    fewest near-equal chunks (their widths differ by at most one row) of
    at most ``_CHUNK_BYTES``: the chunk's `_sweep_bytes` and its rows'
    `_row_bytes`; a statevector chunk has no factors.  A row of more than
    ``_ROW_BYTES`` raises CapacityError before any state is allocated."""
    noisy = noise > 0.0
    # Runs of one kind, cut where a row's kind differs from the row before.
    bounds = [0, *(np.flatnonzero(noisy[1:] != noisy[:-1]) + 1).tolist(), len(noise)]
    plan, forms = [], {}
    for start, stop in zip(bounds, bounds[1:]):
        kind = bool(noisy[start:stop].any())  # False for no rows at all
        row_bytes = _row_bytes(circuit, kind, adjoint)
        if row_bytes > _ROW_BYTES:
            raise CapacityError(f"one row of this {circuit.n_qubits}-qubit circuit needs "
                                f"{row_bytes} bytes, more than the {_ROW_BYTES} a row may take")
        if kind not in forms:
            forms[kind] = _observable_form(circuit, obs, kind)
        widest = max(1, (_CHUNK_BYTES - _sweep_bytes(circuit, kind, adjoint)) // row_bytes)
        count, width = -(-(stop - start) // widest), stop - start
        for i in range(count):  # the wider chunks first
            rows = slice(start - (-width * i // count), start - (-width * (i + 1) // count))
            plan.append((rows, _strengths(circuit, noise[rows]) if kind else {}, forms[kind]))
    return plan


def _outputs(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray, obs: Observable,
             noise: np.ndarray, names: tuple) -> np.ndarray:
    """The (rows,) outputs of checked rows at checked (rows,) strengths
    ``noise``, which name (A, K) ``thetas`` and (B, N) `_fold` ``sums`` by
    their ``names`` (see `_prepare`): one forward pass, each chunk of its
    plan bound, run once and let go.  `forward_many`, `_forward_grid` and
    the evaluations of `train._train_runs` only name rows for it."""
    values = np.empty(len(noise))
    plan = _chunk_plan(circuit, obs, noise, adjoint=False)
    for chunk in _prepare(circuit, plan, False, names):
        values[chunk.rows] = _forward_rows(chunk, thetas, sums)
        del chunk  # let it go before the next is bound
    return values


def forward_many(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                 noise_p=0.0) -> np.ndarray:
    """Vectorized `forward` over rows of (theta, x) pairs.

    ``thetas`` is (rows, K) or (K,) for all rows; ``xs`` is (rows, D) or
    (D,); ``noise_p`` is a float for all rows or a (rows,) vector.  Returns
    the (rows,) vector of expectations.  A row with p > 0 is a
    density-matrix simulation under per-gate depolarizing noise of
    strength p (see `noise`) in the Pauli basis, whose density matrix is
    rebuilt and checked once at the end for unit trace, Hermiticity and
    positivity; a row with p = 0 is a statevector.  Rows of any strengths
    may share a call, in any order.
    """
    thetas, xs, noise, names = _check_rows(circuit, thetas, xs, obs, noise_p)
    return _outputs(circuit, thetas, _fold(circuit, xs), obs, noise, names)


def _forward_grid(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                  noise_p) -> np.ndarray:
    """`forward_many` of every pair of (A, K) ``thetas`` and (B, D) ``xs``,
    theta-major, at ``noise_p``, a float or one strength per theta: the (A,
    B) outputs, bit for bit those of the thetas repeated and the xs tiled.
    Row a B + b names theta a and x b (see `_angles`), so the trig is paid
    once per theta and once per x, not per row."""
    thetas, xs = np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float)
    a, b = len(thetas), len(xs)
    noise = np.asarray(noise_p, dtype=float)
    if noise.ndim:
        noise = noise.repeat(b)
    noise = _check_batch(circuit, thetas, xs, obs, noise, a * b)
    names = np.arange(a).repeat(b), np.tile(np.arange(b), a)
    return _outputs(circuit, thetas, _fold(circuit, xs), obs, noise, names).reshape(a, b)


def _planned_grads(circuit: ReuploadCircuit, thetas: np.ndarray, sums: np.ndarray, chunks,
                   rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`_output_grads` of ``rows`` checked rows that name (A, K) thetas and
    the (B, N) `_fold` sums of checked features as in `_angles`, by the
    adjoint `_Chunk`s ``chunks`` of their strengths, unchecked: the core
    that both it and `train._sgd_paths` call, the latter with chunks bound
    once for all its steps.  Each chunk writes its rows of the outputs, so
    they are held once and no chunk holds gradients of its own."""
    values, grads = np.empty(rows), np.empty((rows, circuit.n_params))
    for chunk in chunks:
        values[chunk.rows] = _adjoint_rows(chunk, thetas, sums, grads[chunk.rows])
        del chunk  # a chunk run once goes before the next is bound
    return values, grads


def _output_grads(circuit: ReuploadCircuit, thetas, xs, obs: Observable,
                  noise_p) -> tuple[np.ndarray, np.ndarray]:
    """Every row's output and its gradient: ((rows,), (rows, K)).

    Rows and ``noise_p`` broadcast as in `forward_many`, and the outputs
    are its outputs, bit for bit.  Adjoint differentiation (see
    `_adjoint_rows`); `grad.parameter_shift_grad_f` is its independent
    oracle.  This is the checked entry point of `_planned_grads`, whose
    chunks it binds, runs once and lets go.
    """
    thetas, xs, noise, names = _check_rows(circuit, thetas, xs, obs, noise_p)
    chunks = _prepare(circuit, _chunk_plan(circuit, obs, noise, adjoint=True), True, names)
    return _planned_grads(circuit, thetas, _fold(circuit, xs), chunks, len(noise))


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
