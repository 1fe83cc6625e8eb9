"""Choi operators, the link product, and quantum-comb verification.

The circuit simulator in :mod:`reupqnn.ansatz` answers "what does this
circuit output"; this module answers the same question through an
independent algebraic route so the two can be cross-checked.

Representation.  A channel N is stored by its (unnormalized) Choi
operator J_N = sum_ij |i><j| (x) N(|i><j|) over labeled tensor factors.
For a unitary U the Choi operator is the rank-one projector onto the
column-stacked vector of U, with trace equal to the input dimension.
Real operators stay real: a U with no imaginary part, such as every block
of an Ry + CX circuit, has a float64 Choi operator, and tensor products,
link products, partial traces and permutations of float64 operators are
float64, so the comb of such a circuit is built, contracted and validated
in real arithmetic at half the bytes.  A complex operand gives a
complex128 result.

Composition.  Two Choi operators are composed by the link product
(Chiribella, D'Ariano & Perinotti, arXiv:0904.4483), which contracts the
systems s the operands share.  With a the systems only in A and b those
only in B, entrywise

    (A * B)[a b, a' b'] = sum_{s,t} A[a s, a' t] B[s b, t b'],

that is tr_s[(A (x) 1_b) (1_a (x) B^{T_s})].  The link product is
commutative and associative up to reordering of labels, which lets a
re-uploading circuit be evaluated by chaining the per-block Choi
operators against the input state, the encoding Chois and the observable
without ever materializing the tensor product of all blocks.

Verification.  ``validate_comb`` checks the defining conditions of a
quantum comb: positivity plus the recursive partial-trace cascade that
forces each tooth's output to be independent of later inputs.
Positivity is decided by one Cholesky factorization of H + 1e-8*I, with
H the Hermitian part of the operator (``qcore._psd_violations``, the
test the density checks use): it succeeds when every eigenvalue of H lies
above -1e-8, up to rounding of order 1e-16*||H||, either verdict exactly
at the floor, without computing the spectrum, in one full-size copy of
the operator factored in place by blocks.  A float64 operator, such as
the comb of any Ry + CX circuit, and a complex one with no imaginary
part are factored in real arithmetic, under the same threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import ReuploadCircuit, encoding_unitary, trainable_block_unitary
from .qcore import CapacityError, NumericalIntegrityError, Observable, _psd_violations

__all__ = [
    "SystemLabel",
    "ChoiOperator",
    "choi_of_unitary",
    "tensor",
    "permute_systems",
    "partial_trace",
    "link_product",
    "build_reuploading_comb",
    "reuploading_comb_output",
    "CombReport",
    "validate_comb",
]

_COMB_ATOL = 1e-8
_MAX_COMB_WIRE_QUBITS = 16
# Each system takes a row and a column label in einsum, which has 52 labels.
_MAX_SYSTEMS = 26


@dataclass(frozen=True)
class SystemLabel:
    """A named tensor factor with its dimension."""

    name: str
    dim: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("system name must be non-empty")
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ChoiOperator:
    """A matrix over an ordered list of labeled systems.

    ``matrix`` is square with dimension equal to the product of the system
    dimensions; row and column multi-indices both follow the order of
    ``systems``.  Zero systems (a 1x1 matrix, i.e. a scalar) are allowed
    as the end point of full contractions.

    ``matrix`` keeps its dtype kind: a bool, integer or float matrix is
    stored as float64 and a complex one as complex128.  A complex matrix
    is not scanned for a zero imaginary part; it stays complex128.
    """

    systems: tuple[SystemLabel, ...]
    matrix: np.ndarray

    def __post_init__(self):
        systems = tuple(self.systems)
        object.__setattr__(self, "systems", systems)
        names = [s.name for s in systems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate system names in {names}")
        _require_system_count(len(systems))
        mat = _as_kind64(np.asarray(self.matrix))
        dim = math.prod(s.dim for s in systems)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match system dims "
                f"{[s.dim for s in systems]} (expected {dim}x{dim})"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.systems)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.systems)

    def system(self, name: str) -> SystemLabel:
        for s in self.systems:
            if s.name == name:
                return s
        raise ValueError(f"no system named {name!r}")

    def relabel(self, mapping: dict) -> "ChoiOperator":
        """Rename systems; dimensions and the matrix are untouched."""
        systems = tuple(
            SystemLabel(mapping.get(s.name, s.name), s.dim) for s in self.systems
        )
        return ChoiOperator(systems, self.matrix)


def _as_kind64(a: np.ndarray) -> np.ndarray:
    """``a`` as complex128 if it is complex, else as float64."""
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _require_system_count(count: int) -> None:
    if count > _MAX_SYSTEMS:
        raise CapacityError(
            f"{count} systems exceed the supported maximum of {_MAX_SYSTEMS}"
        )


def choi_of_unitary(u: np.ndarray, in_name: str = "in", out_name: str = "out") -> ChoiOperator:
    """Choi operator of the unitary channel rho -> U rho U^dagger.

    The result is sum_ij |i><j| (x) U|i><j|U^dagger on systems
    (in_name, out_name); rank one with trace equal to dim(U).  It is
    float64 when U has no imaginary part, as every trainable and encoding
    block of an Ry + CX circuit, and complex128 otherwise.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u) and not u.imag.any():
        u = u.real
    u = _as_kind64(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    d = u.shape[0]
    if np.max(np.abs(u @ u.conj().T - np.eye(d))) > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    vec = u.T.reshape(-1)  # vec[i * d + k] = u[k, i]
    mat = np.outer(vec, vec.conj())
    return ChoiOperator((SystemLabel(in_name, d), SystemLabel(out_name, d)), mat)


def _tensor_shape(op: ChoiOperator) -> tuple[int, ...]:
    return op.dims + op.dims


def tensor(a: ChoiOperator, b: ChoiOperator) -> ChoiOperator:
    """Tensor product; no shared names allowed."""
    overlap = set(a.names) & set(b.names)
    if overlap:
        raise ValueError(f"tensor operands share system names {sorted(overlap)}")
    total = a.matrix.shape[0] * b.matrix.shape[0]
    if total > (1 << _MAX_COMB_WIRE_QUBITS):
        raise CapacityError(
            f"tensor result dimension {total} exceeds 2^{_MAX_COMB_WIRE_QUBITS}"
        )
    return ChoiOperator(a.systems + b.systems, np.kron(a.matrix, b.matrix))


def permute_systems(op: ChoiOperator, order) -> ChoiOperator:
    """Reorder the tensor factors to the given sequence of system names."""
    order = list(order)
    if sorted(order) != sorted(op.names):
        raise ValueError(f"order {order} is not a permutation of {list(op.names)}")
    k = len(op.systems)
    perm = [op.names.index(name) for name in order]
    tensor_form = op.matrix.reshape(_tensor_shape(op))
    tensor_form = tensor_form.transpose(perm + [k + p for p in perm])
    systems = tuple(op.systems[p] for p in perm)
    dim = op.matrix.shape[0]
    return ChoiOperator(systems, np.ascontiguousarray(tensor_form.reshape(dim, dim)))


def partial_trace(op: ChoiOperator, names) -> ChoiOperator:
    """Trace out the chosen systems; remaining systems keep their order."""
    names = list(names)
    _require_systems(op, names)
    k = len(op.systems)
    traced = [op.names.index(name) for name in names]
    row_labels = list(range(k))
    col_labels = [k + i if i not in traced else i for i in range(k)]
    keep = [i for i in range(k) if i not in traced]
    out_labels = [row_labels[i] for i in keep] + [col_labels[i] for i in keep]
    tensor_form = op.matrix.reshape(_tensor_shape(op))
    reduced = np.einsum(tensor_form, row_labels + col_labels, out_labels)
    systems = tuple(op.systems[i] for i in keep)
    dim = math.prod(s.dim for s in systems)
    return ChoiOperator(systems, reduced.reshape(dim, dim))


def _require_systems(op: ChoiOperator, names) -> None:
    missing = [n for n in names if n not in op.names]
    if missing:
        raise ValueError(f"systems {missing} not present in {list(op.names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate system names {names}")


def link_product(a: ChoiOperator, b: ChoiOperator) -> ChoiOperator:
    """Link product A * B contracting the shared systems.

    The shared systems s are the names present in both operands; their
    dimensions must agree.  With a the other systems of ``a`` and b the
    other systems of ``b``, the result is

        (A * B)[a b, a' b'] = sum_{s,t} A[a s, a' t] B[s b, t b'],

    one contraction in which every system has one row index and one
    column index, shared by both operands.  The result lives on a followed
    by b.  With no shared systems this is the tensor product; with all
    systems shared it is a full contraction to a scalar operator.
    """
    for name in a.names:
        if name in b.names and a.system(name).dim != b.system(name).dim:
            raise ValueError(
                f"shared system {name!r} has mismatched dimensions "
                f"{a.system(name).dim} vs {b.system(name).dim}"
            )
    a_only = tuple(s for s in a.systems if s.name not in b.names)
    b_only = tuple(s for s in b.systems if s.name not in a.names)
    union = a.systems + b_only
    _require_system_count(len(union))
    total = math.prod(s.dim for s in union)
    if total > (1 << _MAX_COMB_WIRE_QUBITS):
        raise CapacityError(
            f"link product working dimension {total} exceeds 2^{_MAX_COMB_WIRE_QUBITS}"
        )
    # System k of the union has row index k and column index k + len(union).
    index = {s.name: k for k, s in enumerate(union)}

    def labels(systems):
        return [index[s.name] for s in systems] + [len(union) + index[s.name] for s in systems]

    systems = a_only + b_only
    result = np.einsum(
        a.matrix.reshape(_tensor_shape(a)), labels(a.systems),
        b.matrix.reshape(_tensor_shape(b)), labels(b.systems),
        labels(systems),
    )
    dim = math.prod(s.dim for s in systems)
    return ChoiOperator(systems, result.reshape(dim, dim))


def _wire(index: int, dim: int) -> SystemLabel:
    return SystemLabel(f"w{index}", dim)


def _layer_chois(circuit: ReuploadCircuit, theta) -> list[ChoiOperator]:
    return [
        choi_of_unitary(
            trainable_block_unitary(circuit, theta, layer), f"w{2 * layer - 1}", f"w{2 * layer}"
        )
        for layer in range(1, circuit.layers + 2)
    ]


def build_reuploading_comb(circuit: ReuploadCircuit, theta):
    """Explicit comb of the trainable blocks: tensor of their Choi operators.

    Returns (comb, teeth) where the comb's systems run in causal order
    w1 ... w(2L+2) and teeth lists the (input, output) wire names of the
    L encoding slots.  Only viable at small scale; the total dimension is
    guarded by the kron capacity limit.
    """
    chois = _layer_chois(circuit, theta)
    comb = chois[0]
    for j in chois[1:]:
        comb = tensor(comb, j)
    teeth = [(f"w{2 * l}", f"w{2 * l + 1}") for l in range(1, circuit.layers + 1)]
    return comb, teeth


def reuploading_comb_output(circuit: ReuploadCircuit, theta, x, obs: Observable) -> float:
    """Circuit output evaluated through the comb route.

    Chains the per-block Choi operators against the input state
    |0...0><0...0| (the engine's start) and the encoding-block Choi by
    pairwise link products, then closes with the observable.  The full
    tensor product of all blocks is never formed; intermediates stay at
    one or two wires, and in float64 while every block is real.
    """
    wires = circuit.n_qubits * (2 * circuit.layers + 2)
    if wires > _MAX_COMB_WIRE_QUBITS:
        raise CapacityError(
            f"comb evaluation needs {wires} wire qubits, supported maximum is "
            f"{_MAX_COMB_WIRE_QUBITS}"
        )
    if obs.matrix.shape[0] != (1 << circuit.n_qubits):
        raise ValueError("observable dimension does not match the circuit")
    chois = _layer_chois(circuit, theta)
    j_enc = choi_of_unitary(encoding_unitary(circuit, x), "enc_in", "enc_out")
    d = 1 << circuit.n_qubits
    rho = np.zeros((d, d))
    rho[0, 0] = 1.0
    acc = ChoiOperator((_wire(1, d),), rho)
    for layer in range(1, circuit.layers + 1):
        acc = link_product(acc, chois[layer - 1])
        slot = j_enc.relabel({"enc_in": f"w{2 * layer}", "enc_out": f"w{2 * layer + 1}"})
        acc = link_product(acc, slot)
    acc = link_product(acc, chois[circuit.layers])
    value = np.trace(acc.matrix @ obs.matrix)
    if abs(value.imag) > 1e-8:
        raise NumericalIntegrityError(
            f"comb output has imaginary residue {value.imag!r} above 1e-8"
        )
    return float(value.real)


@dataclass(frozen=True)
class CombReport:
    """Outcome of ``validate_comb``; violations are listed in check order."""

    is_comb: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def validate_comb(c: ChoiOperator, teeth) -> CombReport:
    """Check the defining conditions of a deterministic quantum comb.

    ``teeth`` lists the (input, output) system names of each slot in
    causal order.  The two systems of ``c`` not mentioned in any tooth are
    the global input (first by appearance) and the global output.  The
    conditions checked, each to within 1e-8:

    * Hermiticity of the full operator, and positive semidefiniteness of
      its Hermitian part H: a Cholesky factorization of H + 1e-8*I must
      succeed, which it does when no eigenvalue of H is below -1e-8, up
      to rounding of order 1e-16*||H||, either verdict exactly at the
      floor (``qcore._psd_violations``).  A matrix with no imaginary part
      is checked and factored in real arithmetic; the threshold is the
      same.  A float64 operator also stays float64 through the cascade.
      The test holds one full-size copy: the upper block triangle of H
      + 1e-8*I, factored in place by blocks of ``qcore._PSD_BLOCK``, whose
      verdict is that of one whole-matrix factorization up to the same
      rounding.
    * For each level i from the last tooth down to the global input:
      tracing the level's output from the running operator must equal the
      next running operator tensored with identity on the level's input,
      where the next running operator is the normalized trace over both.
    * The fully reduced scalar equals 1.

    Raises ``ValueError`` if the matrix has a NaN or infinite entry, which
    no comparison against a tolerance would catch.
    """
    teeth = [(str(i), str(o)) for i, o in teeth]
    tooth_names = [n for pair in teeth for n in pair]
    _require_systems(c, tooth_names)
    rest = [n for n in c.names if n not in tooth_names]
    if len(rest) != 2:
        raise ValueError(
            f"expected exactly two non-tooth systems (global input and output), "
            f"found {rest}"
        )
    p_name, f_name = rest[0], rest[1]

    causal = [p_name]
    for i_name, o_name in teeth:
        causal.extend([i_name, o_name])
    causal.append(f_name)
    cur = permute_systems(c, causal)

    if not np.all(np.isfinite(cur.matrix)):
        raise ValueError("comb matrix has non-finite entries")
    violations = list(_psd_violations(cur.matrix, _COMB_ATOL))

    # Causality cascade: outputs in reverse causal order are F, then each
    # tooth input; the matching comb inputs are the previous tooth output,
    # ending at the global input.
    outputs = [f_name] + [i for i, _ in reversed(teeth)]
    inputs = [o for _, o in reversed(teeth)] + [p_name]
    n_levels = len(outputs)
    for level, (out_name, in_name) in enumerate(zip(outputs, inputs)):
        in_system = cur.system(in_name)
        lhs = partial_trace(cur, [out_name])
        cur = partial_trace(lhs, [in_name])
        cur = ChoiOperator(cur.systems, cur.matrix / in_system.dim)
        rhs = tensor(cur, ChoiOperator((in_system,), np.eye(in_system.dim)))
        if np.linalg.norm(lhs.matrix - rhs.matrix) > _COMB_ATOL:
            violations.append(f"causality-level-{n_levels - level}")
    if abs(cur.matrix[0, 0] - 1.0) > _COMB_ATOL:
        violations.append("normalization")
    return CombReport(is_comb=not violations, violations=tuple(violations))
