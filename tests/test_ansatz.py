"""Circuit layout arithmetic and the forward routes.

The single-qubit closed form is the main independent oracle: with one
qubit every gate is a y rotation, rotations about a shared axis add
their angles, and <Z> after rotating |0> by a total angle A is cos(A).
"""

import tracemalloc

import numpy as np
import pytest

from reupqnn import ansatz
from reupqnn.ansatz import (
    ReuploadCircuit,
    build_circuit,
    circuit_unitary,
    encoding_unitary,
    forward,
    forward_many,
    iter_gates,
    trainable_block_unitary,
)
from _oracles import (
    adjoint_rows_per_ry,
    apply_gate,
    expectation,
    from_pauli_coefficients,
    kraus_oracle,
    pauli_coefficients,
)
from reupqnn.qcore import (
    CapacityError,
    Observable,
    QuantumState,
    embed_gate,
    rotation_gate,
    z_observable,
)


def single_qubit_closed_form(circuit, theta, x):
    """cos(sum of every applied angle), valid only for one-qubit circuits."""
    assert circuit.n_qubits == 1
    total = float(np.sum(theta))
    total += circuit.layers * circuit.encode_columns * float(np.sum(x))
    return np.cos(total)


def forward_via_gate_list(circuit, theta, x, obs):
    """Replay iter_gates through the gate-by-gate reference simulator."""
    state = QuantumState.zero(circuit.n_qubits)
    for gate, targets in iter_gates(circuit, theta, x):
        state = apply_gate(state, gate, targets)
    return expectation(state, obs)


# --- layout -----------------------------------------------------------------


def test_param_count_formula():
    for n, l, r in [(1, 1, 1), (2, 3, 2), (4, 8, 2), (3, 2, 5)]:
        c = build_circuit(n, l, data_dim=n, sublayers=r)
        assert c.n_params == (l + 1) * r * n


def test_param_index_round_trip():
    """Flat indices run over (layer, sublayer, qubit) row-major, so each
    block's parameters are one contiguous slice of theta."""
    c = build_circuit(4, 8, data_dim=16, sublayers=2)
    assert c.n_params == 72
    width = c.sublayers * c.n_qubits
    j = 0
    for layer in range(1, c.layers + 2):
        for sub in range(c.sublayers):
            for q in range(c.n_qubits):
                assert c.param_index(layer, sub, q) == j
                assert (layer - 1) * width <= j < layer * width
                j += 1
    assert j == c.n_params
    assert c.param_index(9, 1, 3) == 71


def test_layer_slice_partitions_theta():
    """Each block's indices are one contiguous run; the blocks tile theta in order."""
    c = build_circuit(3, 2, data_dim=3, sublayers=2)
    seen = []
    for layer in range(1, c.layers + 2):
        block = [c.param_index(layer, sub, q)
                 for sub in range(c.sublayers) for q in range(c.n_qubits)]
        assert block == list(range(block[0], block[0] + len(block)))
        seen.extend(block)
    assert seen == list(range(c.n_params))


def test_encode_layout_row_major_wrap():
    """Feature d sits at column d // N on qubit d % N; slots past D are Ry(0)."""
    c = build_circuit(2, 1, data_dim=5, sublayers=1)
    assert c.encode_columns == 3
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    gates = list(iter_gates(c, np.zeros(c.n_params), x))
    encode = gates[c.sublayers * (2 * c.n_qubits - 1):][:c.encode_columns * c.n_qubits]
    assert [t for _, t in encode] == [(0,), (1,), (0,), (1,), (0,), (1,)]
    for (gate, _), angle in zip(encode, [0.1, 0.2, 0.3, 0.4, 0.5, 0.0]):
        np.testing.assert_array_equal(gate, rotation_gate("y", angle))


def test_circuit_validation():
    with pytest.raises(ValueError):
        build_circuit(0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_circuit(1, 1, 0, 1)
    with pytest.raises(CapacityError):
        build_circuit(15, 1, 1, 1)


def test_gate_count():
    # R (N rotations + N-1 entanglers) per trainable block,
    # N rotations per encode column, L encode blocks.
    c = build_circuit(3, 2, data_dim=4, sublayers=2)
    theta = np.zeros(c.n_params)
    x = np.zeros(4)
    gates = list(iter_gates(c, theta, x))
    trainable = (c.layers + 1) * c.sublayers * (c.n_qubits + c.n_qubits - 1)
    encode = c.layers * c.encode_columns * c.n_qubits
    assert len(gates) == trainable + encode


# --- forward hand cases -----------------------------------------------------


def test_forward_zero_theta_pi_encoding_flips_qubit():
    c = build_circuit(1, 1, 1, 1)
    f = forward(c, np.zeros(2), np.array([np.pi]), z_observable(1))
    assert f == pytest.approx(-1.0, abs=1e-12)


def test_forward_single_qubit_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(50):
        layers = int(rng.integers(1, 5))
        sublayers = int(rng.integers(1, 4))
        c = build_circuit(1, layers, 1, sublayers)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, 1)
        want = single_qubit_closed_form(c, theta, x)
        assert forward(c, theta, x, z_observable(1)) == pytest.approx(want, abs=1e-12)


def test_forward_entangler_hand_case():
    """theta1 = (pi, 0) flips qubit 0, CX flips qubit 1, final CX undoes it."""
    c = build_circuit(2, 1, 2, 1)
    theta = np.array([np.pi, 0.0, 0.0, 0.0])
    x = np.zeros(2)
    f = forward(c, theta, x, z_observable(2))
    assert f == pytest.approx(-1.0, abs=1e-12)


def test_forward_two_pi_periodicity():
    rng = np.random.default_rng(22)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    x = rng.uniform(0, 2 * np.pi, 3)
    base = forward(c, theta, x, obs)
    for j in range(c.n_params):
        shifted = theta.copy()
        shifted[j] += 2 * np.pi
        assert forward(c, shifted, x, obs) == pytest.approx(base, abs=1e-12)


def test_forward_matches_gate_list_replay():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        layers = int(rng.integers(1, 4))
        d = int(rng.integers(1, 2 * n + 1))
        c = build_circuit(n, layers, d, int(rng.integers(1, 3)))
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, d)
        obs = z_observable(n)
        want = forward_via_gate_list(c, theta, x, obs)
        assert forward(c, theta, x, obs) == pytest.approx(want, abs=1e-12)


def test_forward_input_validation():
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    with pytest.raises(ValueError):
        forward(c, np.zeros(3), np.zeros(2), obs)
    with pytest.raises(ValueError):
        forward(c, np.zeros(4), np.zeros(1), obs)
    with pytest.raises(ValueError):
        forward(c, np.full(4, np.nan), np.zeros(2), obs)
    with pytest.raises(ValueError):
        forward(c, np.zeros(4), np.zeros(2), z_observable(1))


# --- batched route -----------------------------------------------------------


def unitary_expectation(circuit, theta, x, obs):
    """<M> on the first column of the dense circuit unitary."""
    psi = circuit_unitary(circuit, theta, x)[:, 0]
    return float((psi.conj() @ obs.matrix @ psi).real)


def test_forward_many_matches_forward():
    """forward is a one-row forward_many; both match the dense-unitary column."""
    rng = np.random.default_rng(24)
    # D > N shapes exercise the noiseless fold of encoding blocks into the
    # next trainable block; (4, 16, 16, 2) is the image sweep's circuit.
    shapes = [(1, 1, 1, 1), (2, 2, 3, 2), (3, 1, 5, 1), (4, 2, 4, 2),
              (2, 3, 5, 2), (3, 2, 7, 1), (4, 16, 16, 2)]
    for n, layers, d, r in shapes:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        batch = 7
        thetas = rng.uniform(0, 2 * np.pi, (batch, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (batch, d))
        got = forward_many(c, thetas, xs, obs)
        want = np.array([unitary_expectation(c, thetas[i], xs[i], obs) for i in range(batch)])
        assert np.max(np.abs(got - want)) < 1e-12
        assert [forward(c, thetas[i], xs[i], obs) for i in range(batch)] == got.tolist()


def test_forward_many_broadcasts_single_rows():
    rng = np.random.default_rng(25)
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    xs = rng.uniform(0, 2 * np.pi, (5, 2))
    got = forward_many(c, theta, xs, obs)
    want = np.array([unitary_expectation(c, theta, xs[i], obs) for i in range(5)])
    assert np.max(np.abs(got - want)) < 1e-12
    # and the transposed broadcast
    thetas = rng.uniform(0, 2 * np.pi, (4, c.n_params))
    x = rng.uniform(0, 2 * np.pi, 2)
    got2 = forward_many(c, thetas, x, obs)
    want2 = np.array([unitary_expectation(c, thetas[i], x, obs) for i in range(4)])
    assert np.max(np.abs(got2 - want2)) < 1e-12


def test_forward_many_rows_do_not_depend_on_batch():
    """A stacked (T+1)*P path scores each row to the same bits as one call per theta."""
    rng = np.random.default_rng(26)
    for (n, layers, d, r), p in [((1, 1, 1, 1), 0.0), ((4, 2, 4, 2), 0.0), ((3, 1, 2, 2), 0.05)]:
        c = build_circuit(n, layers, d, r)
        obs = z_observable(n)
        path = rng.uniform(0, 2 * np.pi, (21, c.n_params))
        probes = rng.uniform(0, 2 * np.pi, (16, d))
        stacked = forward_many(
            c, np.repeat(path, len(probes), axis=0), np.tile(probes, (len(path), 1)), obs, p
        ).reshape(len(path), len(probes))
        one_by_one = np.array([forward_many(c, theta, probes, obs, p) for theta in path])
        np.testing.assert_array_equal(stacked, one_by_one)


def test_rows_do_not_depend_on_batch_size_at_many_halves():
    """At 4 and 5 qubits a row's sums run over 8 to 1024 terms; its output
    and gradients are the same bits alone and inside batches of 2 and 9, in
    both modes, for z and for a dense observable, and `_output_grads`
    gives `forward_many`'s outputs."""
    rng = np.random.default_rng(29)
    for (n, layers, d, r), p in [((4, 2, 16, 2), 0.0), ((5, 2, 10, 1), 0.0),
                                 ((4, 2, 16, 2), 0.05), ((5, 1, 10, 1), 0.05)]:
        c = build_circuit(n, layers, d, r)
        a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        for obs in (z_observable(n), Observable(0.5 * (a + a.conj().T))):
            thetas = rng.uniform(0, 2 * np.pi, (9, c.n_params))
            xs = rng.uniform(0, 2 * np.pi, (9, d))
            values = forward_many(c, thetas, xs, obs, p)
            outputs, grads = ansatz._output_grads(c, thetas, xs, obs, p)
            np.testing.assert_array_equal(outputs, values)
            for row in range(9):
                for lo, hi in ((row, row + 1), (min(row, 7), min(row, 7) + 2)):
                    part = forward_many(c, thetas[lo:hi], xs[lo:hi], obs, p)
                    assert part[row - lo] == values[row]
                    got = ansatz._output_grads(c, thetas[lo:hi], xs[lo:hi], obs, p)
                    assert got[0][row - lo] == outputs[row]
                    assert np.array_equal(got[1][row - lo], grads[row])


def test_rows_of_mixed_noise_strengths_match_one_call_per_strength():
    """Rows with different p in [0, 1] in one batch, p = 0 statevector rows
    interleaved among p > 0 Pauli rows, give the bits of one call per p,
    outputs and gradients alike, for z and for a dense observable; a noise
    vector of the wrong length or outside [0, 1] is rejected."""
    rng = np.random.default_rng(32)
    c = build_circuit(3, 2, 5, 2)
    a = rng.normal(size=(8, 8))
    ps = np.array([0.0, 0.05, 0.1, 1.0, 0.0, 0.0, 0.05, 0.3, 0.1, 0.0, 1.0])
    for obs in (z_observable(3), Observable(a + a.T)):
        thetas = rng.uniform(0, 2 * np.pi, (len(ps), c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (len(ps), 5))
        values = forward_many(c, thetas, xs, obs, ps)
        outputs, grads = ansatz._output_grads(c, thetas, xs, obs, ps)
        np.testing.assert_array_equal(outputs, values)
        for p in (0.0, 0.05, 0.1, 0.3, 1.0):
            rows = ps == p
            np.testing.assert_array_equal(forward_many(c, thetas[rows], xs[rows], obs, p),
                                          values[rows])
            alone = ansatz._output_grads(c, thetas[rows], xs[rows], obs, p)
            np.testing.assert_array_equal(alone[0], outputs[rows])
            np.testing.assert_array_equal(alone[1], grads[rows])
    for run in (forward_many, ansatz._output_grads):
        with pytest.raises(ValueError, match="shape"):
            run(c, thetas[:3], xs[:3], obs, [0.1, 0.1])
        with pytest.raises(ValueError, match="outside"):
            run(c, thetas[:2], xs[:2], obs, [0.1, 1.5])


def _cx_runs(n, noisy):
    """The CX-run entries of an n-qubit, L1 R1 circuit's `_schedule`."""
    c = build_circuit(n, 1, 1, 1)
    return [op for op in ansatz._schedule(c, noisy) if op[0] == ansatz._CX]


def _cx_run_unitary(op, d, n):
    """The dense product of the CX gates (q, q + 1) a CX-run entry merges:
    its gather spans sites first to last + 1, d^(last - first + 2) entries."""
    _, first, index = op
    last = first + round(np.log(len(index)) / np.log(d)) - 2
    u = np.eye(2 ** n)
    for q in range(first, last + 1):
        u = embed_gate(ansatz.CX, (q, q + 1), n).real @ u
    return u


def _apply_entry(states, op, c, S, strengths, n):
    """One schedule entry, compiled by `_compiler` on ``states`` with a
    spare state of their shape, applied in place."""
    kernel, operands = ansatz._compiler(states, np.empty_like(states), c, S, strengths, n)(op)
    kernel(*operands)


def test_kernels_update_column_views_in_place():
    """The kernels act in place on a column slice, non-contiguous like the
    adjoint's psi half: each column gets the dense gate or Kraus channel,
    and the columns outside the slice keep their bits.  n = 1 and each
    last qubit check the sites with nothing before or after them."""
    rng = np.random.default_rng(30)
    for n in (1, 3, 4):
        _check_kernels_on_column_views(rng, n)


def _check_kernels_on_column_views(rng, n):
    r = 4
    base = rng.normal(size=(2 ** n, 2 * r + 1))
    half = rng.uniform(0, np.pi, r)
    stacked = np.stack((-np.sin(half), np.sin(half)))[:, None]  # S of `_angles`

    def ry(q):  # the kernel on the rows' `_pairs` view of q
        def kernel(rows):
            pair = ansatz._pairs(rows, n, 2)[q]
            ansatz._apply_ry_rows(pair, pair[:, ::-1], np.cos(half), stacked,
                                  np.empty_like(pair))
        return kernel

    def cx(op):
        return lambda rows: _apply_entry(rows, op, None, None, {}, n)

    ops = [(ry(q), [embed_gate(rotation_gate("y", 2 * h), (q,), n) for h in half])
           for q in range(n)]
    ops += [(cx(op), [_cx_run_unitary(op, 2, n)] * r) for op in _cx_runs(n, False)]
    for kernel, gates in ops:
        big = base.copy()
        kernel(big[:, :r])
        for j, u in enumerate(gates):
            assert np.max(np.abs(big[:, j] - (u @ base[:, j]).real)) <= 1e-12
        assert np.array_equal(big[:, r:], base[:, r:])

    # Pauli rows: each schedule entry, a CX's one gather included, against
    # the dense gate or Kraus channel on the rebuilt matrices.
    dim, p = 2 ** n, 0.3
    base = rng.normal(size=(dim * dim, 2 * r + 1))
    rhos = []
    for j in range(r):
        m = rng.normal(size=(dim, dim))
        rhos.append(m @ m.T / np.trace(m @ m.T))
        base[:, j] = pauli_coefficients(rhos[j])
    cos, sin = np.cos(2 * half)[None], np.sin(2 * half)  # full angles
    stacked = np.stack((-sin, sin))[None, :, None]
    cx = {op[1]: op for op in _cx_runs(n, True)}  # one CX per entry
    for q in range(n):
        ops = [(ansatz._RY, q, 0), (ansatz._NOISE, q, 1)]
        ops += [cx[q]] if q < n - 1 else []
        for op in ops:
            big = base.copy()
            view = big[:, :r]
            _apply_entry(view, op, cos, stacked, {1: 1 - p}, n)
            for j, rho in enumerate(rhos):
                if op[0] == ansatz._NOISE:
                    want = kraus_oracle(rho.astype(complex), p, q, n).real
                else:
                    gate, targets = ((rotation_gate("y", 2 * half[j]), (q,))
                                     if op[0] == ansatz._RY else (ansatz.CX, (q, q + 1)))
                    u = embed_gate(gate, targets, n).real
                    want = u @ rho @ u.T
                assert np.max(np.abs(from_pauli_coefficients(big[:, j]) - want)) <= 1e-12
            assert np.array_equal(big[:, r:], base[:, r:])


# Runs of 7, 4, 14 and 1 rows by kind: at 2q L2 D3 R1 (K = 6), a budget
# of three Pauli rows with their angles and their chunk's compiled sweeps
# cuts the run of four; statevector runs are cut under a budget of three
# statevector rows (the p = 0 case).
MIXED = np.array([0.0] * 7 + [0.1, 0.2, 0.1, 0.1] + [0.0] * 14 + [0.1])


def _chunk_cases(rng, c, mixed_chunks):
    """(noise_p, thetas, xs, chunk sizes under a budget of three rows of
    the batch's largest kind) for the two chunk tests; ``mixed_chunks``
    are the chunk sizes of the MIXED rows."""
    thetas = rng.uniform(0, 2 * np.pi, (11, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (11, 3))
    mixed = (MIXED, rng.uniform(0, 2 * np.pi, (len(MIXED), c.n_params)),
             rng.uniform(0, 2 * np.pi, (len(MIXED), 3)), mixed_chunks)
    return [(0.0, thetas, xs, [3, 3, 3, 2]), (0.1, thetas, xs, [3, 3, 3, 2]), mixed]


def _angle_bytes(c):
    """A row's `_angles`: c and S, then at most a gathered theta table and
    its names, or the x trig with its table and names."""
    return 40 * c.n_params + 32 * c.n_qubits + 8


def _row_bytes(c, noisy, adjoint):
    """A row's bytes in the chunk budget: two states (its own, and lam or a
    gather's spare), for an adjoint row 2K slab states (K for Pauli rows,
    whose slabs keep half sites) and the K/N (K/2N) of one qubit's
    gradient temporaries, the density check's states for a Pauli row, and
    its angles."""
    state, slabs = ansatz._fresh_rows(c, 1, noisy).nbytes, (2 - noisy) * c.n_params * adjoint
    return (state * (2 + slabs + ansatz._CHECK_STATES * noisy)
            + state * slabs // (2 * c.n_qubits) + _angle_bytes(c))


def _sweep_bytes(c, noisy, adjoint):
    """What a chunk's compiled sweeps take out of the budget: one
    ``_ENTRY_BYTES`` per schedule entry and column view of c and S, twice
    for an adjoint pass (its backward sweep and slot copies), and 16 more."""
    entries = 16 + (len(ansatz._schedule(c, noisy)) + 2 * c.n_params) * (1 + adjoint)
    return ansatz._ENTRY_BYTES * entries


def _check_chunks(c, cases, run, hook, row_bytes, adjoint, monkeypatch):
    """Each case run whole, then in chunks under a budget of three rows of
    its largest kind with that kind's compiled sweeps, counted at
    ``hook``: the chunk sizes are the case's, the bits the unchunked ones,
    and each chunk, in row order, holds rows of one kind, the kind it was
    run as, and stays under the budget with its kind's sweeps."""
    obs = z_observable(c.n_qubits)
    for p, thetas, xs, want in cases:
        whole = run(c, thetas, xs, obs, p)
        largest = bool(np.any(np.asarray(p) > 0))
        budget = 3 * row_bytes(largest) + _sweep_bytes(c, largest, adjoint)
        chunks = []
        engine = getattr(ansatz, hook)

        def counted(chunk, *args):
            chunks.append((chunk.rows.stop - chunk.rows.start, chunk.noisy))
            return engine(chunk, *args)

        monkeypatch.setattr(ansatz, hook, counted)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
        chunked = run(c, thetas, xs, obs, p)
        monkeypatch.undo()
        assert [rows for rows, _ in chunks] == want
        noisy = np.broadcast_to(np.asarray(p) > 0.0, len(thetas))
        start = 0
        for rows, kind in chunks:
            assert set(noisy[start:start + rows].tolist()) == {kind}
            assert rows * row_bytes(kind) + _sweep_bytes(c, kind, adjoint) <= budget
            start += rows
        for got, expected in zip(chunked, whole) if adjoint else [(chunked, whole)]:
            np.testing.assert_array_equal(got, expected)


def test_forward_many_chunks_rows_bitwise(monkeypatch):
    """Rows simulated in chunks under the byte budget give the unchunked
    bits; rows of mixed strengths are cut where the row kind changes.  A
    forward row holds two states, its own and lam or a gather's spare,
    the density check's states if it is a Pauli row, and its angles."""
    rng = np.random.default_rng(27)
    c = build_circuit(2, 2, 3, 1)
    _check_chunks(c, _chunk_cases(rng, c, [7, 3, 1, 14, 1]), forward_many, "_forward_rows",
                  lambda noisy: _row_bytes(c, noisy, False), False, monkeypatch)


def test_output_grads_chunks_rows_bitwise(monkeypatch):
    """Adjoint rows, 2K + 2 statevectors or K + 2 Pauli rows each (the
    slabs of a Pauli row keep half sites) plus the K/N or K/2N states of
    one qubit's gradient temporaries, stay under the byte budget and give
    the unchunked bits; rows of mixed strengths are cut where the row kind
    changes."""
    rng = np.random.default_rng(28)
    c = build_circuit(2, 2, 3, 1)
    _check_chunks(c, _chunk_cases(rng, c, [7, 3, 1, 14, 1]), ansatz._output_grads,
                  "_adjoint_rows", lambda noisy: _row_bytes(c, noisy, True), True, monkeypatch)


def test_forward_many_chunks_count_the_angles(monkeypatch):
    """A chunk's rotation angles count against the byte budget: at 4q L16
    R2 (K = 136) a row's angles take 5.4 KB against its 128 B state, so
    under a 1 MB budget 5000 rows, with one theta per row or one theta
    for all, peak within twice the budget, and give the unchunked bits."""
    rng = np.random.default_rng(41)
    c = build_circuit(4, 16, 16, 2)
    obs = z_observable(4)
    xs = rng.uniform(0, 2 * np.pi, (5000, 16))
    for thetas in (rng.uniform(0, 2 * np.pi, (5000, c.n_params)),
                   rng.uniform(0, 2 * np.pi, c.n_params)):
        whole = forward_many(c, thetas, xs, obs)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            chunked = forward_many(c, thetas, xs, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert peak < 2 << 20
        np.testing.assert_array_equal(chunked, whole)


def test_a_row_over_the_byte_cap_is_refused(monkeypatch):
    """A row of more than ``_ROW_BYTES``, counted in states of 8 d^n bytes
    (two for a forward row, its own and lam or a gather's spare; 2K + 2 +
    K/N for an adjoint statevector row, K + 2 + K/2N for an adjoint Pauli
    row; ``_CHECK_STATES`` more for a Pauli row's density check), raises
    CapacityError before any state is allocated; a row of exactly the cap
    runs.  Unpatched, a noisy
    adjoint row at 12 qubits, L1 R2 (6.875 GiB), is refused in the plan."""
    rng = np.random.default_rng(33)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    thetas = rng.uniform(0, 2 * np.pi, (3, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (3, 3))
    for run, adjoint in ((forward_many, False), (ansatz._output_grads, True)):
        for p, d in ((0.0, 2), (0.1, 4), ([0.0, 0.1, 0.0], 4)):
            state, slabs = 8 * d ** c.n_qubits, (4 // d) * c.n_params  # 2K or K
            row_bytes = state * (2 + ansatz._CHECK_STATES * (d == 4))
            if adjoint:
                row_bytes += state * slabs + state * slabs // (2 * c.n_qubits)
            monkeypatch.setattr(ansatz, "_ROW_BYTES", row_bytes)
            run(c, thetas, xs, obs, p)
            monkeypatch.setattr(ansatz, "_ROW_BYTES", row_bytes - 1)
            monkeypatch.setattr(ansatz, "_fresh_rows", None)  # nothing may be allocated
            with pytest.raises(CapacityError, match=f"needs {row_bytes} bytes"):
                run(c, thetas, xs, obs, p)
            monkeypatch.undo()
    big = build_circuit(12, 1, 1, 2)
    state = 8 * 4 ** 12
    pauli_row = (state * (big.n_params + 2 + ansatz._CHECK_STATES)
                 + state * big.n_params // (2 * 12))
    with pytest.raises(CapacityError, match=f"needs {pauli_row} bytes"):
        ansatz._chunk_plan(big, None, np.array([0.1]), adjoint=True)  # obs is never read


def test_output_grads_on_zero_rows():
    """No rows give empty outputs and an empty (0, K) gradient, like `forward_many`."""
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    for p in (0.0, 0.1):
        thetas, xs = np.zeros((0, c.n_params)), np.zeros((0, 2))
        values, grads = ansatz._output_grads(c, thetas, xs, obs, p)
        assert values.shape == forward_many(c, thetas, xs, obs, p).shape == (0,)
        assert grads.shape == (0, c.n_params)


def test_fold_once_then_gather_gives_the_bits_of_folding_the_rows():
    """`_fold` over a whole set, then gathered, equals `_fold` of the
    gathered rows bit for bit, one row, a few or none, for N = 1 (where
    numpy sums a row's columns pairwise) and for N > 1, fillers
    included; and the sums are the per-qubit sums of the encoding slots."""
    rng = np.random.default_rng(34)
    for n, d in ((1, 1), (1, 13), (2, 3), (3, 17), (4, 16)):
        c = build_circuit(n, 1, d, 1)
        xs = rng.uniform(-7.0, 7.0, (500, d))
        whole = ansatz._fold(c, xs)
        assert whole.shape == (500, n)
        for rows in ([], [5], [499, 0, 7, 7], list(range(0, 500, 3))):
            np.testing.assert_array_equal(ansatz._fold(c, xs[rows]), whole[rows])
        slots = np.zeros((500, c.encode_columns * n))
        slots[:, :d] = xs
        np.testing.assert_allclose(whole, slots.reshape(500, -1, n).sum(axis=1), rtol=0, atol=0)


def test_adjoint_leaves_the_plans_observable_form_unwritten():
    """The backward sweep runs on a fresh lam: a plan's shared observable
    form is unchanged after `_planned_grads`, a one-row Pauli chunk
    included, and a second call on the same bound chunks gives the first
    call's bits."""
    rng = np.random.default_rng(35)
    c = build_circuit(2, 2, 3, 1)
    a = rng.normal(size=(4, 4))
    obs = Observable(a + a.T)
    for p in ([0.1], [0.0], [0.1, 0.1], [0.0, 0.1, 0.0]):
        noise = np.array(p)
        plan = ansatz._chunk_plan(c, obs, noise, adjoint=True)
        forms = [form.copy() for _, _, form in plan]
        chunks = list(ansatz._prepare(c, plan, True))
        thetas = rng.uniform(0, 2 * np.pi, (len(p), c.n_params))
        sums = ansatz._fold(c, rng.uniform(0, 2 * np.pi, (len(p), 3)))
        first = ansatz._planned_grads(c, thetas, sums, chunks, len(p))
        for (_, _, form), saved in zip(plan, forms):
            np.testing.assert_array_equal(form, saved)
        second = ansatz._planned_grads(c, thetas, sums, chunks, len(p))
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


def test_noisy_schedule_merges_each_qubits_channels_up_to_its_next_cx():
    """`_schedule(c, True)` owes a qubit one channel for every `iter_gates`
    gate that touches it, fillers included, and pays them as one entry
    before each CX on that qubit and at the end of the circuit."""
    rng = np.random.default_rng(31)
    for _ in range(16):
        n, layers, r = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 3)))
        cols = int(rng.integers(1, 4))
        # D a multiple of N, and (for N > 1) one short of it: a filler slot.
        for d in sorted({n * cols, max(1, n * cols - 1)}):
            c = build_circuit(n, layers, d, r)
            ops = ansatz._schedule(c, True)
            gates = [targets for _, targets in iter_gates(c, np.zeros(c.n_params), np.zeros(d))]
            quiet = ansatz._schedule(c, False)
            assert ([op for op in ops if op[0] == ansatz._RY]
                    == [op for op in quiet if op[0] == ansatz._RY])
            # A noiseless CX chain is one gather of all n sites; a noisy CX,
            # between channels, one gather of its own two sites.
            blocks = (layers + 1) * r
            assert ([(a, len(j)) for kind, a, j in quiet if kind == ansatz._CX]
                    == [(0, 2 ** n)] * blocks * (n > 1))
            assert ([(a, len(j)) for kind, a, j in ops if kind == ansatz._CX]
                    == [(a, 16) for _ in range(blocks) for a in range(n - 1)])
            assert sorted(j for kind, _, j in ops if kind == ansatz._RY) == list(range(c.n_params))
            for q in range(n):
                touching = [i for i, t in enumerate(gates) if q in t]
                # Gates on q before each CX on q in the unfolded circuit.
                owed = [touching.index(i) for i in touching if len(gates[i]) == 2]
                paid, at_cx, cx_since_paid = 0, [], True
                for kind, a, j in ops:
                    if kind == ansatz._NOISE and a == q:
                        assert j >= 1 and cx_since_paid
                        paid, cx_since_paid = paid + j, False
                    elif kind == ansatz._CX and q in (a, a + 1):
                        at_cx.append(paid)
                        cx_since_paid = True
                assert at_cx == owed
                assert paid == len(touching)


def test_cx_run_gathers_are_the_dense_gates_and_backward_entries_undo_them():
    """Every CX-run entry of `_schedule`, n = 1 to 5, applied to random
    rows by its compiled `_gather`: statevector rows get the dense product of the run's
    CX gates, Pauli rows the matrices U rho U^T; the matching entry of the
    backward schedule gives the rows back exactly."""
    rng = np.random.default_rng(36)
    for n in range(1, 6):
        c = build_circuit(n, 1, n, 2)
        for noisy, d in ((False, 2), (True, 4)):
            ops = ansatz._schedule(c, noisy)
            back = ansatz._schedule(c, noisy, backward=True)[::-1]
            assert len(back) == len(ops)
            runs = [i for i, op in enumerate(ops) if op[0] == ansatz._CX]
            assert len(runs) == 4 * (n - 1 if noisy else n > 1)  # (L + 1) R chains
            if noisy:
                rhos = []
                for _ in range(3):
                    m = rng.normal(size=(2 ** n, 2 ** n))
                    rhos.append(m @ m.T / np.trace(m @ m.T))
                rows = np.stack([pauli_coefficients(rho) for rho in rhos], axis=1)
            else:
                rows = rng.normal(size=(2 ** n, 3))
            for i in runs:
                u = _cx_run_unitary(ops[i], d, n)
                states = rows.copy()
                _apply_entry(states, ops[i], None, None, {1: 1.0} if noisy else {}, n)
                for j in range(3):
                    if noisy:
                        got = from_pauli_coefficients(states[:, j])
                        want = u @ rhos[j] @ u.T
                    else:
                        got, want = states[:, j], u @ rows[:, j]
                    assert np.max(np.abs(got - want)) <= 1e-12
                assert back[i][:2] == ops[i][:2]
                _apply_entry(states, back[i], None, None, {1: 1.0} if noisy else {}, n)
                np.testing.assert_array_equal(states, rows)


def test_a_shared_theta_gives_the_bits_of_the_theta_repeated(monkeypatch):
    """One theta for many rows, whose unshifted angles `_angles` computes
    once, gives `forward_many` and `_output_grads` the bits of the same
    theta repeated per row: noiseless, at one p and at mixed strengths, and
    across chunk boundaries with a small byte budget."""
    rng = np.random.default_rng(37)
    c = build_circuit(2, 3, 3, 2)
    a = rng.normal(size=(4, 4))
    obs = Observable(a + a.T)
    xs = rng.uniform(0, 2 * np.pi, (len(MIXED), 3))
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    repeated = np.repeat(theta[None], len(MIXED), axis=0)
    # Three Pauli rows of a forward pass, then of an adjoint pass.
    for budget in (None, 3 * 8 * 4 ** 2, 3 * 8 * 4 ** 2 * (c.n_params + 2)):
        if budget is not None:
            monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
        for p in (0.0, 0.1, MIXED):
            np.testing.assert_array_equal(forward_many(c, theta, xs, obs, p),
                                          forward_many(c, repeated, xs, obs, p))
            for got, want in zip(ansatz._output_grads(c, theta, xs, obs, p),
                                 ansatz._output_grads(c, repeated, xs, obs, p)):
                np.testing.assert_array_equal(got, want)


def test_output_grads_are_the_bytes_of_the_per_ry_oracle(monkeypatch):
    """`_output_grads`, which contracts each qubit's slabs once per sweep,
    gives the bytes of `adjoint_rows_per_ry`, one contraction per trainable
    Ry: noiseless, at one p and at mixed strengths with p = 0 rows, per-row
    thetas and a shared theta, at 3q, at 1q L1, under Z and a random complex
    M, and across chunk boundaries under a budget of three Pauli rows."""
    rng = np.random.default_rng(44)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    three = build_circuit(3, 2, 5, 2)
    for c, obs in ((three, z_observable(3)), (three, Observable(a + a.conj().T)),
                   (build_circuit(1, 1, 1, 1), z_observable(1))):
        thetas = rng.uniform(0, 2 * np.pi, (len(MIXED), c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (len(MIXED), c.data_dim))
        budget = 3 * (c.n_params + 2) * ansatz._fresh_rows(c, 1, True).nbytes
        for theta in (thetas, thetas[0]):
            for p in (0.0, 0.1, MIXED):
                monkeypatch.setattr(ansatz, "_adjoint_rows", adjoint_rows_per_ry)
                want = ansatz._output_grads(c, theta, xs, obs, p)
                monkeypatch.undo()
                for chunk_bytes in (ansatz._CHUNK_BYTES, budget):
                    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", chunk_bytes)
                    got = ansatz._output_grads(c, theta, xs, obs, p)
                    monkeypatch.undo()
                    for g, w in zip(got, want):
                        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_output_grads_peak_within_the_chunk_budget_above_the_outputs(monkeypatch):
    """Under a 1 MB budget, an adjoint pass over many chunks peaks no more
    than 1.1 budgets above its outputs: the budget counts the slabs, the
    angles and the two half-slab temporaries of a qubit's gradient
    contraction, each chunk writes its rows of the outputs (held once) and
    keeps no state-sized sum buffer, and one noise strength for all rows is
    not expanded to a row vector.  At 4q L16 the outputs are 2.09 MiB."""
    rng = np.random.default_rng(62)
    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 1 << 20)
    for (n, layers, d, r), rows in (((2, 4, 2, 2), 4000), ((1, 1, 1, 1), 20000),
                                    ((4, 16, 16, 2), 2000)):
        c = build_circuit(n, layers, d, r)
        thetas = rng.uniform(0, 2 * np.pi, (rows, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (rows, d))
        tracemalloc.start()
        try:
            values, grads = ansatz._output_grads(c, thetas, xs, z_observable(n), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes - grads.nbytes <= 1.1 * (1 << 20), (n, layers, peak)


def test_pauli_rows_peak_within_the_chunk_budget_with_their_density_check(monkeypatch):
    """Under a 1 MB budget, forward and adjoint passes over 3000 Pauli rows
    of 3q L2 D3 R1 at p = 0.1 peak no more than 1.1 budgets above their
    outputs: the budget counts the states that the density check at the
    end of each forward sweep holds (`_check_pauli_rows`)."""
    rng = np.random.default_rng(63)
    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 1 << 20)
    c = build_circuit(3, 2, 3, 1)
    thetas = rng.uniform(0, 2 * np.pi, (3000, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (3000, 3))
    for run in (forward_many, ansatz._output_grads):
        tracemalloc.start()
        try:
            outputs = run(c, thetas, xs, z_observable(3), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(out.nbytes for out in (outputs if isinstance(outputs, tuple) else (outputs,)))
        assert peak - held <= 1.1 * (1 << 20), (run.__name__, peak)


# Shapes (n, L, D, R) of the memory grid: one qubit, a wide and a deep
# circuit, five qubits and the 4q L16 R2 image shape.
BUDGET_SHAPES = [(1, 1, 1, 1), (2, 4, 2, 2), (3, 2, 3, 1), (5, 2, 5, 1), (4, 16, 16, 2)]


@pytest.mark.parametrize("shape", BUDGET_SHAPES)
@pytest.mark.parametrize("noise", ["statevector", "pauli", "mixed"])
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("shared", [False, True])
def test_every_pass_peaks_within_the_chunk_budget_above_its_outputs(monkeypatch, shape, noise,
                                                                    adjoint, shared):
    """Under a 1 MB budget, a forward or an adjoint pass over about three
    budgets of rows, statevector, Pauli or both interleaved, with a theta
    per row or one for all, peaks no more than 1.1 budgets above its
    outputs: the plan counts every state a row holds (its own, lam or a
    gather's spare, the slabs and contraction temporaries of the adjoint,
    the density check of Pauli rows), its angles and its chunk's compiled
    sweeps."""
    budget = 1 << 20
    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
    rng = np.random.default_rng(64)
    n, layers, d, r = shape
    c = build_circuit(n, layers, d, r)
    noisy = noise != "statevector"
    state = 8 * (4 if noisy else 2) ** n
    slabs = (2 - noisy) * c.n_params if adjoint else 0
    row_bytes = state * (2 + slabs + ansatz._CHECK_STATES * noisy) + 40 * c.n_params
    rows = max(2, min(3 * budget // row_bytes, 8000))
    ps = {"statevector": 0.0, "pauli": 0.1,
          "mixed": np.where(np.arange(rows) % 7 < 3, 0.1, 0.0)}[noise]
    thetas = rng.uniform(0, 2 * np.pi, c.n_params if shared else (rows, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (rows, d))
    run, obs = ansatz._output_grads if adjoint else forward_many, z_observable(n)
    tracemalloc.start()
    try:
        outputs = run(c, thetas, xs, obs, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(out.nbytes for out in (outputs if adjoint else (outputs,)))
    assert peak - held <= 1.1 * budget, (rows, peak - held)


def test_composed_rotations_are_within_four_ulp_and_beat_the_rounded_sum():
    """The cosine and sine `_angles` composes for a shifted column, against
    a long-double reference of the exact sum theta + s, are within 4 ulp of
    1, and strictly closer than the cos and sin of the rounded sum, for
    statevector half angles and Pauli full angles, in every way rows name
    their theta and x: a theta per row, one theta for all rows, and every
    theta against every x, over many cycles of the xs and across the end
    of one.  The unshifted
    column is cos and sin of its theta exactly."""
    rng = np.random.default_rng(65)
    c = build_circuit(1, 1, 1, 1)  # column 1 is shifted by the one x
    rows = 20000
    ulp = np.finfo(float).eps
    for scale in (0.5, 1.0):
        thetas = rng.uniform(0, 2 * np.pi, (rows, 2))
        xs = rng.uniform(0, 8 * np.pi, (rows, 1))
        shared = thetas[:1]
        grid_thetas, grid_xs = thetas[:rows // 100], xs[:100]
        grid_rows = np.repeat(grid_thetas, 100, axis=0), np.tile(grid_xs, (rows // 100, 1))
        forms = [  # (thetas, sums, the slice of rows, total, each row's theta and x)
            (thetas, xs, slice(0, rows), rows, thetas, xs),
            (shared, xs, slice(0, rows), rows, np.repeat(shared, rows, axis=0), xs),
        ]
        # Many cycles of the 100 xs, and 20 rows across the end of one.
        for part in (slice(50, rows - 30), slice(90, 110)):
            forms.append((grid_thetas, grid_xs, part, rows, *(r[part] for r in grid_rows)))
        for named, sums, part, total, row_thetas, row_xs in forms:
            width = part.stop - part.start
            cos, S = np.empty((2, width)), np.empty((2, 2, 1, width))
            ansatz._angles(c, named, sums, part, total, scale, cos, S)
            np.testing.assert_array_equal(cos[0], np.cos(scale * row_thetas[:, 0]))
            np.testing.assert_array_equal(S[1, 0, 0], np.sin(scale * row_thetas[:, 0]))
            np.testing.assert_array_equal(S[0], -S[1])
            exact = (np.longdouble(scale) * row_thetas[:, 1].astype(np.longdouble)
                     + np.longdouble(scale) * row_xs[:, 0].astype(np.longdouble))
            want = np.cos(exact), np.sin(exact)
            rounded = scale * row_thetas[:, 1] + scale * row_xs[:, 0]
            for got, sum_route, ref in zip((cos[1], S[1, 1, 0]),
                                           (np.cos(rounded), np.sin(rounded)), want):
                error = np.max(np.abs(got.astype(np.longdouble) - ref))
                sum_error = np.max(np.abs(sum_route.astype(np.longdouble) - ref))
                assert error <= 4 * ulp, (scale, error)
                assert error < sum_error, (scale, error, sum_error)


@pytest.mark.parametrize("noise", [0.0, 0.1, "mixed"])
def test_a_row_has_the_same_bits_however_it_names_its_theta_and_x(monkeypatch, noise):
    """One (theta, x) row gives the same output and gradient bits in every
    form of row: a theta per row (the grid's rows shuffled), one theta
    shared by all rows, that theta repeated per row, and every theta
    against every probe x as a grid (`_forward_grid`, and the adjoint
    `_planned_grads` on the same naming); noiseless, at one p, and at
    strengths mixed by theta, whole and under a budget that cuts chunks
    inside and across cycles of the probes."""
    rng = np.random.default_rng(66)
    c = build_circuit(2, 2, 3, 2)
    a = rng.normal(size=(4, 4))
    obs = Observable(a + a.T)
    thetas = rng.uniform(0, 2 * np.pi, (5, c.n_params))
    probes = rng.uniform(0, 2 * np.pi, (4, 3))
    ps = np.array([0.0, 0.1, 0.0, 0.05, 0.1]) if noise == "mixed" else np.full(5, noise)
    rows_p = np.repeat(ps, len(probes))
    repeated, tiled = np.repeat(thetas, len(probes), axis=0), np.tile(probes, (len(thetas), 1))
    # Chunks of about three rows of one pass and kind, so of one to three
    # of the others: inside and across cycles of the four probes.
    budgets = [_sweep_bytes(c, noisy, adjoint) + 3 * _row_bytes(c, noisy, adjoint)
               for noisy, adjoint in ((False, False), (True, True))]
    for budget in [None] + budgets:
        if budget is not None:
            monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
        values, grads = ansatz._output_grads(c, repeated, tiled, obs, rows_p)
        np.testing.assert_array_equal(forward_many(c, repeated, tiled, obs, rows_p), values)
        grid = ansatz._forward_grid(c, thetas, probes, obs, ps)
        np.testing.assert_array_equal(grid.ravel(), values)
        plan = ansatz._chunk_plan(c, obs, rows_p, adjoint=True)
        named = ansatz._planned_grads(c, thetas, ansatz._fold(c, probes),
                                      ansatz._prepare(c, plan, True), len(rows_p))
        np.testing.assert_array_equal(named[0], values)
        np.testing.assert_array_equal(named[1], grads)
        order = rng.permutation(len(rows_p))
        shuffled = ansatz._output_grads(c, repeated[order], tiled[order], obs, rows_p[order])
        np.testing.assert_array_equal(shuffled[0], values[order])
        np.testing.assert_array_equal(shuffled[1], grads[order])
        for k, theta in enumerate(thetas):
            mine = slice(k * len(probes), (k + 1) * len(probes))
            np.testing.assert_array_equal(forward_many(c, theta, probes, obs, ps[k]),
                                          values[mine])
            shared = ansatz._output_grads(c, theta, probes, obs, ps[k])
            np.testing.assert_array_equal(shared[0], values[mine])
            np.testing.assert_array_equal(shared[1], grads[mine])
        monkeypatch.undo()


def test_bound_chunks_reused_step_after_step_give_the_bytes_of_fresh_calls(monkeypatch):
    """Adjoint chunks bound once and run for T steps, as the SGD loop runs
    them, give at every step the bytes of a fresh `_output_grads` call on
    the step's rows: statevector and Pauli rows across a chunk boundary,
    with the rows naming a theta each, one theta for all, or two thetas
    against four xs as a grid, in turn (against the fresh call's thetas
    repeated and xs tiled)."""
    rng = np.random.default_rng(67)
    c = build_circuit(3, 2, 5, 2)
    obs = z_observable(3)
    ps = np.array([0.1, 0.1, 0.0, 0.0, 0.0, 0.05, 0.05, 0.1])
    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 80_000)
    plan = ansatz._chunk_plan(c, obs, ps, adjoint=True)
    assert len(plan) > 3  # cut inside runs of one kind, not only between them
    chunks = list(ansatz._prepare(c, plan, True))
    for t in range(6):
        named, distinct = [(len(ps), len(ps)), (1, len(ps)), (2, 4)][t % 3]
        theta = rng.uniform(0, 2 * np.pi, (named, c.n_params))
        xs = rng.uniform(0, 2 * np.pi, (distinct, 5))
        got = ansatz._planned_grads(c, theta, ansatz._fold(c, xs), chunks, len(ps))
        thetas = np.repeat(theta, len(ps) // named, axis=0)
        want = ansatz._output_grads(c, thetas, np.tile(xs, (len(ps) // distinct, 1)), obs, ps)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), t


def test_a_shared_theta_is_checked_before_it_is_broadcast():
    """`_check_rows` tests one theta's finiteness and never broadcasts the
    theta to every x row (the rows name it, see `_angles`): at 4q L16 D16
    R2 (K = 136) against 20 000 rows it peaks under 1 MB, where a rows x K
    temporary of bools takes 2.7 MB.  A non-finite shared theta is still
    refused."""
    rng = np.random.default_rng(45)
    c = build_circuit(4, 16, 16, 2)
    obs = z_observable(4)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    xs = rng.uniform(0, 2 * np.pi, (20000, 16))
    tracemalloc.start()
    try:
        thetas, _, noise = ansatz._check_rows(c, theta, xs, obs, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert thetas.shape == (1, c.n_params) and noise.shape == (20000,)
    theta[7] = np.inf
    with pytest.raises(ValueError, match="thetas or xs contain non-finite entries"):
        ansatz._check_rows(c, theta, xs, obs, 0.0)


def test_one_theta_broadcasts_to_zero_rows():
    """A single theta with no x rows gives an empty (0,) output and an
    empty (0, K) gradient, as a (0, K) theta does."""
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    theta, xs = np.zeros(c.n_params), np.zeros((0, 2))
    for p in (0.0, 0.1):
        assert forward_many(c, theta, xs, obs, p).shape == (0,)
        values, grads = ansatz._output_grads(c, theta, xs, obs, p)
        assert values.shape == (0,) and grads.shape == (0, c.n_params)


def test_forward_many_shape_errors():
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    with pytest.raises(ValueError):
        forward_many(c, np.zeros((3, 4)), np.zeros((2, 2)), obs)
    with pytest.raises(ValueError):
        forward_many(c, np.zeros((3, 5)), np.zeros((3, 2)), obs)
    # Rows of more than two axes are refused by name, not read as rows of rows.
    one = build_circuit(1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"thetas must be 1-D or 2-D, got shape \(3, 2, 2\)"):
        forward_many(one, np.zeros((3, 2, 2)), np.ones((3, 1)), z_observable(1))
    with pytest.raises(ValueError, match=r"thetas must be 1-D or 2-D"):
        ansatz._output_grads(one, np.zeros((3, 2, 2)), np.ones((3, 1)), z_observable(1), 0.0)
    with pytest.raises(ValueError, match=r"xs must be 1-D or 2-D, got shape \(3, 1, 1\)"):
        forward_many(one, np.zeros(2), np.ones((3, 1, 1)), z_observable(1))


# --- dense unitaries ---------------------------------------------------------


def test_trainable_block_unitary_single_rotation():
    c = build_circuit(1, 1, 1, 1)
    theta = np.array([0.4, 1.3])
    u1 = trainable_block_unitary(c, theta, 1)
    np.testing.assert_allclose(u1, rotation_gate("y", 0.4), atol=1e-14)
    u2 = trainable_block_unitary(c, theta, 2)
    np.testing.assert_allclose(u2, rotation_gate("y", 1.3), atol=1e-14)


def test_encoding_unitary_pads_with_identity():
    c = build_circuit(2, 1, 3, 1)
    x = np.array([0.3, 0.9, 1.7])
    col0 = np.kron(rotation_gate("y", 0.3), rotation_gate("y", 0.9))
    col1 = np.kron(rotation_gate("y", 1.7), np.eye(2))
    np.testing.assert_allclose(encoding_unitary(c, x), col1 @ col0, atol=1e-13)


def test_circuit_unitary_reproduces_forward():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        c = build_circuit(n, int(rng.integers(1, 4)), int(rng.integers(1, 5)), 1)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, c.data_dim)
        u = circuit_unitary(c, theta, x)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)
        obs = z_observable(n)
        psi = u[:, 0]
        want = (psi.conj() @ obs.matrix @ psi).real
        assert forward(c, theta, x, obs) == pytest.approx(want, abs=1e-12)
