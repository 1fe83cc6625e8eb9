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
        return lambda rows: ansatz._apply_ry_rows(ansatz._pairs(rows, n, 2)[q],
                                                  np.cos(half), stacked)

    def cx(op):
        return lambda rows: ansatz._step(rows, ansatz._pairs(rows, n, 2), op, None, None, {})

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
            ansatz._step(view, ansatz._pairs(view, n, 4), op, cos, stacked, {1: 1 - p})
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
# of three Pauli rows with their angles holds four statevector forward rows
# and five adjoint ones, so the budget cuts runs of both kinds.
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


def _check_chunk_kinds(chunks, noise_p, budget, row_bytes):
    """Each (rows, noisy) chunk, in row order, holds rows of one kind, the
    kind it was run as, and stays under the budget in rows of that kind."""
    noisy = np.broadcast_to(np.asarray(noise_p) > 0.0, sum(rows for rows, _ in chunks))
    start = 0
    for rows, kind in chunks:
        assert set(noisy[start:start + rows].tolist()) == {kind}
        assert rows * row_bytes(kind) <= budget
        start += rows


def test_forward_many_chunks_rows_bitwise(monkeypatch):
    """Rows simulated in chunks under the byte budget give the unchunked
    bits; rows of mixed strengths are cut where the row kind changes."""
    rng = np.random.default_rng(27)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)

    def row_bytes(noisy):  # a state, the density check's states and 40 K bytes of angles
        state = ansatz._fresh_rows(c, 1, noisy).nbytes
        return state * (1 + ansatz._CHECK_STATES * noisy) + 40 * c.n_params

    for p, thetas, xs, want in _chunk_cases(rng, c, [7, 3, 1, 8, 6, 1]):
        whole = forward_many(c, thetas, xs, obs, p)
        budget = 3 * row_bytes(bool(np.any(np.asarray(p) > 0)))
        chunks = []
        forward_rows = ansatz._forward_rows

        def counted(circuit, cos, S, form, strengths):
            chunks.append((cos.shape[1], bool(strengths)))
            return forward_rows(circuit, cos, S, form, strengths)

        monkeypatch.setattr(ansatz, "_forward_rows", counted)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
        chunked = forward_many(c, thetas, xs, obs, p)
        monkeypatch.undo()
        assert [rows for rows, _ in chunks] == want
        _check_chunk_kinds(chunks, p, budget, row_bytes)
        np.testing.assert_array_equal(chunked, whole)


def test_output_grads_chunks_rows_bitwise(monkeypatch):
    """Adjoint rows, 2K + 2 statevectors or K + 2 Pauli rows each (the
    slabs of a Pauli row keep half sites) plus the K/N or K/2N states of
    one qubit's gradient temporaries, stay under the byte budget and give
    the unchunked bits; rows of mixed strengths are cut where the row kind
    changes."""
    rng = np.random.default_rng(28)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)

    def row_bytes(noisy):  # the states above and 40 K bytes of angles
        state, slabs = ansatz._fresh_rows(c, 1, noisy).nbytes, (2 - noisy) * c.n_params
        check = state * ansatz._CHECK_STATES * noisy
        return (state * (slabs + 2) + state * slabs // (2 * c.n_qubits) + check
                + 40 * c.n_params)

    for p, thetas, xs, want in _chunk_cases(rng, c, [7, 3, 1, 7, 7, 1]):
        values, grads = ansatz._output_grads(c, thetas, xs, obs, p)
        budget = 3 * row_bytes(bool(np.any(np.asarray(p) > 0)))
        chunks = []
        adjoint_rows = ansatz._adjoint_rows

        def counted(circuit, thetas, xs, form, strengths, grads):
            chunks.append((len(thetas), bool(strengths)))
            return adjoint_rows(circuit, thetas, xs, form, strengths, grads)

        monkeypatch.setattr(ansatz, "_adjoint_rows", counted)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
        chunked = ansatz._output_grads(c, thetas, xs, obs, p)
        monkeypatch.undo()
        assert [rows for rows, _ in chunks] == want
        _check_chunk_kinds(chunks, p, budget, row_bytes)
        np.testing.assert_array_equal(chunked[0], values)
        np.testing.assert_array_equal(chunked[1], grads)


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
    """A row of more than ``_ROW_BYTES``, 8 d^n bytes for a forward row and
    (2K + 2 + K/N) times that for an adjoint statevector row, (K + 2 +
    K/2N) times for an adjoint Pauli row, and ``_CHECK_STATES`` times more
    for a Pauli row's density check, raises CapacityError before any state
    is allocated; a row of exactly the cap runs.  Unpatched, a noisy
    adjoint row at 12 qubits, L1 R2 (6.875 GiB), is refused in the plan."""
    rng = np.random.default_rng(33)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    thetas = rng.uniform(0, 2 * np.pi, (3, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (3, 3))
    for run, adjoint in ((forward_many, False), (ansatz._output_grads, True)):
        for p, d in ((0.0, 2), (0.1, 4), ([0.0, 0.1, 0.0], 4)):
            state, slabs = 8 * d ** c.n_qubits, (4 // d) * c.n_params  # 2K or K
            row_bytes = state * (1 + ansatz._CHECK_STATES * (d == 4))
            if adjoint:
                row_bytes += state * (slabs + 1) + state * slabs // (2 * c.n_qubits)
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
    included, and a second call gives the first call's bits."""
    rng = np.random.default_rng(35)
    c = build_circuit(2, 2, 3, 1)
    a = rng.normal(size=(4, 4))
    obs = Observable(a + a.T)
    for p in ([0.1], [0.0], [0.1, 0.1], [0.0, 0.1, 0.0]):
        noise = np.array(p)
        plan = ansatz._chunk_plan(c, obs, noise, adjoint=True)
        forms = [form.copy() for _, _, form in plan]
        thetas = rng.uniform(0, 2 * np.pi, (len(p), c.n_params))
        sums = ansatz._fold(c, rng.uniform(0, 2 * np.pi, (len(p), 3)))
        first = ansatz._planned_grads(c, thetas, sums, plan)
        for (_, _, form), saved in zip(plan, forms):
            np.testing.assert_array_equal(form, saved)
        second = ansatz._planned_grads(c, thetas, sums, plan)
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
    rows by `_step`: statevector rows get the dense product of the run's
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
                pairs = ansatz._pairs(states, n, d)
                ansatz._step(states, pairs, ops[i], None, None, {1: 1.0} if noisy else {})
                for j in range(3):
                    if noisy:
                        got = from_pauli_coefficients(states[:, j])
                        want = u @ rhos[j] @ u.T
                    else:
                        got, want = states[:, j], u @ rows[:, j]
                    assert np.max(np.abs(got - want)) <= 1e-12
                assert back[i][:2] == ops[i][:2]
                ansatz._step(states, pairs, back[i], None, None, {1: 1.0} if noisy else {})
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


def test_a_shared_theta_is_checked_before_it_is_broadcast():
    """`_check_rows` tests one theta's finiteness before it broadcasts the
    theta to every x row: at 4q L16 D16 R2 (K = 136) against 20 000 rows it
    peaks under 1 MB, where a rows x K temporary of bools takes 2.7 MB.  A
    non-finite shared theta is still refused."""
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
    assert thetas.shape == (20000, c.n_params) and noise.shape == (20000,)
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
