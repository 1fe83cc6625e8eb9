"""Circuit layout arithmetic and the forward routes.

The single-qubit closed form is the main independent oracle: with one
qubit every gate is a y rotation, rotations about a shared axis add
their angles, and <Z> after rotating |0> by a total angle A is cos(A).
"""

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
from _oracles import apply_gate, expectation, kraus_oracle
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


def test_kernels_update_column_views_in_place():
    """The kernels act in place on a column slice, non-contiguous like the
    adjoint's psi half: each column gets the dense gate or Kraus channel,
    and the columns outside the slice keep their bits."""
    rng = np.random.default_rng(30)
    n, r = 3, 4
    base = rng.normal(size=(2 ** n, 2 * r + 1))
    half = rng.uniform(0, np.pi, r)
    ops = [(ansatz._apply_ry_rows, (q, np.cos(half), np.sin(half)),
            [embed_gate(rotation_gate("y", 2 * h), (q,), n) for h in half]) for q in range(n)]
    ops += [(ansatz._apply_cx_rows, (q, q + 1), [embed_gate(ansatz.CX, (q, q + 1), n)] * r)
            for q in range(n - 1)]
    for kernel, args, gates in ops:
        big = base.copy()
        kernel(big[:, :r], *args)
        for j, u in enumerate(gates):
            assert np.max(np.abs(big[:, j] - (u @ base[:, j]).real)) <= 1e-12
        assert np.array_equal(big[:, r:], base[:, r:])

    n, dim, p = 2, 4, 0.3
    base = rng.normal(size=(dim * dim, 2 * r + 1))
    for j in range(r):
        m = rng.normal(size=(dim, dim))
        base[:, j] = (m @ m.T / np.trace(m @ m.T)).ravel()
    for q in range(n):
        big = base.copy()
        ansatz._depolarize_rows(big[:, :r], n, q, p)
        for j in range(r):
            want = kraus_oracle(base[:, j].reshape(dim, dim).astype(complex), p, q, n)
            assert np.max(np.abs(big[:, j] - want.real.ravel())) <= 1e-12
        assert np.array_equal(big[:, r:], base[:, r:])


def test_forward_many_chunks_rows_bitwise(monkeypatch):
    """Rows simulated in chunks under the byte budget give the unchunked bits."""
    rng = np.random.default_rng(27)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    thetas = rng.uniform(0, 2 * np.pi, (11, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (11, 3))
    for p in (0.0, 0.1):
        whole = forward_many(c, thetas, xs, obs, p)
        row_bytes = ansatz._simulate_rows(c, thetas[:1], xs[:1], p).nbytes
        chunks = []
        expectations = ansatz._expectations

        def counted(circuit, thetas, *rest):
            chunks.append(len(thetas))
            return expectations(circuit, thetas, *rest)

        monkeypatch.setattr(ansatz, "_expectations", counted)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 3 * row_bytes)
        chunked = forward_many(c, thetas, xs, obs, p)
        monkeypatch.undo()
        assert chunks == [3, 3, 3, 2]
        np.testing.assert_array_equal(chunked, whole)


def test_output_grads_chunks_rows_bitwise(monkeypatch):
    """Adjoint rows, a noisy row with its K kept density rows, stay under the
    byte budget and give the unchunked bits."""
    rng = np.random.default_rng(28)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    thetas = rng.uniform(0, 2 * np.pi, (11, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (11, 3))
    for p in (0.0, 0.1):
        values, grads = ansatz._output_grads(c, thetas, xs, obs, p)
        row_bytes = ansatz._simulate_rows(c, thetas[:1], xs[:1], p).nbytes
        kept_rows = c.n_params + 2 if p else 2
        chunks = []
        adjoint_rows = ansatz._adjoint_rows

        def counted(circuit, thetas, *rest):
            chunks.append(len(thetas))
            return adjoint_rows(circuit, thetas, *rest)

        monkeypatch.setattr(ansatz, "_adjoint_rows", counted)
        monkeypatch.setattr(ansatz, "_CHUNK_BYTES", 3 * kept_rows * row_bytes)
        chunked = ansatz._output_grads(c, thetas, xs, obs, p)
        monkeypatch.undo()
        assert chunks == [3, 3, 3, 2]
        np.testing.assert_array_equal(chunked[0], values)
        np.testing.assert_array_equal(chunked[1], grads)


def test_output_grads_on_zero_rows():
    """No rows give empty outputs and an empty (0, K) gradient, like `forward_many`."""
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    for p in (0.0, 0.1):
        thetas, xs = np.zeros((0, c.n_params)), np.zeros((0, 2))
        values, grads = ansatz._output_grads(c, thetas, xs, obs, p)
        assert values.shape == forward_many(c, thetas, xs, obs, p).shape == (0,)
        assert grads.shape == (0, c.n_params)


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
            assert [op for op in ops if op[0] != ansatz._NOISE] == list(ansatz._schedule(c, False))
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


def test_forward_many_shape_errors():
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    with pytest.raises(ValueError):
        forward_many(c, np.zeros((3, 4)), np.zeros((2, 2)), obs)
    with pytest.raises(ValueError):
        forward_many(c, np.zeros((3, 5)), np.zeros((3, 2)), obs)


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
