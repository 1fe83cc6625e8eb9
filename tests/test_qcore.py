"""Gate algebra, state handling, and spectral norm checks.

Oracles used here are deliberately different code paths from the
implementation: a truncated matrix exponential for rotations, bitwise
dense embedding for multi-qubit gates, direct quadratic forms for
expectations, and a characteristic-polynomial root solver for the
spectral norm.  The gate-by-gate reference simulator that other test files
replay circuits through (``_oracles.apply_gate`` and ``expectation``) is
checked here against the same dense embedding and quadratic forms.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import apply_gate, expectation
from reupqnn.ansatz import _output_grads, build_circuit, forward_many
from reupqnn.comb import build_reuploading_comb, validate_comb
from reupqnn.qcore import (
    CapacityError,
    I2,
    NumericalIntegrityError,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QuantumState,
    _PSD_BLOCK,
    _check_density_rows,
    _forward_substitute,
    _psd_violations,
    embed_gate,
    kron,
    kron_all,
    rotation_gate,
    spectral_norm,
    z_observable,
)

PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# X (x) Z expanded by hand from the definition (qubit 0 is the left factor).
X_KRON_Z = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)


def exp_series_oracle(axis, angle, terms=20):
    """exp(-i angle P / 2) summed term by term, independent of rotation_gate."""
    a = -0.5j * angle * PAULIS[axis]
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def embed_oracle(gate, targets, n_qubits):
    """Dense embedding built from bit arithmetic alone.

    Entry (r, c) of the embedded operator is gate[r_t, c_t] when the
    non-target bits of r and c agree, else zero.  Qubit 0 is the most
    significant bit.
    """
    dim = 2 ** n_qubits
    shifts = [n_qubits - 1 - t for t in targets]
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            r_rest = r
            c_rest = c
            r_t = 0
            c_t = 0
            for s in shifts:
                r_t = (r_t << 1) | ((r >> s) & 1)
                c_t = (c_t << 1) | ((c >> s) & 1)
                r_rest &= ~(1 << s)
                c_rest &= ~(1 << s)
            if r_rest == c_rest:
                out[r, c] = gate[r_t, c_t]
    return out


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def char_poly_norm_oracle(m):
    """Spectral norm via Faddeev-LeVerrier coefficients of M^dag M."""
    a = m.conj().T @ m
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    mat = np.zeros_like(a)
    for k in range(1, n + 1):
        mat = a @ mat + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ mat) / k)
    roots = np.roots(np.array(coeffs))
    return float(np.sqrt(np.max(np.abs(roots))))


# --- rotation gates ---------------------------------------------------------


def test_rotation_gate_hand_values():
    ry_pi = rotation_gate("y", np.pi)
    np.testing.assert_allclose(ry_pi, [[0, -1], [1, 0]], atol=1e-15)
    rx_pi = rotation_gate("x", np.pi)
    np.testing.assert_allclose(rx_pi, [[0, -1j], [-1j, 0]], atol=1e-15)
    rz = rotation_gate("z", 0.7)
    np.testing.assert_allclose(
        rz, np.diag([np.exp(-0.35j), np.exp(0.35j)]), atol=1e-15
    )


def test_rotation_gate_zero_angle_is_exact_identity():
    for axis in "xyz":
        assert np.array_equal(rotation_gate(axis, 0.0), np.eye(2, dtype=complex))


def test_rotation_gate_matches_series_oracle():
    """200 random angles per axis against the truncated exponential."""
    rng = np.random.default_rng(11)
    for axis in "xyz":
        for _ in range(200):
            # series truncation only reaches 1e-10 accuracy inside (-pi, pi)
            angle = rng.uniform(-np.pi, np.pi)
            got = rotation_gate(axis, angle)
            want = exp_series_oracle(axis, angle)
            assert np.max(np.abs(got - want)) < 1e-10


def test_rotation_gate_unitary_and_additive():
    rng = np.random.default_rng(12)
    for _ in range(100):
        axis = "xyz"[rng.integers(3)]
        a = rng.uniform(-8, 8)
        b = rng.uniform(-8, 8)
        ga = rotation_gate(axis, a)
        np.testing.assert_allclose(ga.conj().T @ ga, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            ga @ rotation_gate(axis, b), rotation_gate(axis, a + b), atol=1e-12
        )


def test_rotation_gate_rejects_bad_input():
    with pytest.raises(ValueError):
        rotation_gate("w", 0.1)
    with pytest.raises(ValueError):
        rotation_gate("x", np.nan)
    with pytest.raises(ValueError):
        rotation_gate("y", np.inf)


# --- kron and embedding -----------------------------------------------------


def test_kron_hand_case():
    np.testing.assert_array_equal(kron(PAULI_X, PAULI_Z), X_KRON_Z)


def test_kron_all_matches_numpy_chain():
    rng = np.random.default_rng(13)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
    want = mats[0]
    for m in mats[1:]:
        want = np.kron(want, m)
    np.testing.assert_allclose(kron_all(mats), want, atol=1e-14)


def test_kron_capacity_guard():
    """An oversized product is refused before any factor is multiplied out:
    building the 13-qubit prefix alone would take 1 GiB."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            kron_all([I2] * 14)
        with pytest.raises(CapacityError):
            z_observable(14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kron_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kron(np.ones(3), I2)
    with pytest.raises(ValueError):
        kron_all([])


def test_embed_gate_single_qubit_positions():
    rng = np.random.default_rng(14)
    for qubit in range(3):
        g = random_unitary(rng, 2)
        got = embed_gate(g, (qubit,), 3)
        np.testing.assert_allclose(got, embed_oracle(g, (qubit,), 3), atol=1e-12)


def test_embed_gate_two_qubit_all_orderings():
    """Adjacent, gapped, and reversed targets against the bitwise oracle."""
    rng = np.random.default_rng(15)
    for targets in [(0, 1), (1, 2), (0, 2), (2, 0), (1, 0), (3, 1)]:
        n = max(targets) + 1 if max(targets) >= 3 else 3
        g = random_unitary(rng, 4)
        got = embed_gate(g, targets, n)
        np.testing.assert_allclose(got, embed_oracle(g, targets, n), atol=1e-12)


def test_embed_gate_target_validation():
    with pytest.raises(ValueError):
        embed_gate(np.eye(4), (0, 0), 3)
    with pytest.raises(ValueError):
        embed_gate(np.eye(2), (5,), 3)
    with pytest.raises(ValueError):
        embed_gate(np.eye(4), (0,), 3)  # gate dim vs target count


# --- states -----------------------------------------------------------------


def test_zero_state_layout():
    s = QuantumState.zero(2)
    np.testing.assert_array_equal(s.data, [1, 0, 0, 0])
    d = s.to_density()
    assert d.kind == "density"
    want = np.zeros((4, 4))
    want[0, 0] = 1
    np.testing.assert_array_equal(d.data, want)


def test_state_validation():
    with pytest.raises(NumericalIntegrityError):
        QuantumState(np.array([1.0, 1.0], dtype=complex), "pure")
    rho = np.array([[0.5, 0.0], [0.4, 0.5]], dtype=complex)  # not Hermitian
    with pytest.raises(NumericalIntegrityError):
        QuantumState(rho, "density")
    with pytest.raises(NumericalIntegrityError):
        QuantumState(np.diag([2.0, -1.0]).astype(complex), "density")
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 0, 0], dtype=complex), "pure")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
def test_states_reject_non_finite_entries(bad):
    """A NaN or infinite entry fails a pure state's norm test and a density
    matrix's Hermiticity test, on or off the diagonal, alone or in one row
    of a stack: always `NumericalIntegrityError`, never a `LinAlgError` from
    the factorization, and never accepted."""
    with pytest.raises(NumericalIntegrityError, match="norm"):
        QuantumState(np.array([bad, 0.0]), "pure")
    for i, j in [(0, 0), (0, 1), (1, 0)]:
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[i, j] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in the Hermiticity deviation
            with pytest.raises(NumericalIntegrityError, match="not Hermitian"):
                QuantumState(rho, "density")
            with pytest.raises(NumericalIntegrityError, match="not Hermitian"):
                _check_density_rows(np.stack([np.eye(2) / 2, rho]))


def test_one_positivity_test_serves_every_check(monkeypatch):
    """Noisy `forward_many` and `_output_grads`, a density `QuantumState`
    and `validate_comb` all decide positivity by one shifted Cholesky and
    none by eigvalsh: Pauli rows and a real comb factor as float64, a
    complex density matrix as complex128, and the caller's array keeps its
    bits."""
    positivity_calls = []  # the dtype of every matrix np.linalg.cholesky gets
    factor = np.linalg.cholesky

    def recording(a):
        positivity_calls.append(a.dtype)
        return factor(a)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh was called")

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(75)
    c = build_circuit(2, 2, 3, 2)
    thetas = rng.uniform(0, 2 * np.pi, (3, c.n_params))
    xs = rng.uniform(0, 2 * np.pi, (3, 3))
    forward_many(c, thetas, xs, z_observable(2), 0.1)
    _output_grads(c, thetas, xs, z_observable(2), 0.1)
    assert positivity_calls == [np.dtype(np.float64)] * 2

    positivity_calls.clear()
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    before = rho.tobytes()
    QuantumState(rho, "density")
    assert rho.tobytes() == before
    assert positivity_calls == [np.dtype(np.complex128)]

    positivity_calls.clear()
    c = build_circuit(1, 2, 1, 1)
    comb, teeth = build_reuploading_comb(c, rng.uniform(0, 2 * np.pi, c.n_params))
    assert validate_comb(comb, teeth).is_comb
    assert positivity_calls == [np.dtype(np.float64)]


def _one_cholesky_flags(mats, tol):
    """The positivity verdict of one np.linalg.cholesky call on the whole
    of H + tol*I, H the Hermitian part, in real arithmetic for a real
    stack: the unblocked reference of `_psd_violations`."""
    herm = 0.5 * (mats + np.conjugate(mats.swapaxes(-1, -2)))
    herm = herm + tol * np.eye(mats.shape[-1])
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return True
    return False


def _boundary_stack(rng, rows, d, lam_min, complex_entries):
    """(rows, d, d) Hermitian matrices of unit trace with lam_min as their
    least eigenvalue on a random direction."""
    out = []
    for _ in range(rows):
        a = rng.normal(size=(d, d))
        if complex_entries:
            a = a + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(a)
        spectrum = np.append(lam_min, (1 - lam_min) * rng.dirichlet(np.ones(d - 1)))
        h = (q * rng.permutation(spectrum)) @ q.conj().T
        out.append(0.5 * (h + h.conj().T))
    return np.stack(out)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_blocked_positivity_agrees_with_one_cholesky_at_both_floors(complex_entries):
    """Below, at and above one ``_PSD_BLOCK`` (a d that is no multiple of
    it, a multiple, a stack of two such matrices, and three panels whose
    trailing updates read substituted block rows), H with lambda_min =
    -floor * (1 +- 1e-6) at both floors gets the verdict of one Cholesky
    call on the whole matrix, and of its construction: the blocks factor
    the same H, rounded differently by about 1e-16*||H||."""
    rng = np.random.default_rng(76)
    block = _PSD_BLOCK
    cases = ((1, block // 2), (1, block), (1, block + 44), (1, 2 * block), (2, block + 44),
             (1, 3 * block + 44))
    for rows, d in cases:
        for floor in (1e-8, 1e-10):
            for factor in (1 + 1e-6, 1 - 1e-6):
                h = _boundary_stack(rng, rows, d, -floor * factor, complex_entries)
                flagged = "positivity" in _psd_violations(h, floor)
                assert flagged == _one_cholesky_flags(h, floor) == (factor > 1), (rows, d, floor)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_a_non_finite_entry_above_the_diagonal_fails_hermiticity(bad):
    """NaN or an infinity above the diagonal, in the first tile or in a
    far tile of a blocked matrix, real or complex: the stack fails the
    Hermiticity test (and is not factored), with no RuntimeWarning, and
    the caller's bytes are untouched."""
    rng = np.random.default_rng(77)
    for d in (8, _PSD_BLOCK + 44):
        for complex_entries in (False, True):
            if np.iscomplexobj(bad) and not complex_entries:
                continue
            h = _boundary_stack(rng, 1, d, 0.0, complex_entries)[0]
            for i, j in ((0, 1), (0, d - 1)):
                m = h.copy()
                m[i, j] = bad
                before = m.tobytes()
                assert _psd_violations(m, 1e-8)[0] == "hermiticity", (d, i, j)
                assert _psd_violations(m[None], 1e-10)[0] == "hermiticity"
                assert m.tobytes() == before


def test_blocked_positivity_holds_one_full_size_array():
    """On a 1024 x 1024 real positive definite matrix (8 MiB) the test
    peaks at one full-size array, its block triangle of H, plus one block
    row: the factor's block row is solved in place in H's, so the largest
    temporaries are a trailing product and a diagonal block's Cholesky
    buffers.  One np.linalg.cholesky call and its new factor would take 8
    MiB more.  The verdict is the unblocked one."""
    rng = np.random.default_rng(78)
    a = rng.normal(size=(1024, 1024))
    h = a @ a.T / 1024
    tracemalloc.start()
    try:
        violations = _psd_violations(h, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == ()
    assert peak <= h.nbytes + _PSD_BLOCK * 1024 * h.itemsize, peak


def _cholesky_factors(rng, rows, b, lam_min, complex_entries):
    """(rows, b, b) lower Cholesky factors of Hermitian matrices whose
    spectra run geometrically from 1 down to lam_min."""
    out = []
    for _ in range(rows):
        a = rng.normal(size=(b, b))
        if complex_entries:
            a = a + 1j * rng.normal(size=(b, b))
        q, _ = np.linalg.qr(a)
        h = (q * np.geomspace(1.0, lam_min, b)) @ q.conj().T
        out.append(np.linalg.cholesky(0.5 * (h + h.conj().T)))
    return np.stack(out)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_forward_substitution_is_backward_stable(complex_entries):
    """The blocked factor's triangular solve, on sizes either side of its
    row-by-row leaf and of ``_PSD_BLOCK``, for one column and a block row,
    one matrix and a stack, leaves ||L X - B||_F <= b*u*||L||_F*||X||_F
    (u = 2^-53) however ill-conditioned L, a Cholesky factor of spectrum 1
    down to 1 or to 1e-8."""
    rng = np.random.default_rng(80)
    u = 2.0 ** -53
    for b in (1, 15, 16, 17, 100, 256):
        for lam_min in (1.0, 1e-8):
            for width in (1, 768):
                for rows in (None, 3):
                    lower = _cholesky_factors(rng, rows or 1, b, lam_min, complex_entries)
                    rhs = rng.normal(size=(len(lower), b, width))
                    if complex_entries:
                        rhs = rhs + 1j * rng.normal(size=rhs.shape)
                    if rows is None:
                        lower, rhs = lower[0], rhs[0]
                    x = rhs.copy()
                    _forward_substitute(lower, x)
                    residual = np.linalg.norm(lower @ x - rhs, axis=(-2, -1))
                    scale = np.linalg.norm(lower, axis=(-2, -1)) * np.linalg.norm(x, axis=(-2, -1))
                    assert np.all(residual <= b * u * scale), (b, lam_min, width, rows)


def test_blocked_positivity_makes_no_lu_and_no_inverse(monkeypatch):
    """The blocked factor solves its block rows by substitution: with
    np.linalg.solve and np.linalg.inv raising, a 1024 real and a (2, 300,
    300) complex positive definite stack still pass."""
    def refuse(*args, **kwargs):
        raise AssertionError("the positivity test called an LU solve or an inverse")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(81)
    a = rng.normal(size=(1024, 1024))
    assert _psd_violations(a @ a.T / 1024, 1e-8) == ()
    c = rng.normal(size=(2, 300, 300)) + 1j * rng.normal(size=(2, 300, 300))
    assert _psd_violations(c @ c.conj().swapaxes(-1, -2) / 300, 1e-10) == ()


# --- apply_gate (the tests' gate-by-gate reference simulator) ----------------


def test_apply_gate_cx_flips_target_when_control_set():
    cx = embed_oracle(
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        (0, 1),
        2,
    )
    state = QuantumState(np.array([0, 0, 1, 0], dtype=complex), "pure")  # |10>
    out = apply_gate(state, cx[:4, :4].astype(complex), (0, 1))
    np.testing.assert_allclose(out.data, [0, 0, 0, 1], atol=1e-15)


def test_apply_gate_matches_dense_oracle_pure():
    rng = np.random.default_rng(16)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(rng.choice(n, size=k, replace=False).tolist())
        g = random_unitary(rng, 2 ** k)
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi /= np.linalg.norm(psi)
        state = QuantumState(psi, "pure")
        got = apply_gate(state, g, targets).data
        want = embed_oracle(g, targets, n) @ psi
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gate_matches_dense_oracle_density():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        targets = (int(rng.integers(n)),)
        g = random_unitary(rng, 2)
        a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        state = QuantumState(rho, "density")
        dense = embed_oracle(g, targets, n)
        got = apply_gate(state, g, targets).data
        want = dense @ rho @ dense.conj().T
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gate_rejects_non_unitary():
    state = QuantumState.zero(1)
    with pytest.raises(ValueError):
        apply_gate(state, np.array([[1, 0], [0, 2]], dtype=complex), (0,))


# --- observables and expectations -------------------------------------------


def test_z_observable_layout():
    np.testing.assert_array_equal(np.diag(z_observable(1).matrix).real, [1, -1])
    np.testing.assert_array_equal(
        np.diag(z_observable(2).matrix).real, [1, 1, -1, -1]
    )
    assert z_observable(3).norm == pytest.approx(1.0, abs=1e-12)
    assert z_observable(1).norm == 1.0


def test_observable_requires_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex))


def test_observable_rejects_non_finite_entries():
    """inf and nan entries fail with ValueError, before the Hermiticity test
    could warn on inf - inf or the SVD of the norm could fail on nan."""
    for bad in (np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                Observable(np.array([[bad, 0], [0, 1]], dtype=complex))


def test_expectation_quadratic_form_oracle():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dim = 2 ** n
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        obs = Observable(h)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        state = QuantumState(psi, "pure")
        want = (psi.conj() @ h @ psi).real
        assert expectation(state, obs) == pytest.approx(want, abs=1e-12)
        rho_state = state.to_density()
        want_tr = np.trace(rho_state.data @ h).real
        assert expectation(rho_state, obs) == pytest.approx(want_tr, abs=1e-12)


# --- spectral norm ----------------------------------------------------------


def test_spectral_norm_hand_values():
    assert spectral_norm(np.diag([3.0, -7.0]).astype(complex)) == pytest.approx(7.0, rel=1e-10)
    assert spectral_norm(PAULI_X) == pytest.approx(1.0, rel=1e-10)
    assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_spectral_norm_matches_char_poly_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if rng.integers(2):
            m = m + m.conj().T  # exercise Hermitian inputs too
        want = char_poly_norm_oracle(m)
        assert spectral_norm(m) == pytest.approx(want, rel=1e-8)


def test_spectral_norm_scaling():
    rng = np.random.default_rng(20)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    base = spectral_norm(m)
    assert spectral_norm(3.5 * m) == pytest.approx(3.5 * base, rel=1e-9)


def test_spectral_norm_rejects_bad_shapes():
    with pytest.raises(ValueError):
        spectral_norm(np.ones(4))
