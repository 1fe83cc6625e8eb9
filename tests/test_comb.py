"""Choi operators, the link product, and comb validation.

The double-loop Choi construction and a basis-by-basis contraction serve
as oracles; none of them share code with the implementation under test.
"""

import tracemalloc

import numpy as np
import pytest

from _oracles import partial_transpose
from reupqnn.ansatz import (
    build_circuit,
    encoding_unitary,
    forward,
    forward_many,
    trainable_block_unitary,
)
from reupqnn.comb import (
    ChoiOperator,
    CombReport,
    SystemLabel,
    build_reuploading_comb,
    choi_of_unitary,
    link_product,
    partial_trace,
    permute_systems,
    reuploading_comb_output,
    tensor,
    validate_comb,
)
from reupqnn.qcore import (
    CapacityError,
    NumericalIntegrityError,
    Observable,
    _check_density_rows,
    z_observable,
)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def choi_double_loop(u):
    """sum_ij |i><j| (x) U |i><j| U^dag, written as explicit loops."""
    d = u.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            out += np.kron(eij, u @ eij @ u.conj().T)
    return out


def random_psd_operator(rng, names, dims):
    total = int(np.prod(dims))
    a = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    systems = tuple(SystemLabel(n, d) for n, d in zip(names, dims))
    return ChoiOperator(systems, a @ a.conj().T)


def random_operator(rng, names, dims):
    """A general complex matrix: neither Hermitian nor symmetric."""
    total = int(np.prod(dims))
    a = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    return ChoiOperator(tuple(SystemLabel(n, d) for n, d in zip(names, dims)), a)


def link_product_by_definition(a, b):
    """tr_s[(A (x) 1_b) (1_a (x) B^{T_s})] with identity padding and a matmul."""
    shared = [n for n in a.names if n in b.names]
    a_only = tuple(s for s in a.systems if s.name not in shared)
    b_only = tuple(s for s in b.systems if s.name not in shared)
    union = [s.name for s in a_only] + shared + [s.name for s in b_only]

    def identity(systems):
        return ChoiOperator(systems, np.eye(int(np.prod([s.dim for s in systems]))))

    a_full = permute_systems(tensor(a, identity(b_only)), union)
    b_full = permute_systems(tensor(partial_transpose(b, shared), identity(a_only)), union)
    return partial_trace(ChoiOperator(a_full.systems, a_full.matrix @ b_full.matrix), shared)


def align(op, names):
    return permute_systems(op, names).matrix


# --- Choi construction ------------------------------------------------------


def test_choi_of_identity_hand_value():
    j = choi_of_unitary(np.eye(2, dtype=complex))
    v = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(j.matrix, np.outer(v, v), atol=1e-15)
    assert j.names == ("in", "out")


def test_choi_matches_double_loop_oracle():
    rng = np.random.default_rng(31)
    for dim in (2, 4):
        for _ in range(30):
            u = random_unitary(rng, dim)
            got = choi_of_unitary(u).matrix
            np.testing.assert_allclose(got, choi_double_loop(u), atol=1e-12)


def test_choi_rank_one_and_trace():
    rng = np.random.default_rng(32)
    u = random_unitary(rng, 4)
    j = choi_of_unitary(u)
    eigs = np.linalg.eigvalsh(j.matrix)
    assert eigs[-1] == pytest.approx(4.0, abs=1e-10)
    assert np.max(np.abs(eigs[:-1])) < 1e-10
    assert np.trace(j.matrix).real == pytest.approx(4.0, abs=1e-10)


def test_choi_rejects_non_unitary():
    with pytest.raises(ValueError):
        choi_of_unitary(np.diag([1.0, 2.0]).astype(complex))


def test_real_operators_stay_float64_and_complex_ones_complex128():
    """A real unitary, stored real or complex, has a float64 Choi operator,
    and so has the comb of every Ry + CX circuit; a unitary with an
    imaginary part gives complex128.  `ChoiOperator` stores a bool, int or
    float matrix as float64 and a complex one as complex128, whatever its
    imaginary part."""
    rng = np.random.default_rng(59)
    orthogonal = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    for u in (orthogonal, orthogonal + 0j):
        assert choi_of_unitary(u).matrix.dtype == np.float64
    assert choi_of_unitary(random_unitary(rng, 4)).matrix.dtype == np.complex128
    for n, layers in [(1, 1), (1, 4), (2, 2)]:
        c = build_circuit(n, layers, n, 2)
        comb, _ = build_reuploading_comb(c, rng.uniform(0, 2 * np.pi, c.n_params))
        assert comb.matrix.dtype == np.float64
    systems = (SystemLabel("a", 2),)
    for entries in ([[1, 0], [0, 1]], [[True, False], [False, True]], np.eye(2, dtype=np.float32)):
        assert ChoiOperator(systems, entries).matrix.dtype == np.float64
    for entries in (np.eye(2) + 0j, np.eye(2, dtype=np.complex64)):
        assert ChoiOperator(systems, entries).matrix.dtype == np.complex128


def _comb_chain_output(c, theta, x, obs, cast):
    """`reuploading_comb_output` written out, every Choi operator and the
    input state passed through ``cast`` first."""
    def choi(u, a, b):
        j = choi_of_unitary(u, a, b)
        return ChoiOperator(j.systems, cast(j.matrix))

    d = 1 << c.n_qubits
    rho = np.zeros((d, d))
    rho[0, 0] = 1.0
    acc = ChoiOperator((SystemLabel("w1", d),), cast(rho))
    u_enc = encoding_unitary(c, x)
    for layer in range(1, c.layers + 2):
        block = trainable_block_unitary(c, theta, layer)
        acc = link_product(acc, choi(block, f"w{2 * layer - 1}", f"w{2 * layer}"))
        if layer <= c.layers:
            acc = link_product(acc, choi(u_enc, f"w{2 * layer}", f"w{2 * layer + 1}"))
    return float(np.trace(acc.matrix @ obs.matrix).real)


def test_real_comb_chain_gives_the_bytes_of_its_complex_copy():
    """The float64 link-product chain of `reuploading_comb_output` gives
    the bytes of the same chain on + 0j copies of every Choi operator and
    of the input state, on random shapes up to 3 qubits."""
    rng = np.random.default_rng(60)
    for _ in range(24):
        n = int(rng.integers(1, 4))
        layers = int(rng.integers(1, (16 // n - 2) // 2 + 1))
        c = build_circuit(n, layers, int(rng.integers(1, 2 * n + 2)), int(rng.integers(1, 3)))
        obs = z_observable(n)
        if rng.integers(2):
            h = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            obs = Observable(h + h.conj().T)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        x = rng.uniform(0, 2 * np.pi, c.data_dim)
        got = reuploading_comb_output(c, theta, x, obs)
        assert got == _comb_chain_output(c, theta, x, obs, lambda m: m)
        want = _comb_chain_output(c, theta, x, obs, lambda m: m + 0j)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, layers)


def test_real_combs_are_built_and_validated_at_float64_size():
    """On the 1q L4 comb, 1024 x 1024 (8 MiB in float64): building it peaks
    under 9 MiB, and validating it under 11.5 MiB above the comb, one
    full-size array for the block triangle of its Hermitian part, factored
    in place, and two block rows of the factor."""
    c = build_circuit(1, 4, 1, 1)
    theta = np.random.default_rng(61).uniform(0, 2 * np.pi, c.n_params)
    tracemalloc.start()
    try:
        comb, teeth = build_reuploading_comb(c, theta)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = validate_comb(comb, teeth)
        validated = tracemalloc.get_traced_memory()[1] - comb.matrix.nbytes
    finally:
        tracemalloc.stop()
    assert comb.matrix.nbytes == 8 << 20 and report == CombReport(True, ())
    assert built <= 9 << 20
    assert validated <= 11.5 * (1 << 20)


# --- operator plumbing ------------------------------------------------------


def test_system_name_collision_rejected():
    rng = np.random.default_rng(33)
    a = random_psd_operator(rng, ("s",), (2,))
    b = random_psd_operator(rng, ("s",), (2,))
    with pytest.raises(ValueError):
        tensor(a, b)


def test_partial_trace_loop_oracle():
    rng = np.random.default_rng(34)
    op = random_psd_operator(rng, ("a", "b"), (2, 3))
    got = partial_trace(op, ("b",))
    want = np.zeros((2, 2), dtype=complex)
    m = op.matrix.reshape(2, 3, 2, 3)
    for k in range(3):
        want += m[:, k, :, k]
    np.testing.assert_allclose(got.matrix, want, atol=1e-13)
    assert got.names == ("a",)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(35)
    op = random_psd_operator(rng, ("a", "b", "c"), (2, 2, 3))
    once = partial_transpose(op, ("b",))
    twice = partial_transpose(once, ("b",))
    np.testing.assert_allclose(twice.matrix, op.matrix, atol=1e-13)


def test_permute_systems_round_trip():
    rng = np.random.default_rng(36)
    op = random_psd_operator(rng, ("a", "b", "c"), (2, 3, 2))
    perm = permute_systems(op, ("c", "a", "b"))
    assert perm.names == ("c", "a", "b")
    back = permute_systems(perm, ("a", "b", "c"))
    np.testing.assert_allclose(back.matrix, op.matrix, atol=1e-13)


def test_relabel_preserves_matrix():
    rng = np.random.default_rng(37)
    op = random_psd_operator(rng, ("a", "b"), (2, 2))
    renamed = op.relabel({"a": "x"})
    assert renamed.names == ("x", "b")
    np.testing.assert_array_equal(renamed.matrix, op.matrix)


# --- link product ------------------------------------------------------------


def test_link_product_composes_unitaries():
    """J_U * J_V over the shared wire equals the Choi of V after U."""
    rng = np.random.default_rng(38)
    for _ in range(25):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        ju = choi_of_unitary(u, "a", "b")
        jv = choi_of_unitary(v, "b", "c")
        got = link_product(ju, jv)
        want = choi_of_unitary(v @ u, "a", "c")
        np.testing.assert_allclose(align(got, ("a", "c")), want.matrix, atol=1e-10)


def test_link_product_applies_channel_to_state():
    rng = np.random.default_rng(39)
    for _ in range(25):
        u = random_unitary(rng, 2)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        state_op = ChoiOperator((SystemLabel("a", 2),), rho)
        out = link_product(state_op, choi_of_unitary(u, "a", "b"))
        np.testing.assert_allclose(out.matrix, u @ rho @ u.conj().T, atol=1e-10)


def test_link_product_commutes():
    rng = np.random.default_rng(40)
    for _ in range(50):
        a = random_psd_operator(rng, ("p", "q"), (2, 2))
        b = random_psd_operator(rng, ("q", "r"), (2, 2))
        ab = link_product(a, b)
        ba = link_product(b, a)
        np.testing.assert_allclose(
            align(ab, ("p", "r")), align(ba, ("p", "r")), atol=1e-10
        )


def test_link_product_associates():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = random_psd_operator(rng, ("s1", "s2"), (2, 2))
        b = random_psd_operator(rng, ("s2", "s3"), (2, 2))
        c = random_psd_operator(rng, ("s3", "s4"), (2, 2))
        left = link_product(link_product(a, b), c)
        right = link_product(a, link_product(b, c))
        np.testing.assert_allclose(
            align(left, ("s1", "s4")), align(right, ("s1", "s4")), atol=1e-10
        )


def test_link_product_disjoint_systems_is_tensor():
    rng = np.random.default_rng(42)
    a = random_psd_operator(rng, ("a",), (2,))
    b = random_psd_operator(rng, ("b",), (3,))
    got = link_product(a, b)
    np.testing.assert_allclose(got.matrix, np.kron(a.matrix, b.matrix), atol=1e-13)
    assert got.names == ("a", "b")


def test_link_product_full_overlap_gives_scalar():
    rng = np.random.default_rng(43)
    a = random_psd_operator(rng, ("a",), (3,))
    b = random_psd_operator(rng, ("a",), (3,))
    got = link_product(a, b)
    assert got.names == ()
    want = np.trace(a.matrix @ b.matrix.T)
    assert got.matrix.reshape(()) == pytest.approx(want, abs=1e-12)


def test_link_product_matches_its_defining_construction():
    """Two shared systems of dims 2 and 3, listed in different orders."""
    rng = np.random.default_rng(52)
    for _ in range(10):
        a = random_operator(rng, ("p", "s", "t"), (3, 2, 3))
        b = random_operator(rng, ("t", "q", "s"), (3, 2, 2))
        for x, y, names in ((a, b, ("p", "q")), (b, a, ("q", "p"))):
            got = link_product(x, y)
            want = link_product_by_definition(x, y)
            assert got.names == want.names == names
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)


def test_link_product_union_past_capacity_rejected():
    """The union a_only + shared + b_only is 128 * 2 * 300 > 2^16."""
    rng = np.random.default_rng(54)
    a = random_operator(rng, ("a", "s"), (128, 2))
    b = random_operator(rng, ("s", "b"), (2, 300))
    with pytest.raises(CapacityError, match="76800"):
        link_product(a, b)


def ones(names):
    """A 1x1 operator over dimension-1 systems, however many there are."""
    return ChoiOperator(tuple(SystemLabel(n, 1) for n in names), np.ones((1, 1)))


def test_operators_past_26_systems_rejected():
    """einsum has 52 labels, a row and a column one per system: a 26-system
    operator and a link product over a 26-system union work, 27 are refused."""
    op = ones([f"s{i}" for i in range(26)])
    assert partial_trace(op, ["s0"]).matrix.shape == (1, 1)
    with pytest.raises(CapacityError, match="27 systems"):
        ones([f"s{i}" for i in range(27)])
    a = ones([f"a{i}" for i in range(13)] + ["s"])
    assert link_product(a, ones([f"b{i}" for i in range(12)] + ["s"])).matrix.shape == (1, 1)
    with pytest.raises(CapacityError, match="27 systems"):
        link_product(a, ones([f"b{i}" for i in range(13)]))


def test_link_product_dim_mismatch_rejected():
    rng = np.random.default_rng(44)
    a = random_psd_operator(rng, ("a",), (2,))
    b = random_psd_operator(rng, ("a",), (3,))
    with pytest.raises(ValueError):
        link_product(a, b)


# --- comb construction and evaluation ----------------------------------------


def test_reuploading_comb_matches_forward():
    rng = np.random.default_rng(46)
    shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    for n, layers in shapes:
        for _ in range(4):
            d = int(rng.integers(1, n + 2))
            c = build_circuit(n, layers, d, int(rng.integers(1, 3)))
            theta = rng.uniform(0, 2 * np.pi, c.n_params)
            x = rng.uniform(0, 2 * np.pi, d)
            obs = z_observable(n)
            direct = forward(c, theta, x, obs)
            via_comb = reuploading_comb_output(c, theta, x, obs)
            assert via_comb == pytest.approx(direct, abs=1e-9)


def test_reuploading_comb_matches_forward_many_on_random_shapes():
    """Random noiseless (n, L, D, R) up to the 16 comb wire qubits n(2L + 2)."""
    rng = np.random.default_rng(48)
    shapes = []
    for _ in range(24):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, (16 // n - 2) // 2 + 1))
        shapes.append((n, layers, int(rng.integers(1, 2 * n + 2)), int(rng.integers(1, 3))))
    assert all(n * (2 * layers + 2) <= 16 for n, layers, _, _ in shapes)
    assert any(d % n for n, _, d, _ in shapes) and any(r == 2 for *_, r in shapes)
    for n, layers, d, r in shapes:
        c = build_circuit(n, layers, d, r)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        xs = rng.uniform(0, 2 * np.pi, (3, d))
        obs = z_observable(n)
        engine = forward_many(c, theta, xs, obs)
        for x, want in zip(xs, engine):
            assert abs(reuploading_comb_output(c, theta, x, obs) - want) <= 1e-9


def test_build_reuploading_comb_wire_layout():
    c = build_circuit(1, 2, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.zeros(c.n_params))
    assert comb.names == ("w1", "w2", "w3", "w4", "w5", "w6")
    assert teeth == [("w2", "w3"), ("w4", "w5")]


def test_validate_comb_accepts_constructed():
    rng = np.random.default_rng(47)
    # up to 1q L4, a 1024 x 1024 comb: ten wire qubits
    for n, layers in [(1, 1), (1, 2), (2, 1), (1, 1), (1, 2), (2, 1), (1, 4)]:
        c = build_circuit(n, layers, n, 1)
        theta = rng.uniform(0, 2 * np.pi, c.n_params)
        comb, teeth = build_reuploading_comb(c, theta)
        report = validate_comb(comb, teeth)
        assert isinstance(report, CombReport)
        assert report.is_comb, report.violations
        assert report.violations == ()


def test_validate_comb_flags_hermiticity():
    c = build_circuit(1, 1, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.zeros(2))
    bad = comb.matrix.copy()
    bad[0, 3] += 0.1
    report = validate_comb(ChoiOperator(comb.systems, bad), teeth)
    assert not report.is_comb
    assert "hermiticity" in report.violations


def test_validate_comb_flags_positivity():
    c = build_circuit(1, 1, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.array([0.3, 0.8]))
    eigvals, eigvecs = np.linalg.eigh(comb.matrix)
    vec = eigvecs[:, 0]  # kernel direction of the rank-one comb
    bad = comb.matrix - 0.1 * np.outer(vec, vec.conj())
    report = validate_comb(ChoiOperator(comb.systems, bad), teeth)
    assert not report.is_comb
    assert "positivity" in report.violations


def test_validate_comb_flags_causality():
    """A generic entangling unitary on both wires is no comb."""
    rng = np.random.default_rng(48)
    u = random_unitary(rng, 4)
    j = choi_double_loop(u)
    systems = tuple(SystemLabel(f"w{i}", 2) for i in range(1, 5))
    report = validate_comb(ChoiOperator(systems, j), [("w2", "w3")])
    assert not report.is_comb
    assert any(v.startswith("causality-level-") for v in report.violations)


def test_validate_comb_accepts_product_comb_on_unequal_wires():
    """J_U(p -> i) (x) J_V(o -> f) on dims (2, 2, 3, 3), systems out of causal order."""
    rng = np.random.default_rng(53)
    ju = choi_of_unitary(random_unitary(rng, 2), "p", "i")
    jv = choi_of_unitary(random_unitary(rng, 3), "o", "f")
    comb = permute_systems(tensor(jv, ju), ("o", "p", "f", "i"))
    assert comb.dims == (3, 2, 3, 2)
    assert validate_comb(comb, [("i", "o")]) == CombReport(True, ())


def test_validate_comb_flags_entangling_unitary_on_unequal_wires():
    """A unitary from (p, o) to (i, f) lets the tooth input i see the later input o."""
    rng = np.random.default_rng(53)
    j = choi_of_unitary(random_unitary(rng, 6)).matrix
    systems = (SystemLabel("p", 2), SystemLabel("o", 3), SystemLabel("i", 2), SystemLabel("f", 3))
    op = permute_systems(ChoiOperator(systems, j), ("o", "p", "f", "i"))
    assert validate_comb(op, [("i", "o")]) == CombReport(False, ("causality-level-2",))


def test_validate_comb_flags_normalization():
    rng = np.random.default_rng(50)
    for n, layers in [(1, 1), (1, 4)]:
        c = build_circuit(n, layers, 1, 1)
        comb, teeth = build_reuploading_comb(c, rng.uniform(0, 2 * np.pi, c.n_params))
        for scale in (1.5, 2.0):
            report = validate_comb(ChoiOperator(comb.systems, scale * comb.matrix), teeth)
            assert not report.is_comb
            # a scaled comb stays positive; only its normalization breaks
            assert report.violations == ("normalization",)


def test_validate_comb_flags_positivity_hidden_in_the_imaginary_part():
    """[[1, 2j], [-2j, 1]] has eigenvalues -1 and 3; its real part is the identity."""
    op = ChoiOperator((SystemLabel("p", 2), SystemLabel("f", 1)), [[1, 2j], [-2j, 1]])
    report = validate_comb(op, [])
    assert "positivity" in report.violations
    assert "hermiticity" not in report.violations


def test_validate_comb_flags_a_symmetric_imaginary_part_as_non_hermitian():
    """A comb plus i*B with B real symmetric: the real part is still the comb."""
    c = build_circuit(1, 1, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.array([0.3, 0.8]))
    bad = comb.matrix.astype(complex)
    bad[0, 3] += 0.1j
    bad[3, 0] += 0.1j
    assert validate_comb(ChoiOperator(comb.systems, bad.real), teeth) == CombReport(True, ())
    report = validate_comb(ChoiOperator(comb.systems, bad), teeth)
    assert not report.is_comb
    assert "hermiticity" in report.violations


@pytest.mark.parametrize("entry", [1.0 + 0.5j, 1.0])
def test_validate_comb_leaves_a_scalar_operator_untouched(entry):
    """A 1x1 matrix is its own contiguous transpose; the check must still copy it."""
    op = ChoiOperator((SystemLabel("p", 1), SystemLabel("f", 1)), [[entry]])
    validate_comb(op, [])
    assert op.matrix[0, 0] == entry


def test_validate_comb_factors_a_real_operator_in_real_arithmetic(cholesky_dtypes):
    rng = np.random.default_rng(54)
    c = build_circuit(1, 2, 1, 1)
    comb, teeth = build_reuploading_comb(c, rng.uniform(0, 2 * np.pi, c.n_params))
    assert not comb.matrix.imag.any()
    assert validate_comb(comb, teeth) == CombReport(True, ())
    assert cholesky_dtypes == [np.dtype(np.float64)]

    cholesky_dtypes.clear()
    assert validate_comb(choi_of_unitary(random_unitary(rng, 2), "p", "f"), []) == CombReport(True, ())
    assert cholesky_dtypes == [np.dtype(np.complex128)]


def test_validate_comb_reports_a_real_matrix_as_its_complex_copy(cholesky_dtypes):
    """A real matrix and the same matrix + 0j give one report, both factored as float64."""
    c = build_circuit(1, 1, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.array([0.3, 0.8]))
    real = comb.matrix.real
    kernel = np.linalg.eigh(real)[1][:, 0]
    not_hermitian = real.copy()
    not_hermitian[0, 3] += 0.1
    for matrix in (real, 1.5 * real, real - 0.1 * np.outer(kernel, kernel), not_hermitian):
        as_real = validate_comb(ChoiOperator(comb.systems, matrix), teeth)
        as_complex = validate_comb(ChoiOperator(comb.systems, matrix + 0j), teeth)
        assert as_real == as_complex
    assert set(cholesky_dtypes) == {np.dtype(np.float64)}


def _hermitian_with_spectrum(rng, eigenvalues, complex_entries):
    d = len(eigenvalues)
    a = rng.normal(size=(d, d))
    if complex_entries:
        a = a + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    h = (q * eigenvalues) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("full_rank", [False, True])
@pytest.mark.parametrize("lam_min", [-2e-8, -1.5e-8, -5e-9, 0.0, 1e-9])
def test_validate_comb_positivity_agrees_with_eigvalsh(complex_entries, full_rank, lam_min):
    """The positivity verdict is eigvalsh's: flagged iff lambda_min < -1e-8."""
    rng = np.random.default_rng(51)
    for d in (4, 16, 64, 256):
        # rank one or full positive part, plus lam_min on an orthogonal direction
        spectrum = rng.uniform(0.5, 1.0, d) if full_rank else np.eye(1, d)[0]
        spectrum[-1] = lam_min
        h = _hermitian_with_spectrum(rng, rng.permutation(spectrum), complex_entries)
        oracle = np.linalg.eigvalsh(h).min() < -1e-8
        assert oracle == (lam_min < -1e-8)
        systems = (SystemLabel("p", 2), SystemLabel("f", d // 2))
        report = validate_comb(ChoiOperator(systems, h), [])
        assert ("positivity" in report.violations) == oracle, (d, lam_min)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("d", [2, 4, 16, 64])
def test_both_positivity_floors_decide_a_thousandth_of_the_floor_away(complex_entries, d):
    """The one positivity test under both floors, 1e-10 in the density
    check and 1e-8 in `validate_comb`: lambda_min = -floor * (1 + 1e-3) is
    flagged and -floor * (1 - 1e-3) passes.  H has unit trace and norm at
    most 1 + floor, so the rounding of order 1e-16*||H|| the verdict is
    exact up to stays far inside the 1e-3 * floor margin."""
    rng = np.random.default_rng(58)
    systems = (SystemLabel("p", 2), SystemLabel("f", d // 2))
    for _ in range(50):
        for floor in (1e-10, 1e-8):
            for factor in (1 + 1e-3, 1 - 1e-3):
                lam_min = -floor * factor
                spectrum = np.append(lam_min, (1 - lam_min) * rng.dirichlet(np.ones(d - 1)))
                h = _hermitian_with_spectrum(rng, rng.permutation(spectrum), complex_entries)
                flagged = factor > 1
                if floor == 1e-8:
                    report = validate_comb(ChoiOperator(systems, h), [])
                    assert ("positivity" in report.violations) == flagged, (lam_min, report)
                elif flagged:
                    with pytest.raises(NumericalIntegrityError, match="eigenvalue below -1e-10"):
                        _check_density_rows(h[None])
                else:
                    _check_density_rows(h[None])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_validate_comb_rejects_non_finite_entries(bad):
    c = build_circuit(1, 1, 1, 1)
    comb, teeth = build_reuploading_comb(c, np.array([0.3, 0.8]))
    m = comb.matrix.astype(complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_comb(ChoiOperator(comb.systems, m), teeth)


def test_validate_comb_recomputed_conditions():
    """Independent recomputation of each accepted condition."""
    rng = np.random.default_rng(49)
    c = build_circuit(1, 2, 1, 1)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    comb, teeth = build_reuploading_comb(c, theta)
    m = comb.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-10
    # trace equals the product of input dims: w1 and the two tooth inputs
    assert np.trace(m).real == pytest.approx(8.0, abs=1e-8)
    assert validate_comb(comb, teeth).is_comb
